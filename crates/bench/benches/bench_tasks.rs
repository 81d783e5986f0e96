//! Criterion benches of the individual image-processing tasks — the
//! per-task computation-time profile underlying Table 2(b) and Fig. 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imaging::couples::{cpls_select, CplsConfig};
use imaging::enhance::{EnhConfig, EnhState};
use imaging::guidewire::{gw_extract_with, GwConfig, GwScratch};
use imaging::image::{ImageU16, Roi};
use imaging::markers::{mkx_extract, Marker, MkxBuffers, MkxConfig};
use imaging::registration::RigidTransform;
use imaging::ridge::{rdg_full, rdg_roi, RdgBuffers, RdgConfig};
use imaging::zoom::{zoom_band_with, ZoomConfig, ZoomScratch};
use xray::{SequenceConfig, SequenceGenerator};

const SIZE: usize = 256;

fn test_frame() -> imaging::image::ImageU16 {
    let seq = SequenceConfig {
        width: SIZE,
        height: SIZE,
        frames: 1,
        seed: 7,
        ..Default::default()
    };
    SequenceGenerator::new(seq).next().unwrap().image
}

fn bench_rdg(c: &mut Criterion) {
    let frame = test_frame();
    let cfg = RdgConfig::default();
    let mut bufs = RdgBuffers::new(SIZE, SIZE);
    let mut group = c.benchmark_group("rdg");
    group.sample_size(10);
    group.bench_function("full_frame", |b| {
        b.iter(|| rdg_full(&frame, &cfg, &mut bufs));
    });
    for kpx in [8usize, 16, 32] {
        let edge = ((kpx * 1000) as f64).sqrt() as usize;
        let roi = Roi::new(8, 8, edge.min(SIZE - 8), edge.min(SIZE - 8));
        group.bench_with_input(BenchmarkId::new("roi_kpx", kpx), &roi, |b, &roi| {
            b.iter(|| rdg_roi(&frame, roi, &cfg, &mut bufs));
        });
    }
    group.finish();
}

fn bench_mkx(c: &mut Criterion) {
    let frame = test_frame();
    let cfg = MkxConfig::default();
    let mut bufs = MkxBuffers::new(SIZE, SIZE);
    let mut group = c.benchmark_group("mkx");
    group.sample_size(10);
    group.bench_function("full_frame", |b| {
        b.iter(|| mkx_extract(&frame, frame.full_roi(), &cfg, &mut bufs));
    });
    group.finish();
}

fn bench_features(c: &mut Criterion) {
    let markers: Vec<Marker> = (0..24)
        .map(|i| Marker {
            x: (i % 6) as f64 * 40.0 + 10.0,
            y: (i / 6) as f64 * 40.0 + 10.0,
            strength: 50.0 + i as f32,
            scale: 2.0,
        })
        .collect();
    let cfg = CplsConfig {
        expected_distance: 40.0,
        distance_tolerance: 5.0,
        ..Default::default()
    };
    c.bench_function("cpls_select_24_candidates", |b| {
        b.iter(|| cpls_select(&markers, None, &cfg));
    });

    let map = imaging::image::ImageF32::from_fn(SIZE, SIZE, |x, y| {
        let d = (x as f64 - y as f64).abs();
        (100.0 * (-d * d / 8.0).exp()) as f32
    });
    let couple = imaging::couples::Couple {
        a: Marker {
            x: 40.0,
            y: 40.0,
            strength: 1.0,
            scale: 2.0,
        },
        b: Marker {
            x: 180.0,
            y: 180.0,
            strength: 1.0,
            scale: 2.0,
        },
        score: 0.0,
    };
    c.bench_function("gw_extract_140px", |b| {
        let mut scratch = GwScratch::new();
        b.iter(|| gw_extract_with(&map, &couple, &GwConfig::default(), &mut scratch));
    });
}

fn bench_enh_zoom(c: &mut Criterion) {
    let frame = test_frame();
    let mut state = EnhState::new(SIZE, SIZE);
    let t = RigidTransform {
        theta: 0.01,
        cx: 128.0,
        cy: 128.0,
        tx: 1.5,
        ty: -0.5,
    };
    let roi = Roi::new(64, 64, 128, 128);
    let mut group = c.benchmark_group("enh_zoom");
    group.sample_size(10);
    group.bench_function("enh_integrate_roi", |b| {
        let cfg = EnhConfig::default();
        let mut enhanced = ImageU16::new(roi.width, roi.height);
        b.iter(|| {
            let weight = state.next_weight(&cfg);
            state.accumulate(&frame, &t, roi, weight);
            state.commit();
            state.readout_into(roi, cfg.gain, &mut enhanced);
        });
    });
    group.bench_function("zoom_roi_to_256", |b| {
        let cfg = ZoomConfig {
            out_width: 256,
            out_height: 256,
            ..Default::default()
        };
        let mut out = ImageU16::new(cfg.out_width, cfg.out_height);
        let mut scratch = ZoomScratch::new();
        b.iter(|| zoom_band_with(&frame, roi, &cfg, &mut out, 0, cfg.out_height, &mut scratch));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rdg,
    bench_mkx,
    bench_features,
    bench_enh_zoom
);
criterion_main!(benches);
