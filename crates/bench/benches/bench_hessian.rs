//! Multi-scale Hessian pipeline benchmarks: the fused, tiled, SIMD RDG
//! core against the unfused three-pass oracle (`rdg_full_reference`),
//! whole-frame and per scale.
//!
//! The fused core is bit-identical to the oracle (pinned by the
//! `fused_rdg_identity` property tests); this bench quantifies the
//! speedup. `rdg_serial/full_frame/1024` is directly comparable to the
//! same id in `BENCH_convolve.json`, which was recorded before the fusion
//! work and therefore doubles as the historical baseline.
//! `BENCH_hessian.json` is produced by running with
//! `CRITERION_JSON=BENCH_hessian.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imaging::fused::{fused_ridge_scale, FusedScratch};
use imaging::hessian::{
    accumulate_max_response, hessian_at_scale, ridge_response, HessianImages, HessianScratch,
    KernelCache,
};
use imaging::image::{Image, ImageF32, Roi};
use imaging::ridge::{rdg_full, rdg_full_reference, RdgBuffers, RdgConfig};

const SIZE: usize = 1024;
const SCALES: [f32; 3] = [1.5, 2.5, 4.0];

fn synthetic_u16(w: usize, h: usize) -> imaging::image::ImageU16 {
    Image::from_fn(w, h, |x, y| {
        let d = (x as f32 - y as f32).abs() / 1.5;
        (2000.0 - 900.0 * (-d * d / 2.0).exp()) as u16
    })
}

fn synthetic_f32(w: usize, h: usize) -> ImageF32 {
    Image::from_fn(w, h, |x, y| {
        let d = (x as f32 - y as f32).abs() / 2.0;
        2000.0 - 700.0 * (-d * d / 8.0).exp() + ((x * 7 + y * 13) % 32) as f32
    })
}

/// Whole-frame serial RDG: the fused core vs the unfused three-pass
/// oracle, warm buffers, recycled outputs (steady-state loop).
fn bench_rdg_engines(c: &mut Criterion) {
    let frame = synthetic_u16(SIZE, SIZE);
    let cfg = RdgConfig::default();

    let mut group = c.benchmark_group("rdg_serial");
    group.sample_size(10);
    let mut bufs = RdgBuffers::new(SIZE, SIZE);
    group.bench_with_input(BenchmarkId::new("full_frame", SIZE), &SIZE, |b, _| {
        b.iter(|| {
            let out = rdg_full(&frame, &cfg, &mut bufs);
            let pixels = out.ridge_pixels;
            bufs.recycle(out);
            pixels
        })
    });
    let mut ref_bufs = RdgBuffers::new(SIZE, SIZE);
    group.bench_with_input(
        BenchmarkId::new("full_frame_reference", SIZE),
        &SIZE,
        |b, _| {
            b.iter(|| {
                let out = rdg_full_reference(&frame, &cfg, &mut ref_bufs);
                let pixels = out.ridge_pixels;
                ref_bufs.recycle(out);
                pixels
            })
        },
    );
    group.finish();
}

/// Single-scale Hessian ridge accumulation: the fused single-pass tile
/// sweep vs the reference separable passes + full-frame response, per
/// scale of the default set.
fn bench_hessian_scale(c: &mut Criterion) {
    let src = synthetic_f32(SIZE, SIZE);
    let roi = Roi::full(SIZE, SIZE);

    let mut group = c.benchmark_group("hessian_scale");
    group.sample_size(10);

    let mut acc = ImageF32::new(SIZE, SIZE);
    let mut scratch = FusedScratch::new();
    let mut kernels = KernelCache::new();
    for &sigma in &SCALES {
        group.bench_with_input(BenchmarkId::new("fused", sigma), &sigma, |b, &sigma| {
            b.iter(|| {
                let (g, d1, d2) = kernels.get(sigma);
                fused_ridge_scale(&src, acc.as_mut_slice(), &mut scratch, g, d1, d2, roi);
            })
        });
    }

    let mut hessian = HessianImages {
        ixx: ImageF32::new(SIZE, SIZE),
        iyy: ImageF32::new(SIZE, SIZE),
        ixy: ImageF32::new(SIZE, SIZE),
    };
    let mut conv = HessianScratch::new(SIZE, SIZE);
    for &sigma in &SCALES {
        group.bench_with_input(BenchmarkId::new("reference", sigma), &sigma, |b, &sigma| {
            b.iter(|| {
                hessian_at_scale(&src, &mut hessian, &mut conv, roi, sigma);
                accumulate_max_response(&hessian, &mut acc, roi, ridge_response);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rdg_engines, bench_hessian_scale);
criterion_main!(benches);
