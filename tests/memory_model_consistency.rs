//! Pins the `triplec::memory_model` per-pixel formulas against the actual
//! buffer allocations of `triplec-imaging`, so the Table-1 model cannot
//! silently drift from the implementation.

use triple_c::imaging::enhance::EnhState;
use triple_c::imaging::image::Image;
use triple_c::imaging::markers::{
    mkx_banded, mkx_extract, mkx_extract_reference, MkxBuffers, MkxConfig,
};
use triple_c::imaging::parallel::{StripeFault, StripePool};
use triple_c::imaging::ridge::{rdg_banded, rdg_full, rdg_roi_reference, RdgBuffers, RdgConfig};
use triple_c::imaging::zoom::{zoom_band_with, ZoomConfig, ZoomScratch};
use triple_c::pipeline::app::{AppConfig, AppState};
use triple_c::pipeline::executor::{process_frame, ExecutionPolicy};
use triple_c::platform::arch::ArchModel;
use triple_c::triplec::bandwidth_model::scenario_intra_task_bandwidth;
use triple_c::triplec::memory_model::{
    enh_intermediate_bytes, implementation_table, lookup, mkx_intermediate_bytes, per_pixel,
    rdg_intermediate_bytes, rdg_kernel_bytes, rdg_resident_bytes, rdg_tile_bytes,
    zoom_scratch_bytes, FrameGeometry, RDG_DEFAULT_SCALES,
};
use triple_c::triplec::{PredictContext, Scenario, Task, TaskSeries, TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

const W: usize = 128;
const H: usize = 96;

fn test_frame() -> Image<u16> {
    Image::from_fn(W, H, |x, y| {
        let d = (x as f32 - y as f32).abs();
        (2000.0 - 500.0 * (-d * d / 4.0).exp()) as u16
    })
}

#[test]
fn rdg_intermediate_formula_matches_fresh_buffers() {
    // Fresh buffers are the source and accumulator planes and nothing
    // else: the hysteresis trace keeps no frame-sized mask.
    let bufs = RdgBuffers::new(W, H);
    assert_eq!(
        bufs.byte_size(),
        W * H * per_pixel::RDG_INTERMEDIATE,
        "RDG per-pixel constant drifted from fresh RdgBuffers"
    );
    assert_eq!(per_pixel::RDG_INTERMEDIATE, 8);
}

#[test]
fn rdg_intermediate_formula_matches_warm_fused_buffers() {
    // After one default-config frame (no output recycling, so the pools
    // stay empty) the fused engine's working set must match the model's
    // full formula: per-pixel planes + tile ring + cached kernel taps. The
    // run list the trace grows is not counted.
    let mut bufs = RdgBuffers::new(W, H);
    let frame = test_frame();
    let out = rdg_full(&frame, &RdgConfig::default(), &mut bufs);
    assert!(out.ridge_pixels > 0, "the frame traces nothing");
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    let warm = rdg_intermediate_bytes(geom, &RDG_DEFAULT_SCALES);
    assert_eq!(
        bufs.byte_size(),
        warm,
        "RDG warm-state formula drifted from the fused engine's buffers"
    );
    // The oracle's five full-frame planes (20 B/px), its one-byte visited
    // mask and its own copy of the kernel taps exist only once it has run.
    let _out = rdg_roi_reference(&frame, frame.full_roi(), &RdgConfig::default(), &mut bufs);
    assert_eq!(
        bufs.byte_size(),
        warm + W * H * 21 + rdg_kernel_bytes(&RDG_DEFAULT_SCALES)
    );
}

#[test]
fn rdg_intermediate_formula_matches_warm_two_stripe_buffers() {
    // The second band brings one more tile ring and nothing frame-sized:
    // both bands work in the one set of per-pixel planes and trace their
    // own rows into their own run lists.
    let mut bufs = RdgBuffers::new(W, H);
    let frame = test_frame();
    let _out = rdg_banded(
        &StripePool::new(2),
        &frame,
        frame.full_roi(),
        &RdgConfig::default(),
        2,
        StripeFault::default(),
        &mut bufs,
    )
    .expect("an unfaulted band job panicked");
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    assert_eq!(
        bufs.byte_size(),
        rdg_intermediate_bytes(geom, &RDG_DEFAULT_SCALES) + rdg_tile_bytes(W, &RDG_DEFAULT_SCALES),
        "a second stripe must cost exactly one more tile ring"
    );
}

#[test]
fn rdg_resident_formula_matches_a_tracking_engine() {
    // Between frames a tracking engine holds the warm working set and one
    // parked output pair: the frame's one RDG call made it, and GW EXT,
    // which reads that call's accumulator, took none. (Two pairs, 12 B/px,
    // while GW EXT ran an RDG call of its own.) All three default scales
    // are warm from the first tracked frame on, whichever call folds 4.0.
    let sequence = SequenceGenerator::new(SequenceConfig {
        width: 160,
        height: 160,
        frames: 10,
        seed: 52,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    });
    let geom = FrameGeometry {
        width: 160,
        height: 160,
    };
    let cfg = AppConfig::default();
    let mut state = AppState::new(160, 160);
    let mut tracked = 0;
    for f in sequence {
        let out = process_frame(
            f.index,
            &f.image,
            &mut state,
            &cfg,
            &ExecutionPolicy::default(),
        );
        if out.record.task_time(Task::RdgRoi).is_some()
            && out.record.task_time(Task::GwExt).is_some()
        {
            tracked += 1;
            assert_eq!(
                state.rdg_bufs.byte_size(),
                rdg_resident_bytes(geom, &RDG_DEFAULT_SCALES),
                "frame {}",
                f.index
            );
        }
    }
    assert!(tracked >= 5, "only {tracked} tracked frames");
}

#[test]
fn rdg_output_formula_matches_actual_output() {
    let out = rdg_full(
        &test_frame(),
        &RdgConfig::default(),
        &mut RdgBuffers::new(W, H),
    );
    assert_eq!(
        out.byte_size(),
        W * H * per_pixel::RDG_OUTPUT,
        "RDG output formula drifted from RdgOutput"
    );
}

#[test]
fn mkx_intermediate_formula_tracks_buffers() {
    // Fresh buffers are the three per-pixel planes and nothing else.
    let mut bufs = MkxBuffers::new(W, H);
    assert_eq!(
        bufs.byte_size(),
        W * H * per_pixel::MKX_INTERMEDIATE,
        "MKX per-pixel constant drifted from fresh MkxBuffers"
    );
    assert_eq!(per_pixel::MKX_INTERMEDIATE, 12);
    // One fused call adds the width-linear tile ring and the kernel taps.
    let (frame, cfg) = (test_frame(), MkxConfig::default());
    mkx_extract(&frame, frame.full_roi(), &cfg, &mut bufs);
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    let warm = mkx_intermediate_bytes(geom, &cfg.scales);
    assert_eq!(
        bufs.byte_size(),
        warm,
        "MKX warm-state formula drifted from the fused engine's buffers"
    );
    // The table's MKX rows describe that warm set for the default scales.
    let table = implementation_table(geom, 64);
    for rdg_selected in [false, true] {
        for task in ["MKX_FULL", "MKX_ROI"] {
            assert_eq!(
                lookup(&table, task, rdg_selected).unwrap().intermediate,
                warm
            );
        }
    }
    // The oracle's five full-frame planes (20 B/px) and its own copy of
    // the kernel taps exist only once the oracle has run.
    mkx_extract_reference(&frame, frame.full_roi(), &cfg, &mut bufs);
    assert_eq!(
        bufs.byte_size(),
        warm + W * H * 20 + rdg_kernel_bytes(&cfg.scales)
    );
}

#[test]
fn mkx_intermediate_formula_matches_warm_banded_buffers() {
    // Every band of the blob sweep brings its own tile ring and nothing
    // frame-sized: the bands work in the one set of per-pixel planes. The
    // rings grow to the widest call and stay.
    let (frame, cfg) = (test_frame(), MkxConfig::default());
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    let pool = StripePool::new(2);
    let mut bufs = MkxBuffers::new(W, H);
    for (stripes, rings) in [(3, 3), (2, 3), (4, 4)] {
        mkx_banded(
            &pool,
            &frame,
            frame.full_roi(),
            &cfg,
            stripes,
            StripeFault::default(),
            &mut bufs,
        )
        .expect("an unfaulted band job panicked");
        assert_eq!(
            bufs.byte_size(),
            mkx_intermediate_bytes(geom, &cfg.scales)
                + (rings - 1) * rdg_tile_bytes(W, &cfg.scales),
            "after a {stripes}-stripe call each of {rings} bands must cost one tile ring"
        );
    }
}

#[test]
fn enh_intermediate_formula_matches_state() {
    // f32 accumulator plane plus the width-linear SIMD staging row.
    let state = EnhState::new(W, H);
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    assert_eq!(state.byte_size(), enh_intermediate_bytes(geom));
    assert_eq!(
        enh_intermediate_bytes(geom),
        W * H * per_pixel::ENH_INTERMEDIATE + W * 4
    );
}

#[test]
fn zoom_scratch_formula_matches_warm_scratch() {
    let src = test_frame();
    let cfg = ZoomConfig {
        out_width: 64,
        out_height: 48,
    };
    let mut out = Image::<u16>::new(cfg.out_width, cfg.out_height);
    let mut scratch = ZoomScratch::new();
    zoom_band_with(
        &src,
        src.full_roi(),
        &cfg,
        &mut out,
        0,
        cfg.out_height,
        &mut scratch,
    );
    assert_eq!(
        scratch.byte_size(),
        zoom_scratch_bytes(cfg.out_width),
        "ZOOM scratch formula drifted"
    );
}

#[test]
fn table_rows_use_the_pinned_formulas() {
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    let table = implementation_table(geom, 64);
    let rdg = lookup(&table, "RDG_FULL", true).unwrap();
    // Table rows describe the warm working set of the default scale set.
    let mut bufs = RdgBuffers::new(W, H);
    let _out = rdg_full(&test_frame(), &RdgConfig::default(), &mut bufs);
    assert_eq!(rdg.intermediate, bufs.byte_size());
    assert_eq!(rdg.input, W * H * 2);
    let enh = lookup(&table, "ENH", true).unwrap();
    assert_eq!(enh.intermediate, EnhState::new(W, H).byte_size());
    let zoom = lookup(&table, "ZOOM", true).unwrap();
    assert_eq!(zoom.intermediate, zoom_scratch_bytes(64));
}

#[test]
fn core_copies_match_the_values_their_owners_use() {
    // Core cannot depend on the imaging crate, so it holds copies of the
    // ZOOM display size and the RDG scale set; each must equal its owner's.
    let geom = FrameGeometry {
        width: W,
        height: H,
    };
    let series = [TaskSeries::new(Task::Reg, vec![2.0; 20])];
    let model = TripleC::train(&series, &[0; 20], TripleCConfig { geometry: geom });
    // The ZOOM row is what `ZoomConfig::default()` writes and warms.
    let cfg = ZoomConfig::default();
    let src = test_frame();
    let mut out = Image::<u16>::new(cfg.out_width, cfg.out_height);
    let mut scratch = ZoomScratch::new();
    zoom_band_with(
        &src,
        src.full_roi(),
        &cfg,
        &mut out,
        0,
        cfg.out_height,
        &mut scratch,
    );
    let table = model.memory_table();
    let zoom = lookup(&table, "ZOOM", true).unwrap();
    assert_eq!(zoom.output, cfg.out_width * cfg.out_height * 2);
    assert_eq!(zoom.intermediate, scratch.byte_size());
    // RDG's pass count in the bandwidth model is the length of the scale
    // set `RdgConfig::default()` sweeps, on the platform model's L2.
    let scales = RdgConfig::default().active_scales();
    assert_eq!(scales, RDG_DEFAULT_SCALES);
    let scenario = Scenario::worst_case();
    let predicted = model.predict_frame(scenario, &PredictContext::default(), 0.5);
    let l2 = ArchModel::default().l2.capacity;
    assert_eq!(
        predicted.intra_task_bw,
        scenario_intra_task_bandwidth(scenario, geom, 0.5, l2, scales.len())
    );
}
