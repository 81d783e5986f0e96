//! Task memory requirements (Table 1).
//!
//! "The required amount of memory for each task can be derived by
//! extracting the input/output requirements and intermediate storage
//! requirement from a reference software implementation." (Section 5.1)
//!
//! Two tables are provided: the paper's published Table 1 (its reference
//! implementation at 1024x1024, 2 B/pixel) and the table derived from
//! *this* repository's implementation, whose intermediates are `f32`
//! (hence larger). The byte formulas here mirror the buffer allocations of
//! `triplec-imaging`; an integration test pins them against the actual
//! `byte_size()` reports so the model cannot drift from the code.

/// Frame geometry of the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameGeometry {
    /// Frame width, pixels.
    pub width: usize,
    /// Frame height, pixels.
    pub height: usize,
}

impl FrameGeometry {
    /// The paper's geometry: 1024x1024 pixels.
    pub const PAPER: FrameGeometry = FrameGeometry {
        width: 1024,
        height: 1024,
    };

    /// Pixels per frame.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Bytes of one u16 detector frame (2 B/pixel, as in the paper).
    pub fn frame_bytes(&self) -> usize {
        self.pixels() * 2
    }
}

/// Memory requirement of one task variant, bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskMemory {
    /// Task name (Fig. 2 naming).
    pub task: &'static str,
    /// The RDG-select switch state this row applies to (`None` = either).
    pub rdg_selected: Option<bool>,
    /// Input buffer bytes.
    pub input: usize,
    /// Intermediate storage bytes.
    pub intermediate: usize,
    /// Output buffer bytes.
    pub output: usize,
}

impl TaskMemory {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.input + self.intermediate + self.output
    }

    /// Whether the task's intermediate storage exceeds a cache capacity
    /// (the criterion for intra-task swap traffic, Section 5.2).
    pub fn overflows(&self, cache_capacity: usize) -> bool {
        self.intermediate > cache_capacity
    }
}

const KB: usize = 1024;

/// The paper's Table 1 (bytes; the paper prints KB).
pub fn paper_table1() -> Vec<TaskMemory> {
    vec![
        TaskMemory {
            task: "RDG_FULL",
            rdg_selected: None,
            input: 2048 * KB,
            intermediate: 7168 * KB,
            output: 5120 * KB,
        },
        TaskMemory {
            task: "RDG_ROI",
            rdg_selected: None,
            input: 2048 * KB,
            intermediate: 5120 * KB,
            output: 5120 * KB,
        },
        TaskMemory {
            task: "MKX_FULL",
            rdg_selected: Some(false),
            input: 512 * KB,
            intermediate: 512 * KB,
            output: 2560 * KB,
        },
        TaskMemory {
            task: "MKX_ROI",
            rdg_selected: Some(false),
            input: 512 * KB,
            intermediate: 512 * KB,
            output: 2560 * KB,
        },
        TaskMemory {
            task: "MKX_FULL",
            rdg_selected: Some(true),
            input: 4608 * KB,
            intermediate: 512 * KB,
            output: 2560 * KB,
        },
        TaskMemory {
            task: "MKX_ROI",
            rdg_selected: Some(true),
            input: 4608 * KB,
            intermediate: 512 * KB,
            output: 2560 * KB,
        },
        TaskMemory {
            task: "ENH",
            rdg_selected: None,
            input: 2048 * KB,
            intermediate: 8192 * KB,
            output: 1024 * KB,
        },
        TaskMemory {
            task: "ZOOM",
            rdg_selected: None,
            input: 1024 * KB,
            intermediate: 4096 * KB,
            output: 4096 * KB,
        },
    ]
}

/// Per-pixel byte costs of this repository's implementation. These mirror
/// the buffer allocations in `triplec-imaging` exactly:
///
/// * RDG intermediate: `src_f32` (4) + response accumulator (4) = 8 B/px.
///   The hysteresis trace works on runs of row pixels and keeps no mask.
///   The fused single-pass Hessian core streams Ixx/Iyy/Ixy through a
///   tile-height ring of rows, so the former full-frame Hessian planes and
///   convolution scratch (20 B/px in the pre-fusion implementation) are
///   replaced by the *width-linear* [`rdg_tile_bytes`] term. Recycled
///   output images parked in the buffer pools add to the measured
///   `byte_size()` once frames are returned but are excluded here;
///   [`rdg_intermediate_bytes`] gives the exact warm working set and
///   [`rdg_resident_bytes`] what a pipeline engine holds between frames.
///   Striping
///   adds nothing frame-sized: all bands of a `k`-stripe call share these
///   planes, and each band beyond the first brings its own ring
///   (`(k - 1) ×` [`rdg_tile_bytes`]) and a run list that grows with the
///   structure it traces.
/// * MKX intermediate: `src_f32` (4) + multi-scale blob-response maximum
///   (4) + per-pixel winning scale (4) = 12 B/px. MKX runs the same fused
///   sweep as RDG with the blob response in place of the ridge one, so its
///   per-scale intermediates are one [`rdg_tile_bytes`] ring as well;
///   [`mkx_intermediate_bytes`] gives the exact warm working set.
/// * RDG output: filtered u16 (2) + ridgeness f32 (4) = 6 B/px.
/// * ENH intermediate: the f32 temporal accumulator = 4 B/px, plus the
///   width-linear SIMD staging row ([`enh_intermediate_bytes`] adds it).
/// * ZOOM intermediate: width-linear only — the per-output-column
///   bilinear tap plan plus the two pooled horizontally-resolved rows
///   ([`zoom_scratch_bytes`]).
pub mod per_pixel {
    /// RDG intermediate bytes/pixel (fused engine; see [`super::rdg_tile_bytes`]
    /// for the additional width-linear ring-buffer term).
    pub const RDG_INTERMEDIATE: usize = 8;
    /// RDG output bytes/pixel (filtered + ridgeness).
    pub const RDG_OUTPUT: usize = 6;
    /// MKX intermediate bytes/pixel (fused engine; see
    /// [`super::mkx_intermediate_bytes`] for the width-linear ring term).
    pub const MKX_INTERMEDIATE: usize = 12;
    /// ENH intermediate bytes/pixel (f32 accumulator).
    pub const ENH_INTERMEDIATE: usize = 4;
}

/// The RDG scale set active under `RdgConfig::default()` (coarse scales
/// 1.5 and 2.5 plus the fine scale 4.0, which is enabled by default);
/// `tests/memory_model_consistency.rs` pins it to
/// `RdgConfig::default().active_scales()`.
pub const RDG_DEFAULT_SCALES: [f32; 3] = [1.5, 2.5, 4.0];

/// The MKX scale set of `MkxConfig::default()`; the table's MKX rows are
/// pinned to the real default by `tests/memory_model_consistency.rs`.
const MKX_DEFAULT_SCALES: [f32; 2] = [1.5, 2.5];

/// Gaussian-derivative kernel radius for `sigma` — must match
/// `Kernel1D::gaussian*` in `triplec-imaging` (`ceil(3*sigma)`, min 1).
fn kernel_radius(sigma: f32) -> usize {
    ((3.0 * sigma).ceil() as usize).max(1)
}

/// Bytes of the fused engine's tile ring buffers at `width` for the
/// largest scale in `scales`: three `(2r+1)`-row f32 rings (row-filtered
/// `src*g`, `src*d1`, `src*d2`). The Hessian components themselves live
/// only in registers. Grow-only, so the warm size is set by the maximum
/// radius. One ring set per row band: a serial call holds one, a `k`-stripe
/// call `k` (each full frame width, whatever the ROI).
pub fn rdg_tile_bytes(width: usize, scales: &[f32]) -> usize {
    let r = scales.iter().map(|&s| kernel_radius(s)).max().unwrap_or(0);
    let ring_rows = 2 * r + 1;
    3 * ring_rows * width * std::mem::size_of::<f32>()
}

/// Bytes of cached Gaussian-derivative kernel taps for `scales` (three
/// kernels of `2r+1` f32 taps per scale, held in the bounded kernel cache).
pub fn rdg_kernel_bytes(scales: &[f32]) -> usize {
    scales
        .iter()
        .map(|&s| 3 * (2 * kernel_radius(s) + 1) * std::mem::size_of::<f32>())
        .sum()
}

/// Exact warm intermediate working set of serial (one-band) RDG at `geom`
/// running `scales`: the per-pixel planes plus the width-linear tile ring
/// and the cached kernel taps; a `k`-stripe call adds `(k - 1) ×`
/// [`rdg_tile_bytes`]. Both pinned against the implementation's actual
/// `RdgBuffers::byte_size()` by an integration test.
pub fn rdg_intermediate_bytes(geom: FrameGeometry, scales: &[f32]) -> usize {
    geom.pixels() * per_pixel::RDG_INTERMEDIATE
        + rdg_tile_bytes(geom.width, scales)
        + rdg_kernel_bytes(scales)
}

/// What a pipeline engine's `RdgBuffers` holds between frames once it has
/// run RDG with `scales`: the warm working set plus one parked output pair
/// ([`per_pixel::RDG_OUTPUT`]). One, not two: a frame has one RDG call,
/// and GW EXT samples that call's response accumulator (sweeping only what
/// the accumulator lacks over its corridor's box) without output images of
/// its own. Pinned against a tracking `AppState` by an integration test.
pub fn rdg_resident_bytes(geom: FrameGeometry, scales: &[f32]) -> usize {
    rdg_intermediate_bytes(geom, scales) + geom.pixels() * per_pixel::RDG_OUTPUT
}

/// Exact warm intermediate working set of serial (one-band) MKX at `geom`
/// running `scales`: the per-pixel planes plus one tile ring
/// ([`rdg_tile_bytes`]) and the cached kernel taps; a `k`-stripe blob
/// sweep adds `(k - 1) ×` [`rdg_tile_bytes`], one ring per band, as RDG's
/// does. Both pinned against the implementation's actual
/// `MkxBuffers::byte_size()` by an integration test.
pub fn mkx_intermediate_bytes(geom: FrameGeometry, scales: &[f32]) -> usize {
    geom.pixels() * per_pixel::MKX_INTERMEDIATE
        + rdg_tile_bytes(geom.width, scales)
        + rdg_kernel_bytes(scales)
}

/// Bytes of ENH's width-linear staging row: the warp/sample stage resolves
/// each source row into one f32 row that the SIMD EWMA kernel consumes.
fn enh_row_bytes(width: usize) -> usize {
    width * std::mem::size_of::<f32>()
}

/// Exact warm intermediate working set of ENH at `geom`: the per-pixel
/// f32 accumulator plus the staging row. Pinned against the
/// implementation's `EnhState::byte_size()` by an integration test.
pub fn enh_intermediate_bytes(geom: FrameGeometry) -> usize {
    geom.pixels() * per_pixel::ENH_INTERMEDIATE + enh_row_bytes(geom.width)
}

/// Per-output-column plan-entry bytes of the separable zoom: two u32
/// source indices + two f32 weights.
const ZOOM_PLAN_BYTES: usize = 16;

/// ZOOM output edge length, pixels: the display size `ZoomConfig::default()`
/// renders (pinned by `tests/memory_model_consistency.rs`).
pub const ZOOM_OUT: usize = 512;

/// Exact warm scratch of the separable bilinear ZOOM at `out_width`: the
/// per-column tap plan plus two pooled horizontally-resolved f32 rows.
/// Width-linear — the former 2D per-pixel form had no scratch but
/// recomputed every horizontal tap twice. Pinned against
/// `ZoomScratch::byte_size()` by an integration test.
pub fn zoom_scratch_bytes(out_width: usize) -> usize {
    out_width * ZOOM_PLAN_BYTES + 2 * out_width * std::mem::size_of::<f32>()
}

/// The table derived from this repository's implementation at `geom`.
///
/// `roi_fraction` scales the ROI-variant rows' *output* processing region
/// (buffers themselves are allocated full-frame, as in the paper, which is
/// why RDG ROI keeps a full-size input); `zoom_out` is the ZOOM output
/// edge length.
pub fn implementation_table(geom: FrameGeometry, zoom_out: usize) -> Vec<TaskMemory> {
    let px = geom.pixels();
    let frame = geom.frame_bytes();
    let rdg_out = px * per_pixel::RDG_OUTPUT;
    let rdg_intermediate = rdg_intermediate_bytes(geom, &RDG_DEFAULT_SCALES);
    let mkx_intermediate = mkx_intermediate_bytes(geom, &MKX_DEFAULT_SCALES);
    vec![
        TaskMemory {
            task: "RDG_FULL",
            rdg_selected: None,
            input: frame,
            intermediate: rdg_intermediate,
            output: rdg_out,
        },
        TaskMemory {
            task: "RDG_ROI",
            rdg_selected: None,
            input: frame,
            intermediate: rdg_intermediate,
            output: rdg_out,
        },
        TaskMemory {
            task: "MKX_FULL",
            rdg_selected: Some(false),
            input: frame,
            intermediate: mkx_intermediate,
            output: frame,
        },
        TaskMemory {
            task: "MKX_FULL",
            rdg_selected: Some(true),
            input: rdg_out,
            intermediate: mkx_intermediate,
            output: frame,
        },
        TaskMemory {
            task: "MKX_ROI",
            rdg_selected: Some(false),
            input: frame,
            intermediate: mkx_intermediate,
            output: frame,
        },
        TaskMemory {
            task: "MKX_ROI",
            rdg_selected: Some(true),
            input: rdg_out,
            intermediate: mkx_intermediate,
            output: frame,
        },
        TaskMemory {
            task: "ENH",
            rdg_selected: None,
            input: frame,
            intermediate: enh_intermediate_bytes(geom),
            output: frame,
        },
        TaskMemory {
            task: "ZOOM",
            rdg_selected: None,
            input: frame / 2,
            intermediate: zoom_scratch_bytes(zoom_out),
            output: zoom_out * zoom_out * 2,
        },
    ]
}

/// Looks up a row by task name and switch state.
pub fn lookup<'a>(
    table: &'a [TaskMemory],
    task: &str,
    rdg_selected: bool,
) -> Option<&'a TaskMemory> {
    table
        .iter()
        .find(|m| m.task == task && m.rdg_selected == Some(rdg_selected))
        .or_else(|| {
            table
                .iter()
                .find(|m| m.task == task && m.rdg_selected.is_none())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_matches_published_values() {
        let t = paper_table1();
        let rdg = lookup(&t, "RDG_FULL", true).unwrap();
        assert_eq!(rdg.input, 2048 * KB);
        assert_eq!(rdg.intermediate, 7168 * KB);
        assert_eq!(rdg.output, 5120 * KB);
        let mkx_no = lookup(&t, "MKX_FULL", false).unwrap();
        assert_eq!(mkx_no.input, 512 * KB);
        let mkx_yes = lookup(&t, "MKX_FULL", true).unwrap();
        assert_eq!(mkx_yes.input, 4608 * KB);
    }

    #[test]
    fn frame_geometry_basics() {
        let g = FrameGeometry::PAPER;
        assert_eq!(g.pixels(), 1 << 20);
        assert_eq!(g.frame_bytes(), 2 * KB * KB);
    }

    #[test]
    fn implementation_table_scales_with_geometry() {
        let small = implementation_table(
            FrameGeometry {
                width: 256,
                height: 256,
            },
            128,
        );
        let large = implementation_table(
            FrameGeometry {
                width: 512,
                height: 512,
            },
            128,
        );
        let s = lookup(&small, "RDG_FULL", true).unwrap();
        let l = lookup(&large, "RDG_FULL", true).unwrap();
        assert_eq!(l.input, 4 * s.input);
        // The RDG intermediate splits into a quadratic per-pixel part, a
        // width-linear tile-ring part and a constant kernel-tap part.
        let taps = rdg_kernel_bytes(&RDG_DEFAULT_SCALES);
        let tile_s = rdg_tile_bytes(256, &RDG_DEFAULT_SCALES);
        let tile_l = rdg_tile_bytes(512, &RDG_DEFAULT_SCALES);
        assert_eq!(tile_l, 2 * tile_s, "tile ring is width-linear");
        assert_eq!(
            s.intermediate,
            256 * 256 * per_pixel::RDG_INTERMEDIATE + tile_s + taps
        );
        assert_eq!(
            l.intermediate,
            512 * 512 * per_pixel::RDG_INTERMEDIATE + tile_l + taps
        );
        // MKX runs the same engine on its own scale set.
        let ms = lookup(&small, "MKX_FULL", false).unwrap();
        let ml = lookup(&large, "MKX_FULL", false).unwrap();
        let taps = rdg_kernel_bytes(&MKX_DEFAULT_SCALES);
        let tile = rdg_tile_bytes(256, &MKX_DEFAULT_SCALES);
        assert_eq!(
            ms.intermediate,
            256 * 256 * per_pixel::MKX_INTERMEDIATE + tile + taps
        );
        assert_eq!(
            ml.intermediate,
            512 * 512 * per_pixel::MKX_INTERMEDIATE + 2 * tile + taps
        );
    }

    #[test]
    fn kernel_radius_matches_imaging_crate() {
        assert_eq!(kernel_radius(1.5), 5);
        assert_eq!(kernel_radius(2.5), 8);
        assert_eq!(kernel_radius(4.0), 12);
        assert_eq!(kernel_radius(0.1), 1);
    }

    #[test]
    fn fused_rdg_intermediate_is_smaller_than_prefusion() {
        // The pre-fusion implementation held three full-frame Hessian
        // planes plus two convolution scratch planes: 32 B/px. The fused
        // engine's extra cost is only width-linear, so at the paper's
        // geometry the intermediate drops well below half.
        let fused = rdg_intermediate_bytes(FrameGeometry::PAPER, &RDG_DEFAULT_SCALES);
        let prefusion = FrameGeometry::PAPER.pixels() * 32;
        assert!(fused < prefusion / 2);
    }

    #[test]
    fn mkx_input_grows_when_rdg_selected() {
        // the switch dependence the paper highlights: "if the RDG task is
        // switched off, the succeeding MKX function has a much smaller
        // input buffer requirement"
        let t = implementation_table(FrameGeometry::PAPER, ZOOM_OUT);
        let without = lookup(&t, "MKX_FULL", false).unwrap();
        let with = lookup(&t, "MKX_FULL", true).unwrap();
        assert!(with.input > without.input);
    }

    #[test]
    fn rdg_intermediate_overflows_paper_l2() {
        let t = implementation_table(FrameGeometry::PAPER, ZOOM_OUT);
        let rdg = lookup(&t, "RDG_FULL", true).unwrap();
        // 4 MB L2 of the paper's platform
        assert!(rdg.overflows(4 * KB * KB));
        // paper's own table rows overflow too (7168 KB > 4096 KB)
        let p = paper_table1();
        assert!(lookup(&p, "RDG_FULL", true).unwrap().overflows(4 * KB * KB));
        assert!(lookup(&p, "ENH", true).unwrap().overflows(4 * KB * KB));
        assert!(!lookup(&p, "MKX_FULL", false)
            .unwrap()
            .overflows(4 * KB * KB));
    }

    #[test]
    fn lookup_falls_back_to_switch_independent_rows() {
        let t = paper_table1();
        assert!(lookup(&t, "ENH", true).is_some());
        assert!(lookup(&t, "ENH", false).is_some());
        assert!(lookup(&t, "NOPE", true).is_none());
    }

    #[test]
    fn totals_sum_components() {
        let m = TaskMemory {
            task: "X",
            rdg_selected: None,
            input: 1,
            intermediate: 2,
            output: 3,
        };
        assert_eq!(m.total(), 6);
    }
}
