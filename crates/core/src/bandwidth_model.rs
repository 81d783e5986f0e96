//! Communication-bandwidth model (Section 5, Figs. 2 and 5).
//!
//! Two components:
//!
//! * **Inter-task bandwidth** — the buffers flowing over each edge of the
//!   flow graph, times the frame rate (the MByte/s annotations of Fig. 2).
//!   Which edges are live depends on the scenario.
//! * **Intra-task bandwidth** — tasks whose intermediate storage exceeds
//!   the L2 capacity swap data to external memory; modelled with the
//!   space-time buffer-occupation model of `triplec-platform` (Fig. 5).

use crate::memory_model::{per_pixel, FrameGeometry};
use crate::scenario::Scenario;
use platform::bandwidth::{Edge, Endpoint};
use platform::spacetime::{predict_traffic, BufferSpec, PassSpec, TaskAccessModel, TaskTraffic};
use platform::task::Task;

/// The application frame rate (30 Hz in the paper).
pub const FRAME_RATE_HZ: f64 = 30.0;

/// Builds the live inter-task edges of Fig. 2 for one scenario at the
/// given geometry. `roi_fraction` is the ROI area as a fraction of the
/// frame (1.0 = full frame).
pub fn scenario_edges(scenario: Scenario, geom: FrameGeometry, roi_fraction: f64) -> Vec<Edge> {
    let frame = geom.frame_bytes();
    let px = geom.pixels();
    let roi_frame = (frame as f64 * roi_fraction) as usize;
    let rdg_out = px * per_pixel::RDG_OUTPUT;
    let rdg_out_roi = (rdg_out as f64 * roi_fraction) as usize;

    let mut edges = Vec::new();
    if scenario.rdg_active {
        if scenario.roi_estimated {
            edges.push(Edge {
                from: Endpoint::Input,
                to: Endpoint::Task(Task::RdgRoi),
                bytes_per_frame: frame,
            });
            edges.push(Edge {
                from: Endpoint::Task(Task::RdgRoi),
                to: Endpoint::Task(Task::MkxExt),
                bytes_per_frame: rdg_out_roi,
            });
        } else {
            edges.push(Edge {
                from: Endpoint::Input,
                to: Endpoint::Task(Task::RdgFull),
                bytes_per_frame: frame,
            });
            edges.push(Edge {
                from: Endpoint::Task(Task::RdgFull),
                to: Endpoint::Task(Task::MkxExt),
                bytes_per_frame: rdg_out,
            });
        }
    } else {
        // RDG skipped: the (ROI of the) raw frame goes straight to MKX
        let bytes = if scenario.roi_estimated {
            roi_frame
        } else {
            frame
        };
        edges.push(Edge {
            from: Endpoint::Input,
            to: Endpoint::Task(Task::MkxExt),
            bytes_per_frame: bytes,
        });
    }
    // features to couples selection: negligible array traffic ("tasks that
    // operate on a subset or feature data are negligible", Section 5.1) —
    // modelled as a small fixed record stream.
    edges.push(Edge {
        from: Endpoint::Task(Task::MkxExt),
        to: Endpoint::Task(Task::CplsSel),
        bytes_per_frame: 4096,
    });
    edges.push(Edge {
        from: Endpoint::Task(Task::CplsSel),
        to: Endpoint::Task(Task::Reg),
        bytes_per_frame: 512,
    });
    // registration needs the current and reference frames (temporal diff)
    edges.push(Edge {
        from: Endpoint::Input,
        to: Endpoint::Task(Task::Reg),
        bytes_per_frame: frame,
    });
    if scenario.roi_estimated {
        edges.push(Edge {
            from: Endpoint::Task(Task::Reg),
            to: Endpoint::Task(Task::RoiEst),
            bytes_per_frame: 512,
        });
        // The edge of Fig. 2 taken literally: guide-wire extraction reads
        // the ridge map RDG made — its f32 response accumulator, not a copy
        // — and only inside the bounding box of its search corridor.
        edges.push(Edge {
            from: Endpoint::Task(Task::RoiEst),
            to: Endpoint::Task(Task::GwExt),
            bytes_per_frame: gw_corridor_box_pixels(px as f64 * roi_fraction) * 4,
        });
    }
    if scenario.reg_successful {
        // enhancement integrates the registered ROI of the input frame
        edges.push(Edge {
            from: Endpoint::Input,
            to: Endpoint::Task(Task::Enh),
            bytes_per_frame: roi_frame,
        });
        edges.push(Edge {
            from: Endpoint::Task(Task::Enh),
            to: Endpoint::Task(Task::Zoom),
            bytes_per_frame: roi_frame,
        });
        // zoomed output to display (half-frame display buffer)
        edges.push(Edge {
            from: Endpoint::Task(Task::Zoom),
            to: Endpoint::Output,
            bytes_per_frame: frame / 2,
        });
    }
    edges
}

/// Pixels of GW EXT's corridor box on a tracked ROI of `roi_pixels`, under
/// the default ROI EST and GW EXT configurations of `triplec-imaging`. ROI
/// EST gives a marker couple `len` pixels apart a ROI of edge `3·len + 32`
/// (margin factor 1, 16 px of margin either side); the corridor's box is the
/// couple's bounding box — at most `len` square — grown on every side by
/// the corridor half-width (8 samples, 1 px apart) and the far tap of the
/// bilinear sample.
fn gw_corridor_box_pixels(roi_pixels: f64) -> usize {
    let roi_edge = roi_pixels.sqrt();
    let len = ((roi_edge - 32.0) / 3.0).max(0.0);
    let box_edge = (len + 2.0 * (8.0 + 1.0)).min(roi_edge);
    (box_edge * box_edge) as usize
}

/// Total inter-task bandwidth of a scenario, bytes/s.
pub fn scenario_inter_task_bandwidth(
    scenario: Scenario,
    geom: FrameGeometry,
    roi_fraction: f64,
) -> f64 {
    scenario_edges(scenario, geom, roi_fraction)
        .iter()
        .map(|e| e.bandwidth(FRAME_RATE_HZ))
        .sum()
}

/// The RDG FULL access model for the space-time analysis (Fig. 5):
/// buffers A (input + f32 conversion), B (Hessian components per scale),
/// C (accumulator + outputs), with one pass per subtask per scale.
pub fn rdg_access_model(geom: FrameGeometry, scales: usize) -> TaskAccessModel {
    let px = geom.pixels();
    let buffers = vec![
        BufferSpec {
            name: "input u16",
            bytes: px * 2,
        }, // 0
        BufferSpec {
            name: "src f32",
            bytes: px * 4,
        }, // 1 (A)
        BufferSpec {
            name: "scratch",
            bytes: px * 4,
        }, // 2
        BufferSpec {
            name: "Ixx",
            bytes: px * 4,
        }, // 3 (B)
        BufferSpec {
            name: "Iyy",
            bytes: px * 4,
        }, // 4
        BufferSpec {
            name: "Ixy",
            bytes: px * 4,
        }, // 5
        BufferSpec {
            name: "acc",
            bytes: px * 4,
        }, // 6 (C)
        BufferSpec {
            name: "filtered u16",
            bytes: px * 2,
        }, // 7
        BufferSpec {
            name: "ridgeness f32",
            bytes: px * 4,
        }, // 8
    ];
    let mut passes = vec![PassSpec {
        label: "A: convert",
        reads: vec![0],
        writes: vec![1],
    }];
    for _ in 0..scales {
        // each scale: three separable convolutions + response accumulation
        passes.push(PassSpec {
            label: "B: Ixx",
            reads: vec![1, 2],
            writes: vec![2, 3],
        });
        passes.push(PassSpec {
            label: "B: Iyy",
            reads: vec![1, 2],
            writes: vec![2, 4],
        });
        passes.push(PassSpec {
            label: "B: Ixy",
            reads: vec![1, 2],
            writes: vec![2, 5],
        });
        passes.push(PassSpec {
            label: "B: response",
            reads: vec![3, 4, 5],
            writes: vec![6],
        });
    }
    passes.push(PassSpec {
        label: "C: threshold+suppress",
        reads: vec![0, 6],
        writes: vec![7, 8],
    });
    TaskAccessModel { buffers, passes }
}

/// The ENH access model: reads the input frame and the f32 accumulator,
/// updates the accumulator, emits the enhanced ROI.
pub fn enh_access_model(geom: FrameGeometry, roi_fraction: f64) -> TaskAccessModel {
    let px = geom.pixels();
    let roi_px = (px as f64 * roi_fraction) as usize;
    TaskAccessModel {
        buffers: vec![
            BufferSpec {
                name: "input u16",
                bytes: px * 2,
            },
            BufferSpec {
                name: "accumulator f32",
                bytes: px * 4,
            },
            BufferSpec {
                name: "enhanced u16",
                bytes: roi_px * 2,
            },
        ],
        passes: vec![
            PassSpec {
                label: "integrate",
                reads: vec![0, 1],
                writes: vec![1],
            },
            PassSpec {
                label: "readout",
                reads: vec![1],
                writes: vec![2],
            },
        ],
    }
}

/// The ZOOM access model: reads the ROI, writes the display buffer.
pub fn zoom_access_model(
    geom: FrameGeometry,
    roi_fraction: f64,
    out_pixels: usize,
) -> TaskAccessModel {
    let px = geom.pixels();
    let roi_px = (px as f64 * roi_fraction) as usize;
    TaskAccessModel {
        buffers: vec![
            BufferSpec {
                name: "roi u16",
                bytes: roi_px * 2,
            },
            BufferSpec {
                name: "display u16",
                bytes: out_pixels * 2,
            },
        ],
        passes: vec![PassSpec {
            label: "interpolate",
            reads: vec![0],
            writes: vec![1],
        }],
    }
}

/// Intra-task traffic prediction for one task under a given L2 capacity.
pub fn intra_task_traffic(model: &TaskAccessModel, l2_capacity: usize) -> TaskTraffic {
    predict_traffic(model, l2_capacity)
}

/// Total intra-task swap bandwidth of a scenario, bytes/s: the sum over
/// tasks whose intermediates exceed the L2 (RDG, ENH, ZOOM per Section 5).
pub fn scenario_intra_task_bandwidth(
    scenario: Scenario,
    geom: FrameGeometry,
    roi_fraction: f64,
    l2_capacity: usize,
    rdg_scales: usize,
) -> f64 {
    let mut total = 0.0;
    if scenario.rdg_active {
        let frac = if scenario.roi_estimated {
            roi_fraction
        } else {
            1.0
        };
        let scaled = FrameGeometry {
            width: geom.width,
            height: ((geom.height as f64) * frac) as usize,
        };
        total += intra_task_traffic(&rdg_access_model(scaled, rdg_scales), l2_capacity)
            .bandwidth(FRAME_RATE_HZ);
    }
    if scenario.reg_successful {
        total += intra_task_traffic(&enh_access_model(geom, roi_fraction), l2_capacity)
            .bandwidth(FRAME_RATE_HZ);
        let out_px = geom.pixels() / 4;
        total += intra_task_traffic(&zoom_access_model(geom, roi_fraction, out_px), l2_capacity)
            .bandwidth(FRAME_RATE_HZ);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::arch::MB;

    const GEOM: FrameGeometry = FrameGeometry::PAPER;

    #[test]
    fn worst_case_has_more_edges_than_best_case() {
        let worst = scenario_edges(Scenario::worst_case(), GEOM, 0.1);
        let best = scenario_edges(Scenario::best_case(), GEOM, 0.1);
        assert!(worst.len() > best.len());
        let bw_worst = scenario_inter_task_bandwidth(Scenario::worst_case(), GEOM, 0.1);
        let bw_best = scenario_inter_task_bandwidth(Scenario::best_case(), GEOM, 0.1);
        assert!(
            bw_worst > 2.0 * bw_best,
            "worst {bw_worst:.2e} vs best {bw_best:.2e}"
        );
    }

    #[test]
    fn gw_edge_is_the_corridor_box_not_the_roi() {
        // a 200 x 220 ROI at 1024²: markers ~59 px apart, box ~77 px square
        let roi_fraction = 200.0 * 220.0 / GEOM.pixels() as f64;
        let gw_bytes = |fraction| {
            scenario_edges(Scenario::best_case(), GEOM, fraction)
                .iter()
                .find(|e| e.to == Endpoint::Task(Task::GwExt))
                .expect("a tracked scenario feeds GW EXT")
                .bytes_per_frame
        };
        let bytes = gw_bytes(roi_fraction);
        assert!((70 * 70 * 4..84 * 84 * 4).contains(&bytes), "{bytes} B");
        // never more than the ROI's response, and growing with the ROI
        for fraction in [1e-4, 0.01, roi_fraction, 0.5, 1.0] {
            assert!(gw_bytes(fraction) <= (GEOM.pixels() as f64 * fraction) as usize * 4);
            assert!(gw_bytes(fraction) <= gw_bytes(fraction * 1.5));
        }
    }

    #[test]
    fn input_edge_matches_fig2_magnitude() {
        // Fig. 2 annotates the input stream at 60 MB/s (2 MB x 30 Hz)
        let edges = scenario_edges(Scenario::worst_case(), GEOM, 1.0);
        let input = edges
            .iter()
            .find(|e| e.from == Endpoint::Input && e.to == Endpoint::Task(Task::RdgFull))
            .unwrap();
        let mbs = input.bandwidth(FRAME_RATE_HZ) / 1e6;
        assert!((mbs - 62.9).abs() < 1.0, "input edge {mbs} MB/s");
    }

    #[test]
    fn roi_granularity_cuts_bandwidth() {
        let s = Scenario {
            rdg_active: true,
            roi_estimated: true,
            reg_successful: true,
        };
        let full = Scenario {
            rdg_active: true,
            roi_estimated: false,
            reg_successful: true,
        };
        let bw_roi = scenario_inter_task_bandwidth(s, GEOM, 0.1);
        let bw_full = scenario_inter_task_bandwidth(full, GEOM, 0.1);
        assert!(bw_roi < bw_full, "roi {bw_roi:.2e} full {bw_full:.2e}");
    }

    #[test]
    fn rdg_model_overflows_paper_l2() {
        // the paper: RDG FULL, ENH and ZOOM have intra-task requirements
        // beyond the 4 MB L2, so they generate swap traffic
        let traffic = intra_task_traffic(&rdg_access_model(GEOM, 3), 4 * MB);
        // compulsory alone would be input+outputs (~12 MB); thrashing adds
        // re-fetch of the 4 MB f32 planes every scale pass
        let total = traffic.total_bytes();
        assert!(total > 40 * MB as u64, "traffic {total}");
    }

    #[test]
    fn huge_l2_eliminates_capacity_traffic() {
        let small = intra_task_traffic(&rdg_access_model(GEOM, 3), 4 * MB).total_bytes();
        let big = intra_task_traffic(&rdg_access_model(GEOM, 3), 512 * MB).total_bytes();
        assert!(big < small / 2, "big-cache {big} vs small-cache {small}");
    }

    #[test]
    fn intra_task_bandwidth_rises_with_active_tasks() {
        let worst = scenario_intra_task_bandwidth(Scenario::worst_case(), GEOM, 0.1, 4 * MB, 3);
        let best = scenario_intra_task_bandwidth(Scenario::best_case(), GEOM, 0.1, 4 * MB, 3);
        assert!(worst > best);
        assert_eq!(best, 0.0, "best case runs no overflow tasks");
    }

    #[test]
    fn enh_and_zoom_models_have_positive_traffic() {
        let enh = intra_task_traffic(&enh_access_model(GEOM, 0.25), 4 * MB);
        assert!(enh.total_bytes() > 0);
        let zoom = intra_task_traffic(&zoom_access_model(GEOM, 0.25, GEOM.pixels() / 4), 4 * MB);
        assert!(zoom.total_bytes() > 0);
    }

    #[test]
    fn rdg_scales_add_passes() {
        let m1 = rdg_access_model(GEOM, 1);
        let m3 = rdg_access_model(GEOM, 3);
        assert_eq!(m3.passes.len(), m1.passes.len() + 8);
    }
}
