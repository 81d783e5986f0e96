//! Section 5/7 headline — cache-memory and communication-bandwidth
//! prediction accuracy ("an average prediction accuracy between the
//! analysis and measured cache-memory and communication-bandwidth usage of
//! 90% is obtained").
//!
//! The analytic space-time model is compared against the trace-driven
//! cache simulation over a grid of tasks, geometries and cache sizes.

use crate::report::table;
use platform::arch::{CacheGeometry, MB};
use platform::spacetime::simulate_traffic;
use triplec::accuracy::{evaluate, AccuracyReport};
use triplec::bandwidth_model::{
    enh_access_model, intra_task_traffic, rdg_access_model, zoom_access_model,
};
use triplec::memory_model::FrameGeometry;

/// Structured result.
#[derive(Debug, Clone)]
pub(crate) struct BandwidthAccuracyResult {
    /// `(case label, predicted bytes, simulated bytes)` rows.
    pub(crate) cases: Vec<(String, u64, u64)>,
    /// Aggregate accuracy report (predicted vs. simulated).
    pub(crate) report: AccuracyReport,
}

/// Runs the model-vs-simulation comparison grid.
pub(crate) fn run() -> (BandwidthAccuracyResult, String) {
    let mut cases: Vec<(String, u64, u64)> = Vec::new();
    let l2_sizes = [2 * MB, 4 * MB, 8 * MB];
    let geoms = [
        FrameGeometry {
            width: 512,
            height: 512,
        },
        FrameGeometry {
            width: 1024,
            height: 1024,
        },
    ];
    for &geom in &geoms {
        for &cap in &l2_sizes {
            let cache = CacheGeometry {
                capacity: cap,
                line_size: 64,
                ways: 16,
            };
            for scales in [1usize, 3] {
                let m = rdg_access_model(geom, scales);
                let p = intra_task_traffic(&m, cap).total_bytes();
                let s = simulate_traffic(&m, cache).total_bytes();
                cases.push((
                    format!("RDG {}px {} scales L2={}MB", geom.width, scales, cap / MB),
                    p,
                    s,
                ));
            }
            for roi in [0.1f64, 0.5] {
                let m = enh_access_model(geom, roi);
                let p = intra_task_traffic(&m, cap).total_bytes();
                let s = simulate_traffic(&m, cache).total_bytes();
                cases.push((
                    format!("ENH {}px roi={:.1} L2={}MB", geom.width, roi, cap / MB),
                    p,
                    s,
                ));
                let m = zoom_access_model(geom, roi, geom.pixels() / 4);
                let p = intra_task_traffic(&m, cap).total_bytes();
                let s = simulate_traffic(&m, cache).total_bytes();
                cases.push((
                    format!("ZOOM {}px roi={:.1} L2={}MB", geom.width, roi, cap / MB),
                    p,
                    s,
                ));
            }
        }
    }

    let pairs: Vec<(f64, f64)> = cases
        .iter()
        .map(|&(_, p, s)| (p as f64, s as f64))
        .collect();
    let r = BandwidthAccuracyResult {
        report: evaluate(&pairs),
        cases,
    };

    let mut out = String::new();
    out.push_str("Cache/bandwidth model vs. trace-driven simulation\n\n");
    let rows: Vec<Vec<String>> = r
        .cases
        .iter()
        .map(|(label, p, s)| {
            vec![
                label.clone(),
                format!("{:.1}", *p as f64 / 1e6),
                format!("{:.1}", *s as f64 / 1e6),
                format!("{:.1}%", triplec::accuracy(*p as f64, *s as f64) * 100.0),
            ]
        })
        .collect();
    out.push_str(&table(&["case", "pred MB", "sim MB", "accuracy"], &rows));
    out.push_str(&format!(
        "\nmean accuracy over {} cases: {:.1}% (paper reports ~90%)\n",
        r.report.count,
        r.report.mean_accuracy * 100.0
    ));

    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_many_cases() {
        let (r, _) = run();
        assert!(r.cases.len() >= 20, "{} cases", r.cases.len());
    }

    #[test]
    fn mean_accuracy_near_paper_band() {
        let (r, text) = run();
        assert!(
            r.report.mean_accuracy > 0.8,
            "mean accuracy {:.3}:\n{text}",
            r.report.mean_accuracy
        );
    }

    #[test]
    fn every_case_has_nonzero_traffic() {
        let (r, _) = run();
        for (label, p, s) in &r.cases {
            assert!(*p > 0 && *s > 0, "case {label}: pred {p} sim {s}");
        }
    }
}
