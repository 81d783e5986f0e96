//! Fig. 6 — effective latency vs. Region-Of-Interest size, for the serial
//! and striped-parallel RDG partitionings, with the linear growth fit
//! (Eq. 3: the paper reports `y = 0.067 x + 20.6` on its platform).

use crate::config::ExperimentConfig;
use crate::report::table;
use crate::schedule::{VirtualJob, VirtualSchedule};
use imaging::image::Roi;
use imaging::parallel::{StripeFault, StripePool};
use imaging::ridge::{rdg_banded, RdgBuffers, RdgConfig};
use triplec::linear::LinearModel;
use xray::{SequenceConfig, SequenceGenerator};

/// Most stripe counts one sweep compares (the width of a [`SweepPoint`]).
pub(crate) const MAX_STRIPE_VARIANTS: usize = 8;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// ROI size, kilopixels.
    pub roi_kpixels: f64,
    /// Effective latency per stripe count, ms (same order as the config's
    /// stripe list).
    pub latency_ms: [f64; MAX_STRIPE_VARIANTS],
    /// Number of valid entries in `latency_ms`.
    pub variants: usize,
}

/// Structured Fig. 6 result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    pub points: Vec<SweepPoint>,
    /// Linear fit of the serial latency vs. ROI kilopixels.
    pub serial_fit: LinearModel,
    /// R^2 of the serial fit.
    pub r_squared: f64,
    /// Mean speedup of the 2-stripe variant over serial (if measured).
    pub two_stripe_speedup: f64,
}

/// Runs the ROI sweep on a representative frame of the synthetic sequence.
pub fn run(cfg: &ExperimentConfig) -> (Fig6Result, String) {
    // render one busy frame to process at many ROI sizes
    let seq = SequenceConfig {
        width: cfg.size,
        height: cfg.size,
        frames: 1,
        seed: 77,
        ..Default::default()
    };
    let frame = SequenceGenerator::new(seq).next().expect("one frame").image;
    let rdg_cfg = RdgConfig::default();
    let mut bufs = RdgBuffers::new(cfg.size, cfg.size);
    // Every variant is the pipeline's own RDG call. A pool without workers
    // runs the bands one after another on this thread, so each band's time
    // is measured uncontended whatever the host; the effective latency is
    // then the call's serial sections plus the bands' makespan on the
    // modelled platform.
    let pool = StripePool::new(0);

    let stripes = &cfg.fig6_stripes;
    assert!(
        stripes.len() <= MAX_STRIPE_VARIANTS,
        "at most {MAX_STRIPE_VARIANTS} stripe variants"
    );
    let serial_idx = stripes
        .iter()
        .position(|&k| k == 1)
        .expect("validated: the stripe list holds the serial variant");
    // one untimed call fills the output pool and every band's ring
    let widest = stripes.iter().copied().max().unwrap_or(1);
    let fault = StripeFault::default();
    let full = frame.full_roi();
    let out = rdg_banded(&pool, &frame, full, &rdg_cfg, widest, fault, &mut bufs)
        .expect("an unfaulted band job panicked");
    bufs.recycle(out);

    let n_points = 12usize;
    let mut points = Vec::with_capacity(n_points);
    let mut serial_points = Vec::with_capacity(n_points);

    for i in 1..=n_points {
        // centered square ROI growing to the full frame
        let edge = cfg.size * i / n_points;
        let edge = edge.max(16);
        let off = (cfg.size - edge) / 2;
        let roi = Roi::new(off, off, edge, edge);
        let kpx = roi.area() as f64 / 1000.0;

        let mut latencies = [0.0f64; MAX_STRIPE_VARIANTS];
        for (latency, &k) in latencies.iter_mut().zip(stripes) {
            let out = rdg_banded(&pool, &frame, roi, &rdg_cfg, k, fault, &mut bufs)
                .expect("an unfaulted band job panicked");
            bufs.recycle(out);
            let times = bufs.times();
            let bands: Vec<VirtualJob> = times
                .band_ms
                .iter()
                .enumerate()
                .map(|(core, &duration_ms)| VirtualJob { core, duration_ms })
                .collect();
            let mut schedule = VirtualSchedule::new(8);
            schedule.serial(0, times.serial_ms);
            *latency = schedule.stage(&bands);
        }
        serial_points.push((kpx, latencies[serial_idx]));
        points.push(SweepPoint {
            roi_kpixels: kpx,
            latency_ms: latencies,
            variants: stripes.len(),
        });
    }

    let serial_fit = LinearModel::fit(&serial_points);
    let r_squared = serial_fit.r_squared(&serial_points);
    let two_idx = stripes.iter().position(|&k| k == 2);
    let two_stripe_speedup = match two_idx {
        Some(idx) => {
            let mut ratio = 0.0;
            let mut n = 0;
            for p in &points {
                if p.latency_ms[idx] > 0.0 {
                    ratio += p.latency_ms[serial_idx] / p.latency_ms[idx];
                    n += 1;
                }
            }
            if n > 0 {
                ratio / n as f64
            } else {
                0.0
            }
        }
        None => 0.0,
    };

    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 6 — effective latency vs. ROI size at {0}x{0} (serial vs. striped RDG)\n\n",
        cfg.size
    ));
    let headers: Vec<String> = std::iter::once("ROI kpx".to_string())
        .chain(stripes.iter().map(|k| format!("{k}-stripe ms")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            std::iter::once(format!("{:.1}", p.roi_kpixels))
                .chain((0..p.variants).map(|i| format!("{:.2}", p.latency_ms[i])))
                .collect()
        })
        .collect();
    out.push_str(&table(&header_refs, &rows));
    out.push_str(&format!(
        "\nserial linear fit: y = {:.4} x + {:.2}  (R^2 = {:.3})\n",
        serial_fit.slope, serial_fit.intercept, r_squared
    ));
    out.push_str("paper's Eq. 3 on its platform: y = 0.067 x + 20.6 (x in kpx)\n");
    if two_stripe_speedup > 0.0 {
        out.push_str(&format!(
            "mean 2-stripe speedup over serial: {:.2}x (ideal 2.0, paper's Fig. 6 shows ~1.8-2x)\n",
            two_stripe_speedup
        ));
    }

    (
        Fig6Result {
            points,
            serial_fit,
            r_squared,
            two_stripe_speedup,
        },
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            size: 128,
            fig6_stripes: vec![1, 2],
            ..Default::default()
        }
    }

    #[test]
    fn latency_grows_with_roi() {
        let (r, _) = run(&tiny());
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        assert!(
            last.latency_ms[0] > first.latency_ms[0],
            "latency did not grow: {:?} -> {:?}",
            first.latency_ms[0],
            last.latency_ms[0]
        );
    }

    #[test]
    fn growth_is_roughly_linear() {
        let (r, _) = run(&tiny());
        assert!(r.serial_fit.slope > 0.0, "slope {}", r.serial_fit.slope);
        assert!(r.r_squared > 0.7, "R^2 {}", r.r_squared);
    }

    #[test]
    fn two_stripe_parallel_is_faster() {
        // the Fig. 6 separation of the two curves: virtual makespan of two
        // half-size stripes beats serial. Each sweep is a ratio of single
        // host timings, so judge the median of five.
        let speedups = crate::five_sorted(|| run(&tiny()).0.two_stripe_speedup);
        assert!(speedups[2] > 1.2, "speedups {speedups:?}");
    }
}
