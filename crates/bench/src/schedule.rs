//! The modelled platform: latency from measured job durations, scheduled
//! virtually.
//!
//! The reproduction host need not have the paper's 8 cores (it may have
//! one), so the Fig. 6 and partitioning experiments measure each job's
//! computation time individually and *schedule virtually* onto a modelled
//! multiprocessor: the latency of a parallel stage is the makespan of its
//! jobs over the assigned cores, plus a per-job dispatch overhead. This
//! keeps the measured data-dependence of task times (the property
//! Triple-C predicts) while making the parallel-latency shape independent
//! of the host. The runtime does not use it: a frame's latency there is
//! the wall time it took.

use runtime::adaptation::DISPATCH_OVERHEAD_MS;

/// A job to be scheduled: `(core, duration_ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VirtualJob {
    /// Modelled core the job is assigned to.
    pub(crate) core: usize,
    /// Measured execution time, ms.
    pub(crate) duration_ms: f64,
}

/// Virtual timeline of one platform run (one frame).
#[derive(Debug, Clone)]
pub(crate) struct VirtualSchedule {
    core_free: Vec<f64>,
    now: f64,
}

impl VirtualSchedule {
    /// Creates an idle schedule for `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        Self {
            core_free: vec![0.0; cores],
            now: 0.0,
        }
    }

    /// Runs a parallel stage: all jobs start at the current frontier (after
    /// their core is free) and the stage completes when every job is done.
    /// Returns the stage's completion time.
    pub(crate) fn stage(&mut self, jobs: &[VirtualJob]) -> f64 {
        let mut stage_end = self.now;
        for job in jobs {
            let core = job.core % self.core_free.len();
            let start = self.now.max(self.core_free[core]);
            let end = start + job.duration_ms + DISPATCH_OVERHEAD_MS;
            self.core_free[core] = end;
            stage_end = stage_end.max(end);
        }
        self.now = stage_end;
        stage_end
    }

    /// Runs a serial stage on one core.
    pub(crate) fn serial(&mut self, core: usize, duration_ms: f64) -> f64 {
        self.stage(&[VirtualJob { core, duration_ms }])
    }
}

/// Makespan of a single parallel stage starting from an idle platform.
pub(crate) fn stage_makespan(cores: usize, jobs: &[VirtualJob]) -> f64 {
    let mut s = VirtualSchedule::new(cores);
    s.stage(jobs)
}

/// Result of a virtual *pipelined* (function-parallel) schedule.
#[derive(Debug, Clone)]
pub(crate) struct PipelinedResult {
    /// Per-frame latency: completion of the last stage minus arrival, ms.
    pub(crate) latencies: Vec<f64>,
    /// Steady-state throughput, frames per second.
    pub(crate) throughput_fps: f64,
}

/// Virtual function-parallel scheduling: each pipeline *stage* owns a core
/// and consecutive frames overlap (stage `j` of frame `i` can run while
/// stage `j+1` processes frame `i-1`). This is the partitioning the paper
/// contrasts with data-parallel striping ("For a comparison between
/// data-parallel partitioning and function-parallel partitioning, we refer
/// to \[17\]", Section 6): it multiplies throughput but cannot shorten a
/// single frame's latency below the sum of its stage times.
///
/// `stage_times[i][j]` is the measured duration of stage `j` on frame `i`;
/// `stage_core[j]` assigns each stage its core; frames arrive every
/// `period_ms`.
pub(crate) fn pipelined_schedule(
    stage_times: &[Vec<f64>],
    stage_core: &[usize],
    cores: usize,
    period_ms: f64,
) -> PipelinedResult {
    assert!(cores > 0, "at least one core required");
    let n_stages = stage_core.len();
    let mut core_free = vec![0.0f64; cores];
    let mut latencies = Vec::with_capacity(stage_times.len());
    let mut completions = Vec::with_capacity(stage_times.len());

    // completion time of each stage of the previous frame (dataflow dep)
    let mut prev_stage_done = vec![0.0f64; n_stages];
    for (i, frame) in stage_times.iter().enumerate() {
        assert_eq!(frame.len(), n_stages, "frame {i} has wrong stage count");
        let arrival = i as f64 * period_ms;
        let mut ready = arrival;
        for (j, &t) in frame.iter().enumerate() {
            let core = stage_core[j] % cores;
            // a stage starts when its input is ready, its core is free and
            // the same stage of the previous frame has retired (in-order)
            let start = ready.max(core_free[core]).max(prev_stage_done[j]);
            let end = start + t + DISPATCH_OVERHEAD_MS;
            core_free[core] = end;
            prev_stage_done[j] = end;
            ready = end;
        }
        latencies.push(ready - arrival);
        completions.push(ready);
    }
    let throughput_fps = if stage_times.len() > 1 {
        let span = completions.last().unwrap() - completions[0];
        if span > 0.0 {
            (stage_times.len() - 1) as f64 / (span / 1000.0)
        } else {
            f64::INFINITY
        }
    } else {
        0.0
    };
    PipelinedResult {
        latencies,
        throughput_fps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn single_job_latency_is_duration_plus_overhead() {
        let mut s = VirtualSchedule::new(8);
        let end = s.serial(0, 10.0);
        assert!((end - 10.0 - DISPATCH_OVERHEAD_MS).abs() < EPS);
    }

    #[test]
    fn parallel_jobs_on_distinct_cores_overlap() {
        let jobs = [
            VirtualJob {
                core: 0,
                duration_ms: 10.0,
            },
            VirtualJob {
                core: 1,
                duration_ms: 12.0,
            },
        ];
        let end = stage_makespan(8, &jobs);
        assert!((end - 12.0 - DISPATCH_OVERHEAD_MS).abs() < EPS, "end {end}");
    }

    #[test]
    fn jobs_on_same_core_serialize() {
        let jobs = [
            VirtualJob {
                core: 0,
                duration_ms: 10.0,
            },
            VirtualJob {
                core: 0,
                duration_ms: 12.0,
            },
        ];
        let end = stage_makespan(8, &jobs);
        assert!(
            (end - 22.0 - 2.0 * DISPATCH_OVERHEAD_MS).abs() < EPS,
            "end {end}"
        );
    }

    #[test]
    fn two_stripe_parallel_halves_latency() {
        // the Fig. 6 effect: a 20 ms serial task split into two 10 ms
        // stripes on two cores completes in ~10 ms
        let serial = stage_makespan(
            8,
            &[VirtualJob {
                core: 0,
                duration_ms: 20.0,
            }],
        );
        let striped = stage_makespan(
            8,
            &[
                VirtualJob {
                    core: 0,
                    duration_ms: 10.0,
                },
                VirtualJob {
                    core: 1,
                    duration_ms: 10.0,
                },
            ],
        );
        assert!(
            striped < 0.55 * serial,
            "striped {striped} vs serial {serial}"
        );
    }

    #[test]
    fn stages_compose_sequentially() {
        let mut s = VirtualSchedule::new(4);
        s.stage(&[
            VirtualJob {
                core: 0,
                duration_ms: 5.0,
            },
            VirtualJob {
                core: 1,
                duration_ms: 3.0,
            },
        ]);
        let end = s.stage(&[VirtualJob {
            core: 2,
            duration_ms: 2.0,
        }]);
        // second stage starts only after the first completes (barrier)
        assert!(
            (end - (5.0 + 2.0 + 2.0 * DISPATCH_OVERHEAD_MS)).abs() < EPS,
            "end {end}"
        );
    }

    #[test]
    fn core_indices_wrap_to_pool() {
        let end = stage_makespan(
            2,
            &[VirtualJob {
                core: 5,
                duration_ms: 4.0,
            }],
        );
        assert!((end - 4.0 - DISPATCH_OVERHEAD_MS).abs() < EPS);
    }

    #[test]
    fn pipelined_single_frame_latency_is_stage_sum() {
        let frames = vec![vec![5.0, 3.0, 2.0]];
        let r = pipelined_schedule(&frames, &[0, 1, 2], 8, 33.3);
        assert!((r.latencies[0] - (10.0 + 3.0 * DISPATCH_OVERHEAD_MS)).abs() < EPS);
    }

    #[test]
    fn pipelined_overlaps_consecutive_frames() {
        // 3 stages of 10 ms each, own cores, frames arriving every 10 ms:
        // steady-state throughput ~1 frame per (10 + overhead) ms, even
        // though each frame's latency is ~30 ms
        let frames: Vec<Vec<f64>> = (0..20).map(|_| vec![10.0, 10.0, 10.0]).collect();
        let r = pipelined_schedule(&frames, &[0, 1, 2], 8, 10.0);
        let fps = r.throughput_fps;
        assert!(fps > 90.0 && fps < 101.0, "throughput {fps}");
        // latency stays near 30 ms once the pipe fills
        let tail = r.latencies.last().unwrap();
        assert!(*tail >= 30.0, "latency {tail}");
        assert!(*tail < 45.0, "latency {tail} blew up");
    }

    #[test]
    fn pipelined_on_one_core_serializes() {
        let frames: Vec<Vec<f64>> = (0..5).map(|_| vec![10.0, 10.0]).collect();
        let shared = pipelined_schedule(&frames, &[0, 0], 8, 0.0);
        let split = pipelined_schedule(&frames, &[0, 1], 8, 0.0);
        // every frame arrives at 0, so the last latency is the makespan
        let (split, shared) = (split.latencies[4], shared.latencies[4]);
        assert!(split < shared * 0.7, "split {split} vs shared {shared}");
    }

    #[test]
    fn pipelined_slowest_stage_bounds_throughput() {
        // stage times 2/20/2: throughput limited by the 20 ms stage
        let frames: Vec<Vec<f64>> = (0..20).map(|_| vec![2.0, 20.0, 2.0]).collect();
        let r = pipelined_schedule(&frames, &[0, 1, 2], 8, 0.0);
        let fps = r.throughput_fps;
        assert!(fps < 51.0, "throughput {fps} exceeds the bottleneck bound");
        assert!(
            fps > 40.0,
            "throughput {fps} far below the bottleneck bound"
        );
    }

    #[test]
    fn imbalanced_stripes_bound_latency() {
        // latency follows the slowest stripe
        let jobs = [
            VirtualJob {
                core: 0,
                duration_ms: 2.0,
            },
            VirtualJob {
                core: 1,
                duration_ms: 18.0,
            },
        ];
        let end = stage_makespan(8, &jobs);
        assert!((end - 18.0 - DISPATCH_OVERHEAD_MS).abs() < EPS);
    }
}
