//! The resource manager: Triple-C predictions → runtime repartitioning.
//!
//! Implements the three-step approach of Section 6: **initialization**
//! (the first frame sets the average-case latency budget),
//! **runtime adaptation** (per-frame repartitioning from the predictions)
//! and **profiling** (predicted-vs-actual bookkeeping, feeding online
//! model training and the accuracy reports of Section 7).

use crate::adaptation::{choose_policy, scenario_cost};
use crate::budget::LatencyBudget;
use pipeline::executor::{ExecutionPolicy, FrameOutput};
use platform::bus::{
    EventBus, FrameEvent, RepartitionReason, StreamId, Subscriber, DEFAULT_STREAM,
};
use triplec::accuracy::{AccuracyReport, PredictionLog, PredictionLogHandle};
use triplec::predictor::{PredictContext, Prediction};
use triplec::scenario::Scenario;
use triplec::triple::TripleC;

/// Frames between [`FrameEvent::CalibrationReport`] emissions.
const CALIBRATION_REPORT_INTERVAL: u32 = 32;

/// The host's core count (one when it cannot be read).
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Manager configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Cores a frame may stripe over; defaults to the host's.
    pub cores: usize,
    /// Budget headroom fraction.
    pub headroom: f64,
    /// Planning quantile: 0.5 plans on the expected cost; higher values
    /// plan conservatively on the cost distribution's upper tail,
    /// trading average parallelism for fewer budget overruns ("without
    /// affecting the reliability", Section 6).
    pub planning_quantile: f64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            cores: host_cores(),
            headroom: 0.15,
            planning_quantile: 0.5,
        }
    }
}

/// One planned frame: the policy to execute and the prediction backing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Execution policy for the frame.
    pub policy: ExecutionPolicy,
    /// Predicted scenario.
    pub scenario: Scenario,
    /// Predicted serial computation time, ms (distribution mean).
    pub predicted_total_ms: f64,
    /// Predicted p50 of the serial computation time, ms.
    pub predicted_p50_ms: f64,
    /// Predicted p95 of the serial computation time, ms.
    pub predicted_p95_ms: f64,
    /// Predicted p99 of the serial computation time, ms.
    pub predicted_p99_ms: f64,
    /// Whether the budget was achievable (false = QoS intervention needed).
    pub feasible: bool,
}

impl Plan {
    /// The plan's predicted cost distribution (quantile sums over the
    /// scenario's active tasks — an upper bound on the frame quantile,
    /// exact under comonotone task costs).
    pub fn prediction(&self) -> Prediction {
        Prediction::from_quantiles(
            self.predicted_total_ms,
            self.predicted_p50_ms,
            self.predicted_p95_ms,
            self.predicted_p99_ms,
        )
    }
}

/// Running coverage of the plan-time quantile predictions against
/// measured frame costs (the calibration loop's state).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationSnapshot {
    /// Frames scored so far.
    pub frames: u32,
    /// Fraction of frames whose measured total fell at or below the
    /// predicted p50.
    pub p50_coverage: f64,
    /// Fraction at or below the predicted p95.
    pub p95_coverage: f64,
    /// Fraction at or below the predicted p99.
    pub p99_coverage: f64,
}

/// Counts observed-versus-predicted quantile coverage; a well-calibrated
/// predictor sees ~50 % of frames under its p50 and ~95 %/99 % under the
/// upper tails.
#[derive(Debug, Clone, Copy, Default)]
struct CalibrationTracker {
    frames: u32,
    le_p50: u32,
    le_p95: u32,
    le_p99: u32,
}

impl CalibrationTracker {
    fn observe(&mut self, actual_ms: f64, plan: &Plan) -> Option<CalibrationSnapshot> {
        self.frames += 1;
        if actual_ms <= plan.predicted_p50_ms {
            self.le_p50 += 1;
        }
        if actual_ms <= plan.predicted_p95_ms {
            self.le_p95 += 1;
        }
        if actual_ms <= plan.predicted_p99_ms {
            self.le_p99 += 1;
        }
        self.frames
            .is_multiple_of(CALIBRATION_REPORT_INTERVAL)
            .then(|| self.snapshot())
    }

    fn snapshot(&self) -> CalibrationSnapshot {
        let n = self.frames.max(1) as f64;
        CalibrationSnapshot {
            frames: self.frames,
            p50_coverage: self.le_p50 as f64 / n,
            p95_coverage: self.le_p95 as f64 / n,
            p99_coverage: self.le_p99 as f64 / n,
        }
    }
}

/// The runtime resource manager.
///
/// Publishes its lifecycle onto a typed [`EventBus`]: a
/// [`FrameEvent::PlanIssued`] per plan, and [`FrameEvent::FrameExecuted`] /
/// [`FrameEvent::BudgetOverrun`] / [`FrameEvent::ModelRetrained`] per
/// absorbed frame. The Section 7 accuracy bookkeeping is a
/// [`PredictionLog`] subscriber on that bus; further subscribers attach
/// via [`ResourceManager::subscribe`].
pub struct ResourceManager {
    model: TripleC,
    cfg: ManagerConfig,
    budget: Option<LatencyBudget>,
    last_scenario: Scenario,
    last_plan: Option<Plan>,
    bus: EventBus,
    pairs: PredictionLogHandle,
    stream: StreamId,
    frame_index: usize,
    infeasible_frames: usize,
    prev_rdg_stripes: Option<usize>,
    calibration: CalibrationTracker,
}

impl ResourceManager {
    /// Creates a manager around a trained model (stream 0).
    pub fn new(model: TripleC, cfg: ManagerConfig) -> Self {
        Self::for_stream(model, cfg, DEFAULT_STREAM)
    }

    /// Creates a manager emitting events under the given stream id (one
    /// manager per stream in a multi-stream session).
    pub fn for_stream(model: TripleC, cfg: ManagerConfig, stream: StreamId) -> Self {
        let mut bus = EventBus::new();
        let pairs = PredictionLog::subscribe_to(&mut bus);
        Self {
            model,
            cfg,
            budget: None,
            last_scenario: Scenario::worst_case(),
            last_plan: None,
            bus,
            pairs,
            stream,
            frame_index: 0,
            infeasible_frames: 0,
            prev_rdg_stripes: None,
            calibration: CalibrationTracker::default(),
        }
    }

    /// The stream id this manager emits events under.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Attaches a subscriber to the manager's event bus.
    pub fn subscribe(&mut self, sub: Box<dyn Subscriber>) {
        self.bus.subscribe(sub);
    }

    /// Mutable access to the event bus (for emitting events from
    /// surrounding control loops, e.g. QoS interventions).
    pub fn bus_mut(&mut self) -> &mut EventBus {
        &mut self.bus
    }

    /// The current latency budget (None until the first frame completed).
    pub fn budget(&self) -> Option<LatencyBudget> {
        self.budget
    }

    /// Overrides the budget (for experiments with a fixed target).
    pub fn set_budget(&mut self, budget: LatencyBudget) {
        self.budget = Some(budget);
    }

    /// Frames whose budget was not achievable even fully parallel.
    pub fn infeasible_frames(&self) -> usize {
        self.infeasible_frames
    }

    /// Plans the upcoming frame: predicts the scenario and per-task costs,
    /// then chooses the minimal partitioning that holds the budget.
    ///
    /// `roi_kpixels` is the ROI the frame will process (known from the
    /// tracking state). Before initialization the frame runs serial.
    pub fn plan(&mut self, roi_kpixels: f64) -> Plan {
        let predict_start = std::time::Instant::now();
        let scenario = self.model.predict_next_scenario(self.last_scenario);
        let ctx = PredictContext { roi_kpixels };
        // planning costs (optionally a conservative quantile) and the
        // point prediction (recorded for the accuracy bookkeeping)
        let q = self.cfg.planning_quantile;
        let conservative = (q - 0.5).abs() > 1e-9;
        let (cost, sums) = scenario_cost(&self.model, scenario, &ctx, |p| {
            if conservative {
                p.quantile(q)
            } else {
                p.mean_ms
            }
        });
        // the cost of prediction itself (Section 2's "the overhead of the
        // prediction must be small"), so the observability layer can hold
        // the predictors to that claim
        self.bus.emit(FrameEvent::PredictionIssued {
            stream: self.stream,
            frame: self.frame_index,
            scenario: scenario.id(),
            cost_us: predict_start.elapsed().as_secs_f64() * 1e6,
        });

        let (policy, feasible) = match self.budget {
            None => (ExecutionPolicy::default(), true),
            Some(budget) => choose_policy(&cost, &budget, self.cfg.cores),
        };
        if !feasible {
            self.infeasible_frames += 1;
        }
        let plan = Plan {
            policy,
            scenario,
            predicted_total_ms: sums.mean_ms,
            predicted_p50_ms: sums.p50_ms,
            predicted_p95_ms: sums.p95_ms,
            predicted_p99_ms: sums.p99_ms,
            feasible,
        };
        self.last_plan = Some(plan);
        self.bus.emit(FrameEvent::PlanIssued {
            stream: self.stream,
            frame: self.frame_index,
            scenario: plan.scenario.id(),
            predicted_total_ms: plan.predicted_total_ms,
            rdg_stripes: plan.policy.rdg_stripes,
            aux_stripes: plan.policy.aux_stripes,
            feasible: plan.feasible,
        });
        // a change against the previous frame's choice is a runtime
        // repartition (the Section 6 adaptation actually firing)
        if let Some(prev) = self.prev_rdg_stripes {
            if prev != plan.policy.rdg_stripes {
                self.bus.emit(FrameEvent::RepartitionDecided {
                    stream: self.stream,
                    frame: self.frame_index,
                    from_rdg_stripes: prev,
                    to_rdg_stripes: plan.policy.rdg_stripes,
                    aux_stripes: plan.policy.aux_stripes,
                    reason: if plan.policy.rdg_stripes > prev {
                        RepartitionReason::BudgetPressure
                    } else {
                        RepartitionReason::BudgetRelief
                    },
                });
            }
        }
        self.prev_rdg_stripes = Some(plan.policy.rdg_stripes);
        plan
    }

    /// Absorbs a completed frame: initializes the budget on the first
    /// frame, emits the frame's events (prediction accuracy is a bus
    /// subscriber), and feeds the measured task times back into the model.
    pub fn absorb(&mut self, out: &FrameOutput) {
        let actual_total = out.record.total_task_time();
        if self.budget.is_none() {
            // seeded from the clock the budget is judged against
            self.budget = Some(LatencyBudget::from_first_frame(
                out.record.latency_ms,
                self.cfg.headroom,
            ));
        }
        if let Some(plan) = self.last_plan.take() {
            self.bus.emit(FrameEvent::FrameExecuted {
                stream: self.stream,
                frame: self.frame_index,
                scenario: out.scenario.id(),
                predicted_total_ms: plan.predicted_total_ms,
                actual_total_ms: actual_total,
                latency_ms: out.record.latency_ms,
            });
            // calibration: score the measured total against the plan's
            // predicted quantiles, reporting cumulative coverage
            // periodically
            if let Some(snap) = self.calibration.observe(actual_total, &plan) {
                self.bus.emit(FrameEvent::CalibrationReport {
                    stream: self.stream,
                    frame: self.frame_index,
                    frames: snap.frames,
                    p50_cov: snap.p50_coverage,
                    p95_cov: snap.p95_coverage,
                    p99_cov: snap.p99_coverage,
                });
            }
        }
        if let Some(budget) = self.budget {
            if out.record.latency_ms > budget.target_ms {
                self.bus.emit(FrameEvent::BudgetOverrun {
                    stream: self.stream,
                    frame: self.frame_index,
                    latency_ms: out.record.latency_ms,
                    budget_ms: budget.target_ms,
                });
            }
        }
        let ctx = PredictContext {
            roi_kpixels: out.roi_kpixels,
        };
        let mut observations = 0usize;
        for &(task, ms) in &out.record.task_times {
            if self.model.observe_task(task, ms, &ctx) {
                observations += 1;
            }
        }
        if observations > 0 {
            self.bus.emit(FrameEvent::ModelRetrained {
                stream: self.stream,
                frame: self.frame_index,
                observations,
            });
        }
        self.last_scenario = out.scenario;
        self.frame_index += 1;
    }

    /// Frame-level prediction accuracy so far (Section 7 metric), read
    /// from the bus-attached [`PredictionLog`].
    pub fn accuracy(&self) -> AccuracyReport {
        self.pairs.report()
    }

    /// Read access to the model.
    pub fn model(&self) -> &TripleC {
        &self.model
    }

    /// Mutable access to the model (snapshotting, online-training toggles).
    pub fn model_mut(&mut self) -> &mut TripleC {
        &mut self.model
    }

    /// Cumulative quantile-coverage calibration of the plans absorbed so
    /// far.
    pub fn calibration(&self) -> CalibrationSnapshot {
        self.calibration.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::trace::FrameRecord;
    use triplec::training::TaskSeries;
    use triplec::triple::TripleCConfig;

    fn model() -> TripleC {
        let series = vec![
            TaskSeries::new("RDG_FULL", vec![40.0; 100]),
            TaskSeries::new("MKX_EXT", vec![2.5; 100]),
            TaskSeries::new("CPLS_SEL", vec![1.5; 100]),
            TaskSeries::new("REG", vec![2.0; 100]),
            TaskSeries::new("ENH", vec![24.0; 100]),
            TaskSeries::new("ZOOM", vec![12.5; 100]),
        ];
        let scenarios = vec![5u8; 100]; // RDG on, ROI off, REG on
        TripleC::train(&series, &scenarios, TripleCConfig::default())
    }

    fn fake_output(scenario: Scenario, task_times: Vec<(&'static str, f64)>) -> FrameOutput {
        let latency = task_times.iter().map(|&(_, t)| t).sum();
        FrameOutput {
            record: FrameRecord {
                frame: 0,
                scenario: scenario.id(),
                task_times,
                latency_ms: latency,
            },
            scenario,
            roi: None,
            roi_kpixels: 1000.0,
            couple_found: true,
            display: None,
        }
    }

    #[test]
    fn first_frame_runs_serial_then_budget_set() {
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        let plan = m.plan(1000.0);
        assert_eq!(plan.policy.rdg_stripes, 1);
        assert!(m.budget().is_none());
        m.absorb(&fake_output(
            Scenario::from_id(5),
            vec![
                ("RDG_FULL", 40.0),
                ("MKX_EXT", 2.5),
                ("CPLS_SEL", 1.5),
                ("REG", 2.0),
                ("ENH", 24.0),
                ("ZOOM", 12.5),
            ],
        ));
        let b = m.budget().expect("budget initialized");
        // 82.5 ms serial * 0.75 ≈ 61.9 ms
        assert!(
            (b.target_ms - 61.875).abs() < 0.01,
            "budget {}",
            b.target_ms
        );
    }

    #[test]
    fn budget_is_seeded_from_measured_latency_not_task_sum() {
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        m.plan(1000.0);
        let mut out = fake_output(
            Scenario::from_id(5),
            vec![("RDG_FULL", 40.0), ("MKX_EXT", 2.5), ("REG", 2.0)],
        );
        // the frame's wall time exceeds its task sum (44.5 ms)
        out.record.latency_ms = 100.0;
        m.absorb(&out);
        assert_eq!(m.budget().map(|b| b.target_ms), Some(75.0));
    }

    #[test]
    fn manager_stripes_when_budget_tight() {
        let cfg = ManagerConfig {
            cores: 8,
            ..Default::default()
        };
        let mut m = ResourceManager::new(model(), cfg);
        m.set_budget(LatencyBudget::new(60.0, 0.15));
        let plan = m.plan(1000.0);
        // predicted: RDG 40 + serial 42.5 = 82.5 > 51 target -> striping
        assert!(
            plan.policy.rdg_stripes >= 2,
            "stripes {}",
            plan.policy.rdg_stripes
        );
    }

    #[test]
    fn accuracy_tracks_prediction_quality() {
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        for _ in 0..5 {
            let plan = m.plan(1000.0);
            // actual == predicted -> perfect accuracy
            let times: Vec<(&'static str, f64)> = plan
                .scenario
                .active_tasks()
                .iter()
                .map(|&t| {
                    (
                        t,
                        m.model()
                            .predict_task(
                                t,
                                &PredictContext {
                                    roi_kpixels: 1000.0,
                                },
                            )
                            .map_or(0.0, |p| p.mean_ms),
                    )
                })
                .collect();
            m.absorb(&fake_output(plan.scenario, times));
        }
        let report = m.accuracy();
        assert_eq!(report.count, 5);
        assert!(
            report.mean_accuracy > 0.99,
            "accuracy {}",
            report.mean_accuracy
        );
    }

    #[test]
    fn infeasible_budget_counted() {
        let mut m = ResourceManager::new(
            model(),
            ManagerConfig {
                cores: 2,
                ..Default::default()
            },
        );
        m.set_budget(LatencyBudget::new(10.0, 0.1));
        let plan = m.plan(1000.0);
        assert!(!plan.feasible);
        assert_eq!(m.infeasible_frames(), 1);
        assert_eq!(plan.policy.rdg_stripes, 2, "maxed out");
    }

    #[test]
    fn conservative_planning_stripes_at_least_as_much() {
        // a model with real spread so the 0.9 quantile exceeds the mean
        let mut rng_vals = Vec::new();
        for i in 0..200 {
            rng_vals.push(35.0 + ((i * 7) % 13) as f64);
        }
        let series = vec![
            TaskSeries::new("RDG_FULL", rng_vals),
            TaskSeries::new("MKX_EXT", vec![2.5; 200]),
            TaskSeries::new("CPLS_SEL", vec![1.5; 200]),
            TaskSeries::new("REG", vec![2.0; 200]),
        ];
        let scenarios = vec![1u8; 200];
        let mk = |q: f64| {
            let model = TripleC::train(&series, &scenarios, TripleCConfig::default());
            let mut m = ResourceManager::new(
                model,
                ManagerConfig {
                    planning_quantile: q,
                    ..Default::default()
                },
            );
            m.set_budget(crate::budget::LatencyBudget::new(20.0, 0.1));
            // warm the predictor state
            m.plan(1000.0)
        };
        let mean_plan = mk(0.5);
        let cons_plan = mk(0.9);
        assert!(
            cons_plan.policy.rdg_stripes >= mean_plan.policy.rdg_stripes,
            "conservative {} < mean {}",
            cons_plan.policy.rdg_stripes,
            mean_plan.policy.rdg_stripes
        );
        // the recorded point prediction must be identical either way
        assert!((cons_plan.predicted_total_ms - mean_plan.predicted_total_ms).abs() < 1e-9);
    }

    #[test]
    fn external_subscriber_reproduces_accuracy_report() {
        use std::sync::{Arc, Mutex};
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        let pairs = Arc::new(Mutex::new(Vec::new()));
        let events = Arc::new(Mutex::new(Vec::new()));
        let (ps, es) = (Arc::clone(&pairs), Arc::clone(&events));
        m.subscribe(Box::new(move |e: &FrameEvent| {
            es.lock().unwrap().push(e.clone());
            if let FrameEvent::FrameExecuted {
                predicted_total_ms,
                actual_total_ms,
                ..
            } = *e
            {
                ps.lock()
                    .unwrap()
                    .push((predicted_total_ms, actual_total_ms));
            }
        }));
        for i in 0..4 {
            let plan = m.plan(1000.0);
            let noisy = plan.predicted_total_ms * (1.0 + 0.05 * i as f64);
            m.absorb(&fake_output(plan.scenario, vec![("RDG_FULL", noisy)]));
        }
        // the independently-subscribed pairs reproduce the manager's
        // AccuracyReport exactly (bit-identical fields)
        let external = triplec::accuracy::evaluate(&pairs.lock().unwrap());
        assert_eq!(external, m.accuracy());
        // the bus carried a PlanIssued and a FrameExecuted per frame
        let ev = events.lock().unwrap();
        let plans = ev
            .iter()
            .filter(|e| matches!(e, FrameEvent::PlanIssued { .. }))
            .count();
        let frames = ev
            .iter()
            .filter(|e| matches!(e, FrameEvent::FrameExecuted { .. }))
            .count();
        assert_eq!(plans, 4);
        assert_eq!(frames, 4);
        // frame indices advance monotonically
        let idx: Vec<usize> = ev
            .iter()
            .filter(|e| matches!(e, FrameEvent::FrameExecuted { .. }))
            .map(|e| e.frame())
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn budget_overrun_and_retrain_events_emitted() {
        use std::sync::{Arc, Mutex};
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        m.set_budget(LatencyBudget::new(10.0, 0.0));
        m.model_mut().set_online_training(true);
        let events = Arc::new(Mutex::new(Vec::new()));
        let es = Arc::clone(&events);
        m.subscribe(Box::new(move |e: &FrameEvent| {
            es.lock().unwrap().push(e.clone());
        }));
        let _ = m.plan(1000.0);
        // latency 40 ms against a 10 ms budget: overrun
        m.absorb(&fake_output(Scenario::from_id(5), vec![("RDG_FULL", 40.0)]));
        let ev = events.lock().unwrap();
        assert!(
            ev.iter().any(|e| matches!(
                e,
                FrameEvent::BudgetOverrun { latency_ms, budget_ms, .. }
                    if *latency_ms == 40.0 && *budget_ms == 10.0
            )),
            "no overrun event in {ev:?}"
        );
        assert!(
            ev.iter().any(|e| matches!(
                e,
                FrameEvent::ModelRetrained {
                    observations: 1,
                    ..
                }
            )),
            "no retrain event in {ev:?}"
        );
    }

    #[test]
    fn scenario_prediction_follows_chain() {
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        let plan = m.plan(1000.0);
        // the training sequence is all scenario 5
        assert_eq!(plan.scenario.id(), 5);
    }

    #[test]
    fn plan_quantiles_are_monotone_and_bound_the_mean_path() {
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        let plan = m.plan(1000.0);
        assert!(plan.predicted_p50_ms <= plan.predicted_p95_ms);
        assert!(plan.predicted_p95_ms <= plan.predicted_p99_ms);
        assert!(plan.predicted_p50_ms > 0.0);
        let dist = plan.prediction();
        assert!((dist.mean_ms - plan.predicted_total_ms).abs() < 1e-9);
        assert!(dist.quantile(0.99) >= dist.quantile(0.5));
    }

    #[test]
    fn calibration_reports_emitted_with_cumulative_coverage() {
        use std::sync::{Arc, Mutex};
        let mut m = ResourceManager::new(model(), ManagerConfig::default());
        let reports = Arc::new(Mutex::new(Vec::new()));
        let rs = Arc::clone(&reports);
        m.subscribe(Box::new(move |e: &FrameEvent| {
            if let FrameEvent::CalibrationReport {
                frames,
                p50_cov,
                p95_cov,
                p99_cov,
                ..
            } = *e
            {
                rs.lock().unwrap().push((frames, p50_cov, p95_cov, p99_cov));
            }
        }));
        for _ in 0..64 {
            let plan = m.plan(1000.0);
            // run every frame exactly at the predicted mean: always under
            // p95/p99, and under p50 when the distribution is degenerate
            m.absorb(&fake_output(
                plan.scenario,
                vec![("RDG_FULL", plan.predicted_total_ms)],
            ));
        }
        let reports = reports.lock().unwrap();
        assert_eq!(
            reports.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![32, 64],
            "one report per 32 absorbed frames"
        );
        for &(_, p50, p95, p99) in reports.iter() {
            assert!(p50 <= p95 && p95 <= p99, "coverage must be monotone");
            assert!(
                (0.9..=1.0).contains(&p99),
                "mean-exact frames must sit under p99: coverage {p99}"
            );
        }
        assert_eq!(m.calibration().frames, 64);
    }
}
