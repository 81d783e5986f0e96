//! Application scenarios: the data-dependent switch state tables.
//!
//! "Due to the switch statements in the flow graph of Figure 2, there are
//! multiple application scenarios possible. ... In total, there are eight
//! different scenarios possible given the three switch statements in the
//! flow graph." (Section 5)
//!
//! The three switches are: RDG DETECTION (are dominant structures present,
//! so ridge detection must run), ROI ESTIMATED (was a region of interest
//! found, enabling ROI-granularity processing), and REG. SUCCESSFUL (did
//! temporal registration succeed, enabling enhancement and zoom).

use crate::markov::MarkovChain;
use platform::task::{Task, TaskSet};

/// One switch combination.
///
/// ```
/// use triplec::{Scenario, Task};
/// let worst = Scenario::worst_case().active_tasks();
/// assert!(worst.contains(Task::RdgFull) && worst.contains(Task::Enh));
/// let best = Scenario::best_case().active_tasks();
/// assert!(!best.contains(Task::Enh));
/// assert_eq!(Scenario::all().len(), 8); // the paper's eight scenarios
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// RDG DETECTION: dominant structures present, ridge detection runs.
    pub rdg_active: bool,
    /// ROI ESTIMATED: a region of interest is available from tracking, so
    /// analysis runs at ROI granularity instead of full-frame.
    pub roi_estimated: bool,
    /// REG. SUCCESSFUL: registration passed, enhancement and zoom run.
    pub reg_successful: bool,
}

impl Scenario {
    /// Scenario id in `0..8` (bit 0 = RDG, bit 1 = ROI, bit 2 = REG).
    pub fn id(&self) -> u8 {
        u8::from(self.rdg_active)
            | (u8::from(self.roi_estimated) << 1)
            | (u8::from(self.reg_successful) << 2)
    }

    /// Inverse of [`Scenario::id`].
    pub fn from_id(id: u8) -> Self {
        assert!(id < 8, "scenario id out of range: {id}");
        Self {
            rdg_active: id & 1 != 0,
            roi_estimated: id & 2 != 0,
            reg_successful: id & 4 != 0,
        }
    }

    /// All eight scenarios in id order.
    pub fn all() -> [Scenario; 8] {
        std::array::from_fn(|i| Scenario::from_id(i as u8))
    }

    /// The worst-case scenario for bandwidth: full-frame granularity, RDG
    /// active, registration successful (Section 5).
    pub fn worst_case() -> Self {
        Self {
            rdg_active: true,
            roi_estimated: false,
            reg_successful: true,
        }
    }

    /// The best-case scenario for bandwidth: ROI granularity, no RDG, no
    /// registration success ("the algorithm will not output a satisfying
    /// result", Section 5).
    pub fn best_case() -> Self {
        Self {
            rdg_active: false,
            roi_estimated: true,
            reg_successful: false,
        }
    }

    /// The state table: which tasks run under this scenario.
    ///
    /// * RDG runs (full or ROI granularity) only when `rdg_active`;
    /// * marker extraction, couples selection and registration always run;
    /// * ROI estimation and guide-wire extraction run once a couple is
    ///   being tracked (`roi_estimated`);
    /// * enhancement and zoom run only on successful registration.
    ///
    /// The set iterates in Fig. 2 order.
    pub fn active_tasks(&self) -> TaskSet {
        let mut tasks: TaskSet = [Task::MkxExt, Task::CplsSel, Task::Reg]
            .into_iter()
            .collect();
        if self.rdg_active {
            tasks.insert(if self.roi_estimated {
                Task::RdgRoi
            } else {
                Task::RdgFull
            });
        }
        if self.roi_estimated {
            tasks.insert(Task::RoiEst);
            tasks.insert(Task::GwExt);
        }
        if self.reg_successful {
            tasks.insert(Task::Enh);
            tasks.insert(Task::Zoom);
        }
        tasks
    }
}

/// One segment of a scripted scenario storm: hold one switch combination
/// for a number of consecutive frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptSegment {
    /// Scenario id (`0..8`) forced during this segment.
    pub scenario: u8,
    /// Number of consecutive frames the segment covers (must be > 0).
    pub frames: usize,
}

/// A scripted scenario storm: a timed sequence of forced switch states.
///
/// Scripts override the data-dependent switches of the flow graph so
/// workloads can thrash the eight scenario states on a schedule the
/// Markov predictor has never seen (rapid-switch sequences, held
/// worst-case bursts). Frames past the end of the script fall back to
/// the natural content-derived switches.
///
/// ```
/// use triplec::scenario::ScenarioScript;
/// let script = ScenarioScript::thrash(&[0, 7], 1, 4);
/// assert_eq!(script.scenario_at(0).unwrap().id(), 0);
/// assert_eq!(script.scenario_at(1).unwrap().id(), 7);
/// assert_eq!(script.scenario_at(7).unwrap().id(), 7);
/// assert!(script.scenario_at(8).is_none()); // past the script
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioScript {
    segments: Vec<ScriptSegment>,
}

impl ScenarioScript {
    /// Builds a script from explicit segments. Panics on an out-of-range
    /// scenario id or a zero-length segment (both are authoring errors).
    pub fn new(segments: Vec<ScriptSegment>) -> Self {
        for seg in &segments {
            assert!(
                seg.scenario < 8,
                "scenario id out of range: {}",
                seg.scenario
            );
            assert!(seg.frames > 0, "zero-length script segment");
        }
        Self { segments }
    }

    /// A single held scenario.
    pub fn hold(scenario: u8, frames: usize) -> Self {
        Self::new(vec![ScriptSegment { scenario, frames }])
    }

    /// A rapid-switch thrash: cycles through `ids`, holding each for
    /// `period` frames, repeated `cycles` times.
    pub fn thrash(ids: &[u8], period: usize, cycles: usize) -> Self {
        let mut segments = Vec::with_capacity(ids.len() * cycles);
        for _ in 0..cycles {
            for &id in ids {
                segments.push(ScriptSegment {
                    scenario: id,
                    frames: period,
                });
            }
        }
        Self::new(segments)
    }

    /// The scenario forced at `frame`, or `None` past the script's end.
    pub fn scenario_at(&self, frame: usize) -> Option<Scenario> {
        let mut start = 0usize;
        for seg in &self.segments {
            let end = start + seg.frames;
            if frame < end {
                return Some(Scenario::from_id(seg.scenario));
            }
            start = end;
        }
        None
    }
}

/// A Markov chain over scenario ids: predicts the next frame's switch
/// combination from the current one (the scenario-based part of
/// "scenario-based Markov chains").
#[derive(Debug, Clone)]
pub struct ScenarioChain {
    chain: MarkovChain,
}

impl ScenarioChain {
    /// Estimates the chain from an observed scenario-id sequence.
    pub fn estimate(sequence: &[u8]) -> Self {
        let seq: Vec<usize> = sequence.iter().map(|&s| s as usize).collect();
        Self {
            chain: MarkovChain::estimate(&seq, 8),
        }
    }

    /// Most likely next scenario.
    pub fn predict_next(&self, current: Scenario) -> Scenario {
        Scenario::from_id(self.chain.most_likely_next(current.id() as usize) as u8)
    }

    /// Probability of transitioning between two scenarios.
    pub fn prob(&self, from: Scenario, to: Scenario) -> f64 {
        self.chain.prob(from.id() as usize, to.id() as usize)
    }

    /// The underlying 8x8 chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trips() {
        for id in 0..8u8 {
            assert_eq!(Scenario::from_id(id).id(), id);
        }
        assert_eq!(Scenario::all().len(), 8);
    }

    #[test]
    fn eight_distinct_scenarios() {
        let ids: std::collections::BTreeSet<u8> = Scenario::all().iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), 8);
    }

    /// The state table, each row in Fig. 2 order: the order in which a
    /// plan sums its per-task predictions, and so the order the golden
    /// ledgers' `predicted_ms` depend on.
    #[test]
    fn active_tasks_follow_the_state_table_in_fig2_order() {
        use Task::*;
        let table: [&[Task]; 8] = [
            &[MkxExt, CplsSel, Reg],
            &[RdgFull, MkxExt, CplsSel, Reg],
            &[MkxExt, CplsSel, Reg, RoiEst, GwExt],
            &[RdgRoi, MkxExt, CplsSel, Reg, RoiEst, GwExt],
            &[MkxExt, CplsSel, Reg, Enh, Zoom],
            &[RdgFull, MkxExt, CplsSel, Reg, Enh, Zoom],
            &[MkxExt, CplsSel, Reg, RoiEst, GwExt, Enh, Zoom],
            &[RdgRoi, MkxExt, CplsSel, Reg, RoiEst, GwExt, Enh, Zoom],
        ];
        for (s, want) in Scenario::all().into_iter().zip(table) {
            let got: Vec<Task> = s.active_tasks().into_iter().collect();
            assert_eq!(got, want, "scenario {}", s.id());
        }
        // the worst case runs full-frame RDG, ENH and ZOOM; the best none
        assert_eq!(Scenario::worst_case().id(), 5);
        assert_eq!(Scenario::best_case().id(), 2);
    }

    #[test]
    fn scenario_chain_prediction() {
        // alternating scenario 0 and 7
        let seq = vec![0u8, 7, 0, 7, 0, 7, 0];
        let sc = ScenarioChain::estimate(&seq);
        assert_eq!(sc.predict_next(Scenario::from_id(0)).id(), 7);
        assert_eq!(sc.predict_next(Scenario::from_id(7)).id(), 0);
        assert!((sc.prob(Scenario::from_id(0), Scenario::from_id(7)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_scenario_id_rejected() {
        let _ = Scenario::from_id(8);
    }

    #[test]
    fn script_hold_and_thrash() {
        let hold = ScenarioScript::hold(5, 3);
        for f in 0..3 {
            assert_eq!(hold.scenario_at(f).unwrap().id(), 5);
        }
        assert!(hold.scenario_at(3).is_none());

        let thrash = ScenarioScript::thrash(&[1, 6], 2, 2);
        let ids: Vec<u8> = (0..8)
            .map(|f| thrash.scenario_at(f).unwrap().id())
            .collect();
        assert_eq!(ids, vec![1, 1, 6, 6, 1, 1, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn script_rejects_bad_id() {
        let _ = ScenarioScript::hold(8, 1);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn script_rejects_empty_segment() {
        let _ = ScenarioScript::hold(0, 0);
    }
}
