//! Per-frame execution traces.
//!
//! The experiments record one [`FrameRecord`] per processed frame — task
//! times, scenario, measured latency — and derive the summary statistics
//! reported in the paper (latency band, jitter, worst-vs-average gap).

use crate::task::Task;

/// Execution record of one frame.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Frame index.
    pub frame: usize,
    /// Scenario identifier (which switch combination ran), `0..8`.
    pub scenario: u8,
    /// Per-task execution times, `(task, ms)`.
    pub task_times: Vec<(Task, f64)>,
    /// Wall time of the frame, from entry to the built output, ms. At one
    /// stripe every task time nests inside it. A striped task's time is its
    /// serial part plus the sum of its bands' times, which run side by
    /// side, so at more stripes the task times can add up to more.
    pub latency_ms: f64,
}

impl FrameRecord {
    /// Sum of all task times (the serial computation time of the frame).
    pub fn total_task_time(&self) -> f64 {
        self.task_times.iter().map(|(_, t)| t).sum()
    }

    /// Time of one task if it ran this frame.
    pub fn task_time(&self, task: Task) -> Option<f64> {
        self.task_times
            .iter()
            .find(|&&(t, _)| t == task)
            .map(|&(_, t)| t)
    }
}

/// A log of frame records with summary helpers.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<FrameRecord>,
}

impl TraceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, r: FrameRecord) {
        self.records.push(r);
    }

    /// Appends every record of `other`, in order.
    pub fn append(&mut self, other: TraceLog) {
        self.records.extend(other.records);
    }

    /// All records.
    pub fn records(&self) -> &[FrameRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Latency series.
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_ms).collect()
    }

    /// Executed scenario id per frame.
    pub fn scenarios(&self) -> Vec<u8> {
        self.records.iter().map(|r| r.scenario).collect()
    }

    /// Scenario occupancy: how many frames ran each scenario id.
    pub fn scenario_histogram(&self) -> [usize; 8] {
        let mut h = [0usize; 8];
        for r in &self.records {
            h[(r.scenario as usize) % 8] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(frame: usize, scenario: u8, latency: f64) -> FrameRecord {
        FrameRecord {
            frame,
            scenario,
            task_times: vec![
                (Task::RdgFull, latency * 0.6),
                (Task::MkxExt, latency * 0.4),
            ],
            latency_ms: latency,
        }
    }

    #[test]
    fn record_totals_and_lookup() {
        let r = rec(0, 1, 10.0);
        assert!((r.total_task_time() - 10.0).abs() < 1e-12);
        assert!((r.task_time(Task::RdgFull).unwrap() - 6.0).abs() < 1e-12);
        assert!(r.task_time(Task::Zoom).is_none());
    }

    #[test]
    fn log_accumulates_and_summarizes() {
        let mut log = TraceLog::new();
        for i in 0..10 {
            log.push(rec(i, (i % 3) as u8, 10.0 + i as f64));
        }
        assert_eq!(log.len(), 10);
        let hist = log.scenario_histogram();
        assert_eq!(hist[0], 4);
        assert_eq!(hist[1], 3);
        assert_eq!(hist[2], 3);
        assert_eq!(hist[3..].iter().sum::<usize>(), 0);
    }
}
