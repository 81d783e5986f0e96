//! Inter-task data edges of the flow graph.
//!
//! An [`Edge`] is one buffer flowing between two [`Endpoint`]s per frame;
//! its bandwidth is that buffer's size times the frame rate (the MByte/s
//! annotations of Fig. 2).

use crate::task::Task;

/// One end of a data edge: the camera input, a task, or the display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The camera input stream.
    Input,
    /// A processing task.
    Task(Task),
    /// The display output.
    Output,
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Input => f.write_str("INPUT"),
            Endpoint::Task(t) => f.write_str(t.name()),
            Endpoint::Output => f.write_str("OUTPUT"),
        }
    }
}

/// A data edge of the flow graph.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producing end.
    pub from: Endpoint,
    /// Consuming end.
    pub to: Endpoint,
    /// Bytes transferred per frame.
    pub bytes_per_frame: usize,
}

impl Edge {
    /// Edge bandwidth at the given frame rate, bytes/s.
    pub fn bandwidth(&self, frame_rate: f64) -> f64 {
        self.bytes_per_frame as f64 * frame_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MB;

    #[test]
    fn edge_bandwidth_is_bytes_times_rate() {
        let e = Edge {
            from: Endpoint::Input,
            to: Endpoint::Task(Task::RdgFull),
            bytes_per_frame: MB,
        };
        assert!((e.bandwidth(30.0) - 30.0 * MB as f64).abs() < 1.0);
    }

    #[test]
    fn endpoints_print_their_fig2_names() {
        assert_eq!(Endpoint::Input.to_string(), "INPUT");
        assert_eq!(Endpoint::Task(Task::RdgFull).to_string(), "RDG_FULL");
        assert_eq!(Endpoint::Output.to_string(), "OUTPUT");
    }
}
