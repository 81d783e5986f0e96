//! The nine tasks of the Fig. 2 flow graph, as a type.
//!
//! The paper's task set is closed: every frame runs a subset of these nine
//! tasks, chosen by the three data-dependent switches. [`Task`] names one
//! of them and [`TaskSet`] a subset; both are plain values, so recording a
//! task time or walking a scenario's tasks parses and allocates nothing.
//! A task's name ([`Task::name`]) is its textual form at the boundaries:
//! snapshot bytes, ledgers, metric labels and span names.

/// One task of the Fig. 2 flow graph, declared in graph order.
///
/// ```
/// use platform::task::Task;
/// assert_eq!(Task::GwExt.name(), "GW_EXT");
/// assert_eq!(Task::ALL.len(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Task {
    /// Ridge detection over the full frame.
    RdgFull,
    /// Ridge detection over the region of interest.
    RdgRoi,
    /// Marker extraction.
    MkxExt,
    /// Marker-couple selection.
    CplsSel,
    /// Temporal registration.
    Reg,
    /// Region-of-interest estimation.
    RoiEst,
    /// Guide-wire extraction.
    GwExt,
    /// Temporal enhancement.
    Enh,
    /// Zoom to the display.
    Zoom,
}

impl Task {
    /// Every task, in declaration (Fig. 2) order.
    pub const ALL: [Task; 9] = [
        Task::RdgFull,
        Task::RdgRoi,
        Task::MkxExt,
        Task::CplsSel,
        Task::Reg,
        Task::RoiEst,
        Task::GwExt,
        Task::Enh,
        Task::Zoom,
    ];

    /// The task's Fig. 2 name.
    pub const fn name(self) -> &'static str {
        match self {
            Task::RdgFull => "RDG_FULL",
            Task::RdgRoi => "RDG_ROI",
            Task::MkxExt => "MKX_EXT",
            Task::CplsSel => "CPLS_SEL",
            Task::Reg => "REG",
            Task::RoiEst => "ROI_EST",
            Task::GwExt => "GW_EXT",
            Task::Enh => "ENH",
            Task::Zoom => "ZOOM",
        }
    }

    const fn bit(self) -> u16 {
        1 << self as u16
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of tasks, one bit per task. It iterates in declaration order.
///
/// ```
/// use platform::task::{Task, TaskSet};
/// let set: TaskSet = [Task::Zoom, Task::RdgFull].into_iter().collect();
/// assert!(set.contains(Task::Zoom) && !set.contains(Task::Enh));
/// assert_eq!(set.into_iter().collect::<Vec<_>>(), [Task::RdgFull, Task::Zoom]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskSet(u16);

impl TaskSet {
    /// Adds `task` to the set.
    pub fn insert(&mut self, task: Task) {
        self.0 |= task.bit();
    }

    /// Whether `task` is in the set.
    pub fn contains(self, task: Task) -> bool {
        self.0 & task.bit() != 0
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(tasks: I) -> Self {
        let mut set = TaskSet::default();
        for task in tasks {
            set.insert(task);
        }
        set
    }
}

/// The iterator of a [`TaskSet`]: its tasks in declaration order.
#[derive(Debug, Clone)]
pub struct TaskSetIter(u16);

impl Iterator for TaskSetIter {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(Task::ALL[i])
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = TaskSetIter;

    fn into_iter(self) -> TaskSetIter {
        TaskSetIter(self.0)
    }
}

impl IntoIterator for &TaskSet {
    type Item = Task;
    type IntoIter = TaskSetIter;

    fn into_iter(self) -> TaskSetIter {
        TaskSetIter(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_declaration_order() {
        for (i, t) in Task::ALL.into_iter().enumerate() {
            assert_eq!(t as usize, i);
        }
    }

    #[test]
    fn set_iterates_in_declaration_order_by_value_and_by_reference() {
        let set: TaskSet = Task::ALL.into_iter().rev().step_by(2).collect();
        let want = [
            Task::RdgFull,
            Task::MkxExt,
            Task::Reg,
            Task::GwExt,
            Task::Zoom,
        ];
        assert_eq!(set.into_iter().collect::<Vec<_>>(), want);
        assert_eq!((&set).into_iter().collect::<Vec<_>>(), want);
        assert!(TaskSet::default().into_iter().next().is_none());
    }
}
