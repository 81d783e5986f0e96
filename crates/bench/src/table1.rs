//! Table 1 — memory requirements for each task of Fig. 2 (KB).

use crate::report::{kb, table};
use triplec::memory_model::{
    implementation_table, paper_table1, FrameGeometry, TaskMemory, ZOOM_OUT,
};

/// Structured result: both tables.
#[derive(Debug, Clone)]
pub(crate) struct Table1Result {
    pub(crate) ours: Vec<TaskMemory>,
    pub(crate) paper: Vec<TaskMemory>,
}

fn rows(t: &[TaskMemory]) -> Vec<Vec<String>> {
    t.iter()
        .map(|m| {
            vec![
                m.task.to_string(),
                match m.rdg_selected {
                    None => "-".into(),
                    Some(true) => "x".into(),
                    Some(false) => "-".into(),
                },
                kb(m.input),
                kb(m.intermediate),
                kb(m.output),
            ]
        })
        .collect()
}

/// Runs the Table 1 derivation at the paper geometry.
pub(crate) fn run() -> (Table1Result, String) {
    let r = Table1Result {
        ours: implementation_table(FrameGeometry::PAPER, ZOOM_OUT),
        paper: paper_table1(),
    };
    let mut out = String::new();
    out.push_str("Table 1 — per-task memory requirements (KB) at 1024x1024, 2 B/px\n\n");
    out.push_str("This implementation (f32 intermediates, hence larger than the paper's):\n");
    out.push_str(&table(
        &["Task", "RDG sel", "Input", "Intermediate", "Output"],
        &rows(&r.ours),
    ));
    out.push_str("\nPaper's published Table 1 (reference implementation):\n");
    out.push_str(&table(
        &["Task", "RDG sel", "Input", "Intermediate", "Output"],
        &rows(&r.paper),
    ));
    out.push_str(
        "\nShape checks: MKX input grows when RDG is selected; RDG/ENH intermediates\n\
         exceed the 4 MB L2 (driving the Fig. 5 swap traffic) in both tables.\n",
    );
    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tables_rendered() {
        let (r, text) = run();
        assert!(!r.ours.is_empty());
        assert_eq!(r.paper.len(), 8);
        assert!(text.contains("2,048"), "paper RDG input missing:\n{text}");
        assert!(text.contains("7,168"), "paper RDG intermediate missing");
    }

    #[test]
    fn shape_preserved_vs_paper() {
        let (r, _) = run();
        // same qualitative ordering: RDG's intermediate is above ENH's
        let ours_rdg = r.ours.iter().find(|m| m.task == "RDG_FULL").unwrap();
        let ours_enh = r.ours.iter().find(|m| m.task == "ENH").unwrap();
        assert!(ours_rdg.intermediate > ours_enh.intermediate);
        let paper_l2 = 4 * 1024 * 1024;
        assert!(ours_rdg.overflows(paper_l2));
    }
}
