//! Property-based tests of the snapshot/restore contract: restoring
//! `TripleC::snapshot_bytes` makes subsequent predictions **bit-identical**
//! to the predictions at snapshot time, for every predictor class and for
//! the whole facade, regardless of what was observed in between. The byte
//! format itself is pinned.

mod common;

use common::*;
use proptest::prelude::*;
use proptest::TestCaseError;
use triple_c::triplec::training::ModelKind;
use triple_c::triplec::triple::TripleC;
use triple_c::triplec::Task;

/// Checks that `task` trained to `kind`, snapshots, perturbs `task` with
/// online observations, restores, and checks every task's prediction is
/// bit-identical to the snapshot-time prediction.
fn assert_roundtrip(
    mut t: TripleC,
    task: Task,
    kind: ModelKind,
    observe: &[f64],
    roi: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(class_of(&t, task), Some(kind));
    t.set_online_training(true);
    let bytes = t.snapshot_bytes();
    let at_snapshot = prediction_bits(&t, roi);

    for &x in observe {
        prop_assert!(t.observe_task(task, x, &ctx(roi)));
    }
    // a clone taken now must preserve the perturbed state bit-exactly too
    let perturbed = prediction_bits(&t, roi);
    prop_assert_eq!(&perturbed, &prediction_bits(&t.clone(), roi));

    t.try_restore_bytes(&bytes).expect("own snapshot restores");
    prop_assert!(
        at_snapshot == prediction_bits(&t, roi),
        "restore of {} not bit-identical",
        task
    );
    // restoring is repeatable
    t.try_restore_bytes(&bytes).expect("own snapshot restores");
    prop_assert_eq!(at_snapshot, prediction_bits(&t, roi));
    Ok(())
}

/// The byte format, pinned by FNV-1a digests of the three-class model's
/// snapshot, fresh and after online observations.
#[test]
fn snapshot_bytes_are_pinned() {
    let mut t = three_class_model();
    for (task, kind) in TASKS {
        assert_eq!(class_of(&t, task), Some(kind), "{task}");
    }
    let fresh = t.snapshot_bytes();
    assert_eq!((fresh.len(), fnv1a(&fresh)), (2481, 0x228a_8d17_919b_97f5));
    t.set_online_training(true);
    for i in 0..12 {
        for (task, _) in TASKS {
            t.observe_task(
                task,
                30.0 + (i % 5) as f64 * 1.5,
                &ctx(100.0 + 10.0 * i as f64),
            );
        }
    }
    let observed = t.snapshot_bytes();
    assert_eq!(
        (observed.len(), fnv1a(&observed)),
        (2577, 0x6ae9_34cd_c98e_49f7)
    );
}

proptest! {
    #[test]
    fn constant_snapshot_roundtrip(
        v in 0.1f64..1e3,
        observe in prop::collection::vec(0.0f64..1e3, 1..30),
    ) {
        let t = three_class_model_with(constant_series(Task::MkxExt, v));
        assert_roundtrip(t, Task::MkxExt, ModelKind::Constant, &observe, 100.0)?;
    }

    #[test]
    fn ewma_markov_snapshot_roundtrip(
        jitter in prop::collection::vec(-0.5f64..0.5, 0..60),
        observe in prop::collection::vec(1.0f64..100.0, 1..30),
    ) {
        let t = three_class_model_with(autocorrelated_series(Task::RdgFull, &jitter));
        assert_roundtrip(t, Task::RdgFull, ModelKind::EwmaMarkov, &observe, 100.0)?;
    }

    #[test]
    fn linear_markov_snapshot_roundtrip(
        slope in 0.05f64..1.0,
        intercept in 0.0f64..20.0,
        noise in prop::collection::vec(-0.5f64..0.5, 20..60),
        observe in prop::collection::vec(1.0f64..100.0, 1..30),
        roi in 10.0f64..2000.0,
    ) {
        let t = three_class_model_with(roi_line_series(Task::RdgRoi, slope, intercept, &noise));
        assert_roundtrip(t, Task::RdgRoi, ModelKind::LinearMarkov, &observe, roi)?;
    }

    /// The whole facade round-trips: every per-task model restores to a
    /// bit-identical prediction after all of them were perturbed.
    #[test]
    fn triplec_snapshot_roundtrip(
        observe in prop::collection::vec(20.0f64..60.0, 1..20),
        roi in 10.0f64..2000.0,
    ) {
        let mut t = three_class_model();
        t.set_online_training(true);
        let bytes = t.snapshot_bytes();
        let at_snapshot = prediction_bits(&t, roi);
        for &x in &observe {
            for (task, _) in TASKS {
                prop_assert!(t.observe_task(task, x, &ctx(roi)));
            }
        }
        t.try_restore_bytes(&bytes).expect("own snapshot restores");
        prop_assert_eq!(at_snapshot, prediction_bits(&t, roi));
        prop_assert_eq!(t.snapshot_bytes(), bytes);
    }
}
