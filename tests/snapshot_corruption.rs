//! Snapshot/restore under corruption, mirroring `proptest_snapshot.rs`:
//! restoring truncated, garbled, renamed or cross-class
//! `TripleC::snapshot_bytes` must return `Err` (never panic) for every
//! predictor class and for the whole facade — and a rejected restore must
//! leave the live model bit-identically untouched.

mod common;

use common::*;
use proptest::prelude::*;
use proptest::TestCaseError;
use triple_c::triplec::triple::TripleC;
use triple_c::triplec::{SnapshotError, Task};

/// The three-class model after some online observations, with its
/// snapshot bytes.
fn observed_model() -> (TripleC, Vec<u8>) {
    let mut t = three_class_model();
    for (task, kind) in TASKS {
        assert_eq!(class_of(&t, task), Some(kind), "{task}");
    }
    t.set_online_training(true);
    for i in 0..10 {
        for (task, _) in TASKS {
            t.observe_task(task, 25.0 + (i % 4) as f64, &ctx(100.0));
        }
    }
    let bytes = t.snapshot_bytes();
    (t, bytes)
}

/// Restoring `corrupted` must never panic; on `Err` the model's
/// predictions are bit-identical to the pre-restore ones.
fn assert_rejects_cleanly(t: &mut TripleC, corrupted: &[u8]) -> Result<(), TestCaseError> {
    let before = prediction_bits(t, 100.0);
    match t.try_restore_bytes(corrupted) {
        Err(_) => {
            prop_assert!(
                before == prediction_bits(t, 100.0),
                "rejected restore mutated the model"
            );
        }
        Ok(()) => {
            // the mutation happened to decode as a valid snapshot (e.g. a
            // benign payload flip): the restored state must itself
            // round-trip
            let bytes2 = t.snapshot_bytes();
            prop_assert!(t.try_restore_bytes(&bytes2).is_ok());
        }
    }
    Ok(())
}

/// A task name or predictor label changed to another valid ASCII name
/// (e.g. `RDG_FULL` → `SDG_FULL`, or `MKX_EXT` → `MKX_FULL`, a Table 1 row
/// that is no task) restores nothing.
#[test]
fn renamed_task_or_label_is_rejected() {
    let (mut t, bytes) = observed_model();
    let before = prediction_bits(&t, 100.0);
    let summary = t.model_summary();
    let mut renames = Vec::new();
    for (task, _) in TASKS {
        let name = task.name().as_bytes();
        let hits = bytes.windows(name.len()).enumerate();
        for (at, _) in hits.filter(|(_, w)| *w == name) {
            let mut renamed = bytes.clone();
            renamed[at] += 1;
            renames.push((format!("{task} renamed at byte {at}"), renamed));
        }
    }
    // each task's name, plus the labels of the two Markov classes
    assert_eq!(renames.len(), 5);
    // MKX_EXT's entry, length prefix and all, under a longer name
    let (start, _) = task_segment(&bytes, Task::MkxExt);
    let mut renamed = bytes[..start].to_vec();
    renamed.extend_from_slice(&8u32.to_le_bytes());
    renamed.extend_from_slice(b"MKX_FULL");
    renamed.extend_from_slice(&bytes[start + 4 + Task::MkxExt.name().len()..]);
    renames.push(("MKX_EXT renamed MKX_FULL".to_string(), renamed));
    for (what, renamed) in renames {
        assert!(
            matches!(
                t.try_restore_bytes(&renamed),
                Err(SnapshotError::Corrupt(_))
            ),
            "{what} restored"
        );
        assert_eq!(prediction_bits(&t, 100.0), before);
        assert_eq!(t.model_summary(), summary);
    }
}

proptest! {
    /// A byte of each class's entry garbled.
    #[test]
    fn every_class_rejects_garbled_bytes_without_panicking(
        at in 0usize..4096,
        mask in 1u8..255,
    ) {
        let (mut t, bytes) = observed_model();
        for (task, _) in TASKS {
            let (start, end) = task_segment(&bytes, task);
            let mut garbled = bytes.clone();
            garbled[start + at % (end - start)] ^= mask;
            assert_rejects_cleanly(&mut t, &garbled)?;
        }
    }

    /// The bytes cut inside each class's entry.
    #[test]
    fn every_class_rejects_truncations_without_panicking(at in 0usize..4096) {
        let (mut t, bytes) = observed_model();
        for (task, _) in TASKS {
            let (start, end) = task_segment(&bytes, task);
            let cut = start + at % (end - start);
            let before = prediction_bits(&t, 100.0);
            prop_assert!(
                t.try_restore_bytes(&bytes[..cut]).is_err(),
                "{task}: truncation to {cut}/{} accepted",
                bytes.len()
            );
            prop_assert_eq!(before, prediction_bits(&t, 100.0));
        }
    }

    #[test]
    fn facade_rejects_corruption_without_panicking(
        at in 0usize..65536,
        mask in 1u8..255,
        truncate in any::<bool>(),
    ) {
        let mut t = three_class_model();
        let bytes = t.snapshot_bytes();
        let before = prediction_bits(&t, 100.0);

        let corrupted: Vec<u8> = if truncate {
            bytes[..at % bytes.len()].to_vec()
        } else {
            let mut b = bytes.clone();
            let i = at % b.len();
            b[i] ^= mask;
            b
        };
        if truncate {
            prop_assert!(t.try_restore_bytes(&corrupted).is_err());
        } else {
            assert_rejects_cleanly(&mut t, &corrupted)?;
        }
        // whatever happened, the facade still predicts finite values and a
        // pristine restore brings back the exact snapshot-time state
        let after = prediction_bits(&t, 100.0);
        prop_assert!(after.iter().all(|&b| f64::from_bits(b).is_finite()));
        t.try_restore_bytes(&bytes).expect("pristine bytes restore");
        prop_assert_eq!(&before, &prediction_bits(&t, 100.0));
    }

    /// Bytes of a model whose task `which` trained to the next class.
    #[test]
    fn cross_class_restore_is_rejected(which in 0usize..3) {
        let (task, _) = TASKS[which];
        let other = TASKS[(which + 1) % 3].1;
        let donor = three_class_model_with(series_of(task, other));
        prop_assert_eq!(class_of(&donor, task), Some(other));
        let (mut t, _) = observed_model();
        let before = prediction_bits(&t, 100.0);
        prop_assert!(
            matches!(
                t.try_restore_bytes(&donor.snapshot_bytes()),
                Err(SnapshotError::ClassMismatch { .. })
            ),
            "{} restored from a {:?} snapshot",
            task,
            other
        );
        prop_assert_eq!(before, prediction_bits(&t, 100.0));
        prop_assert_eq!(class_of(&t, task), Some(TASKS[which].1));
    }
}
