//! The unified per-task resource-model lifecycle.
//!
//! [`ResourceModel`] extends the bare prediction interface
//! ([`Predictor`]) with the state lifecycle a multi-stream runtime
//! needs: every model instance is **cloneable** (each stream owns an
//! independent copy), **snapshottable** (prediction state can be captured
//! and restored bit-exactly, e.g. for speculative planning or stream
//! migration) and **independently trainable** (online adaptation is a
//! runtime switch per instance, not a construction-time builder).
//!
//! The three predictor classes of Table 2(b) implement it:
//! [`ConstantPredictor`], [`EwmaMarkovPredictor`] and
//! [`LinearMarkovPredictor`]; the [`TripleC`](crate::triple::TripleC)
//! facade composes them and exposes the same lifecycle at whole-model
//! granularity.

use crate::predictor::{ConstantPredictor, EwmaMarkovPredictor, LinearMarkovPredictor, Predictor};
use crate::snapshot::{Reader, SnapshotError, Writer};

/// Class tag of a [`ConstantPredictor`] in serialized snapshots.
const TAG_CONSTANT: u8 = 1;
/// Class tag of an [`EwmaMarkovPredictor`] in serialized snapshots.
const TAG_EWMA_MARKOV: u8 = 2;
/// Class tag of a [`LinearMarkovPredictor`] in serialized snapshots.
const TAG_LINEAR_MARKOV: u8 = 3;

/// An opaque capture of one model's mutable prediction state.
///
/// Produced by [`ResourceModel::snapshot`] and consumed by
/// [`ResourceModel::restore`]; restoring a snapshot into a model of a
/// different class is a programming error and panics.
#[derive(Debug, Clone)]
pub enum ModelSnapshot {
    /// Snapshot of a [`ConstantPredictor`].
    Constant(ConstantPredictor),
    /// Snapshot of an [`EwmaMarkovPredictor`].
    EwmaMarkov(EwmaMarkovPredictor),
    /// Snapshot of a [`LinearMarkovPredictor`].
    LinearMarkov(LinearMarkovPredictor),
}

impl ModelSnapshot {
    /// Short class name (for diagnostics).
    pub fn class(&self) -> &'static str {
        match self {
            ModelSnapshot::Constant(_) => "Constant",
            ModelSnapshot::EwmaMarkov(_) => "EwmaMarkov",
            ModelSnapshot::LinearMarkov(_) => "LinearMarkov",
        }
    }

    /// Class tag + payload, without the stream header (so facade
    /// snapshots can pack many models under one header).
    pub(crate) fn encode_tagged(&self, w: &mut Writer) {
        match self {
            ModelSnapshot::Constant(p) => {
                w.u8(TAG_CONSTANT);
                p.encode(w);
            }
            ModelSnapshot::EwmaMarkov(p) => {
                w.u8(TAG_EWMA_MARKOV);
                p.encode(w);
            }
            ModelSnapshot::LinearMarkov(p) => {
                w.u8(TAG_LINEAR_MARKOV);
                p.encode(w);
            }
        }
    }

    pub(crate) fn decode_tagged(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            TAG_CONSTANT => Ok(ModelSnapshot::Constant(ConstantPredictor::decode(r)?)),
            TAG_EWMA_MARKOV => Ok(ModelSnapshot::EwmaMarkov(EwmaMarkovPredictor::decode(r)?)),
            TAG_LINEAR_MARKOV => Ok(ModelSnapshot::LinearMarkov(LinearMarkovPredictor::decode(
                r,
            )?)),
            other => Err(SnapshotError::BadClassTag(other)),
        }
    }

    /// Serializes the snapshot to a self-describing byte stream.
    ///
    /// The inverse, [`ResourceModel::try_restore_bytes`], validates every
    /// field and never panics on corrupt input — the contract the runtime's
    /// model-quarantine recovery relies on.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        self.encode_tagged(&mut w);
        w.finish()
    }

    /// Decodes a snapshot serialized by [`ModelSnapshot::to_bytes`].
    /// Truncated, garbled or wrong-format bytes return a
    /// [`SnapshotError`]; this function never panics.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::header(bytes)?;
        let snap = Self::decode_tagged(&mut r)?;
        r.expect_end()?;
        Ok(snap)
    }
}

/// A predictor with full per-stream state lifecycle.
pub trait ResourceModel: Predictor {
    /// Captures the complete mutable prediction state. Predictions after
    /// [`ResourceModel::restore`] of this snapshot are bit-identical to
    /// predictions taken right before the snapshot.
    fn snapshot(&self) -> ModelSnapshot;

    /// Restores a previously captured state. Panics if `snap` was taken
    /// from a different model class.
    fn restore(&mut self, snap: &ModelSnapshot);

    /// Enables or disables online training ("on-line model training",
    /// Section 6): when enabled, observed transitions keep adapting the
    /// model at runtime. With training off the model is completely
    /// frozen — observations are ignored end to end — so repeated plans
    /// from the same state are deterministic.
    fn set_online_training(&mut self, online: bool);

    /// Whether online training is currently enabled.
    fn online_training(&self) -> bool;

    /// An independent copy of this model (per-stream instantiation).
    fn clone_model(&self) -> Box<dyn ResourceModel>;

    /// Fallible [`ResourceModel::restore`]: a snapshot of a different
    /// class returns [`SnapshotError::ClassMismatch`] instead of
    /// panicking. The recovery runtime uses this when re-applying a
    /// possibly-corrupted checkpoint.
    fn try_restore(&mut self, snap: &ModelSnapshot) -> Result<(), SnapshotError> {
        let own = self.snapshot();
        if own.class() != snap.class() {
            return Err(SnapshotError::ClassMismatch {
                snapshot: snap.class(),
                model: own.class(),
            });
        }
        self.restore(snap);
        Ok(())
    }

    /// Decodes serialized snapshot bytes and restores them. Corrupt bytes
    /// or a class mismatch return `Err` and leave the model untouched;
    /// this never panics.
    fn try_restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let snap = ModelSnapshot::from_bytes(bytes)?;
        self.try_restore(&snap)
    }
}

fn wrong_class(model: &str, snap: &ModelSnapshot) -> ! {
    panic!(
        "cannot restore a {} snapshot into a {model} model",
        snap.class()
    )
}

impl ResourceModel for ConstantPredictor {
    fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::Constant(self.clone())
    }

    fn restore(&mut self, snap: &ModelSnapshot) {
        match snap {
            ModelSnapshot::Constant(p) => *self = p.clone(),
            other => wrong_class("Constant", other),
        }
    }

    fn set_online_training(&mut self, online: bool) {
        self.set_online(online);
    }

    fn online_training(&self) -> bool {
        self.online()
    }

    fn clone_model(&self) -> Box<dyn ResourceModel> {
        Box::new(self.clone())
    }
}

impl ResourceModel for EwmaMarkovPredictor {
    fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::EwmaMarkov(self.clone())
    }

    fn restore(&mut self, snap: &ModelSnapshot) {
        match snap {
            ModelSnapshot::EwmaMarkov(p) => *self = p.clone(),
            other => wrong_class("EwmaMarkov", other),
        }
    }

    fn set_online_training(&mut self, online: bool) {
        self.set_online(online);
    }

    fn online_training(&self) -> bool {
        self.online()
    }

    fn clone_model(&self) -> Box<dyn ResourceModel> {
        Box::new(self.clone())
    }
}

impl ResourceModel for LinearMarkovPredictor {
    fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::LinearMarkov(self.clone())
    }

    fn restore(&mut self, snap: &ModelSnapshot) {
        match snap {
            ModelSnapshot::LinearMarkov(p) => *self = p.clone(),
            other => wrong_class("LinearMarkov", other),
        }
    }

    fn set_online_training(&mut self, online: bool) {
        self.set_online(online);
    }

    fn online_training(&self) -> bool {
        self.online()
    }

    fn clone_model(&self) -> Box<dyn ResourceModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictContext;

    fn ctx() -> PredictContext {
        PredictContext { roi_kpixels: 120.0 }
    }

    #[test]
    fn constant_round_trip_is_identity() {
        let mut p = ConstantPredictor::new(2.5);
        let snap = p.snapshot();
        let before = p.predict(&ctx());
        p.observe(100.0, &ctx());
        p.restore(&snap);
        assert_eq!(p.predict(&ctx()), before);
    }

    #[test]
    fn ewma_markov_round_trip_is_bit_identical() {
        let series: Vec<f64> = (0..200).map(|i| 40.0 + (i % 7) as f64).collect();
        let mut p = EwmaMarkovPredictor::train(&series, 0.2, 16, "RDG");
        p.set_online_training(true);
        for i in 0..25 {
            p.observe(38.0 + (i % 5) as f64, &ctx());
        }
        let snap = p.snapshot();
        let before = p.predict(&ctx());
        let before_q = p.predict(&ctx()).quantile(0.9);
        // diverge, then restore
        for _ in 0..50 {
            p.observe(90.0, &ctx());
        }
        assert_ne!(p.predict(&ctx()), before);
        p.restore(&snap);
        assert_eq!(p.predict(&ctx()), before);
        assert_eq!(
            p.predict(&ctx()).quantile(0.9).to_bits(),
            before_q.to_bits()
        );
    }

    #[test]
    fn linear_markov_round_trip_is_bit_identical() {
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let roi = 50.0 + (i % 40) as f64;
                (roi, 0.07 * roi + 20.0 + (i % 3) as f64)
            })
            .collect();
        let mut p = LinearMarkovPredictor::train(&points, 8, "RDG_ROI");
        for i in 0..10 {
            p.observe(25.0 + i as f64, &ctx());
        }
        let snap = p.snapshot();
        let before = p.predict(&ctx());
        for _ in 0..30 {
            p.observe(80.0, &ctx());
        }
        p.restore(&snap);
        assert_eq!(p.predict(&ctx()), before);
    }

    #[test]
    fn clone_model_is_independent() {
        let series: Vec<f64> = (0..100).map(|i| 10.0 + (i % 4) as f64).collect();
        let mut a = EwmaMarkovPredictor::train(&series, 0.2, 8, "T");
        a.observe(11.0, &ctx());
        let mut b = a.clone_model();
        let before = a.predict(&ctx());
        for _ in 0..40 {
            b.observe(99.0, &ctx());
        }
        // training the clone must not disturb the original
        assert_eq!(a.predict(&ctx()), before);
        assert!(b.predict(&ctx()).mean_ms > a.predict(&ctx()).mean_ms);
    }

    #[test]
    fn online_training_is_a_runtime_switch() {
        let series = vec![10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0];
        let mut p = EwmaMarkovPredictor::train(&series, 0.3, 8, "T");
        assert!(!p.online_training());
        p.set_online_training(true);
        assert!(p.online_training());
        for _ in 0..100 {
            p.observe(20.0, &ctx());
        }
        let pred = p.predict(&ctx()).mean_ms;
        assert!((pred - 20.0).abs() < 1.5, "pred {pred}");
    }

    #[test]
    #[should_panic(expected = "cannot restore")]
    fn cross_class_restore_rejected() {
        let snap = ConstantPredictor::new(1.0).snapshot();
        let series = vec![1.0, 2.0, 3.0, 4.0];
        let mut p = EwmaMarkovPredictor::train(&series, 0.2, 4, "T");
        p.restore(&snap);
    }

    #[test]
    fn try_restore_rejects_cross_class_without_panicking() {
        let snap = ConstantPredictor::new(1.0).snapshot();
        let series = vec![1.0, 2.0, 3.0, 4.0];
        let mut p = EwmaMarkovPredictor::train(&series, 0.2, 4, "T");
        let before = p.predict(&ctx());
        let err = p.try_restore(&snap).unwrap_err();
        assert!(matches!(
            err,
            crate::snapshot::SnapshotError::ClassMismatch { .. }
        ));
        // model untouched on error
        assert_eq!(p.predict(&ctx()), before);
    }

    #[test]
    fn byte_round_trip_is_bit_identical_for_all_classes() {
        let series: Vec<f64> = (0..200).map(|i| 40.0 + (i % 7) as f64).collect();
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let roi = 50.0 + (i % 40) as f64;
                (roi, 0.07 * roi + 20.0 + (i % 3) as f64)
            })
            .collect();
        let mut models: Vec<Box<dyn ResourceModel>> = vec![
            Box::new(ConstantPredictor::new(2.5)),
            Box::new(EwmaMarkovPredictor::train(&series, 0.2, 16, "RDG")),
            Box::new(LinearMarkovPredictor::train(&points, 8, "RDG_ROI")),
        ];
        for m in &mut models {
            m.set_online_training(true);
            for i in 0..15 {
                m.observe(30.0 + (i % 4) as f64, &ctx());
            }
            let bytes = m.snapshot().to_bytes();
            let before = m.predict(&ctx());
            for _ in 0..30 {
                m.observe(90.0, &ctx());
            }
            m.try_restore_bytes(&bytes).unwrap();
            assert_eq!(
                m.predict(&ctx()),
                before,
                "{} prediction differs after byte round trip",
                m.model_name()
            );
        }
    }

    #[test]
    fn corrupt_bytes_error_for_every_class() {
        let series: Vec<f64> = (0..100).map(|i| 10.0 + (i % 4) as f64).collect();
        let mut p = EwmaMarkovPredictor::train(&series, 0.2, 8, "T");
        let bytes = p.snapshot().to_bytes();
        // every truncation is an error, never a panic
        for cut in 0..bytes.len() {
            assert!(
                ModelSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
            assert!(p.try_restore_bytes(&bytes[..cut]).is_err());
        }
        // trailing garbage is an error too
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            ModelSnapshot::from_bytes(&extended),
            Err(crate::snapshot::SnapshotError::TrailingBytes(1))
        ));
    }
}
