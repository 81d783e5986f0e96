//! One task's model: one of the three predictor classes of Table 2(b).
//!
//! [`select_model`](crate::training::select_model) picks the class per
//! task from its profiled series, and the set of classes is closed, so a
//! [`TaskModel`] is an enum over them. The [`TripleC`](crate::triple::TripleC)
//! facade holds one per trained task; copying the facade clones them, and
//! its snapshot bytes are each model's class tag plus payload.

use crate::predictor::{
    ConstantPredictor, EwmaMarkovPredictor, LinearMarkovPredictor, PredictContext, Prediction,
};
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::training::ModelKind;

/// Class tag of a [`ConstantPredictor`] in serialized snapshots.
const TAG_CONSTANT: u8 = 1;
/// Class tag of an [`EwmaMarkovPredictor`] in serialized snapshots.
const TAG_EWMA_MARKOV: u8 = 2;
/// Class tag of a [`LinearMarkovPredictor`] in serialized snapshots.
const TAG_LINEAR_MARKOV: u8 = 3;

/// A trained per-task predictor of one of the Table 2(b) classes.
#[derive(Debug, Clone)]
pub(crate) enum TaskModel {
    Constant(ConstantPredictor),
    EwmaMarkov(EwmaMarkovPredictor),
    LinearMarkov(LinearMarkovPredictor),
}

/// Short class name (for [`SnapshotError::ClassMismatch`]).
fn class_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Constant => "Constant",
        ModelKind::EwmaMarkov => "EwmaMarkov",
        ModelKind::LinearMarkov => "LinearMarkov",
    }
}

impl TaskModel {
    /// The model's class.
    pub(crate) fn kind(&self) -> ModelKind {
        match self {
            TaskModel::Constant(_) => ModelKind::Constant,
            TaskModel::EwmaMarkov(_) => ModelKind::EwmaMarkov,
            TaskModel::LinearMarkov(_) => ModelKind::LinearMarkov,
        }
    }

    /// Predictive distribution of the task's next execution time.
    pub(crate) fn predict(&self, ctx: &PredictContext) -> Prediction {
        match self {
            TaskModel::Constant(p) => p.predict(ctx),
            TaskModel::EwmaMarkov(p) => p.predict(ctx),
            TaskModel::LinearMarkov(p) => p.predict(ctx),
        }
    }

    /// Feeds the measured execution time after the task ran.
    pub(crate) fn observe(&mut self, actual_ms: f64, ctx: &PredictContext) {
        match self {
            TaskModel::Constant(p) => p.observe(actual_ms, ctx),
            TaskModel::EwmaMarkov(p) => p.observe(actual_ms, ctx),
            TaskModel::LinearMarkov(p) => p.observe(actual_ms, ctx),
        }
    }

    /// Model summary string for the Table 2(b) report.
    pub(crate) fn model_name(&self) -> String {
        match self {
            TaskModel::Constant(p) => p.model_name(),
            TaskModel::EwmaMarkov(p) => p.model_name(),
            TaskModel::LinearMarkov(p) => p.model_name(),
        }
    }

    /// Enables or disables online training ("on-line model training",
    /// Section 6).
    pub(crate) fn set_online(&mut self, online: bool) {
        match self {
            TaskModel::Constant(p) => p.set_online(online),
            TaskModel::EwmaMarkov(p) => p.set_online(online),
            TaskModel::LinearMarkov(p) => p.set_online(online),
        }
    }

    /// Whether online training is enabled.
    pub(crate) fn online(&self) -> bool {
        match self {
            TaskModel::Constant(p) => p.online(),
            TaskModel::EwmaMarkov(p) => p.online(),
            TaskModel::LinearMarkov(p) => p.online(),
        }
    }

    /// Class tag + payload (no stream header: the facade packs many
    /// models under one).
    pub(crate) fn encode_tagged(&self, w: &mut Writer) {
        match self {
            TaskModel::Constant(p) => {
                w.u8(TAG_CONSTANT);
                p.encode(w);
            }
            TaskModel::EwmaMarkov(p) => {
                w.u8(TAG_EWMA_MARKOV);
                p.encode(w);
            }
            TaskModel::LinearMarkov(p) => {
                w.u8(TAG_LINEAR_MARKOV);
                p.encode(w);
            }
        }
    }

    /// Decodes a tagged payload as a new state of this model. A tag of
    /// another class is [`SnapshotError::ClassMismatch`], and a predictor
    /// label other than this model's is [`SnapshotError::Corrupt`]: a
    /// restore never changes a task's class or name.
    pub(crate) fn decode_tagged(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let kind = match r.u8()? {
            TAG_CONSTANT => ModelKind::Constant,
            TAG_EWMA_MARKOV => ModelKind::EwmaMarkov,
            TAG_LINEAR_MARKOV => ModelKind::LinearMarkov,
            other => return Err(SnapshotError::BadClassTag(other)),
        };
        if kind != self.kind() {
            return Err(SnapshotError::ClassMismatch {
                snapshot: class_name(kind),
                model: class_name(self.kind()),
            });
        }
        Ok(match self {
            TaskModel::Constant(_) => TaskModel::Constant(ConstantPredictor::decode(r)?),
            TaskModel::EwmaMarkov(p) => {
                TaskModel::EwmaMarkov(EwmaMarkovPredictor::decode(r, p.label())?)
            }
            TaskModel::LinearMarkov(p) => {
                TaskModel::LinearMarkov(LinearMarkovPredictor::decode(r, p.label())?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PredictContext {
        PredictContext { roi_kpixels: 120.0 }
    }

    fn all_classes(label: &'static str) -> [TaskModel; 3] {
        let series: Vec<f64> = (0..200).map(|i| 40.0 + (i % 7) as f64).collect();
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let roi = 50.0 + (i % 40) as f64;
                (roi, 0.07 * roi + 20.0 + (i % 3) as f64)
            })
            .collect();
        [
            TaskModel::Constant(ConstantPredictor::new(2.5)),
            TaskModel::EwmaMarkov(EwmaMarkovPredictor::train(&series, 0.2, 16, label)),
            TaskModel::LinearMarkov(LinearMarkovPredictor::train(&points, 8, label)),
        ]
    }

    fn tagged(m: &TaskModel) -> Vec<u8> {
        let mut w = Writer::new();
        m.encode_tagged(&mut w);
        w.finish()
    }

    #[test]
    fn tagged_round_trip_is_bit_identical_for_every_class() {
        for mut m in all_classes("RDG") {
            m.set_online(true);
            for i in 0..15 {
                m.observe(30.0 + (i % 4) as f64, &ctx());
            }
            let bytes = tagged(&m);
            let before = m.predict(&ctx());
            for _ in 0..30 {
                m.observe(90.0, &ctx());
            }
            let mut r = Reader::new(&bytes);
            let restored = m.decode_tagged(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(
                restored.predict(&ctx()).to_bits(),
                before.to_bits(),
                "{}",
                m.model_name()
            );
            assert!(restored.online());
            assert_eq!(tagged(&restored), bytes);
        }
    }

    #[test]
    fn decode_checks_class_label_and_length() {
        let models = all_classes("RDG");
        for (i, m) in models.iter().enumerate() {
            let donor = tagged(&models[(i + 1) % 3]);
            assert!(matches!(
                m.decode_tagged(&mut Reader::new(&donor)),
                Err(SnapshotError::ClassMismatch { .. })
            ));
            let bytes = tagged(m);
            for cut in 0..bytes.len() {
                assert!(
                    m.decode_tagged(&mut Reader::new(&bytes[..cut])).is_err(),
                    "{} decoded a truncation at {cut}",
                    m.model_name()
                );
            }
        }
        // the same state trained under another task name is not this model's
        for (live, other) in all_classes("RDG").iter().zip(all_classes("GW")).skip(1) {
            assert!(matches!(
                live.decode_tagged(&mut Reader::new(&tagged(&other))),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }
}
