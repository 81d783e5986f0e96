//! Binary serialization of prediction-model snapshots.
//!
//! [`TripleC::snapshot_bytes`](crate::triple::TripleC::snapshot_bytes)
//! writes a small versioned little-endian byte format, and
//! [`TripleC::try_restore_bytes`](crate::triple::TripleC::try_restore_bytes)
//! reads it back. A **corrupted** snapshot is a *recoverable* condition for
//! the fault-tolerant runtime: decoding validates every field (magic,
//! version, lengths, float finiteness, probability normalization, state
//! consistency, and task names, classes and labels against the live
//! model) and returns a [`SnapshotError`] instead of panicking. Restoring
//! from bytes therefore never brings a model into an invalid state; the
//! runtime's model-quarantine policy relies on this contract
//! (property-tested in `tests/snapshot_corruption.rs`).

use std::fmt;

/// Leading magic of every serialized snapshot.
const MAGIC: [u8; 4] = *b"TCSN";

/// Current format version.
const VERSION: u16 = 1;

/// Upper bound on any serialized vector length; a garbled length field
/// beyond this is rejected instead of attempting a huge allocation.
const MAX_LEN: usize = 1 << 22;

/// Why a snapshot byte stream could not be decoded (or applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the announced content.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes remaining in the stream.
        have: usize,
    },
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The stream was produced by an unknown format version.
    UnsupportedVersion(u16),
    /// Unknown model-class tag.
    BadClassTag(u8),
    /// A field failed validation (non-finite float, unnormalized
    /// probability row, inconsistent state counts, absurd length, ...).
    Corrupt(&'static str),
    /// A task's class tag differs from the class of the live model it
    /// is being restored into.
    ClassMismatch {
        /// Class recorded in the snapshot.
        snapshot: &'static str,
        /// Class of the model being restored.
        model: &'static str,
    },
    /// Bytes remained after the snapshot content.
    TrailingBytes(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::BadClassTag(t) => write!(f, "unknown model class tag {t}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::ClassMismatch { snapshot, model } => {
                write!(
                    f,
                    "cannot restore a {snapshot} snapshot into a {model} model"
                )
            }
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot content")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian byte writer for snapshot payloads.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Starts a snapshot stream: magic + version.
    pub(crate) fn with_header() -> Self {
        let mut w = Self::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(VERSION);
        w
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub(crate) fn u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn bool(&mut self, x: bool) {
        self.u8(x as u8);
    }

    pub(crate) fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn opt_usize(&mut self, x: Option<usize>) {
        match x {
            Some(v) => {
                self.u8(1);
                self.u64(v as u64);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn f64_slice(&mut self, xs: &[f64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f64(x);
        }
    }

    pub(crate) fn u64_slice(&mut self, xs: &[u64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.u64(x);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Validating little-endian byte reader.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Consumes and checks the stream header (magic + version).
    pub(crate) fn header(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = Self::new(buf);
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    /// Remaining unread bytes.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole stream was consumed.
    pub(crate) fn expect_end(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapshotError::TrailingBytes(n)),
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// A float that must be finite (the common case for model state).
    pub(crate) fn finite_f64(&mut self, what: &'static str) -> Result<f64, SnapshotError> {
        let x = self.f64()?;
        if x.is_finite() {
            Ok(x)
        } else {
            Err(SnapshotError::Corrupt(what))
        }
    }

    pub(crate) fn bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt(what)),
        }
    }

    pub(crate) fn opt_finite_f64(
        &mut self,
        what: &'static str,
    ) -> Result<Option<f64>, SnapshotError> {
        if self.bool(what)? {
            Ok(Some(self.finite_f64(what)?))
        } else {
            Ok(None)
        }
    }

    pub(crate) fn opt_usize(&mut self, what: &'static str) -> Result<Option<usize>, SnapshotError> {
        if self.bool(what)? {
            Ok(Some(self.len(what)?))
        } else {
            Ok(None)
        }
    }

    /// A length / index field, bounded against garbled huge values.
    pub(crate) fn len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n > MAX_LEN {
            return Err(SnapshotError::Corrupt(what));
        }
        Ok(n)
    }

    fn vec_len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > MAX_LEN {
            return Err(SnapshotError::Corrupt(what));
        }
        Ok(n)
    }

    pub(crate) fn f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, SnapshotError> {
        let n = self.vec_len(what)?;
        // the stream must actually hold n doubles before we allocate
        if self.remaining() < n * 8 {
            return Err(SnapshotError::Truncated {
                needed: n * 8,
                have: self.remaining(),
            });
        }
        (0..n).map(|_| self.f64()).collect()
    }

    pub(crate) fn u64_vec(&mut self, what: &'static str) -> Result<Vec<u64>, SnapshotError> {
        let n = self.vec_len(what)?;
        if self.remaining() < n * 8 {
            return Err(SnapshotError::Truncated {
                needed: n * 8,
                have: self.remaining(),
            });
        }
        (0..n).map(|_| self.u64()).collect()
    }

    pub(crate) fn str(&mut self, what: &'static str) -> Result<&'a str, SnapshotError> {
        let n = self.vec_len(what)?;
        let bytes = self.bytes(n)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Corrupt(what))
    }

    /// A label that must read `live`, the live model's own: labels are
    /// task names fixed at training, and a restore never renames a model.
    pub(crate) fn label(
        &mut self,
        live: &'static str,
        what: &'static str,
    ) -> Result<&'static str, SnapshotError> {
        if self.str(what)? == live {
            Ok(live)
        } else {
            Err(SnapshotError::Corrupt(what))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = Writer::with_header();
        w.u8(7);
        w.u32(1234);
        w.f64(2.5);
        w.bool(true);
        w.opt_f64(Some(9.0));
        w.opt_f64(None);
        w.opt_usize(Some(3));
        w.f64_slice(&[1.0, 2.0]);
        w.u64_slice(&[10, 20, 30]);
        w.str("RDG_FULL");
        let bytes = w.finish();

        let mut r = Reader::header(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.opt_finite_f64("o").unwrap(), Some(9.0));
        assert_eq!(r.opt_finite_f64("o").unwrap(), None);
        assert_eq!(r.opt_usize("u").unwrap(), Some(3));
        assert_eq!(r.f64_vec("v").unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.u64_vec("v").unwrap(), vec![10, 20, 30]);
        assert_eq!(r.str("s").unwrap(), "RDG_FULL");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::with_header();
        w.f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let r = Reader::header(&bytes[..cut]);
            match r {
                Ok(mut r) => {
                    // header fit; the vector must fail cleanly
                    assert!(r.f64_vec("v").is_err(), "cut at {cut} decoded");
                }
                Err(e) => assert!(
                    matches!(e, SnapshotError::Truncated { .. }),
                    "cut {cut}: {e:?}"
                ),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = Writer::with_header().finish();
        bytes[0] = b'X';
        assert_eq!(Reader::header(&bytes).err(), Some(SnapshotError::BadMagic));
        let mut bytes = Writer::with_header().finish();
        bytes[4] = 0xFF;
        assert!(matches!(
            Reader::header(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut w = Writer::with_header();
        w.u32(u32::MAX); // garbled vector length
        let bytes = w.finish();
        let mut r = Reader::header(&bytes).unwrap();
        assert!(matches!(
            r.f64_vec("v"),
            Err(SnapshotError::Corrupt("v")) | Err(SnapshotError::Truncated { .. })
        ));
    }
}
