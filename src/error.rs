//! The unified error type of the public API.
//!
//! Every fallible surface of the stack converges here: snapshot
//! (de)serialization ([`triplec::SnapshotError`]), image I/O
//! ([`std::io::Error`]) and stream execution
//! ([`runtime::session::StreamFailure`]). `From` impls let `?` lift any
//! of them into a [`Result`], so callers match one enum instead of three
//! library-specific types.

use runtime::session::StreamFailure;
use triplec::SnapshotError;

/// Any error the Triple-C stack can surface.
#[derive(Debug)]
pub enum Error {
    /// A model snapshot failed to (de)serialize or validate.
    Snapshot(SnapshotError),
    /// An image file failed to read or write.
    Io(std::io::Error),
    /// A stream could not complete its sequence.
    Session(StreamFailure),
}

/// Convenience alias: `triple_c::Result<T>` defaults the error to
/// [`Error`].
pub type Result<T, E = Error> = std::result::Result<T, E>;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Snapshot(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Session(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<StreamFailure> for Error {
    fn from(e: StreamFailure) -> Self {
        Error::Session(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_conversions_and_source_chain() {
        let io: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "missing.pgm").into();
        assert!(matches!(io, Error::Io(_)));
        assert!(std::error::Error::source(&io).is_some());
        assert!(io.to_string().contains("missing.pgm"));

        let snap: Error = SnapshotError::BadMagic.into();
        assert!(snap.to_string().contains("snapshot"));

        let sess: Error = StreamFailure {
            stream: 3,
            message: "boom".into(),
            frames_completed: 2,
        }
        .into();
        assert!(sess.to_string().contains("stream 3"));
    }

    #[test]
    fn question_mark_lifts_library_errors() {
        fn inner(fail_io: bool) -> Result<()> {
            if fail_io {
                Err(std::io::Error::other("disk"))?
            }
            Err(SnapshotError::BadMagic)?
        }
        assert!(matches!(inner(true), Err(Error::Io(_))));
        assert!(matches!(inner(false), Err(Error::Snapshot(_))));
    }
}
