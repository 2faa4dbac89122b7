//! Error types for the vault subsystem, with a transient/permanent
//! classification driving the retry policies of [`crate::retry`].

use std::fmt;

/// Any error produced by vault storage or crypto.
#[derive(Debug)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum Error {
    /// Encryption, decryption, or secret-sharing failure.
    Crypto(String),
    /// Serialization or deserialization failure.
    Codec(String),
    /// Filesystem-backed vault I/O failure.
    Io(std::io::Error),
    /// No key material available for the given user.
    NoKey(String),
    /// The requested entry does not exist (e.g. expired and purged).
    NoSuchEntry { user: String, disguise_id: u64 },
    /// The backend is temporarily unreachable or cannot serve the request
    /// right now (simulated outage, service brown-out). Safe to retry.
    Unavailable(String),
    /// A fault injected by a [`crate::backend::FaultPlan`] during testing.
    Injected {
        op: String,
        index: u64,
        transient: bool,
    },
    /// A retry loop gave up: attempts or the overall deadline were
    /// exhausted. Wraps the last underlying error.
    RetriesExhausted { attempts: u32, last: Box<Error> },
    /// An error bubbled up from the relational engine.
    Relational(edna_relational::Error),
}

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if retried (outage, I/O hiccup).
    Transient,
    /// Retrying cannot help (bad key, corrupt codec, missing entry).
    Permanent,
}

/// Whether an I/O error can be cured by retrying. A full disk or a
/// filesystem remounted read-only will fail the same way on every
/// attempt — retrying only delays the inevitable surfacing.
fn io_is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    // StorageFull/ReadOnlyFilesystem are stable but ENOSPC/EROFS can
    // also surface as `Other`/`Uncategorized` on some platforms, so
    // check the raw errno too (28 = ENOSPC, 30 = EROFS on Linux).
    !matches!(
        e.kind(),
        ErrorKind::StorageFull | ErrorKind::ReadOnlyFilesystem | ErrorKind::PermissionDenied
    ) && !matches!(e.raw_os_error(), Some(28) | Some(30))
}

impl Error {
    /// Classifies this error for retry purposes.
    pub fn class(&self) -> ErrorClass {
        match self {
            Error::Io(e) => {
                if io_is_transient(e) {
                    ErrorClass::Transient
                } else {
                    ErrorClass::Permanent
                }
            }
            Error::Unavailable(_) => ErrorClass::Transient,
            Error::Injected { transient, .. } => {
                if *transient {
                    ErrorClass::Transient
                } else {
                    ErrorClass::Permanent
                }
            }
            _ => ErrorClass::Permanent,
        }
    }

    /// Whether a retry might succeed.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Crypto(m) => write!(f, "crypto error: {m}"),
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::Io(e) => write!(f, "vault I/O error: {e}"),
            Error::NoKey(u) => write!(f, "no vault key for user {u}"),
            Error::NoSuchEntry { user, disguise_id } => {
                write!(f, "no vault entry for user {user}, disguise {disguise_id}")
            }
            Error::Unavailable(m) => write!(f, "vault unavailable: {m}"),
            Error::Injected {
                op,
                index,
                transient,
            } => write!(
                f,
                "injected {} fault on vault op {op} (op index {index})",
                if *transient { "transient" } else { "permanent" }
            ),
            Error::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            Error::Relational(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::RetriesExhausted { last, .. } => Some(last),
            Error::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<edna_relational::Error> for Error {
    fn from(e: edna_relational::Error) -> Self {
        Error::Relational(e)
    }
}

/// Convenience alias used throughout the vault crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Error::Unavailable("down".into()).is_transient());
        assert!(Error::Io(std::io::Error::other("disk")).is_transient());
        // A full or read-only filesystem will not heal between retries.
        for kind in [
            std::io::ErrorKind::StorageFull,
            std::io::ErrorKind::ReadOnlyFilesystem,
            std::io::ErrorKind::PermissionDenied,
        ] {
            assert!(
                !Error::Io(std::io::Error::new(kind, "disk")).is_transient(),
                "{kind:?} must be permanent"
            );
        }
        // ENOSPC/EROFS recognized by errno even when the kind is opaque.
        assert!(!Error::Io(std::io::Error::from_raw_os_error(28)).is_transient());
        assert!(!Error::Io(std::io::Error::from_raw_os_error(30)).is_transient());
        assert!(Error::Io(std::io::Error::from_raw_os_error(5)).is_transient());
        assert!(!Error::Crypto("bad mac".into()).is_transient());
        assert!(!Error::NoKey("19".into()).is_transient());
        assert!(Error::Injected {
            op: "put".into(),
            index: 0,
            transient: true
        }
        .is_transient());
        assert!(!Error::Injected {
            op: "put".into(),
            index: 0,
            transient: false
        }
        .is_transient());
        // Giving up is terminal even if the last error was transient.
        assert!(!Error::RetriesExhausted {
            attempts: 3,
            last: Box::new(Error::Unavailable("still down".into()))
        }
        .is_transient());
    }
}
