//! Error types for the disguising tool.

use std::fmt;

/// Any error produced by the disguising tool.
#[derive(Debug)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum Error {
    /// No disguise registered under this name.
    NoSuchDisguise(String),
    /// The disguise specification failed validation against the schema.
    SpecInvalid { disguise: String, message: String },
    /// The disguise specification text could not be parsed.
    SpecParse { line: usize, message: String },
    /// Static analysis ([`crate::analyze`]) found errors at registration;
    /// `report` is the rendered diagnostic report.
    AnalysisFailed { disguise: String, report: String },
    /// A user-scoped disguise was applied without a user id.
    MissingUser(String),
    /// A post-apply assertion failed; the disguise was rolled back.
    AssertionFailed {
        disguise: String,
        assertion: String,
        matching_rows: usize,
    },
    /// The disguise application is not reversible (spec or expired vault).
    NotReversible { disguise_id: u64, reason: String },
    /// The disguise application was already reverted.
    AlreadyReverted(u64),
    /// No disguise application with this id exists in the history log.
    NoSuchApplication(u64),
    /// A table needs a primary key for this transformation.
    NeedsPrimaryKey { table: String, context: String },
    /// Placeholder generation failed.
    Placeholder { table: String, message: String },
    /// A guarded application update tried to touch a disguised row
    /// (paper §7: updates to disguised data are prohibited).
    DisguisedData { table: String, pk: String },
    /// An error bubbled up from the relational engine.
    Relational(edna_relational::Error),
    /// An error bubbled up from vault storage.
    Vault(edna_vault::Error),
    /// A workspace-level failure (state files, lock file, sidecars); the
    /// message is already formatted for the operator.
    Workspace(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoSuchDisguise(n) => write!(f, "no such disguise: {n}"),
            Error::SpecInvalid { disguise, message } => {
                write!(f, "invalid disguise spec {disguise}: {message}")
            }
            Error::SpecParse { line, message } => {
                write!(f, "disguise spec parse error at line {line}: {message}")
            }
            Error::AnalysisFailed { disguise, report } => {
                write!(f, "disguise {disguise} failed static analysis:\n{report}")
            }
            Error::MissingUser(n) => {
                write!(f, "disguise {n} is user-scoped but no user id was provided")
            }
            Error::AssertionFailed {
                disguise,
                assertion,
                matching_rows,
            } => write!(
                f,
                "assertion failed after applying {disguise}: {assertion} \
                 ({matching_rows} matching rows); rolled back"
            ),
            Error::NotReversible {
                disguise_id,
                reason,
            } => {
                write!(
                    f,
                    "disguise application {disguise_id} is not reversible: {reason}"
                )
            }
            Error::AlreadyReverted(id) => {
                write!(f, "disguise application {id} was already reverted")
            }
            Error::NoSuchApplication(id) => {
                write!(f, "no disguise application with id {id}")
            }
            Error::NeedsPrimaryKey { table, context } => {
                write!(f, "table {table} needs a primary key for {context}")
            }
            Error::Placeholder { table, message } => {
                write!(f, "placeholder generation failed for {table}: {message}")
            }
            Error::DisguisedData { table, pk } => {
                write!(f, "row {table}[{pk}] is disguised; updates are prohibited")
            }
            Error::Relational(e) => write!(f, "relational error: {e}"),
            Error::Vault(e) => write!(f, "vault error: {e}"),
            Error::Workspace(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Relational(e) => Some(e),
            Error::Vault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<edna_relational::Error> for Error {
    fn from(e: edna_relational::Error) -> Self {
        Error::Relational(e)
    }
}

impl From<edna_vault::Error> for Error {
    fn from(e: edna_vault::Error) -> Self {
        Error::Vault(e)
    }
}

/// Convenience alias used throughout the disguising tool.
pub type Result<T> = std::result::Result<T, Error>;
