//! Error types for the relational engine.

use std::fmt;

/// Any error produced by the relational engine.
///
/// The engine never panics on malformed SQL or constraint violations; every
/// public entry point returns [`Result`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum Error {
    /// The SQL text could not be tokenized.
    Lex { position: usize, message: String },
    /// The token stream could not be parsed into a statement or expression.
    Parse { position: usize, message: String },
    /// A referenced table does not exist.
    NoSuchTable(String),
    /// A referenced column does not exist in the given table.
    NoSuchColumn { table: String, column: String },
    /// A referenced index does not exist.
    NoSuchIndex(String),
    /// An object with this name already exists.
    AlreadyExists(String),
    /// A NOT NULL column would receive NULL.
    NotNullViolation { table: String, column: String },
    /// A UNIQUE or PRIMARY KEY constraint would be violated.
    UniqueViolation {
        table: String,
        column: String,
        value: String,
    },
    /// A foreign-key constraint would be violated.
    ForeignKeyViolation {
        table: String,
        column: String,
        detail: String,
    },
    /// A value had the wrong type for the operation or column.
    TypeMismatch { expected: String, found: String },
    /// Expression evaluation failed (bad function arity, division by zero, ...).
    Eval(String),
    /// An unbound `$param` placeholder was evaluated.
    UnboundParam(String),
    /// Transaction misuse (e.g. opening one inside another).
    Txn(String),
    /// The statement is valid SQL but unsupported by this engine.
    Unsupported(String),
    /// A statement-level fault hook (see `Database::set_fault_hook`)
    /// killed this statement; `0` names the statement's 0-based index
    /// since the hook was installed. Only produced by fault-injection
    /// tests, never by normal execution.
    FaultInjected(u64),
    /// The write-ahead log failed (I/O stringified — the error must stay
    /// `Clone + Eq` — or a corrupt/unreplayable record at recovery). A
    /// commit that hits this is rolled back: nothing is durable that is
    /// not also logged.
    Wal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            Error::Parse { position, message } => {
                write!(f, "parse error at token {position}: {message}")
            }
            Error::NoSuchTable(t) => write!(f, "no such table: {t}"),
            Error::NoSuchColumn { table, column } => {
                write!(f, "no such column: {table}.{column}")
            }
            Error::NoSuchIndex(i) => write!(f, "no such index: {i}"),
            Error::AlreadyExists(n) => write!(f, "object already exists: {n}"),
            Error::NotNullViolation { table, column } => {
                write!(f, "NOT NULL violation: {table}.{column}")
            }
            Error::UniqueViolation {
                table,
                column,
                value,
            } => {
                write!(f, "UNIQUE violation: {table}.{column} = {value}")
            }
            Error::ForeignKeyViolation {
                table,
                column,
                detail,
            } => {
                write!(f, "FOREIGN KEY violation on {table}.{column}: {detail}")
            }
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::UnboundParam(p) => write!(f, "unbound parameter: ${p}"),
            Error::Txn(m) => write!(f, "transaction error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::FaultInjected(i) => {
                write!(f, "injected fault at statement index {i}")
            }
            Error::Wal(m) => write!(f, "WAL error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, Error>;
