//! `edna-relational`: an in-process relational database engine.
//!
//! This crate is the storage substrate for the data-disguising tool (the
//! paper's prototype ran over MySQL; no server is available here, so the
//! engine reimplements the relevant subset — see `DESIGN.md` §5). It
//! provides:
//!
//! - a SQL subset: `CREATE TABLE`/`CREATE INDEX`, `INSERT`, `SELECT` with
//!   joins/aggregates/`ORDER BY`, `UPDATE` and `DELETE`, plus
//!   [`Database::transaction`], isolated from every other thread;
//! - arbitrary SQL `WHERE` predicates with `$param` binding — the disguise
//!   specification language embeds these directly (paper §5);
//! - enforced constraints: NOT NULL, UNIQUE, PRIMARY KEY, FOREIGN KEY with
//!   `RESTRICT`/`CASCADE`/`SET NULL`, its references checked at commit;
//! - per-statement/row statistics ([`StatsSnapshot`]) backing the paper's
//!   "queries grow linearly" measurement, and an optional synthetic
//!   [`LatencyModel`] approximating a networked DBMS.
//!
//! # Examples
//!
//! ```
//! use edna_relational::{Database, Value};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)").unwrap();
//! db.execute("INSERT INTO users (name) VALUES ('bea')").unwrap();
//! let r = db.execute("SELECT name FROM users WHERE id = 1").unwrap();
//! assert_eq!(r.rows[0][0], Value::Text("bea".into()));
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod clock;
pub mod database;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod txn;
pub mod value;
pub mod wal;

pub use access::AccessPath;
pub use database::{Database, FaultHook, SlowStatement};
pub use edna_obs::{MetricsRegistry, SpanRecord, Tracer};
pub use error::{Error, Result};
pub use exec::QueryResult;
pub use expr::{eval, eval_predicate, BinOp, EvalContext, Expr, UnOp};
pub use parser::{parse_expr, parse_script, parse_statement, Statement};
pub use schema::{ColumnDef, ForeignKey, ReferentialAction, TableSchema};
pub use stats::{LatencyModel, StatsSnapshot};
pub use storage::RowId;
pub use value::{DataType, Row, Value};
pub use wal::{
    OpenIntent, OpenPolicyRun, RecoveryReport, RedoOp, ReplayOutcome, Wal, WalCommitGate, WalCrash,
    WalCrashHook, WalFrameSink, WalRecord, WalScan,
};
