//! Transactions: an undo log replayed in reverse on rollback.
//!
//! Every mutating operation appends an [`UndoOp`] describing how to restore
//! the previous state. Statements outside a [`crate::Database::transaction`]
//! run in an implicit transaction so that a mid-statement constraint
//! violation (e.g. row 3 of a multi-row INSERT) leaves the database
//! untouched. The same log tells the commit which rows' references to
//! check (`Inner::check_references`).

use crate::storage::{RowId, Table};
use crate::value::Row;

/// One entry in a transaction's undo log.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum UndoOp {
    /// A row was inserted; undo removes it.
    Inserted { table: String, row_id: RowId },
    /// A row was deleted; undo restores it at the same slot.
    Deleted {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// A row was updated; undo restores the old image.
    Updated {
        table: String,
        row_id: RowId,
        old_row: Row,
    },
    /// A table was created; undo drops it.
    CreatedTable { name: String },
    /// A table was dropped; undo restores the whole table.
    DroppedTable { name: String, table: Box<Table> },
    /// An index was created; undo drops it.
    CreatedIndex { table: String, index: String },
    /// AUTO_INCREMENT counter advanced; undo restores the old value.
    AutoIncrement { table: String, old_value: i64 },
    /// A table was altered (or had its FK metadata touched by a rename in
    /// a parent table); undo restores the whole pre-alter table.
    AlteredTable { name: String, table: Box<Table> },
}

/// An open transaction: its undo log plus bookkeeping.
#[derive(Debug, Default)]
pub struct Txn {
    /// Undo operations in application order (rolled back in reverse).
    pub undo: Vec<UndoOp>,
    /// Whether this is an implicit single-statement transaction.
    pub implicit: bool,
    /// Length of the undo log when its references were last checked;
    /// later entries are still unchecked.
    pub checked: usize,
}

impl Txn {
    /// Creates an explicit transaction.
    pub fn explicit() -> Txn {
        Txn::default()
    }

    /// Creates an implicit (single-statement) transaction.
    pub fn implicit() -> Txn {
        Txn {
            implicit: true,
            ..Txn::default()
        }
    }

    /// Records an undo operation.
    pub fn record(&mut self, op: UndoOp) {
        self.undo.push(op);
    }

    /// Number of recorded operations (used for partial rollback points).
    pub fn mark(&self) -> usize {
        self.undo.len()
    }
}
