//! Statement execution over the engine's internal state.
//!
//! `Inner` owns the tables and the open transaction; [`crate::Database`]
//! wraps it in a lock and exposes the public API. All mutations funnel
//! through the helpers here so that undo logging, index maintenance, and
//! constraint checks cannot be bypassed.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use edna_util::sync::lock_unpoisoned;

use crate::access::{
    choose_access_path, choose_join, column_names, point_key, probe_key, range_keys, JoinPath, Path,
};
use crate::error::{Error, Result};
use crate::expr::{eval, eval_predicate, EvalContext, Expr};
use crate::parser::{
    AggFunc, AlterAction, Join, JoinKind, OrderKey, Projection, SelectStmt, Statement,
};
use crate::schema::{ForeignKey, ReferentialAction, TableSchema};
use crate::stats::Stats;
use crate::storage::{Index, RowId, Table};
use crate::txn::{Txn, UndoOp};
use crate::value::{Row, Value};

/// The result of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows affected (INSERT/UPDATE/DELETE).
    pub affected: usize,
    /// The AUTO_INCREMENT id assigned by the last INSERT, if any.
    pub last_insert_id: Option<i64>,
}

impl QueryResult {
    /// Position of a result column by case-insensitive name (qualified
    /// names match on their suffix too).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| {
            c.eq_ignore_ascii_case(name)
                || c.rsplit('.')
                    .next()
                    .is_some_and(|s| s.eq_ignore_ascii_case(name))
        })
    }

    /// The single value of a one-row, one-column result (e.g. `COUNT(*)`).
    pub fn scalar(&self) -> Result<&Value> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .ok_or_else(|| Error::Eval("expected a scalar result".to_string()))
    }
}

/// One executed operator of a profiled SELECT (`EXPLAIN ANALYZE`): what
/// ran, how many rows it produced, and the wall-clock time it took.
#[derive(Debug, Clone)]
pub(crate) struct OpProfile {
    /// Operator kind (`scan`, `probe`, `range`, `index join`, `filter`, ...).
    pub op: &'static str,
    /// Human-readable specifics (table, index, join target).
    pub detail: String,
    /// Rows the operator produced.
    pub rows: u64,
    /// Wall-clock time spent in the operator, microseconds.
    pub elapsed_us: u64,
}

/// The engine's internal, lock-protected state.
pub(crate) struct Inner {
    /// Tables keyed by lowercase name.
    pub tables: HashMap<String, Table>,
    /// Table names in creation order (for deterministic iteration).
    pub table_order: Vec<String>,
    /// The open transaction, if any: a statement's implicit one, or the
    /// one the gate's owner opened with `Database::transaction`.
    pub txn: Option<Txn>,
    /// Logical clock returned by `NOW()`.
    pub now: i64,
    /// Cached access-path decisions keyed by `(lowercase table name,
    /// lowercase qualifier, predicate text)`. The qualifier is the name
    /// the statement's columns carry (`None` for UPDATE and DELETE): it
    /// decides which conjuncts resolve to the table. The predicate text is
    /// the *pre-bind* form (`id = $UID`), so one entry serves every
    /// binding of a parameterized shape. Interior mutability lets the read
    /// path populate it under the engine's shared (read) lock. Cleared by
    /// any DDL — including DDL undone by a rollback.
    plan_cache: Mutex<HashMap<PlanKey, Path>>,
}

/// A plan-cache key: `(table, qualifier, predicate text)`.
type PlanKey = (String, Option<String>, String);

/// Entries the plan cache may hold before it is wholesale cleared; a
/// backstop against unbounded per-row literal predicates, far above the
/// handful of shapes a disguise workload produces.
const PLAN_CACHE_CAP: usize = 1024;

impl Inner {
    pub fn new() -> Inner {
        Inner {
            tables: HashMap::new(),
            table_order: Vec::new(),
            txn: None,
            now: 0,
            plan_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The clock `NOW()` evaluates against: a thread-local override (a
    /// policy run evaluating at its tick's timestamp) if one is active on
    /// the executing thread, otherwise the global clock.
    pub(crate) fn clock(&self) -> i64 {
        crate::clock::current().unwrap_or(self.now)
    }

    /// Drops every cached access path. Called on any schema change: a new
    /// index can flip a scan to a probe, a drop can do the reverse.
    pub(crate) fn invalidate_plans(&self) {
        lock_unpoisoned(&self.plan_cache).clear();
    }

    /// The access path for `table`, whose columns the statement names
    /// `columns` under `qualifier`, for the *pre-bind* predicate `pred`,
    /// served from the plan cache when the shape was seen before.
    pub(crate) fn cached_access_path(
        &self,
        table: &Table,
        qualifier: Option<&str>,
        columns: &[String],
        pred: &Expr,
        stats: &Stats,
    ) -> Path {
        let key = (
            table.schema.name.to_lowercase(),
            qualifier.map(str::to_lowercase),
            pred.to_string(),
        );
        // Poison-tolerant: the cache only ever holds complete entries, so
        // a panic elsewhere must not wedge every later plan lookup.
        let mut cache = lock_unpoisoned(&self.plan_cache);
        if let Some(&path) = cache.get(&key) {
            stats.bump(&stats.plan_cache_hits, 1);
            return path;
        }
        let path = choose_access_path(table, columns, pred);
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, path);
        path
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_lowercase())
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    fn record(&mut self, op: UndoOp) {
        if let Some(txn) = self.txn.as_mut() {
            txn.record(op);
        }
    }

    /// Executes one parsed statement. The caller manages the implicit
    /// transaction wrapper.
    pub fn execute_stmt(
        &mut self,
        stmt: &Statement,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<QueryResult> {
        stats.bump(&stats.statements, 1);
        match stmt {
            Statement::CreateTable(schema) => self.create_table(schema.clone()),
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            } => self.create_index(name, table, column, *unique),
            Statement::DropTable { name, if_exists } => self.drop_table(name, *if_exists),
            Statement::AlterTable { table, action } => self.alter_table(table, action),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                stats.bump(&stats.inserts, 1);
                self.insert(table, columns.as_deref(), rows, params, stats)
            }
            Statement::Select(sel) => {
                stats.bump(&stats.selects, 1);
                self.select(sel, params, stats)
            }
            Statement::Update {
                table,
                sets,
                where_,
            } => {
                stats.bump(&stats.updates, 1);
                self.update(table, sets, where_.as_ref(), params, stats)
            }
            Statement::Delete { table, where_ } => {
                stats.bump(&stats.deletes, 1);
                self.delete(table, where_.as_ref(), params, stats)
            }
        }
    }

    // ---- DDL ---------------------------------------------------------------

    fn create_table(&mut self, schema: TableSchema) -> Result<QueryResult> {
        schema.validate()?;
        let key = schema.name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::AlreadyExists(schema.name));
        }
        // Validate FK targets exist (self-reference allowed).
        for fk in &schema.foreign_keys {
            if !fk.parent_table.eq_ignore_ascii_case(&schema.name) {
                let parent = self.table(&fk.parent_table)?;
                parent.schema.require_column(&fk.parent_column)?;
            } else {
                schema.require_column(&fk.parent_column)?;
            }
        }
        let name = schema.name.clone();
        self.tables.insert(key.clone(), Table::new(schema));
        self.table_order.push(key);
        self.record(UndoOp::CreatedTable { name });
        self.invalidate_plans();
        Ok(QueryResult::default())
    }

    fn create_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        unique: bool,
    ) -> Result<QueryResult> {
        let t = self.table_mut(table)?;
        let col = t.schema.require_column(column)?;
        if t.indexes
            .iter()
            .any(|ix| ix.name.eq_ignore_ascii_case(name))
        {
            return Err(Error::AlreadyExists(name.to_string()));
        }
        t.add_index(name.to_string(), col, unique)?;
        let table_name = t.schema.name.clone();
        self.record(UndoOp::CreatedIndex {
            table: table_name,
            index: name.to_string(),
        });
        self.invalidate_plans();
        Ok(QueryResult::default())
    }

    fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<QueryResult> {
        let key = name.to_lowercase();
        match self.tables.remove(&key) {
            Some(t) => {
                self.table_order.retain(|n| n != &key);
                self.record(UndoOp::DroppedTable {
                    name: t.schema.name.clone(),
                    table: Box::new(t),
                });
                self.invalidate_plans();
                Ok(QueryResult::default())
            }
            None if if_exists => Ok(QueryResult::default()),
            None => Err(Error::NoSuchTable(name.to_string())),
        }
    }

    fn alter_table(&mut self, table: &str, action: &AlterAction) -> Result<QueryResult> {
        // Snapshot for undo before any mutation.
        let snapshot = self.table(table)?.clone();
        let table_name = snapshot.schema.name.clone();
        match action {
            AlterAction::AddColumn(col) => {
                if col.auto_increment {
                    return Err(Error::Unsupported(
                        "ALTER TABLE ADD COLUMN ... AUTO_INCREMENT".to_string(),
                    ));
                }
                if col.not_null && col.default.is_none() {
                    return Err(Error::NotNullViolation {
                        table: table_name,
                        column: col.name.clone(),
                    });
                }
                let t = self.table_mut(table)?;
                if t.schema.column_index(&col.name).is_some() {
                    return Err(Error::AlreadyExists(format!("{table_name}.{}", col.name)));
                }
                let fill = col.default.clone().unwrap_or(Value::Null);
                t.schema.columns.push(col.clone());
                t.fill_new_column(fill);
                if col.unique {
                    let pos = t.schema.columns.len() - 1;
                    t.add_index(format!("_auto_{table_name}_{}", col.name), pos, true)?;
                }
            }
            AlterAction::DropColumn(name) => {
                let t = self.table(table)?;
                let pos = t.schema.require_column(name)?;
                if t.schema.primary_key == Some(pos) {
                    return Err(Error::Unsupported(format!(
                        "cannot drop primary key column {table_name}.{name}"
                    )));
                }
                if t.schema.foreign_key_on(name).is_some() {
                    return Err(Error::Unsupported(format!(
                        "cannot drop foreign-key column {table_name}.{name}"
                    )));
                }
                // Referenced by any child table's FK?
                for (child, fk) in self.children_of(&table_name) {
                    if fk.parent_column.eq_ignore_ascii_case(name) {
                        return Err(Error::Unsupported(format!(
                            "cannot drop {table_name}.{name}: referenced by {child}.{}",
                            fk.column
                        )));
                    }
                }
                let t = self.table_mut(table)?;
                t.drop_column(pos);
            }
            AlterAction::RenameColumn { from, to } => {
                let t = self.table(table)?;
                let pos = t.schema.require_column(from)?;
                if t.schema.column_index(to).is_some() {
                    return Err(Error::AlreadyExists(format!("{table_name}.{to}")));
                }
                // Child tables referencing the renamed parent column need
                // their FK metadata updated (and undo snapshots).
                let children: Vec<(String, String)> = self
                    .children_of(&table_name)
                    .into_iter()
                    .filter(|(_, fk)| fk.parent_column.eq_ignore_ascii_case(from))
                    .map(|(child, fk)| (child, fk.column))
                    .collect();
                for (child, _) in &children {
                    let child_snapshot = self.table(child)?.clone();
                    let child_name = child_snapshot.schema.name.clone();
                    self.record(UndoOp::AlteredTable {
                        name: child_name,
                        table: Box::new(child_snapshot),
                    });
                }
                for (child, fk_col) in &children {
                    let ct = self.table_mut(child)?;
                    for fk in &mut ct.schema.foreign_keys {
                        if fk.parent_table.eq_ignore_ascii_case(&table_name)
                            && fk.column.eq_ignore_ascii_case(fk_col)
                        {
                            fk.parent_column = to.clone();
                        }
                    }
                }
                let t = self.table_mut(table)?;
                t.schema.columns[pos].name = to.clone();
                for fk in &mut t.schema.foreign_keys {
                    if fk.column.eq_ignore_ascii_case(from) {
                        fk.column = to.clone();
                    }
                }
            }
        }
        self.record(UndoOp::AlteredTable {
            name: table_name,
            table: Box::new(snapshot),
        });
        self.invalidate_plans();
        Ok(QueryResult::default())
    }

    // ---- INSERT ------------------------------------------------------------

    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<QueryResult> {
        // Resolve target column positions.
        let (schema, positions): (TableSchema, Vec<usize>) = {
            let t = self.table(table)?;
            let positions = match columns {
                Some(cols) => cols
                    .iter()
                    .map(|c| t.schema.require_column(c))
                    .collect::<Result<Vec<_>>>()?,
                None => (0..t.schema.arity()).collect(),
            };
            (t.schema.clone(), positions)
        };
        let empty_cols: Vec<String> = Vec::new();
        let empty_row: Vec<Value> = Vec::new();
        let mut last_insert_id = None;
        let mut affected = 0usize;
        for exprs in rows {
            if exprs.len() != positions.len() {
                return Err(Error::Eval(format!(
                    "INSERT into {table}: {} values for {} columns",
                    exprs.len(),
                    positions.len()
                )));
            }
            // Evaluate value expressions in a row-free context.
            let ctx = EvalContext {
                columns: &empty_cols,
                row: &empty_row,
                params,
                now: self.clock(),
            };
            let mut row: Row = schema
                .columns
                .iter()
                .map(|c| c.default.clone().unwrap_or(Value::Null))
                .collect();
            for (expr, &pos) in exprs.iter().zip(&positions) {
                row[pos] = eval(expr, &ctx)?;
            }
            let id = self.insert_row_checked(table, row, stats)?;
            if let Some(v) = id {
                last_insert_id = Some(v);
            }
            affected += 1;
        }
        Ok(QueryResult {
            affected,
            last_insert_id,
            ..QueryResult::default()
        })
    }

    /// Inserts one materialized row with all checks; returns the
    /// auto-increment value if one was assigned.
    pub fn insert_row_checked(
        &mut self,
        table: &str,
        mut row: Row,
        stats: &Stats,
    ) -> Result<Option<i64>> {
        let schema = self.table(table)?.schema.clone();
        if row.len() != schema.arity() {
            return Err(Error::Eval(format!(
                "row arity {} != table arity {} for {table}",
                row.len(),
                schema.arity()
            )));
        }
        // Coerce to declared types.
        for (i, col) in schema.columns.iter().enumerate() {
            row[i] = row[i].coerce_to(col.ty)?;
        }
        // AUTO_INCREMENT assignment.
        //
        // Counter-rollback semantics (deliberately *not* MySQL's): every
        // bump of `next_auto` — the auto-assign path below and the
        // keep-ahead bump for explicit values — logs an
        // `UndoOp::AutoIncrement` carrying the prior value, and rollback
        // restores it (see `rollback_to`). Snapshots persist `next_auto`
        // and restore it verbatim (`snapshot::decode_table`). MySQL
        // instead lets rolled-back transactions burn ids; we choose full
        // restore so a rolled-back disguise leaves the database
        // bit-identical, which the fault-injection suite asserts.
        let mut assigned: Option<i64> = None;
        for (i, col) in schema.columns.iter().enumerate() {
            if col.auto_increment && row[i].is_null() {
                let t = self.table_mut(table)?;
                let v = t.next_auto;
                t.next_auto += 1;
                let old_value = v;
                row[i] = Value::Int(v);
                assigned = Some(v);
                self.record(UndoOp::AutoIncrement {
                    table: schema.name.clone(),
                    old_value,
                });
            } else if col.auto_increment {
                // Keep the counter ahead of explicit values.
                if let Value::Int(v) = row[i] {
                    let t = self.table_mut(table)?;
                    if v >= t.next_auto {
                        let old_value = t.next_auto;
                        t.next_auto = v + 1;
                        self.record(UndoOp::AutoIncrement {
                            table: schema.name.clone(),
                            old_value,
                        });
                    }
                }
            }
        }
        // NOT NULL.
        for (i, col) in schema.columns.iter().enumerate() {
            if col.not_null && row[i].is_null() {
                return Err(Error::NotNullViolation {
                    table: schema.name.clone(),
                    column: col.name.clone(),
                });
            }
        }
        // UNIQUE. Its references are checked at commit.
        self.table(table)?.check_unique(&row, None)?;
        let t = self.table_mut(table)?;
        let row_id = t.insert_unchecked(row);
        stats.bump(&stats.rows_written, 1);
        self.record(UndoOp::Inserted {
            table: schema.name.clone(),
            row_id,
        });
        Ok(assigned)
    }

    /// Checks the references the open transaction wrote since its last
    /// check: every non-NULL foreign-key value a row took by an insert, or
    /// by an update of that column, must name a live parent row. This is
    /// SQL's deferred constraint check, run at commit (an auto-commit
    /// statement commits at its end), so a child may be written before its
    /// parent or repaired later in the transaction. Each touched row is
    /// checked once, in its current image; a column counts as written
    /// unless every image the row had since the last check holds the
    /// current value. An unwritten reference needs no check: parent-side
    /// actions stay immediate, so no parent goes while a row references it.
    pub fn check_references(&mut self, stats: &Stats) -> Result<()> {
        let Some(txn) = &self.txn else {
            return Ok(());
        };
        // The inserts and updates since the last check, grouped per row.
        let mut writes: Vec<(&str, RowId, &UndoOp)> = txn.undo[txn.checked..]
            .iter()
            .filter_map(|op| match op {
                UndoOp::Inserted { table, row_id } | UndoOp::Updated { table, row_id, .. } => {
                    Some((table.as_str(), *row_id, op))
                }
                _ => None,
            })
            .collect();
        writes.sort_unstable_by_key(|&(table, row_id, _)| (table, row_id));
        for row_writes in writes.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (table, row_id, _) = row_writes[0];
            let Some(t) = self.tables.get(&table.to_lowercase()) else {
                continue;
            };
            let Some(row) = t.get(row_id) else { continue };
            for fk in &t.schema.foreign_keys {
                let col = t.schema.require_column(&fk.column)?;
                let value = &row[col];
                let unwritten = row_writes.iter().all(|(_, _, op)| match op {
                    UndoOp::Updated { old_row, .. } => {
                        old_row.len() == row.len() && old_row[col] == *value
                    }
                    _ => false,
                });
                if unwritten || value.is_null() {
                    continue;
                }
                let parent = self.table(&fk.parent_table)?;
                let pcol = parent.schema.require_column(&fk.parent_column)?;
                if rows_matching(parent, pcol, value, stats).is_empty() {
                    return Err(Error::ForeignKeyViolation {
                        table: t.schema.name.clone(),
                        column: fk.column.clone(),
                        detail: format!(
                            "no {} row with {} = {value}",
                            fk.parent_table, fk.parent_column
                        ),
                    });
                }
            }
        }
        if let Some(txn) = self.txn.as_mut() {
            txn.checked = txn.undo.len();
        }
        Ok(())
    }

    // ---- row selection -------------------------------------------------------

    /// Replaces every uncorrelated `IN (SELECT ...)` in `expr` with an
    /// `IN (v1, v2, ...)` list by running the subquery once. Subqueries
    /// must produce exactly one column; their rows become the list.
    pub fn resolve_subqueries(
        &self,
        expr: &Expr,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<Expr> {
        Ok(match expr {
            Expr::InSelect {
                expr: inner,
                select,
                negated,
            } => {
                stats.bump(&stats.statements, 1);
                stats.bump(&stats.selects, 1);
                let result = self.select(select, params, stats)?;
                if result.columns.len() != 1 {
                    return Err(Error::Eval(format!(
                        "IN subquery must return one column, got {}",
                        result.columns.len()
                    )));
                }
                let list = result
                    .rows
                    .into_iter()
                    .map(|mut r| Expr::Literal(r.remove(0)))
                    .collect();
                Expr::InList {
                    expr: Box::new(self.resolve_subqueries(inner, params, stats)?),
                    list,
                    negated: *negated,
                }
            }
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(self.resolve_subqueries(expr, params, stats)?),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.resolve_subqueries(lhs, params, stats)?),
                rhs: Box::new(self.resolve_subqueries(rhs, params, stats)?),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.resolve_subqueries(expr, params, stats)?),
                list: list
                    .iter()
                    .map(|e| self.resolve_subqueries(e, params, stats))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.resolve_subqueries(expr, params, stats)?),
                negated: *negated,
            },
            other => other.clone(),
        })
    }

    /// The one probe-or-scan block: the ids of `t`'s rows that the
    /// chooser's path for `pred` yields, in slot order, and that path.
    /// `pred` pairs the WHERE as written (the plan-cache key) with its
    /// subquery-resolved form, whose constants the probe reads.
    fn candidates<'t>(
        &self,
        t: &'t Table,
        qualifier: Option<&str>,
        columns: &[String],
        pred: Option<(&Expr, &Expr)>,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<(Path, Cow<'t, [RowId]>)> {
        let path = match pred {
            Some((written, _)) => self.cached_access_path(t, qualifier, columns, written, stats),
            None => Path::Scan,
        };
        let index = |i: usize| {
            stats.bump(&stats.index_probes, 1);
            let ix = &t.indexes[i];
            (ix, ix.column, t.schema.columns[ix.column].ty)
        };
        let ids = match (path, pred) {
            (Path::Point(i), Some((_, resolved))) => {
                let (ix, column, ty) = index(i);
                match point_key(resolved, columns, column, ty, params)? {
                    Some(key) => Cow::Borrowed(ix.lookup(&key)),
                    None => Cow::Borrowed(&[][..]),
                }
            }
            (Path::Range(i), Some((_, resolved))) => {
                let (ix, column, ty) = index(i);
                let (lo, hi) = range_keys(resolved, columns, column, ty, params)?;
                Cow::Owned(ix.range(lo, hi))
            }
            _ => {
                stats.bump(&stats.table_scans, 1);
                Cow::Owned(t.row_ids())
            }
        };
        Ok((path, ids))
    }

    /// Keeps the rows that pass `pred` (every row without one), evaluated
    /// against `columns`. Rows stay borrowed: a statement clones only
    /// what it keeps.
    fn filter<'r>(
        &self,
        rows: Vec<(usize, &'r Row)>,
        columns: &[String],
        pred: Option<&Expr>,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<(usize, &'r Row)>> {
        let Some(pred) = pred else {
            return Ok(rows);
        };
        let now = self.clock();
        let mut kept = Vec::new();
        for (id, row) in rows {
            let ctx = EvalContext {
                columns,
                row,
                params,
                now,
            };
            if eval_predicate(pred, &ctx)? {
                kept.push((id, row));
            }
        }
        Ok(kept)
    }

    /// Row ids in `table` matching the optional predicate, reached by the
    /// shared chooser's probe or scan.
    pub fn matching_row_ids(
        &self,
        table: &str,
        where_: Option<&Expr>,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<Vec<RowId>> {
        let resolved = match where_ {
            Some(e) => Some(self.resolve_subqueries(e, params, stats)?),
            None => None,
        };
        let t = self.table(table)?;
        let columns = column_names(t, None);
        let pred = where_.zip(resolved.as_ref());
        let (_, ids) = self.candidates(t, None, &columns, pred, params, stats)?;
        let rows = self.filter(live(t, &ids), &columns, resolved.as_ref(), params)?;
        stats.bump(&stats.rows_read, rows.len() as u64);
        Ok(rows.into_iter().map(|(id, _)| id).collect())
    }

    // ---- UPDATE ------------------------------------------------------------

    fn update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        where_: Option<&Expr>,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<QueryResult> {
        let ids = self.matching_row_ids(table, where_, params, stats)?;
        let schema = self.table(table)?.schema.clone();
        let set_positions: Vec<(usize, &Expr)> = sets
            .iter()
            .map(|(c, e)| Ok((schema.require_column(c)?, e)))
            .collect::<Result<Vec<_>>>()?;
        let col_names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let mut affected = 0usize;
        for id in ids {
            let old_row = self.table(table)?.get(id).expect("live row").clone();
            let mut new_row = old_row.clone();
            for (pos, expr) in &set_positions {
                let ctx = EvalContext {
                    columns: &col_names,
                    row: &old_row,
                    params,
                    now: self.clock(),
                };
                new_row[*pos] = eval(expr, &ctx)?;
            }
            self.update_row_checked(table, id, new_row, stats)?;
            affected += 1;
        }
        Ok(QueryResult {
            affected,
            ..QueryResult::default()
        })
    }

    /// Replaces row `id` with `new_row`, enforcing all constraints.
    pub fn update_row_checked(
        &mut self,
        table: &str,
        id: RowId,
        mut new_row: Row,
        stats: &Stats,
    ) -> Result<()> {
        let schema = self.table(table)?.schema.clone();
        let old_row = self
            .table(table)?
            .get(id)
            .ok_or_else(|| Error::Eval("row vanished".into()))?
            .clone();
        for (i, col) in schema.columns.iter().enumerate() {
            new_row[i] = new_row[i].coerce_to(col.ty)?;
            if col.not_null && new_row[i].is_null() {
                return Err(Error::NotNullViolation {
                    table: schema.name.clone(),
                    column: col.name.clone(),
                });
            }
        }
        self.table(table)?.check_unique(&new_row, Some(id))?;
        // FK: parent side — a changed referenced key must not strand
        // children. The child side is checked at commit.
        for (child_name, fk) in self.children_of(&schema.name) {
            let pcol = schema.require_column(&fk.parent_column)?;
            if old_row[pcol] != new_row[pcol] {
                let referencing =
                    self.child_rows_referencing(&child_name, &fk, &old_row[pcol], stats)?;
                if !referencing.is_empty() {
                    return Err(Error::ForeignKeyViolation {
                        table: schema.name.clone(),
                        column: fk.parent_column.clone(),
                        detail: format!(
                            "cannot change referenced key: {} row(s) in {child_name} reference it",
                            referencing.len()
                        ),
                    });
                }
            }
        }
        let t = self.table_mut(table)?;
        t.replace(id, new_row);
        stats.bump(&stats.rows_written, 1);
        self.record(UndoOp::Updated {
            table: schema.name.clone(),
            row_id: id,
            old_row,
        });
        Ok(())
    }

    /// Applies a batch of per-row column writes, each row addressed by its
    /// primary-key value. All constraint checks and undo logging of
    /// [`Inner::update_row_checked`] apply per row; rows whose primary key
    /// no longer exists are skipped. Returns the number of rows updated.
    pub fn update_rows_by_pk(
        &mut self,
        table: &str,
        updates: &[(Value, Vec<(usize, Value)>)],
        stats: &Stats,
    ) -> Result<usize> {
        let (pk_col, table_name) = {
            let t = self.table(table)?;
            let pk = t.schema.primary_key.ok_or_else(|| {
                Error::Eval(format!(
                    "{}: no primary key for batch update",
                    t.schema.name
                ))
            })?;
            (pk, t.schema.name.clone())
        };
        let mut affected = 0usize;
        for (pk_value, writes) in updates {
            let ids = rows_matching(self.table(table)?, pk_col, pk_value, stats);
            let Some(&id) = ids.first() else { continue };
            let mut new_row = self
                .table(table)?
                .get(id)
                .ok_or_else(|| Error::Eval(format!("{table_name}: indexed row vanished")))?
                .clone();
            for (col, value) in writes {
                if *col >= new_row.len() {
                    return Err(Error::Eval(format!(
                        "{table_name}: column index {col} out of range in batch update"
                    )));
                }
                new_row[*col] = value.clone();
            }
            stats.bump(&stats.rows_read, 1);
            self.update_row_checked(table, id, new_row, stats)?;
            affected += 1;
        }
        Ok(affected)
    }

    /// Inserts a batch of fully materialized rows with all checks, returning
    /// the auto-increment value assigned to each (if any).
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        stats: &Stats,
    ) -> Result<Vec<Option<i64>>> {
        let mut assigned = Vec::with_capacity(rows.len());
        for row in rows {
            assigned.push(self.insert_row_checked(table, row, stats)?);
        }
        Ok(assigned)
    }

    // ---- DELETE ------------------------------------------------------------

    fn delete(
        &mut self,
        table: &str,
        where_: Option<&Expr>,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<QueryResult> {
        let ids = self.matching_row_ids(table, where_, params, stats)?;
        let mut affected = 0usize;
        for id in ids {
            // Cascades may have removed this row already.
            if self.table(table)?.get(id).is_some() {
                affected += self.delete_row_checked(table, id, stats)?;
            }
        }
        Ok(QueryResult {
            affected,
            ..QueryResult::default()
        })
    }

    /// Deletes row `id`, applying referential actions; returns the total
    /// number of rows removed (including cascades).
    pub fn delete_row_checked(&mut self, table: &str, id: RowId, stats: &Stats) -> Result<usize> {
        let mut scratch = Vec::new();
        self.delete_row_collect(table, id, stats, &mut scratch)
    }

    /// Like [`Inner::delete_row_checked`], but records every removed row
    /// (including cascades) into `collected` in deletion order
    /// (children before their parents).
    pub fn delete_row_collect(
        &mut self,
        table: &str,
        id: RowId,
        stats: &Stats,
        collected: &mut Vec<(String, Row)>,
    ) -> Result<usize> {
        let schema = self.table(table)?.schema.clone();
        let row = self
            .table(table)?
            .get(id)
            .ok_or_else(|| Error::Eval("row vanished".into()))?
            .clone();
        let mut removed = 0usize;
        for (child_name, fk) in self.children_of(&schema.name) {
            let pcol = schema.require_column(&fk.parent_column)?;
            let key = &row[pcol];
            if key.is_null() {
                continue;
            }
            let child_ids = self.child_rows_referencing(&child_name, &fk, key, stats)?;
            if child_ids.is_empty() {
                continue;
            }
            match fk.on_delete {
                ReferentialAction::Restrict => {
                    return Err(Error::ForeignKeyViolation {
                        table: schema.name.clone(),
                        column: fk.parent_column.clone(),
                        detail: format!(
                            "{} row(s) in {child_name} reference the deleted row",
                            child_ids.len()
                        ),
                    });
                }
                ReferentialAction::Cascade => {
                    for cid in child_ids {
                        if self.table(&child_name)?.get(cid).is_some() {
                            removed +=
                                self.delete_row_collect(&child_name, cid, stats, collected)?;
                        }
                    }
                }
                ReferentialAction::SetNull => {
                    let child_schema = self.table(&child_name)?.schema.clone();
                    let ccol = child_schema.require_column(&fk.column)?;
                    for cid in child_ids {
                        let mut new_row = self.table(&child_name)?.get(cid).expect("live").clone();
                        new_row[ccol] = Value::Null;
                        self.update_row_checked(&child_name, cid, new_row, stats)?;
                    }
                }
            }
        }
        let t = self.table_mut(table)?;
        if let Some(old) = t.remove(id) {
            stats.bump(&stats.rows_written, 1);
            collected.push((schema.name.clone(), old.clone()));
            self.record(UndoOp::Deleted {
                table: schema.name.clone(),
                row_id: id,
                row: old,
            });
            removed += 1;
        }
        Ok(removed)
    }

    /// All `(child_table, fk)` relationships referencing `parent`.
    pub fn children_of(&self, parent: &str) -> Vec<(String, ForeignKey)> {
        let mut out = Vec::new();
        for key in &self.table_order {
            let t = &self.tables[key];
            for fk in &t.schema.foreign_keys {
                if fk.parent_table.eq_ignore_ascii_case(parent) {
                    out.push((t.schema.name.clone(), fk.clone()));
                }
            }
        }
        out
    }

    fn child_rows_referencing(
        &self,
        child: &str,
        fk: &ForeignKey,
        key: &Value,
        stats: &Stats,
    ) -> Result<Vec<RowId>> {
        let t = self.table(child)?;
        let ccol = t.schema.require_column(&fk.column)?;
        // NULL is referenced by nothing; an index stores NULL keys, so a
        // probe for one would wrongly return the unattached children.
        if key.is_null() {
            return Ok(Vec::new());
        }
        Ok(rows_matching(t, ccol, key, stats).into_owned())
    }

    // ---- SELECT ------------------------------------------------------------

    pub(crate) fn select(
        &self,
        sel: &SelectStmt,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<QueryResult> {
        self.select_impl(sel, params, stats, None)
    }

    /// Like [`Inner::select`], but records one [`OpProfile`] per executed
    /// operator into `profile` (the `EXPLAIN ANALYZE` backend).
    pub(crate) fn select_profiled(
        &self,
        sel: &SelectStmt,
        params: &HashMap<String, Value>,
        stats: &Stats,
        profile: &mut Vec<OpProfile>,
    ) -> Result<QueryResult> {
        self.select_impl(sel, params, stats, Some(profile))
    }

    fn select_impl(
        &self,
        sel: &SelectStmt,
        params: &HashMap<String, Value>,
        stats: &Stats,
        mut profile: Option<&mut Vec<OpProfile>>,
    ) -> Result<QueryResult> {
        let note = |profile: &mut Option<&mut Vec<OpProfile>>,
                    op: &'static str,
                    detail: String,
                    rows: u64,
                    since: Instant| {
            if let Some(p) = profile.as_deref_mut() {
                p.push(OpProfile {
                    op,
                    detail,
                    rows,
                    elapsed_us: since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                });
            }
        };
        let resolved_where = match &sel.where_ {
            Some(p) => Some(self.resolve_subqueries(p, params, stats)?),
            None => None,
        };
        // The FROM table is reached by the path its own WHERE conjuncts
        // choose (the same cached decision `explain` reports). Conjuncts
        // on joined tables are never pushed down: the full WHERE filters
        // the joined rows, which keeps LEFT JOIN semantics.
        let access_started = Instant::now();
        let t = self.table(&sel.from)?;
        let qualifier = sel.from_alias.as_deref().unwrap_or(&t.schema.name);
        let mut columns = column_names(t, Some(qualifier));
        let pred = sel.where_.as_ref().zip(resolved_where.as_ref());
        let (path, ids) = self.candidates(t, Some(qualifier), &columns, pred, params, stats)?;
        let via = |i: usize| format!("{} via {}", sel.from, t.indexes[i].name);
        let (op, detail) = match path {
            Path::Scan => ("scan", sel.from.clone()),
            Path::Point(i) => ("probe", via(i)),
            Path::Range(i) => ("range", via(i)),
        };
        note(&mut profile, op, detail, ids.len() as u64, access_started);
        let mut joined: Vec<Row> = Vec::new();
        for (n, join) in sel.joins.iter().enumerate() {
            let join_started = Instant::now();
            let outer: Vec<&Row> = if n == 0 {
                live(t, &ids).into_iter().map(|(_, row)| row).collect()
            } else {
                joined.iter().collect()
            };
            let (op, detail, rows) = self.join(&outer, &mut columns, join, params, stats)?;
            note(&mut profile, op, detail, rows.len() as u64, join_started);
            joined = rows;
        }
        let filter_started = Instant::now();
        let rows = if sel.joins.is_empty() {
            live(t, &ids)
        } else {
            joined.iter().enumerate().collect()
        };
        let rows: Vec<&Row> = self
            .filter(rows, &columns, resolved_where.as_ref(), params)?
            .into_iter()
            .map(|(_, row)| row)
            .collect();
        if resolved_where.is_some() {
            note(
                &mut profile,
                "filter",
                "where".to_string(),
                rows.len() as u64,
                filter_started,
            );
        }

        let has_aggregates = sel
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Aggregate { .. }));
        let aggregated = has_aggregates || !sel.group_by.is_empty();
        let rows = if aggregated {
            rows
        } else {
            let order_started = Instant::now();
            let rows = self.order_rows(sel, &columns, rows, params)?;
            if let (Some(k), false) = (rows_kept(sel), sel.order_by.is_empty()) {
                note(
                    &mut profile,
                    "top-k",
                    format!("first {k} by order"),
                    rows.len() as u64,
                    order_started,
                );
            }
            rows
        };
        stats.bump(&stats.rows_read, rows.len() as u64);
        let project_started = Instant::now();
        let mut result = if aggregated {
            self.project_aggregate(sel, &columns, rows, params)?
        } else {
            self.project_plain(sel, &columns, &rows, params)?
        };
        note(
            &mut profile,
            if aggregated { "aggregate" } else { "project" },
            if sel.order_by.is_empty() {
                String::new()
            } else {
                "ordered".to_string()
            },
            result.rows.len() as u64,
            project_started,
        );
        if sel.distinct {
            let distinct_started = Instant::now();
            let mut seen = std::collections::HashSet::new();
            result.rows.retain(|r| {
                let key: String = r
                    .iter()
                    .map(|v| v.to_sql_literal())
                    .collect::<Vec<_>>()
                    .join("\u{1}");
                seen.insert(key)
            });
            note(
                &mut profile,
                "distinct",
                String::new(),
                result.rows.len() as u64,
                distinct_started,
            );
        }
        let limit_started = Instant::now();
        let had_limit = sel.offset.is_some() || sel.limit.is_some();
        if let Some(offset) = sel.offset {
            if offset >= result.rows.len() {
                result.rows.clear();
            } else {
                result.rows.drain(..offset);
            }
        }
        if let Some(limit) = sel.limit {
            result.rows.truncate(limit);
        }
        if had_limit {
            note(
                &mut profile,
                "limit",
                String::new(),
                result.rows.len() as u64,
                limit_started,
            );
        }
        Ok(result)
    }

    /// Joins each outer row (over `columns`) with the rows of `join.table`
    /// that satisfy `ON`, along the path [`choose_join`] picks: an index
    /// join probes the inner column's index once per outer row, a hash
    /// join first builds the same key map over the inner rows, a nested
    /// loop tries them all. Both probing joins follow the key rule, and
    /// `ON` filters every candidate. LEFT JOIN pads an unmatched outer row
    /// with NULLs. Extends `columns` with the joined table's, and returns
    /// the operator, its detail and the joined rows.
    fn join(
        &self,
        outer: &[&Row],
        columns: &mut Vec<String>,
        join: &Join,
        params: &HashMap<String, Value>,
        stats: &Stats,
    ) -> Result<(&'static str, String, Vec<Row>)> {
        let t = self.table(&join.table)?;
        let qualifier = join.alias.as_deref().unwrap_or(&t.schema.name);
        let inner_columns = column_names(t, Some(qualifier));
        let path = choose_join(&join.on, columns, &inner_columns, t);
        columns.extend(inner_columns);
        let built;
        let (keyed, op, detail) = match path {
            JoinPath::Index { outer, index } => {
                let ix = &t.indexes[index];
                let detail = format!("{} via {}", join.table, ix.name);
                (Some((outer, ix)), "index join", detail)
            }
            JoinPath::Hash { outer, inner } => {
                stats.bump(&stats.table_scans, 1);
                built = Index::over(t, inner);
                let detail = format!("{} on {}", join.table, t.schema.columns[inner].name);
                (Some((outer, &built)), "hash join", detail)
            }
            JoinPath::NestedLoop => {
                stats.bump(&stats.table_scans, 1);
                (None, "nested loop", join.table.clone())
            }
        };
        let every_row = match keyed {
            Some(_) => Vec::new(),
            None => t.row_ids(),
        };
        let now = self.clock();
        let mut out = Vec::new();
        for &l in outer {
            let candidates: &[RowId] = match keyed {
                Some((at, ix)) => match probe_key(&l[at], t.schema.columns[ix.column].ty) {
                    Some(key) if !key.is_null() => {
                        if let JoinPath::Index { .. } = path {
                            stats.bump(&stats.index_probes, 1);
                        }
                        ix.lookup(&key)
                    }
                    _ => &[],
                },
                None => &every_row,
            };
            let mut matched = false;
            for &id in candidates {
                let mut row = Vec::with_capacity(columns.len());
                row.extend_from_slice(l);
                row.extend_from_slice(t.get(id).expect("candidate ids are live"));
                let ctx = EvalContext {
                    columns,
                    row: &row,
                    params,
                    now,
                };
                if eval_predicate(&join.on, &ctx)? {
                    out.push(row);
                    matched = true;
                }
            }
            if !matched && join.kind == JoinKind::Left {
                let mut row = l.clone();
                row.resize(columns.len(), Value::Null);
                out.push(row);
            }
        }
        Ok((op, detail, out))
    }

    /// Puts rows in ORDER BY order, ties in the order they came. When
    /// [`rows_kept`] bounds the result to the first m+n rows, only those
    /// stay, picked before any full sort or projection: exactly the rows a
    /// stable full sort would keep there.
    fn order_rows<'r>(
        &self,
        sel: &SelectStmt,
        columns: &[String],
        mut rows: Vec<&'r Row>,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<&'r Row>> {
        let keep = rows_kept(sel);
        if sel.order_by.is_empty() {
            if let Some(k) = keep {
                rows.truncate(k);
            }
            return Ok(rows);
        }
        let now = self.clock();
        let mut keyed = rows
            .into_iter()
            .enumerate()
            .map(|(at, row)| {
                let ctx = EvalContext {
                    columns,
                    row,
                    params,
                    now,
                };
                let keys = sel
                    .order_by
                    .iter()
                    .map(|k| eval(&k.expr, &ctx))
                    .collect::<Result<Vec<_>>>()?;
                Ok((keys, at, row))
            })
            .collect::<Result<Vec<_>>>()?;
        // The arrival position breaks ties, so the unstable sorts below
        // order exactly as a stable sort would.
        let cmp = |a: &(Vec<Value>, usize, &'r Row), b: &(Vec<Value>, usize, &'r Row)| {
            compare_keys(&sel.order_by, &a.0, &b.0).then(a.1.cmp(&b.1))
        };
        if let Some(k) = keep.filter(|&k| k < keyed.len()) {
            if k == 0 {
                keyed.clear();
            } else {
                keyed.select_nth_unstable_by(k - 1, cmp);
                keyed.truncate(k);
            }
        }
        keyed.sort_unstable_by(cmp);
        Ok(keyed.into_iter().map(|(_, _, row)| row).collect())
    }

    fn project_plain(
        &self,
        sel: &SelectStmt,
        col_names: &[String],
        rows: &[&Row],
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        let mut out_cols: Vec<String> = Vec::new();
        for p in &sel.projections {
            match p {
                Projection::Wildcard => out_cols.extend(col_names.iter().cloned()),
                Projection::Expr { expr, alias } => {
                    out_cols.push(alias.clone().unwrap_or_else(|| expr.to_string()))
                }
                Projection::Aggregate { .. } => unreachable!("aggregate handled elsewhere"),
            }
        }
        let now = self.clock();
        let mut out_rows = Vec::with_capacity(rows.len());
        for &row in rows {
            let ctx = EvalContext {
                columns: col_names,
                row,
                params,
                now,
            };
            let mut out = Vec::with_capacity(out_cols.len());
            for p in &sel.projections {
                match p {
                    Projection::Wildcard => out.extend(row.iter().cloned()),
                    Projection::Expr { expr, .. } => out.push(eval(expr, &ctx)?),
                    Projection::Aggregate { .. } => unreachable!(),
                }
            }
            out_rows.push(out);
        }
        Ok(QueryResult {
            columns: out_cols,
            rows: out_rows,
            ..QueryResult::default()
        })
    }

    fn project_aggregate(
        &self,
        sel: &SelectStmt,
        col_names: &[String],
        rows: Vec<&Row>,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        // Group rows by the GROUP BY key (empty key = one global group).
        let mut groups: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
        let mut group_index: HashMap<String, usize> = HashMap::new();
        for row in rows {
            let ctx = EvalContext {
                columns: col_names,
                row,
                params,
                now: self.clock(),
            };
            let key: Vec<Value> = sel
                .group_by
                .iter()
                .map(|e| eval(e, &ctx))
                .collect::<Result<Vec<_>>>()?;
            let key_str: String = key
                .iter()
                .map(|v| v.to_sql_literal())
                .collect::<Vec<_>>()
                .join("\u{1}");
            match group_index.get(&key_str) {
                Some(&i) => groups[i].1.push(row),
                None => {
                    group_index.insert(key_str, groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        if groups.is_empty() && sel.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        // Output columns.
        let mut out_cols = Vec::new();
        for p in &sel.projections {
            match p {
                Projection::Wildcard => {
                    return Err(Error::Unsupported("SELECT * with aggregates".to_string()))
                }
                Projection::Expr { expr, alias } => {
                    out_cols.push(alias.clone().unwrap_or_else(|| expr.to_string()))
                }
                Projection::Aggregate {
                    func,
                    arg,
                    distinct,
                    alias,
                } => out_cols.push(alias.clone().unwrap_or_else(|| {
                    let f = match func {
                        AggFunc::Count => "COUNT",
                        AggFunc::Sum => "SUM",
                        AggFunc::Min => "MIN",
                        AggFunc::Max => "MAX",
                        AggFunc::Avg => "AVG",
                    };
                    let d = if *distinct { "DISTINCT " } else { "" };
                    match arg {
                        Some(a) => format!("{f}({d}{a})"),
                        None => format!("{f}(*)"),
                    }
                })),
            }
        }
        let mut out_rows = Vec::with_capacity(groups.len());
        for (_, grows) in &groups {
            let mut out = Vec::with_capacity(out_cols.len());
            for p in &sel.projections {
                match p {
                    Projection::Wildcard => unreachable!(),
                    Projection::Expr { expr, .. } => {
                        // Per-group scalar: evaluated on the first row.
                        match grows.first() {
                            Some(first) => {
                                let ctx = EvalContext {
                                    columns: col_names,
                                    row: first,
                                    params,
                                    now: self.clock(),
                                };
                                out.push(eval(expr, &ctx)?);
                            }
                            None => out.push(Value::Null),
                        }
                    }
                    Projection::Aggregate {
                        func,
                        arg,
                        distinct,
                        ..
                    } => out.push(self.aggregate(
                        *func,
                        arg.as_ref(),
                        *distinct,
                        col_names,
                        grows,
                        params,
                    )?),
                }
            }
            out_rows.push(out);
        }
        // HAVING filters the projected rows (aggregate aliases visible).
        if let Some(having) = &sel.having {
            let mut kept = Vec::with_capacity(out_rows.len());
            for row in out_rows {
                let ctx = EvalContext {
                    columns: &out_cols,
                    row: &row,
                    params,
                    now: self.clock(),
                };
                if eval_predicate(having, &ctx)? {
                    kept.push(row);
                }
            }
            out_rows = kept;
        }
        // ORDER BY over the projected rows (aliases visible).
        if !sel.order_by.is_empty() {
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(out_rows.len());
            for row in out_rows {
                let ctx = EvalContext {
                    columns: &out_cols,
                    row: &row,
                    params,
                    now: self.clock(),
                };
                let keys = sel
                    .order_by
                    .iter()
                    .map(|k| eval(&k.expr, &ctx))
                    .collect::<Result<Vec<_>>>()?;
                keyed.push((keys, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| compare_keys(&sel.order_by, ka, kb));
            out_rows = keyed.into_iter().map(|(_, r)| r).collect();
        }
        Ok(QueryResult {
            columns: out_cols,
            rows: out_rows,
            ..QueryResult::default()
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn aggregate(
        &self,
        func: AggFunc,
        arg: Option<&Expr>,
        distinct: bool,
        col_names: &[String],
        rows: &[&Row],
        params: &HashMap<String, Value>,
    ) -> Result<Value> {
        let mut values = Vec::new();
        if let Some(expr) = arg {
            let mut seen = std::collections::HashSet::new();
            for row in rows {
                let ctx = EvalContext {
                    columns: col_names,
                    row,
                    params,
                    now: self.clock(),
                };
                let v = eval(expr, &ctx)?;
                if v.is_null() {
                    continue;
                }
                if distinct && !seen.insert(v.to_sql_literal()) {
                    continue;
                }
                values.push(v);
            }
        }
        Ok(match func {
            AggFunc::Count => match arg {
                Some(_) => Value::Int(values.len() as i64),
                None => Value::Int(rows.len() as i64),
            },
            AggFunc::Sum => {
                if values.is_empty() {
                    Value::Null
                } else if values.iter().all(|v| matches!(v, Value::Int(_))) {
                    Value::Int(values.iter().map(|v| v.as_int().unwrap_or(0)).sum())
                } else {
                    let mut s = 0.0;
                    for v in &values {
                        s += match v {
                            Value::Int(i) => *i as f64,
                            Value::Float(f) => *f,
                            other => {
                                return Err(Error::Eval(format!("SUM of {other}")));
                            }
                        };
                    }
                    Value::Float(s)
                }
            }
            AggFunc::Min => values
                .into_iter()
                .min_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
            AggFunc::Max => values
                .into_iter()
                .max_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
            AggFunc::Avg => {
                if values.is_empty() {
                    Value::Null
                } else {
                    let mut s = 0.0;
                    let n = values.len() as f64;
                    for v in &values {
                        s += match v {
                            Value::Int(i) => *i as f64,
                            Value::Float(f) => *f,
                            other => {
                                return Err(Error::Eval(format!("AVG of {other}")));
                            }
                        };
                    }
                    Value::Float(s / n)
                }
            }
        })
    }

    // ---- rollback ----------------------------------------------------------

    /// Applies the undo log of `txn` in reverse order.
    pub fn rollback(&mut self, txn: Txn) {
        self.rollback_to(txn, 0);
    }

    /// Rolls back to a previous [`Txn::mark`], leaving earlier ops intact;
    /// ops beyond `mark` are undone and dropped. The truncated txn is NOT
    /// reinstalled — callers do that if needed.
    pub fn rollback_to(&mut self, mut txn: Txn, mark: usize) -> Txn {
        let mut undid_ddl = false;
        while txn.undo.len() > mark {
            let op = txn.undo.pop().expect("len checked");
            undid_ddl |= matches!(
                op,
                UndoOp::CreatedTable { .. }
                    | UndoOp::DroppedTable { .. }
                    | UndoOp::CreatedIndex { .. }
                    | UndoOp::AlteredTable { .. }
            );
            match op {
                UndoOp::Inserted { table, row_id } => {
                    if let Some(t) = self.tables.get_mut(&table.to_lowercase()) {
                        t.remove(row_id);
                    }
                }
                UndoOp::Deleted { table, row_id, row } => {
                    if let Some(t) = self.tables.get_mut(&table.to_lowercase()) {
                        t.restore_at(row_id, row);
                    }
                }
                UndoOp::Updated {
                    table,
                    row_id,
                    old_row,
                } => {
                    if let Some(t) = self.tables.get_mut(&table.to_lowercase()) {
                        t.replace(row_id, old_row);
                    }
                }
                UndoOp::CreatedTable { name } => {
                    let key = name.to_lowercase();
                    self.tables.remove(&key);
                    self.table_order.retain(|n| n != &key);
                }
                UndoOp::DroppedTable { name, table } => {
                    let key = name.to_lowercase();
                    self.tables.insert(key.clone(), *table);
                    self.table_order.push(key);
                }
                UndoOp::CreatedIndex { table, index } => {
                    if let Some(t) = self.tables.get_mut(&table.to_lowercase()) {
                        let _ = t.drop_index(&index);
                    }
                }
                UndoOp::AutoIncrement { table, old_value } => {
                    // Full-restore semantics: undo records exist for both
                    // the auto-assign and explicit keep-ahead bumps, and
                    // ops replay newest-first, so the counter lands back
                    // on its pre-transaction value (unlike MySQL, which
                    // burns ids on rollback).
                    if let Some(t) = self.tables.get_mut(&table.to_lowercase()) {
                        t.next_auto = old_value;
                    }
                }
                UndoOp::AlteredTable { name, table } => {
                    self.tables.insert(name.to_lowercase(), *table);
                }
            }
        }
        txn.checked = txn.checked.min(mark);
        if undid_ddl {
            self.invalidate_plans();
        }
        txn
    }
}

/// Row ids in `t` whose column `col` equals `key`: an index probe when the
/// column is indexed, a scan otherwise.
fn rows_matching<'t>(t: &'t Table, col: usize, key: &Value, stats: &Stats) -> Cow<'t, [RowId]> {
    match t.index_on(col) {
        Some(ix) => {
            stats.bump(&stats.index_probes, 1);
            Cow::Borrowed(ix.lookup(key))
        }
        None => {
            stats.bump(&stats.table_scans, 1);
            Cow::Owned(
                t.iter()
                    .filter(|(_, r)| r[col].sql_eq(key) == Some(true))
                    .map(|(id, _)| id)
                    .collect(),
            )
        }
    }
}

/// The live rows at `ids`, paired with their ids.
fn live<'t>(t: &'t Table, ids: &[RowId]) -> Vec<(RowId, &'t Row)> {
    ids.iter()
        .map(|&id| (id, t.get(id).expect("candidate ids are live")))
        .collect()
}

/// The rows `LIMIT n [OFFSET m]` can return from a SELECT without
/// DISTINCT, GROUP BY or aggregates: the first m+n in order.
fn rows_kept(sel: &SelectStmt) -> Option<usize> {
    match sel.limit {
        Some(n) if !sel.distinct => Some(n.saturating_add(sel.offset.unwrap_or(0))),
        _ => None,
    }
}

/// Orders two ORDER BY key tuples.
fn compare_keys(order_by: &[OrderKey], a: &[Value], b: &[Value]) -> Ordering {
    for (i, key) in order_by.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod select_edge_tests {
    use crate::{Database, Value};

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE u (id INT PRIMARY KEY, name TEXT);
             CREATE TABLE p (id INT PRIMARY KEY, uid INT, tag TEXT, score INT);",
        )
        .unwrap();
        db.execute("INSERT INTO u VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        db.execute("INSERT INTO p VALUES (10, 1, 'x', 5), (11, 1, 'y', 5), (12, 2, 'x', 7)")
            .unwrap();
        db
    }

    #[test]
    fn left_join_with_extra_on_conjunct() {
        let db = db();
        // The extra conjunct rejects some hash-join matches; LEFT JOIN must
        // still emit the unmatched left rows with NULLs.
        let r = db
            .execute(
                "SELECT u.name, p.id FROM u LEFT JOIN p ON p.uid = u.id AND p.score > 6 \
                 ORDER BY u.id, p.id",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("a".into()), Value::Null],
                vec![Value::Text("b".into()), Value::Int(12)],
            ]
        );
    }

    #[test]
    fn select_distinct_dedupes() {
        let db = db();
        let r = db
            .execute("SELECT DISTINCT tag FROM p ORDER BY tag")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r2 = db.execute("SELECT DISTINCT tag, score FROM p").unwrap();
        assert_eq!(r2.rows.len(), 3, "distinct applies to the whole projection");
    }

    #[test]
    fn qualified_star_and_aliases() {
        let db = db();
        let r = db
            .execute("SELECT * FROM u AS alias INNER JOIN p ON p.uid = alias.id")
            .unwrap();
        assert_eq!(r.columns.len(), 2 + 4);
        assert!(r.columns[0].starts_with("alias."));
    }

    #[test]
    fn error_paths_do_not_panic() {
        let db = db();
        assert!(db.execute("SELECT ghost FROM u").is_err());
        assert!(db.execute("SELECT * FROM ghost").is_err());
        assert!(db
            .execute("SELECT name FROM u INNER JOIN ghost ON 1 = 1")
            .is_err());
        assert!(db
            .execute("SELECT * FROM u WHERE LENGTH(id, name) = 1")
            .is_err());
        // Aggregates mixed with SELECT * are unsupported, not UB.
        assert!(db.execute("SELECT *, COUNT(*) FROM u").is_err());
    }

    #[test]
    fn order_by_multiple_keys_and_nulls() {
        let db = db();
        db.execute("INSERT INTO p VALUES (13, 2, NULL, 7)").unwrap();
        let r = db
            .execute("SELECT id, tag FROM p ORDER BY score DESC, tag ASC")
            .unwrap();
        // score 7 first (ids 12,13) with NULL tag sorting before 'x'.
        assert_eq!(r.rows[0][0], Value::Int(13));
        assert_eq!(r.rows[1][0], Value::Int(12));
    }

    #[test]
    fn group_by_expression_key() {
        let db = db();
        let r = db
            .execute(
                "SELECT score % 2 AS parity, COUNT(*) AS n FROM p GROUP BY score % 2 \
                 ORDER BY parity",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1), Value::Int(3)]]);
    }
}
