//! The shared access-path chooser.
//!
//! Exactly one piece of code decides how a statement reaches the rows of
//! each table it reads. [`choose_access_path`] serves a statement's own
//! table (a SELECT's FROM table, an UPDATE's or DELETE's target): an index
//! probe at the constant its WHERE pins an indexed column to, an index
//! range over the bounds it puts on one, or a full scan. [`choose_join`]
//! serves each joined table: an index join, a hash join or a nested loop.
//! The executor ([`crate::exec`]) follows both before touching rows, and
//! `EXPLAIN` ([`crate::plan`]) prints them, so the two cannot drift.
//!
//! Every probe follows one key rule ([`probe_key`]): the constant, or the
//! outer row's value, is coerced to the probed column's type, and a value
//! that cannot be coerced matches nothing. The full predicate or `ON`
//! still filters every candidate, so a path decides how many rows a
//! statement touches, never which rows it returns.

use std::collections::HashMap;
use std::ops::Bound;

use crate::error::{Error, Result};
use crate::expr::{column_position, BinOp, Expr};
use crate::storage::Table;
use crate::value::{DataType, Value};

/// How the engine reaches the rows of one table for a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Every live row is visited, then filtered.
    FullScan,
    /// One index is probed, then the full predicate filters the probe
    /// results: at the constant a conjunct pins its column to (`col = c`,
    /// `col IS NULL`), else over the range its `<`, `<=`, `>`, `>=`
    /// conjuncts bound.
    IndexProbe {
        /// Name of the chosen index.
        index: String,
        /// Name of the indexed column the predicate pins or bounds.
        column: String,
    },
}

impl AccessPath {
    /// Whether this path probes an index.
    pub fn is_probe(&self) -> bool {
        matches!(self, AccessPath::IndexProbe { .. })
    }
}

/// The chooser's decision for one table, as the plan cache keeps it; the
/// numbers are positions in the table's `indexes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// Every live row.
    Scan,
    /// One key of an index.
    Point(usize),
    /// A key range of an index.
    Range(usize),
}

impl Path {
    /// The public form of this path over `table`.
    pub(crate) fn public(self, table: &Table) -> AccessPath {
        match self {
            Path::Scan => AccessPath::FullScan,
            Path::Point(i) | Path::Range(i) => {
                let ix = &table.indexes[i];
                AccessPath::IndexProbe {
                    index: ix.name.clone(),
                    column: table.schema.columns[ix.column].name.clone(),
                }
            }
        }
    }
}

/// How a joined table is matched to each outer row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinPath {
    /// Probe the inner table's index (a position in its `indexes`) with
    /// the outer row's value at `outer`.
    Index { outer: usize, index: usize },
    /// Build a key map of the inner column `inner` once, then probe it
    /// with the outer row's value at `outer`.
    Hash { outer: usize, inner: usize },
    /// Try every inner row.
    NestedLoop,
}

/// The names a statement evaluates `table`'s columns under:
/// `qualifier.column`, or bare column names without a qualifier (UPDATE
/// and DELETE).
pub(crate) fn column_names(table: &Table, qualifier: Option<&str>) -> Vec<String> {
    table
        .schema
        .columns
        .iter()
        .map(|c| match qualifier {
            Some(q) => format!("{q}.{}", c.name),
            None => c.name.clone(),
        })
        .collect()
}

/// What one conjunct says about a column.
enum Constraint<'e> {
    /// `col = c`, or `col IS NULL` (`None`): indexes store NULL keys.
    Pin(Option<&'e Expr>),
    /// `col op c` for a comparison `op`, read with the column on the left.
    Bound(BinOp, &'e Expr),
}

/// Calls `f` on each conjunct of `pred`.
fn for_each_conjunct<'e>(pred: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    match pred {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            for_each_conjunct(lhs, f);
            for_each_conjunct(rhs, f);
        }
        other => f(other),
    }
}

/// The constraint `conjunct` puts on the column at `column`, if it
/// compares a reference that resolves there (see
/// [`column_position`]) with a constant: a literal or a `$param`, which
/// binding turns into a literal, so a shape decides the same before and
/// after binding.
fn constraint<'e>(conjunct: &'e Expr, columns: &[String], column: usize) -> Option<Constraint<'e>> {
    let names = |e: &Expr| {
        matches!(e, Expr::Column { table, name }
            if column_position(columns, table.as_deref(), name) == Some(column))
    };
    let is_const = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
    match conjunct {
        Expr::IsNull {
            expr,
            negated: false,
        } if names(expr) => Some(Constraint::Pin(None)),
        Expr::Binary { op, lhs, rhs } => {
            let (op, constant) = if names(lhs) && is_const(rhs) {
                (*op, rhs)
            } else if is_const(lhs) && names(rhs) {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => *other,
                };
                (flipped, lhs)
            } else {
                return None;
            };
            match op {
                BinOp::Eq => Some(Constraint::Pin(Some(constant))),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    Some(Constraint::Bound(op, constant))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// The access path for `table` under `pred`, whose column references
/// resolve against `columns` (the table's names in the statement). An
/// index counts only if a conjunct's column resolves to its column: the
/// first index (in creation order) a conjunct pins, else the first one a
/// conjunct bounds, else a full scan. An equality pin wins over a range.
pub(crate) fn choose_access_path(table: &Table, columns: &[String], pred: &Expr) -> Path {
    let constrained = |column: usize, pin: bool| {
        let mut hit = false;
        for_each_conjunct(pred, &mut |c| match constraint(c, columns, column) {
            Some(Constraint::Pin(_)) => hit |= pin,
            Some(Constraint::Bound(..)) => hit |= !pin,
            None => {}
        });
        hit
    };
    let first = |pin: bool| {
        table
            .indexes
            .iter()
            .position(|ix| constrained(ix.column, pin))
    };
    match (first(true), first(false)) {
        (Some(i), _) => Path::Point(i),
        (None, Some(i)) => Path::Range(i),
        (None, None) => Path::Scan,
    }
}

/// The key rule: the key at which a value is probed in a column of type
/// `ty` is the value coerced to `ty`; a value that cannot be coerced
/// matches nothing (`None`).
pub(crate) fn probe_key(value: &Value, ty: DataType) -> Option<Value> {
    value.coerce_to(ty).ok()
}

/// The value of a constant in a constraint: a literal, or a bound param.
fn constant_value(e: &Expr, params: &HashMap<String, Value>) -> Result<Value> {
    match e {
        Expr::Param(p) => params
            .get(p)
            .cloned()
            .ok_or_else(|| Error::UnboundParam(p.clone())),
        Expr::Literal(v) => Ok(v.clone()),
        other => unreachable!("constraints hold constants, not {other}"),
    }
}

/// The key a point probe of the column at `column` (of type `ty`) reads:
/// the first pinning conjunct's constant under [`probe_key`]. `None`
/// matches nothing (as does a predicate with no pin, which the chooser
/// never sends here).
pub(crate) fn point_key(
    pred: &Expr,
    columns: &[String],
    column: usize,
    ty: DataType,
    params: &HashMap<String, Value>,
) -> Result<Option<Value>> {
    let mut pin = None;
    for_each_conjunct(pred, &mut |c| {
        if let (None, Some(Constraint::Pin(constant))) = (&pin, constraint(c, columns, column)) {
            pin = Some(constant);
        }
    });
    Ok(match pin {
        Some(Some(constant)) => probe_key(&constant_value(constant, params)?, ty),
        Some(None) => Some(Value::Null),
        None => None,
    })
}

/// The bounds a range probe of the column at `column` (of type `ty`)
/// walks: the first lower and the first upper bound its conjuncts set.
/// A bound that cannot be coerced to `ty`, or is NULL or NaN, leaves its
/// side open, so the walk yields a superset that the predicate trims.
pub(crate) fn range_keys(
    pred: &Expr,
    columns: &[String],
    column: usize,
    ty: DataType,
    params: &HashMap<String, Value>,
) -> Result<(Bound<Value>, Bound<Value>)> {
    let mut lower = None;
    let mut upper = None;
    for_each_conjunct(pred, &mut |c| {
        if let Some(Constraint::Bound(op, constant)) = constraint(c, columns, column) {
            let side = if matches!(op, BinOp::Gt | BinOp::Ge) {
                &mut lower
            } else {
                &mut upper
            };
            side.get_or_insert((op, constant));
        }
    });
    let bound = |side: Option<(BinOp, &Expr)>| -> Result<Bound<Value>> {
        let Some((op, constant)) = side else {
            return Ok(Bound::Unbounded);
        };
        Ok(match probe_key(&constant_value(constant, params)?, ty) {
            Some(Value::Null) | None => Bound::Unbounded,
            Some(Value::Float(x)) if x.is_nan() => Bound::Unbounded,
            Some(key) if matches!(op, BinOp::Ge | BinOp::Le) => Bound::Included(key),
            Some(key) => Bound::Excluded(key),
        })
    };
    Ok((bound(lower)?, bound(upper)?))
}

/// How `inner` (whose columns the statement names `inner_columns`) joins
/// rows over `outer_columns` under `on`. An `ON` conjunct `a = b` is an
/// equi-join when, under the row evaluation rule over the outer columns
/// followed by the inner ones, one side resolves to an outer column and
/// the other to an inner one. The first equi-join whose inner column is
/// indexed makes an index join; else the first equi-join makes a hash
/// join; else every inner row is tried.
pub(crate) fn choose_join(
    on: &Expr,
    outer_columns: &[String],
    inner_columns: &[String],
    inner: &Table,
) -> JoinPath {
    // `Ok` is an outer position, `Err` an inner one.
    let side = |e: &Expr| match e {
        Expr::Column { table, name } => column_position(outer_columns, table.as_deref(), name)
            .map(Ok)
            .or_else(|| column_position(inner_columns, table.as_deref(), name).map(Err)),
        _ => None,
    };
    let mut equi = Vec::new();
    for_each_conjunct(on, &mut |c| {
        if let Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = c
        {
            match (side(lhs), side(rhs)) {
                (Some(Ok(outer)), Some(Err(col))) | (Some(Err(col)), Some(Ok(outer))) => {
                    equi.push((outer, col))
                }
                _ => {}
            }
        }
    });
    let indexed = equi.iter().find_map(|&(outer, col)| {
        let index = inner.indexes.iter().position(|ix| ix.column == col)?;
        Some(JoinPath::Index { outer, index })
    });
    match (indexed, equi.first()) {
        (Some(path), _) => path,
        (None, Some(&(outer, inner))) => JoinPath::Hash { outer, inner },
        (None, None) => JoinPath::NestedLoop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn table() -> Table {
        let mut s = TableSchema::new("t");
        s.columns
            .push(ColumnDef::new("id", DataType::Int).not_null().unique());
        s.columns.push(ColumnDef::new("name", DataType::Text));
        s.primary_key = Some(0);
        Table::new(s)
    }

    fn path(t: &Table, qualifier: Option<&str>, pred: &str) -> Path {
        let columns = column_names(t, qualifier);
        choose_access_path(t, &columns, &parse_expr(pred).unwrap())
    }

    #[test]
    fn literal_param_and_is_null_pins_all_probe() {
        let t = table();
        for pred in [
            "id = 5",
            "id = $UID",
            "name = 'x' AND id = $UID",
            "name = 'x' AND id IS NULL",
        ] {
            assert_eq!(path(&t, Some("t"), pred), Path::Point(0), "{pred}");
        }
    }

    #[test]
    fn unindexed_or_non_sargable_predicates_scan() {
        let t = table();
        for pred in [
            "name = 'x'",
            "id IS NOT NULL",
            "id != 5",
            "id + 1 > 5",
            "id > 5 OR id < 2",
        ] {
            assert_eq!(path(&t, Some("t"), pred), Path::Scan, "{pred}");
        }
    }

    #[test]
    fn comparisons_walk_a_range_and_a_pin_wins() {
        let t = table();
        for pred in [
            "id > 5",
            "5 < id",
            "id >= $ID AND id < 9",
            "name = 'x' AND id <= 3",
        ] {
            assert_eq!(path(&t, Some("t"), pred), Path::Range(0), "{pred}");
        }
        assert_eq!(path(&t, Some("t"), "id > 5 AND id = 7"), Path::Point(0));
    }

    #[test]
    fn only_conjuncts_that_resolve_to_the_table_count() {
        let t = table();
        assert_eq!(path(&t, Some("x"), "x.id = 5"), Path::Point(0));
        assert_eq!(path(&t, Some("x"), "id = 5"), Path::Point(0));
        // Another relation's `id`, and a qualified name in a statement
        // that names columns bare (UPDATE, DELETE), pin nothing here.
        assert_eq!(path(&t, Some("x"), "u.id = 5"), Path::Scan);
        assert_eq!(path(&t, Some("t"), "T.ID = 5"), Path::Point(0));
        assert_eq!(path(&t, None, "t.id = 5"), Path::Scan);
        assert_eq!(path(&t, None, "id = 5"), Path::Point(0));
    }

    #[test]
    fn range_bounds_follow_the_key_rule() {
        let t = table();
        let columns = column_names(&t, None);
        let params = HashMap::new();
        let keys = |pred: &str, ty| {
            range_keys(&parse_expr(pred).unwrap(), &columns, 0, ty, &params).unwrap()
        };
        assert_eq!(
            keys("id > 5 AND id <= 9", DataType::Int),
            (
                Bound::Excluded(Value::Int(5)),
                Bound::Included(Value::Int(9))
            )
        );
        // 5.5 is no INT key: that side stays open.
        assert_eq!(
            keys("5.5 < id", DataType::Int),
            (Bound::Unbounded, Bound::Unbounded)
        );
        assert_eq!(
            keys("id < 0 AND id >= NULL", DataType::Float),
            (Bound::Unbounded, Bound::Excluded(Value::Float(0.0)))
        );
    }
}
