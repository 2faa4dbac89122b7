//! The shared access-path chooser.
//!
//! Exactly one piece of code decides whether a predicate over a table is
//! served by an index probe or a full scan: [`choose_access_path`]. The
//! executor ([`crate::exec`]) consults it (through the plan cache) before
//! touching rows, and `EXPLAIN` ([`crate::plan`]) consults it to describe
//! what execution *would* do — so the two cannot drift.

use crate::expr::{BinOp, Expr};
use crate::storage::Table;

/// How the engine reaches the rows of one table for a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Every live row is visited, then filtered.
    FullScan,
    /// One index is probed with the predicate's pinned constant, then the
    /// full predicate filters the probe results.
    IndexProbe {
        /// Name of the chosen index.
        index: String,
        /// Name of the indexed column the predicate pins.
        column: String,
    },
}

impl AccessPath {
    /// Whether this path probes an index.
    pub fn is_probe(&self) -> bool {
        matches!(self, AccessPath::IndexProbe { .. })
    }
}

/// Whether `pred` conjoins `column = <constant>` or `column IS NULL`,
/// where a constant is a literal or a `$param` (parameters become literals
/// once bound, so the decision is identical before and after binding).
/// Indexes store NULL keys, so `IS NULL` probes for them like any value.
pub(crate) fn pins_column(pred: &Expr, column: &str) -> bool {
    let is_col =
        |e: &Expr| matches!(e, Expr::Column { name, .. } if name.eq_ignore_ascii_case(column));
    match pred {
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let is_const = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
            (is_col(lhs) && is_const(rhs)) || (is_const(lhs) && is_col(rhs))
        }
        Expr::IsNull {
            expr,
            negated: false,
        } => is_col(expr),
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => pins_column(lhs, column) || pins_column(rhs, column),
        _ => false,
    }
}

/// The access path execution will use for `table` under `pred`: the first
/// index (in index-creation order) whose column the predicate pins to a
/// constant, else a full scan.
pub(crate) fn choose_access_path(table: &Table, pred: Option<&Expr>) -> AccessPath {
    let Some(pred) = pred else {
        return AccessPath::FullScan;
    };
    for ix in &table.indexes {
        let col_name = &table.schema.columns[ix.column].name;
        if pins_column(pred, col_name) {
            return AccessPath::IndexProbe {
                index: ix.name.clone(),
                column: col_name.clone(),
            };
        }
    }
    AccessPath::FullScan
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

    #[test]
    fn literal_param_and_is_null_pins_all_probe() {
        let t = table();
        let lit = parse_expr("id = 5").unwrap();
        let param = parse_expr("id = $UID").unwrap();
        let conj = parse_expr("name = 'x' AND id = $UID").unwrap();
        let null = parse_expr("name = 'x' AND id IS NULL").unwrap();
        assert!(choose_access_path(&t, Some(&lit)).is_probe());
        assert!(choose_access_path(&t, Some(&param)).is_probe());
        assert!(choose_access_path(&t, Some(&conj)).is_probe());
        assert!(choose_access_path(&t, Some(&null)).is_probe());
    }

    #[test]
    fn unindexed_or_non_equality_scans() {
        let t = table();
        let unindexed = parse_expr("name = 'x'").unwrap();
        let range = parse_expr("id > 5").unwrap();
        let not_null = parse_expr("id IS NOT NULL").unwrap();
        assert_eq!(
            choose_access_path(&t, Some(&unindexed)),
            AccessPath::FullScan
        );
        assert_eq!(choose_access_path(&t, Some(&range)), AccessPath::FullScan);
        assert_eq!(
            choose_access_path(&t, Some(&not_null)),
            AccessPath::FullScan
        );
        assert_eq!(choose_access_path(&t, None), AccessPath::FullScan);
    }
}
