//! Query-plan introspection (`EXPLAIN`-style, without executing).
//!
//! [`Database::explain`] describes how the engine would execute a
//! statement, one line per table it reads: the path that reaches the
//! statement's own table (index probe, index range or full scan) and the
//! way each joined table is matched (index join, hash join or nested
//! loop), then how aggregation/ordering/limits apply. Each line names the
//! decision the shared chooser ([`crate::access`]) hands the executor, so
//! it is the operator `EXPLAIN ANALYZE` reports for that table. Useful
//! when writing disguise predicates: a disguise over an unindexed column
//! turns every per-row operation into a scan.

use crate::access::{choose_join, column_names, JoinPath, Path};
use crate::database::Database;
use crate::error::Result;
use crate::exec::Inner;
use crate::expr::Expr;
use crate::parser::{parse_statement, Projection, SelectStmt, Statement};
use crate::storage::Table;

impl Database {
    /// Describes the execution plan for `sql` without running it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_statement(sql)?;
        let mut out = String::new();
        match &stmt {
            Statement::Select(sel) => self.explain_select(sel, &mut out)?,
            Statement::Update { table, where_, .. } | Statement::Delete { table, where_ } => {
                let verb = if matches!(stmt, Statement::Update { .. }) {
                    "UPDATE"
                } else {
                    "DELETE"
                };
                out.push_str(&format!("{verb}\n"));
                let inner = self.inner_read();
                let t = inner.table(table)?;
                self.explain_access(&inner, t, table, None, where_.as_ref(), &mut out);
            }
            Statement::Insert { table, rows, .. } => {
                out.push_str(&format!("INSERT into {table}: {} row(s)\n", rows.len()));
                let schema = self.schema(table)?;
                for fk in &schema.foreign_keys {
                    let parent = self.schema(&fk.parent_table)?;
                    let indexed = parent
                        .column_index(&fk.parent_column)
                        .map(|_| {
                            // Parent-key lookups probe an index when the
                            // parent column is PK/UNIQUE (implicit index).
                            parent
                                .primary_key_column()
                                .map(|c| c.name.eq_ignore_ascii_case(&fk.parent_column))
                                .unwrap_or(false)
                                || parent.columns.iter().any(|c| {
                                    c.unique && c.name.eq_ignore_ascii_case(&fk.parent_column)
                                })
                        })
                        .unwrap_or(false);
                    out.push_str(&format!(
                        "  fk check {table}.{} -> {}.{}: {}\n",
                        fk.column,
                        fk.parent_table,
                        fk.parent_column,
                        if indexed { "index probe" } else { "table scan" }
                    ));
                }
            }
            other => out.push_str(&format!("{other:?}\n")),
        }
        Ok(out)
    }

    fn explain_select(&self, sel: &SelectStmt, out: &mut String) -> Result<()> {
        out.push_str("SELECT\n");
        let inner = self.inner_read();
        let t = inner.table(&sel.from)?;
        let mut columns = self.explain_access(
            &inner,
            t,
            &label(&sel.from, sel.from_alias.as_deref()),
            Some(sel.from_alias.as_deref().unwrap_or(&t.schema.name)),
            sel.where_.as_ref(),
            out,
        );
        for join in &sel.joins {
            let t = inner.table(&join.table)?;
            let qualifier = join.alias.as_deref().unwrap_or(&t.schema.name);
            let inner_columns = column_names(t, Some(qualifier));
            let strategy = match choose_join(&join.on, &columns, &inner_columns, t) {
                JoinPath::Index { index, .. } => {
                    let ix = &t.indexes[index];
                    format!(
                        "index join on {}.{} via {}",
                        t.schema.name, t.schema.columns[ix.column].name, ix.name
                    )
                }
                JoinPath::Hash { inner, .. } => {
                    format!(
                        "hash join on {}.{}",
                        t.schema.name, t.schema.columns[inner].name
                    )
                }
                JoinPath::NestedLoop => "nested-loop join".to_string(),
            };
            out.push_str(&format!(
                "  {:?} join {}: {strategy}, on {}\n",
                join.kind,
                label(&join.table, join.alias.as_deref()),
                join.on
            ));
            columns.extend(inner_columns);
        }
        let has_aggregates = sel
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Aggregate { .. }));
        if has_aggregates || !sel.group_by.is_empty() {
            out.push_str(&format!(
                "  aggregate: {} group key(s), {} projection(s)\n",
                sel.group_by.len(),
                sel.projections.len()
            ));
        }
        if sel.having.is_some() {
            out.push_str("  having: filter over projected rows\n");
        }
        if !sel.order_by.is_empty() {
            out.push_str(&format!("  sort: {} key(s)\n", sel.order_by.len()));
        }
        if sel.distinct {
            out.push_str("  distinct: dedupe projected rows\n");
        }
        match (sel.limit, sel.offset) {
            (Some(l), Some(o)) => out.push_str(&format!("  limit {l} offset {o}\n")),
            (Some(l), None) => out.push_str(&format!("  limit {l}\n")),
            (None, Some(o)) => out.push_str(&format!("  offset {o}\n")),
            (None, None) => {}
        }
        Ok(())
    }

    /// Describes the path that reaches `t` (named `name` in the
    /// statement) under `where_`, asking the same shared (cached) chooser
    /// the executor uses, and returns the names the statement's columns
    /// carry: qualified by `qualifier` in a SELECT, bare (`None`) in an
    /// UPDATE or DELETE.
    fn explain_access(
        &self,
        inner: &Inner,
        t: &Table,
        name: &str,
        qualifier: Option<&str>,
        where_: Option<&Expr>,
        out: &mut String,
    ) -> Vec<String> {
        let columns = column_names(t, qualifier);
        let rows = t.len();
        let Some(pred) = where_ else {
            out.push_str(&format!("  {name}: full scan ({rows} rows)\n"));
            return columns;
        };
        let path = inner.cached_access_path(t, qualifier, &columns, pred, &self.stats);
        let column = |i: usize| &t.schema.columns[t.indexes[i].column].name;
        out.push_str(&match path {
            Path::Point(i) => format!(
                "  {name}: index probe on {}.{}, then filter: {pred}\n",
                t.schema.name,
                column(i)
            ),
            Path::Range(i) => format!(
                "  {name}: index range on {}.{}, then filter: {pred}\n",
                t.schema.name,
                column(i)
            ),
            Path::Scan => format!("  {name}: full scan ({rows} rows), filter: {pred}\n"),
        });
        columns
    }
}

/// The table as a statement names it: with its alias, if it has one.
fn label(table: &str, alias: Option<&str>) -> String {
    match alias {
        Some(alias) => format!("{table} {alias}"),
        None => table.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, email TEXT);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id));
             CREATE INDEX posts_by_user ON posts (user_id);",
        )
        .unwrap();
        db.execute("INSERT INTO users (name) VALUES ('a'), ('b')")
            .unwrap();
        db
    }

    #[test]
    fn select_plans_name_access_paths() {
        let db = db();
        let plan = db.explain("SELECT * FROM users WHERE id = 3").unwrap();
        assert!(plan.contains("index probe on users.id"), "{plan}");
        let scan = db.explain("SELECT * FROM users WHERE name = 'a'").unwrap();
        assert!(scan.contains("full scan"), "{scan}");
    }

    #[test]
    fn param_equality_counts_as_probe() {
        let db = db();
        let plan = db
            .explain("SELECT * FROM posts WHERE user_id = $UID")
            .unwrap();
        assert!(plan.contains("index probe on posts.user_id"), "{plan}");
    }

    #[test]
    fn join_strategy_detection() {
        let db = db();
        let index = db
            .explain("SELECT * FROM users u INNER JOIN posts p ON p.user_id = u.id")
            .unwrap();
        assert!(index.contains("index join on posts.user_id"), "{index}");
        let hash = db
            .explain("SELECT * FROM posts p INNER JOIN users u ON u.name = p.body")
            .unwrap();
        assert!(hash.contains("hash join on users.name"), "{hash}");
        let nested = db
            .explain("SELECT * FROM users u INNER JOIN posts p ON p.user_id > u.id")
            .unwrap();
        assert!(nested.contains("nested-loop join"), "{nested}");
    }

    #[test]
    fn aggregate_sort_limit_annotations() {
        let db = db();
        let plan = db
            .explain(
                "SELECT user_id, COUNT(*) AS n FROM posts GROUP BY user_id \
                 HAVING n > 1 ORDER BY n DESC LIMIT 5 OFFSET 2",
            )
            .unwrap();
        assert!(plan.contains("aggregate: 1 group key(s)"), "{plan}");
        assert!(plan.contains("having"), "{plan}");
        assert!(plan.contains("sort: 1 key(s)"), "{plan}");
        assert!(plan.contains("limit 5 offset 2"), "{plan}");
    }

    #[test]
    fn dml_and_insert_plans() {
        let db = db();
        let del = db.explain("DELETE FROM posts WHERE id = 1").unwrap();
        assert!(del.starts_with("DELETE"), "{del}");
        assert!(del.contains("index probe"), "{del}");
        let ins = db
            .explain("INSERT INTO posts (user_id, body) VALUES (1, 'x')")
            .unwrap();
        assert!(
            ins.contains("fk check posts.user_id -> users.id: index probe"),
            "{ins}"
        );
    }
}
