//! Transfer functions: one abstract effect list per disguise spec.
//!
//! [`derive`] compiles a [`DisguiseSpec`] against the live schema into a
//! [`SpecTransfer`] — the audit's model of what `apply.rs` would do:
//!
//! - `Remove` expands to its **cascade closure** (apply's
//!   `delete_where_returning` deletes `ON DELETE CASCADE` children along
//!   with the parent and records them in the same vault entry, and sets
//!   `ON DELETE SET NULL` child columns);
//! - every removed table carries its **reinsert dependencies**: the
//!   parent tables its rows reference, which must be present when a
//!   reveal's `ReinsertRow` ops commit (foreign keys are checked at
//!   commit, so the order of re-inserts within a reveal never matters —
//!   only *cross-disguise* parents can be permanently missing);
//! - `Modify`/`Decorrelate` become column writes.
//!
//! Vault reality is modeled where the interleaver consumes these
//! effects: a reversible spec writes a vault entry only if at least one
//! effect *realizes* (apply.rs: `if spec.reversible && !ops.is_empty()`),
//! and `expires_after` makes those entries mortal.

use std::collections::BTreeSet;

use edna_relational::{Database, ReferentialAction};

use crate::spec::{DisguiseSpec, Transformation};

/// What one column write abstractly is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColOp {
    /// A `Modify` through some modifier.
    Modify,
    /// A `Decorrelate` onto placeholders in `parent`.
    Decorrelate {
        /// The placeholder parent table (lowercased).
        parent: String,
    },
}

/// One abstract effect of applying a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Rows of `table` are deleted (directly or by cascade).
    RemoveRows {
        /// The (lowercased) table whose rows go away.
        table: String,
        /// Parent tables a reveal's reinsert needs present (lowercased,
        /// self-references excluded).
        reinsert_parents: Vec<String>,
    },
    /// One column of `table` is rewritten.
    WriteCol {
        /// The (lowercased) table.
        table: String,
        /// The (lowercased) column.
        column: String,
        /// How.
        op: ColOp,
    },
}

/// The audit's model of one registered disguise.
#[derive(Debug, Clone)]
pub struct SpecTransfer {
    /// Spec name (diagnostics subject).
    pub name: String,
    /// Whether the spec records reveal ops in vaults at all.
    pub reversible: bool,
    /// Whether those vault entries expire (`expires_after`), i.e. the
    /// disguise eventually becomes irreversible on its own.
    pub expiring: bool,
    /// Effects in application order.
    pub effects: Vec<Effect>,
}

impl SpecTransfer {
    /// The tables this transfer removes rows from (lowercased, in
    /// effect order).
    pub fn removed_tables(&self) -> Vec<&str> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::RemoveRows { table, .. } => Some(table.as_str()),
                Effect::WriteCol { .. } => None,
            })
            .collect()
    }
}

/// Compiles `spec` into its abstract transfer against the schema in
/// `db`. Unknown tables and columns are skipped — `analyze_spec` reports
/// those as `E002`/`E003` separately, and the audit must not crash on a
/// spec the per-spec passes already rejected.
pub fn derive(spec: &DisguiseSpec, db: &Database) -> SpecTransfer {
    let mut effects = Vec::new();
    let mut removed: BTreeSet<String> = BTreeSet::new();
    for section in &spec.tables {
        let table = section.table.to_ascii_lowercase();
        if db.schema(&table).is_err() {
            continue;
        }
        for pt in &section.transformations {
            match &pt.transform {
                Transformation::Remove => {
                    for t in cascade_closure(db, &table) {
                        if removed.insert(t.clone()) {
                            effects.push(Effect::RemoveRows {
                                reinsert_parents: reinsert_parents(db, &t),
                                table: t.clone(),
                            });
                        }
                        for (child, col) in set_null_children(db, &t) {
                            effects.push(Effect::WriteCol {
                                table: child,
                                column: col,
                                op: ColOp::Modify,
                            });
                        }
                    }
                }
                Transformation::Modify { column, .. } => {
                    effects.push(Effect::WriteCol {
                        table: table.clone(),
                        column: column.to_ascii_lowercase(),
                        op: ColOp::Modify,
                    });
                }
                Transformation::Decorrelate {
                    fk_column,
                    parent_table,
                } => {
                    effects.push(Effect::WriteCol {
                        table: table.clone(),
                        column: fk_column.to_ascii_lowercase(),
                        op: ColOp::Decorrelate {
                            parent: parent_table.to_ascii_lowercase(),
                        },
                    });
                }
            }
        }
    }
    SpecTransfer {
        name: spec.name.clone(),
        reversible: spec.reversible,
        expiring: spec.expires_after.is_some(),
        effects,
    }
}

/// `table` plus every table reachable from it through `ON DELETE
/// CASCADE` child edges — the set of tables a single `Remove` can
/// empty (rows-wise), all recorded in the same vault entry.
fn cascade_closure(db: &Database, table: &str) -> Vec<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut order = vec![table.to_string()];
    seen.insert(table.to_string());
    let mut i = 0;
    while i < order.len() {
        let parent = order[i].clone();
        i += 1;
        for name in db.table_names() {
            let name = name.to_ascii_lowercase();
            if seen.contains(&name) {
                continue;
            }
            let Ok(schema) = db.schema(&name) else {
                continue;
            };
            let cascades = schema.foreign_keys.iter().any(|fk| {
                fk.parent_table.eq_ignore_ascii_case(&parent)
                    && fk.on_delete == ReferentialAction::Cascade
            });
            if cascades {
                seen.insert(name.clone());
                order.push(name);
            }
        }
    }
    order
}

/// Parent tables the rows of `table` reference: reinserting vaulted
/// rows of `table` needs these present. Self-references are excluded:
/// with one abstract user, a reveal re-inserts a table's own hierarchy
/// in one transaction.
fn reinsert_parents(db: &Database, table: &str) -> Vec<String> {
    let Ok(schema) = db.schema(table) else {
        return Vec::new();
    };
    let mut parents: Vec<String> = schema
        .foreign_keys
        .iter()
        .map(|fk| fk.parent_table.to_ascii_lowercase())
        .filter(|p| !p.eq_ignore_ascii_case(table))
        .collect();
    parents.sort();
    parents.dedup();
    parents
}

/// `(child_table, fk_column)` pairs whose FK to `table` is `ON DELETE
/// SET NULL`: deleting `table` rows rewrites those columns.
fn set_null_children(db: &Database, table: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for name in db.table_names() {
        let name = name.to_ascii_lowercase();
        let Ok(schema) = db.schema(&name) else {
            continue;
        };
        for fk in &schema.foreign_keys {
            if fk.parent_table.eq_ignore_ascii_case(table)
                && fk.on_delete == ReferentialAction::SetNull
            {
                out.push((name.clone(), fk.column.to_ascii_lowercase()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DisguiseSpecBuilder, Modifier};

    fn db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
            .unwrap();
        db.execute(
            "CREATE TABLE stories (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT, \
             FOREIGN KEY (user_id) REFERENCES users(id))",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE comments (id INT PRIMARY KEY AUTO_INCREMENT, story_id INT, \
             moderator_id INT, \
             FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE, \
             FOREIGN KEY (moderator_id) REFERENCES users(id) ON DELETE SET NULL)",
        )
        .unwrap();
        db
    }

    #[test]
    fn remove_expands_to_cascade_closure_with_reinsert_parents() {
        let db = db();
        let spec = DisguiseSpecBuilder::new("S")
            .user_scoped()
            .remove("stories", Some("user_id = $UID"))
            .build()
            .unwrap();
        let t = derive(&spec, &db);
        assert_eq!(t.removed_tables(), vec!["stories", "comments"]);
        let parents: Vec<_> = t
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::RemoveRows {
                    table,
                    reinsert_parents,
                } => Some((table.clone(), reinsert_parents.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(parents[0], ("stories".into(), vec!["users".to_string()]));
        // Comments reinsert needs both its cascade parent and the
        // SET NULL moderator parent.
        assert_eq!(
            parents[1],
            (
                "comments".into(),
                vec!["stories".to_string(), "users".to_string()]
            )
        );
        // Deleting stories also nulls comments.moderator_id? No — the
        // SET NULL edge hangs off users, not stories; no column writes.
        assert!(parents.len() == 2);
    }

    #[test]
    fn set_null_cascades_become_column_writes() {
        let db = db();
        let spec = DisguiseSpecBuilder::new("S")
            .user_scoped()
            .remove("users", Some("id = $UID"))
            .build()
            .unwrap();
        let t = derive(&spec, &db);
        assert!(t
            .effects
            .iter()
            .any(|e| matches!(e, Effect::WriteCol { table, column, .. }
                 if table == "comments" && column == "moderator_id")));
    }

    #[test]
    fn modify_and_decorrelate_are_column_writes() {
        let db = db();
        let spec = DisguiseSpecBuilder::new("S")
            .modify("users", None, "name", Modifier::Redact)
            .decorrelate("stories", None, "user_id", "users")
            .build()
            .unwrap();
        let t = derive(&spec, &db);
        assert_eq!(
            t.effects,
            vec![
                Effect::WriteCol {
                    table: "users".into(),
                    column: "name".into(),
                    op: ColOp::Modify,
                },
                Effect::WriteCol {
                    table: "stories".into(),
                    column: "user_id".into(),
                    op: ColOp::Decorrelate {
                        parent: "users".into()
                    },
                },
            ]
        );
    }

    #[test]
    fn unknown_tables_are_skipped_not_fatal() {
        let db = db();
        let spec = DisguiseSpecBuilder::new("S")
            .remove("ghost", None)
            .build()
            .unwrap();
        assert!(derive(&spec, &db).effects.is_empty());
    }
}
