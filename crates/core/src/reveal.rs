//! Reverting disguises (paper §4.2, "Reverting disguises").
//!
//! Reversal applies the reveal functions stored in vaults, permanently
//! restoring data to the application database — and then *re-applies* every
//! later, still-active disguise to the revealed rows, so that a reveal
//! never reintroduces data another disguise transformed. ("For example,
//! reversal of GDPR must avoid reintroducing identifiable reviews if
//! ConfAnon has occurred since GDPR was applied.")
//!
//! A reveal is one transaction, and the engine checks foreign keys at its
//! commit: rows are re-inserted in any order, and a re-inserted row may
//! name a parent another disguise removed as long as re-application
//! rewrites that key (a later disguise's `SetNull` of the removed user,
//! say). A reference still dangling after re-application fails the
//! reveal with [`Error::NotReversible`] ("missing parents") before any
//! vault changes.
//!
//! The workspace audit ([`crate::analyze::interleave`]) models this path
//! for one abstract user: a reveal counts as reachable only if every
//! parent its re-inserted rows reference can still exist. Changes to the
//! reveal semantics here (skip rules, re-application) must be mirrored
//! in the audit's transfer model or its proofs go stale.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use edna_relational::{Error as RelError, Value};
use edna_vault::{RevealOp, VaultEntry, VaultTier};

use crate::apply::{pk_of, pk_pred, DisguiseReport, Disguiser};
use crate::error::{Error, Result};

/// What one disguise reversal did.
#[derive(Debug, Clone)]
pub struct RevealReport {
    /// The reverted application id.
    pub disguise_id: u64,
    /// Disguise name.
    pub name: String,
    /// Rows re-inserted (previously removed).
    pub rows_reinserted: usize,
    /// Rows whose columns were restored.
    pub rows_restored: usize,
    /// Vault ops skipped because their row no longer exists (removed by a
    /// later disguise or the application).
    pub skipped_missing: usize,
    /// Placeholder rows deleted.
    pub placeholders_removed: usize,
    /// Placeholder rows kept because other rows still reference them.
    pub placeholders_kept: usize,
    /// Later disguises re-applied to the revealed rows: `(id, name)`.
    pub reapplied: Vec<(u64, String)>,
    /// Rows whose shape had to be adapted to an evolved schema (paper §7:
    /// columns added since the disguise get defaults; dropped columns are
    /// discarded).
    pub rows_schema_adapted: usize,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl Disguiser {
    /// Reverts the most recent active application of `name` for `user`.
    pub fn reveal_latest(&self, name: &str, user: Option<&Value>) -> Result<RevealReport> {
        let user_value = user.cloned().unwrap_or(Value::Null);
        let event = self
            .history
            .latest(name, &user_value)?
            .ok_or_else(|| Error::NoSuchDisguise(format!("{name} (no active application)")))?;
        self.reveal(event.id)
    }

    /// Reverts disguise application `disguise_id` in one transaction. The
    /// checks that the disguise is still revealable run inside it, so of
    /// two concurrent reveals of one id exactly one restores the rows and
    /// the other fails with [`Error::AlreadyReverted`].
    pub fn reveal(&self, disguise_id: u64) -> Result<RevealReport> {
        let mut root = self.span("reveal");
        if let Some(g) = root.as_mut() {
            g.attr("disguise_id", disguise_id.to_string());
        }
        let started = Instant::now();
        let mut report = self.db.transaction(|_| self.reveal_inner(disguise_id))?;
        report.duration = started.elapsed();
        Ok(report)
    }

    fn reveal_inner(&self, disguise_id: u64) -> Result<RevealReport> {
        let event = self.history.get(disguise_id)?;
        if event.reverted {
            return Err(Error::AlreadyReverted(disguise_id));
        }
        if !event.reversible {
            return Err(Error::NotReversible {
                disguise_id,
                reason: "the disguise was applied irreversibly".to_string(),
            });
        }
        let entries = self
            .vaults
            .entries_for_disguise(&event.user_id, disguise_id)?;
        if entries.is_empty() {
            return Err(Error::NotReversible {
                disguise_id,
                reason: "no vault entries remain (expired or purged)".to_string(),
            });
        }
        let mut report = RevealReport {
            disguise_id,
            name: event.name.clone(),
            rows_reinserted: 0,
            rows_restored: 0,
            skipped_missing: 0,
            placeholders_removed: 0,
            placeholders_kept: 0,
            reapplied: Vec::new(),
            rows_schema_adapted: 0,
            duration: Duration::ZERO,
        };
        let all_ops: Vec<&RevealOp> = entries.iter().flat_map(|e| e.ops.iter()).collect();
        // Revealed rows per table (lowercase name -> pk values), fed to the
        // re-application pass.
        let mut revealed: HashMap<String, Vec<Value>> = HashMap::new();

        // Phase 1: re-insert removed rows, each once. Their references are
        // checked after re-application, so the order does not matter;
        // newest-removed first gives each row back the slot it freed.
        let reinsert_span = self.span("reinsert");
        for op in all_ops.iter().rev() {
            let RevealOp::ReinsertRow {
                table,
                columns,
                row,
            } = op
            else {
                continue;
            };
            let schema = self.db.schema(table)?;
            let (row, adapted) = adapt_row(&schema, columns, row);
            if adapted {
                report.rows_schema_adapted += 1;
            }
            match self.db.insert_full_row(table, row.clone()) {
                Ok(()) => {
                    report.rows_reinserted += 1;
                    if let Ok((pk_idx, _)) = pk_of(&schema, "reveal") {
                        revealed
                            .entry(table.to_lowercase())
                            .or_default()
                            .push(row[pk_idx].clone());
                    }
                }
                Err(RelError::UniqueViolation { .. }) => {
                    // Already present (e.g. the application re-created
                    // it); nothing to do.
                    report.skipped_missing += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        drop(reinsert_span);

        // Phase 2: restore modified/decorrelated columns.
        let restore_span = self.span("restore_columns");
        for op in &all_ops {
            let RevealOp::RestoreColumns {
                table,
                pk_column,
                pk,
                columns,
            } = op
            else {
                continue;
            };
            let schema = self.db.schema(table)?;
            let pred = pk_pred(pk_column, pk);
            let rows = self.db.select_rows(table, Some(&pred), &HashMap::new())?;
            if rows.is_empty() {
                report.skipped_missing += 1;
                continue;
            }
            // Columns dropped by schema evolution since the disguise are
            // skipped (paper §7).
            let mut dropped_any = false;
            let restores: Vec<(usize, Value)> = columns
                .iter()
                .filter_map(|(c, v)| match schema.column_index(c) {
                    Some(i) => Some((i, v.clone())),
                    None => {
                        dropped_any = true;
                        None
                    }
                })
                .collect();
            if dropped_any {
                report.rows_schema_adapted += 1;
            }
            if restores.is_empty() {
                report.skipped_missing += 1;
                continue;
            }
            self.db
                .update_with(table, Some(&pred), &HashMap::new(), |_, row| {
                    for (idx, v) in &restores {
                        row[*idx] = v.clone();
                    }
                    Ok(())
                })?;
            report.rows_restored += 1;
            revealed
                .entry(table.to_lowercase())
                .or_default()
                .push(pk.clone());
        }
        drop(restore_span);

        // Phase 3: garbage-collect placeholders nothing references anymore.
        let gc_span = self.span("placeholder_gc");
        for op in &all_ops {
            let RevealOp::RemovePlaceholder {
                table,
                pk_column,
                pk,
            } = op
            else {
                continue;
            };
            let pred = pk_pred(pk_column, pk);
            match self.db.delete_where(table, &pred, &HashMap::new()) {
                Ok(0) => report.skipped_missing += 1,
                Ok(_) => report.placeholders_removed += 1,
                Err(RelError::ForeignKeyViolation { .. }) => {
                    // Another disguise's rows still point here; keep it.
                    report.placeholders_kept += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        drop(gc_span);

        // Re-application: later active disguises must still hold over the
        // revealed rows (§4.2). Their addenda wait for the reference check.
        let reapply_span = self.span("reapply");
        let mut addenda: Vec<(VaultTier, VaultEntry)> = Vec::new();
        for later in self.history.active_after(disguise_id)? {
            let Some(spec) = edna_util::sync::read_unpoisoned(&self.specs)
                .get(&later.name)
                .cloned()
            else {
                continue;
            };
            let spec = &spec;
            let mut params = HashMap::new();
            if !later.user_id.is_null() {
                params.insert("UID".to_string(), later.user_id.clone());
            }
            let mut ops: Vec<RevealOp> = Vec::new();
            let mut sub_report = DisguiseReport {
                name: spec.name.clone(),
                user_id: later.user_id.clone(),
                ..DisguiseReport::default()
            };
            let mut touched = false;
            for section in &spec.tables {
                let Some(pks) = revealed.get(&section.table.to_lowercase()) else {
                    continue;
                };
                if pks.is_empty() {
                    continue;
                }
                let schema = self.db.schema(&section.table)?;
                let (_, pk_col) = pk_of(&schema, "reveal re-application")?;
                let restriction = edna_relational::Expr::InList {
                    expr: Box::new(edna_relational::Expr::col(pk_col)),
                    list: pks
                        .iter()
                        .map(|v| edna_relational::Expr::Literal(v.clone()))
                        .collect(),
                    negated: false,
                };
                for pt in &section.transformations {
                    self.apply_transform(
                        spec,
                        &section.table,
                        pt,
                        Some(&restriction),
                        &params,
                        &mut ops,
                        &mut sub_report,
                    )?;
                }
                touched = true;
            }
            if touched
                && (sub_report.rows_removed
                    + sub_report.rows_decorrelated
                    + sub_report.rows_modified)
                    > 0
            {
                report.reapplied.push((later.id, later.name.clone()));
                if spec.reversible && !ops.is_empty() {
                    let now = self.db.now();
                    let addendum = VaultEntry {
                        disguise_id: later.id,
                        disguise_name: later.name.clone(),
                        user_id: later.user_id.clone(),
                        ops,
                        created_at: now,
                        expires_at: spec.expires_after.map(|d| now + d),
                    };
                    addenda.push((spec.vault_tier, addendum));
                }
            }
        }
        drop(reapply_span);

        // Every revealed row must now reference live parents. Checked
        // before the vaults change, since they do not roll back.
        self.db.check_references().map_err(|e| match e {
            RelError::ForeignKeyViolation {
                table,
                column,
                detail,
            } => Error::NotReversible {
                disguise_id,
                reason: format!("revealed {table} rows have missing parents ({column}: {detail})"),
            },
            e => e.into(),
        })?;
        // The reveal is permanent: mark the event, then write the addenda
        // and drop the entries.
        self.history.mark_reverted(disguise_id)?;
        for (tier, addendum) in &addenda {
            self.vaults.put(*tier, addendum)?;
        }
        self.vaults.remove(&event.user_id, disguise_id)?;
        Ok(report)
    }
}

/// Reshapes a recorded row to the current schema: recorded columns are
/// matched by name; columns added since the disguise get their DEFAULT (or
/// NULL); columns dropped since are discarded. Returns the adapted row and
/// whether any adaptation happened.
fn adapt_row(
    schema: &edna_relational::TableSchema,
    columns: &[String],
    row: &[Value],
) -> (Vec<Value>, bool) {
    let exact = columns.len() == schema.arity()
        && schema
            .columns
            .iter()
            .zip(columns)
            .all(|(c, name)| c.name.eq_ignore_ascii_case(name));
    if exact {
        return (row.to_vec(), false);
    }
    let out = schema
        .columns
        .iter()
        .map(|c| {
            match columns
                .iter()
                .position(|name| name.eq_ignore_ascii_case(&c.name))
            {
                Some(i) => row[i].clone(),
                None => c.default.clone().unwrap_or(Value::Null),
            }
        })
        .collect();
    (out, true)
}
