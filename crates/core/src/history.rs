//! The disguise history log.
//!
//! Paper §4.2: "the tool keeps a persistent log of all disguises the
//! application applied, and re-applies disguises from the relevant log
//! interval to the revealed data". Like the prototype (§5: "Edna also
//! keeps a disguise history table"), the log lives in the application
//! database itself, in a reserved table.

use std::collections::HashMap;

use edna_relational::{Database, Value};

use crate::error::{Error, Result};

/// Name of the reserved history table.
pub const HISTORY_TABLE: &str = "_edna_disguise_history";

/// One recorded disguise application.
#[derive(Debug, Clone, PartialEq)]
pub struct DisguiseEvent {
    /// Monotonic application id (also the vault entry key).
    pub id: u64,
    /// Disguise name.
    pub name: String,
    /// Disguised user id (NULL for global disguises).
    pub user_id: Value,
    /// Logical time of application.
    pub applied_at: i64,
    /// Whether reveal functions were recorded.
    pub reversible: bool,
    /// Whether the application has been reverted.
    pub reverted: bool,
    /// Why the application degraded to irreversible, if it did
    /// (`apply_many` records a vault error that struck after the user's
    /// commit here).
    pub note: Option<String>,
}

/// Handle to the history table in an application database.
#[derive(Clone)]
pub struct HistoryLog {
    db: Database,
}

impl HistoryLog {
    /// Opens (creating the table if needed) the history log in `db`.
    pub fn open(db: Database) -> Result<HistoryLog> {
        if !db.has_table(HISTORY_TABLE) {
            db.execute(&format!(
                "CREATE TABLE {HISTORY_TABLE} (
                    id INT PRIMARY KEY AUTO_INCREMENT,
                    name TEXT NOT NULL,
                    userId TEXT,
                    appliedAt INT NOT NULL,
                    reversible BOOL NOT NULL,
                    reverted BOOL NOT NULL DEFAULT FALSE,
                    note TEXT
                 )"
            ))?;
        }
        // Apply-time composition and policy ticks read one user's events,
        // so the log is probed on `userId`, never scanned.
        ensure_index(&db, HISTORY_TABLE, "userId")?;
        Ok(HistoryLog { db })
    }

    /// Records a new application; returns its id.
    pub fn record(
        &self,
        name: &str,
        user_id: &Value,
        applied_at: i64,
        reversible: bool,
    ) -> Result<u64> {
        let user_literal = if user_id.is_null() {
            Value::Null
        } else {
            Value::Text(user_id.to_sql_literal())
        };
        let id = self
            .db
            .insert_row(
                HISTORY_TABLE,
                &[
                    ("name", Value::Text(name.to_string())),
                    ("userId", user_literal),
                    ("appliedAt", Value::Int(applied_at)),
                    ("reversible", Value::Bool(reversible)),
                    ("reverted", Value::Bool(false)),
                ],
            )?
            .ok_or_else(|| {
                Error::Relational(edna_relational::Error::Eval(
                    "history table lost its AUTO_INCREMENT id".to_string(),
                ))
            })?;
        Ok(id as u64)
    }

    /// Marks application `id` reverted.
    pub fn mark_reverted(&self, id: u64) -> Result<()> {
        let n = self.db.execute_with_params(
            &format!("UPDATE {HISTORY_TABLE} SET reverted = TRUE WHERE id = $ID"),
            &id_param(id),
        )?;
        if n.affected == 0 {
            return Err(Error::NoSuchApplication(id));
        }
        Ok(())
    }

    /// Marks application `id` irreversible, recording `reason`: the
    /// disguise committed, but its reveal functions could not be
    /// persisted (an `apply_many` vault put failed after the commit), so
    /// it must never be offered for reveal.
    pub fn mark_degraded(&self, id: u64, reason: &str) -> Result<()> {
        let mut params = id_param(id);
        params.insert("NOTE".to_string(), Value::Text(reason.to_string()));
        let n = self.db.execute_with_params(
            &format!("UPDATE {HISTORY_TABLE} SET reversible = FALSE, note = $NOTE WHERE id = $ID"),
            &params,
        )?;
        if n.affected == 0 {
            return Err(Error::NoSuchApplication(id));
        }
        Ok(())
    }

    /// The event with the given id.
    pub fn get(&self, id: u64) -> Result<DisguiseEvent> {
        self.events_where("id = $ID", &id_param(id))?
            .into_iter()
            .next()
            .ok_or(Error::NoSuchApplication(id))
    }

    /// All events, oldest first.
    pub fn events(&self) -> Result<Vec<DisguiseEvent>> {
        self.events_where("TRUE", &HashMap::new())
    }

    /// Non-reverted, reversible events whose reveal functions cover
    /// `user_id`'s data — the user's own plus every global one — oldest
    /// first: the priors apply-time composition recorrelates (§4.2). Two
    /// `userId` probes, so the cost follows the user's own history rather
    /// than the length of the log.
    pub fn active_for(&self, user_id: &Value) -> Result<Vec<DisguiseEvent>> {
        const ACTIVE: &str = "reverted = FALSE AND reversible = TRUE";
        let mut events =
            self.events_where(&format!("userId IS NULL AND {ACTIVE}"), &HashMap::new())?;
        if !user_id.is_null() {
            events.extend(self.events_where(
                &format!("userId = $USER AND {ACTIVE}"),
                &user_param(user_id),
            )?);
            events.sort_by_key(|e| e.id);
        }
        Ok(events)
    }

    /// Non-reverted events strictly newer than `id` (the "relevant log
    /// interval" re-applied after a reveal, §4.2): a range probe of the
    /// primary key, so its cost follows the events after `id`.
    pub fn active_after(&self, id: u64) -> Result<Vec<DisguiseEvent>> {
        self.events_where("id > $ID AND reverted = FALSE", &id_param(id))
    }

    /// The most recent non-reverted application of `name` for `user_id`.
    pub fn latest(&self, name: &str, user_id: &Value) -> Result<Option<DisguiseEvent>> {
        let user_match = if user_id.is_null() {
            "userId IS NULL"
        } else {
            "userId = $USER"
        };
        let mut params = user_param(user_id);
        params.insert("NAME".to_string(), Value::Text(name.to_string()));
        let mut events = self.events_where(
            &format!("name = $NAME AND {user_match} AND reverted = FALSE"),
            &params,
        )?;
        Ok(events.pop())
    }

    /// Events matching `cond`, oldest first. Conditions bind `$params`
    /// rather than splice literals, so each helper is one cached
    /// statement and its `id`/`userId` pins probe an index.
    fn events_where(
        &self,
        cond: &str,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<DisguiseEvent>> {
        let r = self.db.execute_with_params(
            &format!(
                "SELECT id, name, userId, appliedAt, reversible, reverted, note \
                 FROM {HISTORY_TABLE} WHERE {cond} ORDER BY id"
            ),
            params,
        )?;
        r.rows
            .into_iter()
            .map(|row| {
                Ok(DisguiseEvent {
                    id: row[0].as_int()? as u64,
                    name: row[1].as_text()?.to_string(),
                    user_id: decode_user(&row[2])?,
                    applied_at: row[3].as_int()?,
                    reversible: row[4].as_bool()?,
                    reverted: row[5].as_bool()?,
                    note: match &row[6] {
                        Value::Null => None,
                        v => Some(v.as_text()?.to_string()),
                    },
                })
            })
            .collect()
    }
}

fn id_param(id: u64) -> HashMap<String, Value> {
    HashMap::from([("ID".to_string(), Value::Int(id as i64))])
}

/// Binds `$USER` to `user_id` as the history table stores it (its SQL
/// literal, see [`HistoryLog::record`]); binds nothing for NULL.
fn user_param(user_id: &Value) -> HashMap<String, Value> {
    let mut params = HashMap::new();
    if !user_id.is_null() {
        params.insert("USER".to_string(), Value::Text(user_id.to_sql_literal()));
    }
    params
}

/// Indexes `table.column` unless some index already covers it, so a state
/// written before a bookkeeping index existed gains it once, on its first
/// open. Checking first keeps reopening an indexed state free of DDL: a
/// replica bootstrapped from an indexed primary must log none of its own.
pub fn ensure_index(db: &Database, table: &str, column: &str) -> Result<()> {
    let indexed = db
        .index_columns(table)?
        .iter()
        .any(|c| c.eq_ignore_ascii_case(column));
    if !indexed {
        db.execute(&format!(
            "CREATE INDEX {table}_by_{column} ON {table} ({column})"
        ))?;
    }
    Ok(())
}

/// Decodes the stored SQL-literal rendering of a user id back to a Value.
fn decode_user(stored: &Value) -> Result<Value> {
    match stored {
        Value::Null => Ok(Value::Null),
        Value::Text(s) => {
            let expr = edna_relational::parse_expr(s).map_err(Error::Relational)?;
            match expr {
                edna_relational::Expr::Literal(v) => Ok(v),
                edna_relational::Expr::Unary {
                    op: edna_relational::UnOp::Neg,
                    expr,
                } => match *expr {
                    edna_relational::Expr::Literal(Value::Int(i)) => Ok(Value::Int(-i)),
                    edna_relational::Expr::Literal(Value::Float(x)) => Ok(Value::Float(-x)),
                    _ => Err(Error::Relational(edna_relational::Error::Eval(format!(
                        "bad stored user id {s}"
                    )))),
                },
                _ => Err(Error::Relational(edna_relational::Error::Eval(format!(
                    "bad stored user id {s}"
                )))),
            }
        }
        other => Err(Error::Relational(edna_relational::Error::Eval(format!(
            "bad stored user id {other}"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> HistoryLog {
        HistoryLog::open(Database::new()).unwrap()
    }

    #[test]
    fn record_and_fetch() {
        let log = log();
        let a = log.record("GDPR", &Value::Int(19), 100, true).unwrap();
        let b = log.record("ConfAnon", &Value::Null, 200, true).unwrap();
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        let e = log.get(a).unwrap();
        assert_eq!(e.name, "GDPR");
        assert_eq!(e.user_id, Value::Int(19));
        assert!(!e.reverted);
        let global = log.get(b).unwrap();
        assert!(global.user_id.is_null());
    }

    #[test]
    fn intervals() {
        let log = log();
        let a = log.record("A", &Value::Int(1), 1, true).unwrap();
        let b = log.record("B", &Value::Null, 2, true).unwrap();
        let c = log.record("C", &Value::Int(2), 3, false).unwrap();
        // Composition candidates for user 1: a and the global b.
        let for_1 = log.active_for(&Value::Int(1)).unwrap();
        assert_eq!(for_1.iter().map(|e| e.id).collect::<Vec<_>>(), vec![a, b]);
        // After a: b and c.
        let after = log.active_after(a).unwrap();
        assert_eq!(after.iter().map(|e| e.id).collect::<Vec<_>>(), vec![b, c]);
        // Irreversible c is not a composition candidate.
        let for_2 = log.active_for(&Value::Int(2)).unwrap();
        assert_eq!(for_2.iter().map(|e| e.id).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn active_for_is_the_users_and_the_global_events() {
        let log = log();
        let a = log.record("A", &Value::Int(1), 1, true).unwrap();
        let g = log.record("G", &Value::Null, 2, true).unwrap();
        log.record("A", &Value::Int(2), 3, true).unwrap();
        log.record("A", &Value::Text("1".into()), 4, true).unwrap();
        log.record("I", &Value::Int(1), 5, false).unwrap();
        let b = log.record("B", &Value::Int(1), 6, true).unwrap();
        let reverted = log.record("C", &Value::Int(1), 7, true).unwrap();
        log.mark_reverted(reverted).unwrap();
        let ids = |user: &Value| -> Vec<u64> {
            log.active_for(user).unwrap().iter().map(|e| e.id).collect()
        };
        assert_eq!(ids(&Value::Int(1)), vec![a, g, b]);
        assert_eq!(ids(&Value::Null), vec![g]);
        // Exactly the events a filter over the whole log selects.
        for user in [
            Value::Int(1),
            Value::Int(2),
            Value::Text("1".into()),
            Value::Null,
        ] {
            let filtered: Vec<u64> = log
                .events()
                .unwrap()
                .into_iter()
                .filter(|e| !e.reverted && e.reversible)
                .filter(|e| e.user_id.is_null() || e.user_id == user)
                .map(|e| e.id)
                .collect();
            assert_eq!(ids(&user), filtered, "user {user}");
        }
    }

    #[test]
    fn lookups_probe_the_log() {
        let db = Database::new();
        let log = HistoryLog::open(db.clone()).unwrap();
        for i in 0..50 {
            log.record("A", &Value::Int(i % 5), i, true).unwrap();
        }
        let g = log.record("G", &Value::Null, 99, true).unwrap();
        db.reset_stats();
        assert_eq!(log.active_for(&Value::Int(3)).unwrap().len(), 11);
        assert!(log.latest("A", &Value::Int(4)).unwrap().is_some());
        assert_eq!(log.latest("G", &Value::Null).unwrap().unwrap().id, g);
        assert_eq!(log.get(g).unwrap().name, "G");
        log.mark_reverted(g).unwrap();
        log.mark_degraded(1, "it's down").unwrap();
        let s = db.stats();
        assert_eq!((s.index_probes, s.table_scans), (7, 0));
        // One user's events, not the log's 51.
        assert_eq!(s.rows_read, 11 + 10 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn revert_marking() {
        let log = log();
        let a = log.record("A", &Value::Int(1), 1, true).unwrap();
        log.mark_reverted(a).unwrap();
        assert!(log.get(a).unwrap().reverted);
        assert!(log.active_for(&Value::Int(1)).unwrap().is_empty());
        assert!(matches!(
            log.mark_reverted(42),
            Err(Error::NoSuchApplication(42))
        ));
    }

    #[test]
    fn degrade_marking() {
        let log = log();
        let a = log.record("A", &Value::Int(1), 1, true).unwrap();
        assert_eq!(log.get(a).unwrap().note, None);
        log.mark_degraded(a, "vault error: it's down").unwrap();
        let e = log.get(a).unwrap();
        assert!(!e.reversible, "degraded applications are irreversible");
        assert_eq!(e.note.as_deref(), Some("vault error: it's down"));
        // Degraded events are no longer composition candidates.
        assert!(log.active_for(&Value::Int(1)).unwrap().is_empty());
        assert!(matches!(
            log.mark_degraded(42, "x"),
            Err(Error::NoSuchApplication(42))
        ));
    }

    #[test]
    fn latest_by_name_and_user() {
        let log = log();
        log.record("A", &Value::Int(1), 1, true).unwrap();
        let second = log.record("A", &Value::Int(1), 2, true).unwrap();
        log.record("A", &Value::Int(2), 3, true).unwrap();
        let e = log.latest("A", &Value::Int(1)).unwrap().unwrap();
        assert_eq!(e.id, second);
        assert!(log.latest("B", &Value::Int(1)).unwrap().is_none());
        // Text user ids round-trip through the literal encoding.
        log.record("A", &Value::Text("o'brien".into()), 4, true)
            .unwrap();
        let t = log
            .latest("A", &Value::Text("o'brien".into()))
            .unwrap()
            .unwrap();
        assert_eq!(t.user_id, Value::Text("o'brien".into()));
    }

    #[test]
    fn log_survives_in_database() {
        let db = Database::new();
        {
            let log = HistoryLog::open(db.clone()).unwrap();
            log.record("A", &Value::Int(1), 1, true).unwrap();
        }
        // Reopening sees the same data (the table is in the DB).
        let log2 = HistoryLog::open(db).unwrap();
        assert_eq!(log2.events().unwrap().len(), 1);
    }
}
