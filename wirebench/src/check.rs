//! End-of-run correctness checks, made while the server is idle.

use std::collections::{HashMap, HashSet};

use edna_relational::Value;
use edna_server::{Client, Request, Service};

use crate::exec::render;
use crate::workload::{Op, Scheduled, DISGUISE};

/// Outcome of the checks: how many were made and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: usize,
    /// Failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, result: Result<(), String>) {
        self.made += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// Reads compared between the wire and in-process execution, per round.
const SAMPLED_READS: usize = 15;

/// Runs every end-of-run check against the served state.
pub fn run(
    client: &mut Client,
    svc: &Service,
    ops: &[Scheduled],
    usernames: &HashMap<i64, String>,
) -> Checks {
    let mut checks = Checks::default();
    sampled_reads(client, svc, ops, &mut checks);
    checks.check(recover_verifies(client));
    checks.check(disguise_states(svc, usernames));
    checks
}

/// Re-sends an evenly spaced sample of the run's reads over the wire and
/// runs the same SQL in-process; the bodies must match exactly.
fn sampled_reads(client: &mut Client, svc: &Service, ops: &[Scheduled], checks: &mut Checks) {
    let reads: Vec<&String> = ops
        .iter()
        .filter_map(|s| match &s.op {
            Op::Read { sql, .. } => Some(sql),
            _ => None,
        })
        .collect();
    let step = (reads.len() / SAMPLED_READS).max(1);
    for sql in reads.iter().step_by(step).take(SAMPLED_READS) {
        checks.check((|| {
            let wire = client.sql(sql).map_err(|e| format!("wire error: {e}"))?;
            if !wire.ok {
                return Err(format!("sampled read failed over the wire: {}", wire.body));
            }
            let local = svc.workspace().db.execute(sql).map_err(|e| e.to_string())?;
            if wire.body != render(&local) {
                return Err(format!("wire and in-process results differ for {sql}"));
            }
            Ok(())
        })());
    }
}

/// A wire `recover` with `verify: true` must report `integrity: ok`.
fn recover_verifies(client: &mut Client) -> Result<(), String> {
    let resp = client
        .request(&Request::new("recover").header("verify", "true"))
        .map_err(|e| format!("wire error: {e}"))?;
    if resp.ok && resp.body.contains("integrity: ok") {
        Ok(())
    } else {
        Err(format!("recover --verify: {}", resp.body.trim_end()))
    }
}

/// Users still disguised own no stories, comments or votes; users whose
/// every disguise was revealed have their generated username back.
fn disguise_states(svc: &Service, usernames: &HashMap<i64, String>) -> Result<(), String> {
    let ws = svc.workspace();
    let events = ws.edna.history().events().map_err(|e| e.to_string())?;
    let mut disguised = HashSet::new();
    let mut revealed = HashSet::new();
    for e in events.iter().filter(|e| e.name == DISGUISE) {
        let user = match &e.user_id {
            Value::Text(t) => t.parse::<i64>().map_err(|_| format!("odd user id {t:?}"))?,
            Value::Int(i) => *i,
            other => return Err(format!("odd user id {other:?}")),
        };
        if e.reverted {
            revealed.insert(user);
        } else {
            disguised.insert(user);
        }
    }
    revealed.retain(|u| !disguised.contains(u));
    for table in ["stories", "comments", "votes"] {
        let rows = ws
            .db
            .execute(&format!("SELECT user_id FROM {table}"))
            .map_err(|e| e.to_string())?;
        for row in rows.rows {
            let owner = row[0].as_int().map_err(|e| e.to_string())?;
            if disguised.contains(&owner) {
                return Err(format!("disguised user {owner} still owns rows in {table}"));
            }
        }
    }
    let rows = ws
        .db
        .execute("SELECT id, username FROM users")
        .map_err(|e| e.to_string())?;
    let mut current = HashMap::new();
    for row in rows.rows {
        current.insert(
            row[0].as_int().map_err(|e| e.to_string())?,
            row[1].as_text().map_err(|e| e.to_string())?.to_string(),
        );
    }
    for user in &revealed {
        if current.get(user) != usernames.get(user) {
            return Err(format!(
                "revealed user {user} has username {:?}, generated {:?}",
                current.get(user),
                usernames.get(user)
            ));
        }
    }
    for user in &disguised {
        if current.contains_key(user) {
            return Err(format!("disguised user {user} still has an account row"));
        }
    }
    Ok(())
}
