//! Sends one scheduled operation at a chosen depth — the wire, the
//! service, or the engine calls the service makes — and checks the
//! reply's shape.

use std::collections::HashMap;

use edna_core::ApplyOptions;
use edna_relational::{QueryResult, Value};
use edna_server::{Client, Request, Response, Service};

use crate::workload::{Op, ReadKind, Workload, DISGUISE, TICK_BUDGET};

/// Capabilities minted by the applies of one stream, by apply op id:
/// `(disguise id, capability)`. The engine depth has no capabilities
/// and stores an empty string.
#[derive(Default)]
pub struct Caps(HashMap<usize, (u64, String)>);

impl Caps {
    fn take(&mut self, of: usize) -> Result<(u64, String), String> {
        self.0
            .remove(&of)
            .ok_or_else(|| format!("reveal of op {of}, which did not apply"))
    }
}

/// What an engine-depth call reports beyond success, for attribution.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineOutcome {
    /// Users a policy tick disguised.
    pub tick_users: usize,
}

/// The wire request for `op`, or `None` for the in-process operations
/// (policy ticks and checkpoints have no wire op).
fn request_for(op: &Op, caps: &mut Caps) -> Result<Option<Request>, String> {
    Ok(Some(match op {
        Op::Read { sql, .. } | Op::Write { sql } => Request::new("sql").body(sql.as_str()),
        Op::Apply { user, idem } => Request::new("apply")
            .arg(DISGUISE)
            .header("user", user.to_string())
            .header("idem", idem.as_str()),
        Op::Reveal { of, .. } => {
            let (id, cap) = caps.take(*of)?;
            Request::new("reveal")
                .header("id", id.to_string())
                .header("cap", cap)
        }
        Op::Tick { .. } | Op::Checkpoint => return Ok(None),
    }))
}

/// Runs an in-process operation through the service.
fn run_in_process(svc: &Service, op: &Op) -> Result<EngineOutcome, String> {
    match op {
        Op::Tick { now } => {
            let outcome = svc
                .policy_tick_at(*now, Some(TICK_BUDGET))
                .map_err(|e| format!("policy tick at {now} failed: {e}"))?;
            Ok(EngineOutcome {
                tick_users: outcome.runs.iter().map(|r| r.reports.len()).sum(),
            })
        }
        Op::Checkpoint => svc
            .checkpoint()
            .map(|()| EngineOutcome::default())
            .map_err(|e| format!("checkpoint failed: {e}")),
        other => Err(format!("{other:?} is not an in-process operation")),
    }
}

/// Sends `op` over `client` (or runs it in-process), checking the reply.
pub fn run_wire(
    client: &mut Client,
    svc: &Service,
    workload: Workload,
    id: usize,
    op: &Op,
    caps: &mut Caps,
) -> Result<(), String> {
    match request_for(op, caps)? {
        Some(req) => {
            let resp = client
                .request(&req)
                .map_err(|e| format!("wire error: {e}"))?;
            check_reply(workload, id, op, &resp, caps)
        }
        None => run_in_process(svc, op).map(|_| ()),
    }
}

/// Hands `op` to `Service::handle` (or runs it in-process), checking the
/// reply.
pub fn run_service(
    svc: &Service,
    workload: Workload,
    id: usize,
    op: &Op,
    caps: &mut Caps,
) -> Result<(), String> {
    match request_for(op, caps)? {
        Some(req) => {
            let resp = svc.handle(&req);
            check_reply(workload, id, op, &resp, caps)
        }
        None => run_in_process(svc, op).map(|_| ()),
    }
}

/// Makes the engine calls the service would make for `op`:
/// `Database::execute`, `Disguiser::apply_with_options` with the
/// service's options, `Disguiser::reveal`, or the service's own tick and
/// checkpoint.
pub fn run_engine(
    svc: &Service,
    workload: Workload,
    id: usize,
    op: &Op,
    caps: &mut Caps,
) -> Result<EngineOutcome, String> {
    let ws = svc.workspace();
    match op {
        Op::Read { kind, sql } => {
            let r = ws.db.execute(sql).map_err(|e| e.to_string())?;
            check_rows(workload, *kind, r.rows.len())?;
            Ok(EngineOutcome::default())
        }
        Op::Write { sql } => {
            let r = ws.db.execute(sql).map_err(|e| e.to_string())?;
            if r.affected != 1 {
                return Err(format!("insert affected {} rows", r.affected));
            }
            Ok(EngineOutcome::default())
        }
        Op::Apply { user, .. } => {
            let opts = ApplyOptions {
                use_transaction: true,
                ..ApplyOptions::default()
            };
            let report = ws
                .edna
                .apply_with_options(DISGUISE, Some(&Value::Int(*user)), opts)
                .map_err(|e| format!("apply for user {user} failed: {e}"))?;
            if report.disguise_id == 0 {
                return Err(format!("apply for user {user} recorded no disguise"));
            }
            caps.0.insert(id, (report.disguise_id, String::new()));
            Ok(EngineOutcome::default())
        }
        Op::Reveal { of, .. } => {
            let (disguise, _) = caps.take(*of)?;
            let report = ws
                .edna
                .reveal(disguise)
                .map_err(|e| format!("reveal of disguise {disguise} failed: {e}"))?;
            if report.disguise_id != disguise {
                return Err(format!(
                    "revealed {} instead of {disguise}",
                    report.disguise_id
                ));
            }
            Ok(EngineOutcome::default())
        }
        Op::Tick { .. } | Op::Checkpoint => run_in_process(svc, op),
    }
}

/// Checks a reply's shape, and records an apply's capability.
fn check_reply(
    workload: Workload,
    id: usize,
    op: &Op,
    resp: &Response,
    caps: &mut Caps,
) -> Result<(), String> {
    if !resp.ok {
        return Err(format!(
            "{} reply: {}",
            resp.code.as_deref().unwrap_or("?"),
            resp.body.trim_end()
        ));
    }
    match op {
        Op::Read { kind, .. } => {
            let rows = check_table(resp, columns(*kind))?;
            check_rows(workload, *kind, rows)
        }
        Op::Write { .. } => {
            if resp.header_value("affected") != Some("1") {
                return Err(format!("insert reply without `affected: 1`: {resp:?}"));
            }
            resp.header_value("last-insert-id")
                .and_then(|v| v.parse::<i64>().ok())
                .map(|_| ())
                .ok_or_else(|| "insert reply without a `last-insert-id`".to_string())
        }
        Op::Apply { .. } => {
            let disguise = resp
                .header_value("id")
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&d| d > 0)
                .ok_or("apply reply without a disguise `id`")?;
            let cap = resp
                .header_value("cap")
                .filter(|c| c.len() == 64 && c.bytes().all(|b| b.is_ascii_hexdigit()))
                .ok_or("apply reply without a 32-byte hex `cap`")?;
            if !resp
                .body
                .starts_with(&format!("applied {DISGUISE} (id {disguise})"))
            {
                return Err(format!("unexpected apply reply: {}", resp.body.trim_end()));
            }
            caps.0.insert(id, (disguise, cap.to_string()));
            Ok(())
        }
        Op::Reveal { .. } => {
            if !resp.body.starts_with(&format!("revealed {DISGUISE}")) {
                return Err(format!("unexpected reveal reply: {}", resp.body.trim_end()));
            }
            Ok(())
        }
        Op::Tick { .. } | Op::Checkpoint => Ok(()),
    }
}

/// Columns each read kind selects.
fn columns(kind: ReadKind) -> usize {
    match kind {
        ReadKind::Story | ReadKind::Profile => 5,
        ReadKind::Thread => 4,
        ReadKind::Frontpage => 3,
    }
}

/// Validates a tab-separated `sql` reply body against its `rows` header
/// and returns the row count.
fn check_table(resp: &Response, columns: usize) -> Result<usize, String> {
    let rows: usize = resp
        .header_value("rows")
        .and_then(|v| v.parse().ok())
        .ok_or("sql reply without a `rows` header")?;
    let lines: Vec<&str> = resp.body.lines().collect();
    if lines.len() != rows + 1 {
        return Err(format!(
            "`rows: {rows}` but the body has {} lines",
            lines.len()
        ));
    }
    for line in &lines {
        let fields = line.split('\t').count();
        if fields != columns {
            return Err(format!(
                "{fields} fields where {columns} were selected: {line:?}"
            ));
        }
    }
    Ok(rows)
}

/// Row-count rules per read kind. Disguised users have no profile row,
/// so only `browse` (which disguises no one) insists on one.
fn check_rows(workload: Workload, kind: ReadKind, rows: usize) -> Result<(), String> {
    let ok = match kind {
        ReadKind::Story => rows == 1,
        ReadKind::Profile if workload == Workload::Browse => rows == 1,
        ReadKind::Profile => rows <= 1,
        ReadKind::Frontpage => rows == 25,
        ReadKind::Thread => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} read returned {rows} rows", kind.name()))
    }
}

/// Renders an in-process result exactly as the service renders a wire
/// `sql` reply body.
pub fn render(r: &QueryResult) -> String {
    let mut body = String::new();
    if !r.columns.is_empty() {
        body.push_str(&r.columns.join("\t"));
        body.push('\n');
        for row in &r.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            body.push_str(&cells.join("\t"));
            body.push('\n');
        }
    }
    body
}
