//! The shared service: one workspace, many concurrent requests.
//!
//! [`Service`] wraps the single open [`Workspace`] in the shape worker
//! threads need: every operation takes `&self`. Isolation lives in the
//! engine, not here: `apply` and `reveal` each run in one
//! `Database::transaction`, which other threads' statements,
//! checkpoints and policy ticks wait for, while plain `sql` statements
//! commit on their own. An `apply` writes its reveal capability and its
//! idempotency-ledger row in its own transaction, so a same-key retry
//! waits for it on the engine gate. The one service-level lock is the
//! idempotency mutex an `apply_many` with an `idem` header takes, since
//! its users commit one transaction each: its ledger lookup, application
//! and ledger record are one step against a same-key retry.
//!
//! Wire-level `BEGIN`/`COMMIT`/`ROLLBACK` is rejected outright: a
//! transaction is a closure in the engine's API, and a remote client
//! holding one open would stall every other tenant.
//!
//! `health` touches no lock at all — it must answer even while a long
//! apply runs, because that is precisely when an operator probes
//! liveness.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use edna_core::{
    render_report, ApplyOptions, DisguiseReport, Policy, Scheduler, TickOutcome, Workspace,
};
use edna_obs::{Counter, Histogram};
use edna_relational::{Database, Value};
use edna_util::frame;
use edna_util::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use edna_vault::ShipKind;

use crate::caps;
use crate::proto::{code, Request, Response};
use crate::repl::ReplHub;
use crate::replica::{self, ReplicaShared};

/// Reserved table deduplicating retried `apply`/`apply_many` requests:
/// one row per client idempotency key, holding the rendered reply that
/// was sent the first time (capability header included).
pub const REQUESTS_TABLE: &str = "_edna_requests";

/// Creates the idempotency ledger if this state has never served, and its
/// `idem_key` index if the state predates it.
fn ensure_requests_table(db: &Database) -> edna_core::Result<()> {
    if !db.has_table(REQUESTS_TABLE) {
        db.execute(&format!(
            "CREATE TABLE {REQUESTS_TABLE} (id INT PRIMARY KEY AUTO_INCREMENT, \
             idem_key TEXT NOT NULL, reply TEXT NOT NULL)"
        ))?;
    }
    edna_core::ensure_index(db, REQUESTS_TABLE, "idem_key")
}

/// The `ok` reply to an applied disguise.
fn applied_reply(report: &DisguiseReport) -> Response {
    Response::ok(format!(
        "applied {} (id {}): removed {}, decorrelated {}, modified {}, \
         placeholders {}, recorrelated {}\n",
        report.name,
        report.disguise_id,
        report.rows_removed,
        report.rows_decorrelated,
        report.rows_modified,
        report.placeholders_created,
        report.rows_recorrelated,
    ))
    .header("id", report.disguise_id.to_string())
}

/// This node's place in a replication topology.
pub enum ReplRole {
    /// No replication attached (tests, or a server before `start`).
    Standalone,
    /// Accepts followers and ships its WAL through the hub.
    Primary(Arc<ReplHub>),
    /// Read-only; applies a primary's shipped stream.
    Replica(Arc<ReplicaShared>),
}

/// Statements that would hold a transaction open across wire requests.
fn is_transaction_control(sql: &str) -> bool {
    let first = sql
        .split_whitespace()
        .next()
        .unwrap_or("")
        .to_ascii_uppercase();
    matches!(
        first.as_str(),
        "BEGIN" | "COMMIT" | "ROLLBACK" | "START" | "SAVEPOINT" | "RELEASE"
    )
}

/// Validates the optional `idem` header: an idempotency key is at most
/// 128 characters of `[A-Za-z0-9._:-]`, chosen by the client per
/// logical request (not per attempt).
fn idem_key(req: &Request) -> Result<Option<String>, Response> {
    let Some(raw) = req.header_value("idem") else {
        return Ok(None);
    };
    let key = raw.trim();
    let valid = !key.is_empty()
        && key.len() <= 128
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':' | '-'));
    if !valid {
        return Err(Response::err(
            code::USAGE,
            "idem key must be 1..=128 characters of [A-Za-z0-9._:-]",
        ));
    }
    Ok(Some(key.to_string()))
}

/// The request-handling core, shared across workers behind an `Arc`.
pub struct Service {
    ws: Workspace,
    /// Held by an `apply_many` carrying an `idem` header from its ledger
    /// lookup through its ledger record. (An `apply` does both inside its
    /// own transaction instead.)
    idem: Mutex<()>,
    /// The registered policies with their persisted last-run stamps;
    /// ticked by the decay daemon through [`Service::policy_tick_at`].
    scheduler: Scheduler,
    draining: AtomicBool,
    /// Replication role; swapped once by `server::start` (primary) or
    /// the CLI's replica path before serving begins.
    repl: RwLock<ReplRole>,
    requests_total: Arc<Counter>,
    idem_replays_total: Arc<Counter>,
    denied_total: Arc<Counter>,
    caps_minted_total: Arc<Counter>,
    checkpoints_total: Arc<Counter>,
    policy_runs_total: Arc<Counter>,
    policy_run_errors_total: Arc<Counter>,
    decay_rows_total: Arc<Counter>,
    request_us: Arc<Histogram>,
}

/// The per-policy tick-duration histogram's metric name: the policy name
/// folded into the Prometheus grammar (lowercased, everything else `_`).
fn policy_tick_metric(policy: &str) -> String {
    let mut slug = String::with_capacity(policy.len());
    for c in policy.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else {
            slug.push('_');
        }
    }
    format!("edna_policy_tick_us_{slug}")
}

impl Service {
    /// Wraps an open workspace, registering the server's metrics in the
    /// workspace's registry (so `stats` and the metrics sidecar carry
    /// them alongside the engine counters).
    pub fn new(ws: Workspace) -> edna_core::Result<Service> {
        caps::ensure_caps_table(&ws.db)?;
        ensure_requests_table(&ws.db)?;
        let scheduler = ws.scheduler()?;
        let m = ws.db.metrics();
        Ok(Service {
            scheduler,
            requests_total: m.counter(
                "edna_server_requests_total",
                "Requests handled by the disguise server",
            ),
            idem_replays_total: m.counter(
                "edna_server_idem_replays_total",
                "Retried applies answered from the idempotency ledger",
            ),
            denied_total: m.counter(
                "edna_server_denied_total",
                "Requests refused by the capability gate",
            ),
            caps_minted_total: m.counter(
                "edna_server_caps_minted_total",
                "Reveal capabilities minted at apply time",
            ),
            checkpoints_total: m.counter(
                "edna_server_checkpoints_total",
                "Background and shutdown checkpoints taken",
            ),
            policy_runs_total: m.counter(
                "edna_policy_runs_total",
                "Scheduled policy runs fired by the decay daemon (complete or paused)",
            ),
            policy_run_errors_total: m.counter(
                "edna_policy_run_errors_total",
                "Scheduler ticks that failed with an error",
            ),
            decay_rows_total: m.counter(
                "edna_decay_rows_total",
                "Rows transformed (removed, decorrelated, or modified) by policy runs",
            ),
            request_us: m.histogram(
                "edna_server_request_us",
                "Request handling latency",
                &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            ),
            ws,
            idem: Mutex::new(()),
            draining: AtomicBool::new(false),
            repl: RwLock::new(ReplRole::Standalone),
        })
    }

    /// Makes this node a primary: followers may attach through `hub`.
    pub fn attach_primary(&self, hub: Arc<ReplHub>) {
        *write_unpoisoned(&self.repl) = ReplRole::Primary(hub);
    }

    /// Makes this node a read-only replica applying a shipped stream.
    pub fn attach_replica(&self, shared: Arc<ReplicaShared>) {
        *write_unpoisoned(&self.repl) = ReplRole::Replica(shared);
    }

    /// The replication hub, when this node is a primary.
    pub fn hub(&self) -> Option<Arc<ReplHub>> {
        match &*read_unpoisoned(&self.repl) {
            ReplRole::Primary(hub) => Some(Arc::clone(hub)),
            _ => None,
        }
    }

    /// The replica state, when this node is a replica.
    pub fn replica_shared(&self) -> Option<Arc<ReplicaShared>> {
        match &*read_unpoisoned(&self.repl) {
            ReplRole::Replica(shared) => Some(Arc::clone(shared)),
            _ => None,
        }
    }

    /// Whether this node serves as a read-only replica.
    pub fn is_replica(&self) -> bool {
        matches!(&*read_unpoisoned(&self.repl), ReplRole::Replica(_))
    }

    /// Replica-side apply of one shipped WAL frame: verifies the frame
    /// is exactly one clean record, appends it to the local WAL at its
    /// original LSN (fsynced), then applies it to the live state — both
    /// in one transaction, so no read or checkpoint sees one step without
    /// the other. Returns the applied LSN.
    pub fn apply_shipped_wal(&self, framed: &[u8]) -> edna_core::Result<u64> {
        let scan = frame::scan_records(framed);
        if scan.records.len() != 1 || scan.valid_len != framed.len() {
            return Err(edna_core::Error::Workspace(
                "shipped WAL frame is not exactly one clean record".to_string(),
            ));
        }
        let (lsn, record) = edna_relational::wal::decode_frame_body(&scan.records[0])
            .map_err(edna_core::Error::from)?;
        let wal = self
            .ws
            .db
            .wal()
            .ok_or_else(|| edna_core::Error::Workspace("replica has no WAL attached".into()))?;
        self.ws.db.transaction(|db| {
            wal.append_shipped(lsn, framed, &record)?;
            db.apply_shipped(&record)
        })?;
        Ok(lsn)
    }

    /// Replica-side mirror of one shipped vault-side file mutation.
    pub fn apply_shipped_vault(
        &self,
        kind: ShipKind,
        name: &str,
        bytes: &[u8],
    ) -> Result<(), String> {
        let path = replica::resolve_vault_name(&self.ws.path, name)?;
        replica::apply_vault_file(&path, kind, bytes).map_err(|e| e.to_string())
    }

    /// The wrapped workspace (used by the server for the final save).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Marks the service as draining: `ready` starts failing and
    /// workers stop taking new frames.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Counts a refusal decided outside the service (the connection
    /// layer's shutdown-token check) in the same denial metric.
    pub(crate) fn note_denied(&self) {
        self.denied_total.inc();
    }

    /// Checkpoints the workspace (snapshot + WAL truncation); the engine
    /// waits out any in-flight apply/reveal first.
    pub fn checkpoint(&self) -> edna_core::Result<()> {
        self.ws.save()?;
        self.checkpoints_total.inc();
        Ok(())
    }

    /// Whether any policies are registered (the server skips spawning the
    /// decay daemon otherwise).
    pub fn has_policies(&self) -> bool {
        !self.scheduler.policies().is_empty()
    }

    /// Runs one scheduler tick at logical time `now`, transforming at
    /// most roughly `budget` rows. Each disguise the tick applies, and its
    /// vault purge, is one engine transaction, so foreground requests
    /// interleave between them but never inside. The policies evaluate
    /// `NOW()` under a thread-scoped clock; afterwards the *global* clock
    /// is advanced to `now` when the tick is ahead of it. The advance is
    /// WAL-logged and snapshot-persisted, so a restarted server resumes
    /// from an already-advanced clock instead of rewinding the decay
    /// frontier.
    pub fn policy_tick_at(
        &self,
        now: i64,
        budget: Option<usize>,
    ) -> edna_core::Result<TickOutcome> {
        if self.is_replica() {
            return Err(edna_core::Error::Workspace(
                "a replica does not tick policies; the primary's runs arrive via the WAL"
                    .to_string(),
            ));
        }
        let outcome = match self.scheduler.tick_budgeted(&self.ws.edna, now, budget) {
            Ok(o) => o,
            Err(e) => {
                self.policy_run_errors_total.inc();
                return Err(e);
            }
        };
        if now > self.ws.db.global_now() {
            self.ws.db.set_now(now);
        }
        let m = self.ws.db.metrics();
        for run in &outcome.runs {
            self.policy_runs_total.inc();
            let rows: usize = run
                .reports
                .iter()
                .map(|r| r.rows_removed + r.rows_decorrelated + r.rows_modified)
                .sum();
            self.decay_rows_total.add(rows as u64);
            m.histogram(
                &policy_tick_metric(&run.policy),
                "Wall-clock duration of this policy's runs",
                &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            )
            .observe(run.duration);
        }
        Ok(outcome)
    }

    /// Handles one parsed request. Never panics on hostile input; every
    /// failure maps to a structured error response.
    pub fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        self.requests_total.inc();
        let resp = self.dispatch(req);
        self.request_us.observe(start.elapsed());
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        if self.is_replica() {
            match req.op.as_str() {
                "apply" | "apply_many" | "reveal" => {
                    return Response::err(
                        code::READ_ONLY,
                        "this node is a read-only replica; write to the primary, or promote \
                         this node with `edna promote`",
                    )
                }
                "sql" if !crate::guard::is_read_only(req.body.trim()) => {
                    return Response::err(
                        code::READ_ONLY,
                        "a replica answers SELECT only; write to the primary",
                    )
                }
                _ => {}
            }
        }
        match req.op.as_str() {
            "health" => Response::ok("ok\n"),
            "ready" => {
                if self.draining() {
                    Response::err(code::SHUTTING_DOWN, "server is draining")
                } else {
                    Response::ok("ready\n")
                }
            }
            "sql" => self.op_sql(req),
            "apply" => self.op_apply(req),
            "apply_many" => self.op_apply_many(req),
            "reveal" => self.op_reveal(req),
            "check" => self.op_check(req),
            "stats" => Response::ok(self.ws.db.metrics().render_prometheus()),
            "recover" => self.op_recover(req),
            "policy" => self.op_policy(req),
            "repl" => self.op_repl(req),
            // `shutdown` is intercepted by the connection loop (it has
            // to stop the accept loop, not just answer); seeing it here
            // means a non-server caller routed it manually.
            "shutdown" => Response::err(code::USAGE, "shutdown is handled at the connection layer"),
            other => Response::err(code::USAGE, format!("unknown op {other:?}")),
        }
    }

    fn op_sql(&self, req: &Request) -> Response {
        let stmt = req.body.trim();
        if stmt.is_empty() {
            return Response::err(code::USAGE, "sql needs a statement in the body");
        }
        if is_transaction_control(stmt) {
            return Response::err(
                code::USAGE,
                "explicit transactions are not available over the wire; each statement \
                 commits atomically on its own",
            );
        }
        // Reserved tables hold capability hashes and disguise bookkeeping;
        // a tenant who can touch them can forge or destroy another
        // tenant's reveal capability.
        if let Some(table) = crate::guard::reserved_table_in(stmt) {
            self.denied_total.inc();
            return Response::err(
                code::DENIED,
                format!("table {table:?} is reserved and not accessible over the wire"),
            );
        }
        match self.ws.db.execute(stmt) {
            Ok(r) => {
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
                let mut resp = Response::ok(body)
                    .header("rows", r.rows.len().to_string())
                    .header("affected", r.affected.to_string());
                if let Some(id) = r.last_insert_id {
                    resp = resp.header("last-insert-id", id.to_string());
                }
                resp
            }
            Err(e) => Response::err(code::RUNTIME, e.to_string()),
        }
    }

    /// `apply <name>`: one transaction does the ledger lookup (in the
    /// apply's `due` check), the disguise, and the bookkeeping — the
    /// reveal capability's hash and, with an `idem` header, the ledger
    /// row holding the rendered reply — before the WAL intent marker and
    /// the vault put. So a reply is `ok` only if all of it committed, a
    /// failure leaves none of it behind, and a same-key retry waits on
    /// the engine gate for the first attempt, then replays its reply.
    fn op_apply(&self, req: &Request) -> Response {
        let Some(name) = req.arg.as_deref() else {
            return Response::err(code::USAGE, "apply needs a disguise name: `apply <name>`");
        };
        let user = req.header_value("user").map(edna_core::parse_user);
        let opts = ApplyOptions {
            compose: req.header_value("compose") != Some("false"),
            optimize: req.header_value("optimize") != Some("false"),
            use_transaction: true,
            ..ApplyOptions::default()
        };
        let idem = match idem_key(req) {
            Ok(k) => k,
            Err(resp) => return resp,
        };
        let reversible = match self.ws.edna.spec(name) {
            Ok(spec) => spec.reversible,
            Err(e) => return Response::err(code::RUNTIME, e.to_string()),
        };
        let replay = RefCell::new(None);
        let due = |_: &edna_core::Disguiser| {
            let Some(key) = idem.as_deref() else {
                return Ok(true);
            };
            let found = self.idem_lookup(key).map_err(edna_core::Error::Workspace)?;
            let due = found.is_none();
            *replay.borrow_mut() = found;
            Ok(due)
        };
        let mut reply = None;
        let mut record = |report: &DisguiseReport| {
            let mut resp = applied_reply(report);
            // A reversible application gets a one-time reveal capability;
            // only its hash survives in the database.
            if reversible {
                let token = caps::store(&self.ws.db, report.disguise_id, &caps::mint()?)?;
                resp = resp.header("cap", token);
            }
            if let Some(key) = idem.as_deref() {
                self.ws.db.insert_row(
                    REQUESTS_TABLE,
                    &[
                        ("idem_key", Value::Text(key.to_string())),
                        ("reply", Value::Text(resp.render())),
                    ],
                )?;
            }
            reply = Some(resp);
            Ok(())
        };
        match self
            .ws
            .edna
            .apply_recorded(name, user.as_ref(), opts, &due, &mut record)
        {
            Ok(Some(_)) => {
                if reversible {
                    self.caps_minted_total.inc();
                }
                reply.expect("an applied disguise ran its bookkeeping")
            }
            Ok(None) => {
                self.idem_replays_total.inc();
                replay
                    .into_inner()
                    .expect("only a recorded key skips the apply")
            }
            Err(e) => Response::err(code::RUNTIME, e.to_string()),
        }
    }

    /// Runs `apply_many` once per idempotency key: under the idem mutex, a
    /// key already in the ledger replays its stored reply, and a new key's
    /// successful reply is recorded before the mutex is released. Without
    /// a key, `apply_many` just runs.
    fn idempotent(&self, key: Option<&str>, apply: impl FnOnce() -> Response) -> Response {
        let Some(key) = key else { return apply() };
        let _idem = lock_unpoisoned(&self.idem);
        match self.idem_lookup(key) {
            Ok(Some(replay)) => {
                self.idem_replays_total.inc();
                replay
            }
            Ok(None) => self.idem_record(key, apply()),
            Err(e) => Response::err(code::RUNTIME, e),
        }
    }

    /// Mass disguise: `apply_many <name>` with one user id per body line
    /// (blank lines and `#` comments skipped) and an optional `shards`
    /// header. The work is owner-hash-sharded across threads inside the
    /// engine; commits from all shards share fsyncs through the
    /// group-commit WAL. Unlike `apply`, no reveal capabilities are
    /// minted — a departing cohort's reveals are an operator action
    /// (the CLI bypasses capabilities), not a wire-tenant one.
    fn op_apply_many(&self, req: &Request) -> Response {
        let Some(name) = req.arg.as_deref() else {
            return Response::err(
                code::USAGE,
                "apply_many needs a disguise name: `apply_many <name>`",
            );
        };
        let users: Vec<edna_relational::Value> = req
            .body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(edna_core::parse_user)
            .collect();
        if users.is_empty() {
            return Response::err(code::USAGE, "apply_many needs one user id per body line");
        }
        let shards: usize = match req.header_value("shards") {
            Some(s) => match s.trim().parse() {
                Ok(n) => n,
                Err(_) => return Response::err(code::USAGE, format!("bad shard count {s:?}")),
            },
            None => 0, // 0 = one shard per available core
        };
        let idem = match idem_key(req) {
            Ok(k) => k,
            Err(resp) => return resp,
        };
        self.idempotent(idem.as_deref(), || {
            match self.ws.edna.apply_many(name, &users, shards) {
                Ok(report) => {
                    let mut body = format!(
                        "applied {} to {} user(s) in {} shard(s): {} succeeded, {} failed\n",
                        report.name,
                        report.users,
                        report.shards,
                        report.succeeded,
                        report.failures.len(),
                    );
                    for (user, reason) in &report.failures {
                        body.push_str(&format!("failed {}: {reason}\n", user.to_sql_literal()));
                    }
                    Response::ok(body)
                        .header("users", report.users.to_string())
                        .header("succeeded", report.succeeded.to_string())
                        .header("failed", report.failures.len().to_string())
                        .header("shards", report.shards.to_string())
                }
                Err(e) => Response::err(code::RUNTIME, e.to_string()),
            }
        })
    }

    /// Answers a deduplicated retry from the ledger, if `key` has been
    /// seen. Caller holds the idem mutex or the apply's transaction.
    fn idem_lookup(&self, key: &str) -> Result<Option<Response>, String> {
        let mut params = HashMap::new();
        params.insert("K".to_string(), Value::Text(key.to_string()));
        let r = self
            .ws
            .db
            .execute_with_params(
                &format!("SELECT reply FROM {REQUESTS_TABLE} WHERE idem_key = $K"),
                &params,
            )
            .map_err(|e| e.to_string())?;
        let Some(row) = r.rows.first() else {
            return Ok(None);
        };
        let text = row[0].as_text().map_err(|e| e.to_string())?;
        let replay = Response::parse(text)
            .map_err(|e| format!("stored reply for idempotency key {key:?} is corrupt: {e}"))?;
        Ok(Some(replay.header("idem", "replayed")))
    }

    /// Records a successful `apply_many` reply under its idempotency key
    /// so a wire retry replays it instead of re-applying. Failed calls are
    /// not recorded — they mutated nothing, so retrying them for real is
    /// correct. Caller holds the idem mutex, which is what makes
    /// lookup-then-record atomic against concurrent retries. The record
    /// commits after the disguises do, so a crash between them leaves a
    /// retry that applies again.
    fn idem_record(&self, key: &str, resp: Response) -> Response {
        if !resp.ok {
            return resp;
        }
        let stored = self.ws.db.insert_row(
            REQUESTS_TABLE,
            &[
                ("idem_key", Value::Text(key.to_string())),
                ("reply", Value::Text(resp.render())),
            ],
        );
        match stored {
            Ok(_) => resp,
            // The disguise is applied but the ledger write failed: fail
            // loudly rather than invite a retry that would apply twice.
            Err(e) => Response::err(
                code::RUNTIME,
                format!(
                    "applied, but could not record idempotency key {key:?}: {e}; \
                     do NOT retry blindly — inspect the disguise history first"
                ),
            ),
        }
    }

    fn op_repl(&self, req: &Request) -> Response {
        match req.arg.as_deref() {
            Some("status") => {}
            Some("stream") => {
                return Response::err(
                    code::USAGE,
                    "repl stream is handled at the connection layer; seeing it here means a \
                     non-server caller routed it manually",
                )
            }
            _ => return Response::err(code::USAGE, "usage: `repl status`"),
        }
        match &*read_unpoisoned(&self.repl) {
            ReplRole::Standalone => {
                Response::ok(format!("role: standalone\nepoch: {}\n", self.ws.epoch()))
                    .header("role", "standalone")
                    .header("epoch", self.ws.epoch().to_string())
            }
            ReplRole::Primary(hub) => {
                let mut body = format!(
                    "role: primary\nepoch: {}\nlast_lsn: {}\nsync_target: {}\n",
                    hub.epoch(),
                    hub.last_lsn(),
                    hub.sync_target(),
                );
                let followers = hub.follower_status();
                for f in &followers {
                    body.push_str(&format!(
                        "follower {}\tacked {}\tlag {}\t{}\t{}\n",
                        f.peer,
                        f.acked_lsn,
                        f.lag,
                        if f.sync { "sync" } else { "async" },
                        if f.alive { "alive" } else { "dropped" },
                    ));
                }
                Response::ok(body)
                    .header("role", "primary")
                    .header("epoch", hub.epoch().to_string())
                    .header("last-lsn", hub.last_lsn().to_string())
                    .header("followers", followers.len().to_string())
            }
            ReplRole::Replica(shared) => Response::ok(format!(
                "role: replica\nsource: {}\nepoch: {}\napplied_lsn: {}\nconnected: {}\n",
                shared.source,
                shared.epoch(),
                shared.applied_lsn(),
                shared.connected(),
            ))
            .header("role", "replica")
            .header("epoch", shared.epoch().to_string())
            .header("applied-lsn", shared.applied_lsn().to_string())
            .header("connected", shared.connected().to_string()),
        }
    }

    fn op_reveal(&self, req: &Request) -> Response {
        let Some(id) = req.header_value("id") else {
            return Response::err(
                code::USAGE,
                "reveal needs an `id` header (the id returned by apply)",
            );
        };
        let Ok(id) = id.trim().parse::<u64>() else {
            return Response::err(code::USAGE, format!("bad disguise id {id:?}"));
        };
        let Some(cap) = req.header_value("cap") else {
            return Response::err(
                code::DENIED,
                "reveal needs the `cap` header minted when the disguise was applied",
            );
        };
        if let Err(e) = caps::verify(&self.ws.db, id, cap) {
            self.denied_total.inc();
            return Response::err(code::DENIED, e.to_string());
        }
        match self.ws.edna.reveal(id) {
            Ok(report) => Response::ok(format!(
                "revealed {} (id {}): reinserted {}, restored {}, placeholders removed {}\n",
                report.name,
                report.disguise_id,
                report.rows_reinserted,
                report.rows_restored,
                report.placeholders_removed,
            ))
            .header("id", report.disguise_id.to_string()),
            Err(e) => Response::err(code::RUNTIME, e.to_string()),
        }
    }

    fn op_check(&self, req: &Request) -> Response {
        let reports = match req.arg.as_deref() {
            Some(name) => match self.ws.edna.check(name) {
                Ok(diags) => vec![(name.to_string(), diags)],
                Err(e) => return Response::err(code::RUNTIME, e.to_string()),
            },
            None => self.ws.edna.check_all(),
        };
        let mut body = String::new();
        let mut errors = 0usize;
        let mut warnings = 0usize;
        for (name, diags) in &reports {
            if diags.is_empty() {
                body.push_str(&format!("{name}: ok\n"));
                continue;
            }
            errors += diags
                .iter()
                .filter(|d| d.severity == edna_core::Severity::Error)
                .count();
            warnings += diags
                .iter()
                .filter(|d| d.severity == edna_core::Severity::Warning)
                .count();
            body.push_str(&format!("{name}:\n"));
            body.push_str(&render_report(diags));
        }
        Response::ok(body)
            .header("errors", errors.to_string())
            .header("warnings", warnings.to_string())
    }

    fn op_recover(&self, req: &Request) -> Response {
        let r = &self.ws.last_recovery;
        let mut body = format!(
            "scanned {} WAL frame(s), replayed {}, truncated {} torn byte(s)\n",
            r.frames_scanned, r.frames_replayed, r.torn_bytes
        );
        for id in &self.ws.last_resolution.completed {
            body.push_str(&format!("disguise {id}: intent resolved as completed\n"));
        }
        for id in &self.ws.last_resolution.undone {
            body.push_str(&format!("disguise {id}: half-applied, rolled back\n"));
        }
        if req.header_value("verify") == Some("true") {
            let problems = self.ws.db.verify_integrity();
            if !problems.is_empty() {
                for p in &problems {
                    body.push_str(&format!("integrity: {p}\n"));
                }
                return Response::err(code::RUNTIME, body)
                    .header("integrity-problems", problems.len().to_string());
            }
            body.push_str("integrity: ok\n");
        }
        for run in &r.open_policy_runs {
            body.push_str(&format!(
                "policy run {:?} interrupted mid-tick; it resumes on the next tick\n",
                run.policy
            ));
        }
        Response::ok(body)
    }

    fn op_policy(&self, req: &Request) -> Response {
        if req.arg.as_deref() != Some("status") {
            return Response::err(code::USAGE, "usage: `policy status`");
        }
        let last = self.scheduler.last_runs();
        let mut body = String::from("name\tkind\tcadence\tlast_run\n");
        for p in self.scheduler.policies() {
            let kind = match p {
                Policy::Expiration(_) => "expiration",
                Policy::Decay(_) => "decay",
            };
            let stamp = match last.get(p.name()) {
                Some(t) => t.to_string(),
                None => "never".to_string(),
            };
            body.push_str(&format!("{}\t{kind}\t{}\t{stamp}\n", p.name(), p.cadence()));
        }
        Response::ok(body)
            .header("policies", self.scheduler.policies().len().to_string())
            .header("runs-total", self.policy_runs_total.get().to_string())
            .header("decay-rows-total", self.decay_rows_total.get().to_string())
    }
}

// The whole point of the service shape: one instance, many threads.
#[allow(dead_code)]
fn assert_service_is_shareable() {
    fn shareable<T: Send + Sync>() {}
    shareable::<Service>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn temp_state(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("edna_svc_test_{tag}_{}", std::process::id()));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        for suffix in [".tmp", ".metrics", ".metrics.tmp", ".wal", ".lock"] {
            let _ = std::fs::remove_file(edna_core::workspace::sidecar(p, suffix));
        }
        let _ = std::fs::remove_dir_all(edna_core::workspace::sidecar(p, ".vault"));
    }

    const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

    fn service(tag: &str) -> (Service, PathBuf) {
        let state = temp_state(tag);
        let ws = Workspace::init(&state, None).unwrap();
        ws.db
            .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
            .unwrap();
        ws.db
            .execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
            .unwrap();
        ws.register_spec(SPEC).unwrap();
        (Service::new(ws).unwrap(), state)
    }

    #[test]
    fn sql_apply_reveal_through_the_service() {
        let (svc, state) = service("lifecycle");
        let r = svc.handle(&Request::new("sql").body("SELECT name FROM users ORDER BY id"));
        assert!(r.ok, "{}", r.body);
        assert_eq!(r.header_value("rows"), Some("2"));
        assert!(r.body.contains("bea"));

        let r = svc.handle(&Request::new("apply").arg("Gdpr").header("user", "1"));
        assert!(r.ok, "{}", r.body);
        let id = r.header_value("id").unwrap().to_string();
        let cap = r
            .header_value("cap")
            .expect("reversible apply mints a cap")
            .to_string();

        // Wrong capability is denied and denies are counted.
        let r = svc.handle(
            &Request::new("reveal")
                .header("id", &id)
                .header("cap", "00".repeat(32)),
        );
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some(code::DENIED));

        let r = svc.handle(&Request::new("reveal").header("id", &id).header("cap", cap));
        assert!(r.ok, "{}", r.body);
        let r = svc.handle(&Request::new("sql").body("SELECT name FROM users ORDER BY id"));
        assert_eq!(r.header_value("rows"), Some("2"));

        let r = svc.handle(&Request::new("stats"));
        assert!(r.ok);
        assert!(r.body.contains("edna_server_requests_total"), "{}", r.body);
        assert!(r.body.contains("edna_server_denied_total 1"), "{}", r.body);
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn wire_transactions_are_rejected() {
        let (svc, state) = service("txn");
        for stmt in [
            "BEGIN",
            "begin",
            "COMMIT",
            "ROLLBACK",
            "  Start Transaction",
        ] {
            let r = svc.handle(&Request::new("sql").body(stmt));
            assert!(!r.ok, "{stmt} should be rejected");
            assert_eq!(r.code.as_deref(), Some(code::USAGE), "{stmt}");
        }
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn unknown_ops_and_empty_sql_are_usage_errors() {
        let (svc, state) = service("usage");
        assert_eq!(
            svc.handle(&Request::new("frobnicate")).code.as_deref(),
            Some(code::USAGE)
        );
        assert_eq!(
            svc.handle(&Request::new("sql")).code.as_deref(),
            Some(code::USAGE)
        );
        assert_eq!(
            svc.handle(&Request::new("apply")).code.as_deref(),
            Some(code::USAGE)
        );
        assert_eq!(
            svc.handle(&Request::new("reveal").header("id", "not-a-number"))
                .code
                .as_deref(),
            Some(code::USAGE)
        );
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn reserved_tables_are_unreachable_over_the_wire() {
        let (svc, state) = service("reserved");
        for stmt in [
            "SELECT cap_hash FROM _edna_caps",
            "UPDATE _edna_caps SET cap_hash = 'attacker'",
            "DELETE FROM _edna_caps",
            "DROP TABLE _edna_spec_registry",
            "SELECT * FROM users WHERE id IN (SELECT disguise_id FROM _edna_caps)",
            // The policy registry schedules the decay daemon's work:
            // writable → arbitrary disguises against any tenant;
            // readable → the retention schedule leaks.
            "SELECT dsl, last_run FROM _edna_policy_registry",
            "UPDATE _edna_policy_registry SET last_run = 0",
            "INSERT INTO _edna_policy_registry (name, dsl) VALUES ('x', 'y')",
            // The idempotency ledger stores rendered replies — minted
            // reveal capabilities included.
            "SELECT reply FROM _edna_requests",
            "UPDATE _edna_requests SET reply = 'forged'",
        ] {
            let r = svc.handle(&Request::new("sql").body(stmt));
            assert!(!r.ok, "{stmt} must be refused");
            assert_eq!(r.code.as_deref(), Some(code::DENIED), "{stmt}");
        }
        // The denial is counted alongside capability denials.
        let r = svc.handle(&Request::new("stats"));
        assert!(r.body.contains("edna_server_denied_total 10"), "{}", r.body);
        drop(svc);
        cleanup(&state);
    }

    const DECAY_SPEC: &str = r#"
disguise_name: "AgeNotes"
reversible: false
tables: {
  notes: { transformations: [ Modify(pred: "created_at < NOW() - 500", column: body, modifier: Truncate(1)) ] },
}
"#;

    const DECAY_POLICY: &str = "policy_name: \"aging\"\n\
                                kind: decay\n\
                                cadence: 60\n\
                                stages: [ \"AgeNotes\" ]\n";

    #[test]
    fn policy_tick_decays_rows_and_survives_restart() {
        let state = temp_state("policy_tick");
        {
            let ws = Workspace::init(&state, None).unwrap();
            ws.db
                .execute(
                    "CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, body TEXT, \
                     created_at INT NOT NULL DEFAULT 0)",
                )
                .unwrap();
            ws.db
                .execute(
                    "INSERT INTO notes (body, created_at) VALUES ('old body', 0), \
                     ('new body', 900)",
                )
                .unwrap();
            ws.register_spec(DECAY_SPEC).unwrap();
            ws.register_policy(DECAY_POLICY).unwrap();
            let svc = Service::new(ws).unwrap();
            assert!(svc.has_policies());

            let r = svc.handle(&Request::new("policy").arg("status"));
            assert!(r.ok, "{}", r.body);
            assert!(r.body.contains("aging\tdecay\t60\tnever"), "{}", r.body);

            let out = svc.policy_tick_at(1_000, Some(512)).unwrap();
            assert_eq!(out.runs.len(), 1, "one policy due");
            assert!(out.runs[0].complete);

            // The run decayed the old note and left the new one alone.
            let r = svc.handle(&Request::new("sql").body("SELECT body FROM notes ORDER BY id"));
            assert!(r.body.starts_with("body\no\nnew body"), "{}", r.body);

            // Status reflects the completed run; the metrics appear in
            // the Prometheus exposition, including the per-policy
            // duration histogram.
            let r = svc.handle(&Request::new("policy").arg("status"));
            assert!(r.body.contains("aging\tdecay\t60\t1000"), "{}", r.body);
            assert_eq!(r.header_value("runs-total"), Some("1"));
            let r = svc.handle(&Request::new("stats"));
            assert!(r.body.contains("edna_policy_runs_total 1"), "{}", r.body);
            assert!(r.body.contains("edna_decay_rows_total 1"), "{}", r.body);
            assert!(r.body.contains("edna_policy_tick_us_aging"), "{}", r.body);

            // The tick advanced the durable clock: foreground NOW() moves.
            assert_eq!(svc.workspace().db.global_now(), 1_000);
            svc.checkpoint().unwrap();
            drop(svc);
        }
        // Restart. The scheduler reloads the persisted last-run stamp, so
        // the policy is NOT due again at the same logical time — the bug
        // this guards against is every policy re-firing on restart.
        {
            let ws = Workspace::open(&state, None).unwrap();
            let svc = Service::new(ws).unwrap();
            let r = svc.handle(&Request::new("policy").arg("status"));
            assert!(r.body.contains("aging\tdecay\t60\t1000"), "{}", r.body);
            let now = svc.workspace().db.global_now();
            assert_eq!(now, 1_000, "restart must not rewind the clock");
            let out = svc.policy_tick_at(now, Some(512)).unwrap();
            assert!(
                out.runs.is_empty(),
                "policy re-fired within its cadence after restart"
            );
            drop(svc);
        }
        cleanup(&state);
    }

    #[test]
    fn policy_op_requires_status_arg() {
        let (svc, state) = service("policy_usage");
        let r = svc.handle(&Request::new("policy"));
        assert_eq!(r.code.as_deref(), Some(code::USAGE));
        let r = svc.handle(&Request::new("policy").arg("nonsense"));
        assert_eq!(r.code.as_deref(), Some(code::USAGE));
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn ready_flips_on_drain_but_health_stays_up() {
        let (svc, state) = service("drain");
        assert!(svc.handle(&Request::new("ready")).ok);
        svc.begin_drain();
        let r = svc.handle(&Request::new("ready"));
        assert_eq!(r.code.as_deref(), Some(code::SHUTTING_DOWN));
        assert!(svc.handle(&Request::new("health")).ok);
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn recover_op_reports_and_verifies() {
        let (svc, state) = service("recover");
        let r = svc.handle(&Request::new("recover").header("verify", "true"));
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("integrity: ok"), "{}", r.body);
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn idempotent_apply_replays_the_original_reply() {
        let (svc, state) = service("idem");
        let first = svc.handle(
            &Request::new("apply")
                .arg("Gdpr")
                .header("user", "1")
                .header("idem", "req-001"),
        );
        assert!(first.ok, "{}", first.body);
        let cap = first.header_value("cap").unwrap().to_string();
        let id = first.header_value("id").unwrap().to_string();

        // The wire retry replays the stored reply — same id, same
        // capability — and does not run the disguise again.
        let retry = svc.handle(
            &Request::new("apply")
                .arg("Gdpr")
                .header("user", "1")
                .header("idem", "req-001"),
        );
        assert!(retry.ok, "{}", retry.body);
        assert_eq!(retry.header_value("idem"), Some("replayed"));
        assert_eq!(retry.header_value("cap"), Some(cap.as_str()));
        assert_eq!(retry.header_value("id"), Some(id.as_str()));
        assert_eq!(retry.body, first.body);

        // Only one disguise ran: user 1's row is gone, user 2's remains,
        // and a second application would have failed on the missing row
        // anyway — the replay counter is the positive evidence.
        let r = svc.handle(&Request::new("stats"));
        assert!(
            r.body.contains("edna_server_idem_replays_total 1"),
            "{}",
            r.body
        );

        // A different key is a different logical request.
        let other = svc.handle(
            &Request::new("apply")
                .arg("Gdpr")
                .header("user", "2")
                .header("idem", "req-002"),
        );
        assert!(other.ok, "{}", other.body);
        assert_eq!(other.header_value("idem"), None);

        // Hostile keys are refused before touching anything.
        for bad in ["", "  ", "a b", "key/with/slash", &"x".repeat(129)] {
            let r = svc.handle(&Request::new("apply").arg("Gdpr").header("idem", bad));
            assert_eq!(r.code.as_deref(), Some(code::USAGE), "key {bad:?}");
        }
        drop(svc);
        cleanup(&state);
    }

    /// The capability and the ledger row commit with the disguise: when
    /// the last statement of an `idem` apply (the ledger insert) fails,
    /// nothing of the apply is left, and the retry applies exactly once.
    #[test]
    fn a_failed_ledger_insert_leaves_nothing_and_the_retry_applies_once() {
        let (svc, state) = service("idem_abort");
        let ws = svc.workspace();
        let apply = |user: &str, key: &str| {
            svc.handle(
                &Request::new("apply")
                    .arg("Gdpr")
                    .header("user", user)
                    .header("idem", key),
            )
        };
        let count = |sql: &str| match ws.db.execute(sql).unwrap().scalar().unwrap() {
            Value::Int(n) => *n,
            other => panic!("count returned {other:?}"),
        };
        let history_of_2 = || {
            count(&format!(
                "SELECT COUNT(*) FROM {} WHERE userId = '2'",
                edna_core::HISTORY_TABLE
            ))
        };
        let caps = || count(&format!("SELECT COUNT(*) FROM {}", caps::CAPS_TABLE));

        // Count an `idem` apply's statements with a hook that never fires.
        ws.db.set_fault_hook(Some(std::sync::Arc::new(|_| false)));
        assert!(apply("1", "req-1").ok);
        let statements = ws.db.fault_statement_count();
        let vault_bytes = ws.edna.vaults().storage_bytes().unwrap();
        let caps_before = caps();

        ws.db.fail_statement(statements - 1);
        let failed = apply("2", "req-2");
        ws.db.set_fault_hook(None);
        assert!(!failed.ok, "{}", failed.body);
        assert!(
            failed.body.contains(&format!(
                "injected fault at statement index {}",
                statements - 1
            )),
            "{}",
            failed.body
        );
        assert_eq!(history_of_2(), 0, "no history row");
        assert_eq!(caps(), caps_before, "no capability row");
        assert_eq!(
            ws.edna.vaults().storage_bytes().unwrap(),
            vault_bytes,
            "no vault entry"
        );

        let retry = apply("2", "req-2");
        assert!(retry.ok, "{}", retry.body);
        assert_eq!(retry.header_value("idem"), None, "the retry really applies");
        assert_eq!(history_of_2(), 1);
        let again = apply("2", "req-2");
        assert_eq!(again.header_value("idem"), Some("replayed"));
        assert_eq!(again.header_value("cap"), retry.header_value("cap"));
        assert_eq!(history_of_2(), 1, "exactly one history row for the key");
        cleanup(&state);
    }

    #[test]
    fn replica_role_rejects_writes_and_reports_status() {
        let (svc, state) = service("replica_role");
        svc.attach_replica(crate::replica::ReplicaShared::new(
            "10.0.0.1:7777".to_string(),
            3,
            42,
        ));
        assert!(svc.is_replica());

        for req in [
            Request::new("apply").arg("Gdpr").header("user", "1"),
            Request::new("apply_many").arg("Gdpr").body("1\n"),
            Request::new("reveal").header("id", "1").header("cap", "00"),
            Request::new("sql").body("INSERT INTO users (name) VALUES ('x')"),
            Request::new("sql").body("DROP TABLE users"),
        ] {
            let r = svc.handle(&req);
            assert_eq!(r.code.as_deref(), Some(code::READ_ONLY), "{}", req.op);
        }
        // Reads still flow.
        let r = svc.handle(&Request::new("sql").body("SELECT name FROM users ORDER BY id"));
        assert!(r.ok, "{}", r.body);
        assert_eq!(r.header_value("rows"), Some("2"));
        assert!(svc.handle(&Request::new("stats")).ok);
        assert!(svc.handle(&Request::new("policy").arg("status")).ok);

        // Policy ticks are the primary's job.
        assert!(svc.policy_tick_at(1_000, None).is_err());

        let r = svc.handle(&Request::new("repl").arg("status"));
        assert!(r.ok, "{}", r.body);
        assert_eq!(r.header_value("role"), Some("replica"));
        assert_eq!(r.header_value("epoch"), Some("3"));
        assert_eq!(r.header_value("applied-lsn"), Some("42"));
        assert!(r.body.contains("source: 10.0.0.1:7777"), "{}", r.body);
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn repl_status_on_a_standalone_node() {
        let (svc, state) = service("repl_standalone");
        let r = svc.handle(&Request::new("repl").arg("status"));
        assert!(r.ok, "{}", r.body);
        assert_eq!(r.header_value("role"), Some("standalone"));
        let r = svc.handle(&Request::new("repl"));
        assert_eq!(r.code.as_deref(), Some(code::USAGE));
        drop(svc);
        cleanup(&state);
    }

    #[test]
    fn concurrent_sql_and_apply_do_not_interleave_torn_state() {
        let (svc, state) = service("concurrent");
        let svc = std::sync::Arc::new(svc);
        std::thread::scope(|s| {
            let applier = {
                let svc = svc.clone();
                s.spawn(move || {
                    let r = svc.handle(&Request::new("apply").arg("Gdpr").header("user", "1"));
                    assert!(r.ok, "{}", r.body);
                })
            };
            for _ in 0..20 {
                let r = svc.handle(&Request::new("sql").body("SELECT COUNT(*) FROM users"));
                assert!(r.ok, "{}", r.body);
            }
            applier.join().unwrap();
        });
        drop(svc);
        cleanup(&state);
    }
}
