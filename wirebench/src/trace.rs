//! The traced run: attribution by replay.
//!
//! The workload's operation sequence is replayed as a single-connection
//! closed loop on identical copies of the set-up state, entering once at
//! each depth: the wire (`Client`), `Service::handle`, and the engine
//! calls the service makes. The replays advance in lockstep, a chunk of
//! operations at a time, so they share the host's speed as it drifts.
//! Each request gets a root span and one child span per call, recorded
//! with `Tracer::record` and explicit parent ids as the request ends;
//! the operation's id is the request id shared across replays, so a
//! layer's self time is its span minus the same request's span one
//! depth down. Around each engine call the replay also records sibling
//! spans for `HistoryLog::events()` and `TieredVault::entries_for`, and
//! the deltas of `Database::stats()`, the `edna_wal_*` counters and the
//! vault's counters and `storage_bytes()`. Only the benchmark's own
//! calls into each layer's public functions are timed; nothing inside
//! the program is changed.
//!
//! An untraced engine lane makes the same engine calls with none of this
//! around them; the two engine lanes' times per request give what
//! tracing costs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edna_obs::Tracer;
use edna_relational::{Database, Value};
use edna_server::{Client, ReplHub, ServerHandle, Service};
use edna_vault::TieredVault;

use crate::exec::{run_engine, run_service, run_wire, Caps};
use crate::setup::{copy_state, open_service, server_config};
use crate::workload::{Class, Op, Scheduled, Workload};

/// Where a replay enters the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Through `edna_server::Client` over loopback TCP.
    Wire,
    /// Through `Service::handle`.
    Service,
    /// Through the engine calls the service makes.
    Engine,
}

impl Depth {
    fn name(self) -> &'static str {
        match self {
            Depth::Wire => "wire",
            Depth::Service => "service",
            Depth::Engine => "engine",
        }
    }
}

/// Counter deltas around one engine call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// `Database::stats().statements`.
    pub statements: u64,
    /// `Database::stats().rows_read`.
    pub rows_read: u64,
    /// `Database::stats().rows_written`.
    pub rows_written: u64,
    /// `Database::stats().stmt_cache_hits`.
    pub stmt_cache_hits: u64,
    /// `Database::stats().index_probes`.
    pub index_probes: u64,
    /// `Database::stats().table_scans`.
    pub table_scans: u64,
    /// `edna_wal_frames_total`.
    pub wal_frames: u64,
    /// `edna_wal_fsyncs_total`.
    pub wal_fsyncs: u64,
    /// `edna_wal_bytes_total`.
    pub wal_bytes: u64,
    /// Growth of `TieredVault::storage_bytes()` across the call.
    pub vault_bytes: i64,
}

/// One engine call's attribution record.
#[derive(Debug, Clone)]
pub struct Step {
    /// The operation's class.
    pub class: Class,
    /// Counter deltas around the call.
    pub counts: Counts,
    /// Users a policy tick disguised.
    pub tick_users: usize,
}

/// One replay's measurements.
#[derive(Debug, Default)]
pub struct Replay {
    /// Call duration per request id, microseconds.
    pub call_us: BTreeMap<usize, f64>,
    /// Class per request id.
    pub class: BTreeMap<usize, Class>,
    /// The lane's time per request id, its own spans, probes and
    /// counter bookkeeping included, microseconds.
    pub lane_us: BTreeMap<usize, f64>,
    /// Engine depth only: one record per call.
    pub steps: Vec<Step>,
    /// Engine depth only: `HistoryLog::events()` durations.
    pub history_events_us: Vec<f64>,
    /// Engine depth only: `TieredVault::entries_for` durations.
    pub entries_for_us: Vec<f64>,
    /// Vault store retries during the replay.
    pub vault_retries: u64,
    /// Failed or wrong replies.
    pub failures: Vec<String>,
}

/// A span's key/value attributes.
type Attrs = Vec<(String, String)>;

/// A child span of the request being stepped, recorded once the
/// request's own span has its id.
struct Child {
    label: String,
    at: Instant,
    dur: Duration,
    attrs: Attrs,
}

fn attr(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

fn counter(db: &Database, name: &str) -> u64 {
    db.metrics().counter(name, "").get()
}

fn snapshot(db: &Database) -> Counts {
    let s = db.stats();
    Counts {
        statements: s.statements,
        rows_read: s.rows_read,
        rows_written: s.rows_written,
        stmt_cache_hits: s.stmt_cache_hits,
        index_probes: s.index_probes,
        table_scans: s.table_scans,
        wal_frames: counter(db, "edna_wal_frames_total"),
        wal_fsyncs: counter(db, "edna_wal_fsyncs_total"),
        wal_bytes: counter(db, "edna_wal_bytes_total"),
        vault_bytes: 0,
    }
}

fn vault_bytes(vaults: &TieredVault) -> Result<i64, String> {
    vaults
        .storage_bytes()
        .map(|b| b as i64)
        .map_err(|e| e.to_string())
}

fn delta(after: Counts, before: Counts) -> Counts {
    Counts {
        statements: after.statements - before.statements,
        rows_read: after.rows_read - before.rows_read,
        rows_written: after.rows_written - before.rows_written,
        stmt_cache_hits: after.stmt_cache_hits - before.stmt_cache_hits,
        index_probes: after.index_probes - before.index_probes,
        table_scans: after.table_scans - before.table_scans,
        wal_frames: after.wal_frames - before.wal_frames,
        wal_fsyncs: after.wal_fsyncs - before.wal_fsyncs,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        vault_bytes: 0,
    }
}

/// The user an operation concerns, for the vault sibling span.
fn op_user(op: &Op) -> Option<i64> {
    match op {
        Op::Apply { user, .. } | Op::Reveal { user, .. } => Some(*user),
        _ => None,
    }
}

/// One replay of the operation sequence: its own copy of the set-up
/// state, entered at one depth.
pub struct Lane {
    depth: Depth,
    traced: bool,
    dir: PathBuf,
    svc: Arc<Service>,
    server: Option<ServerHandle>,
    client: Option<Client>,
    caps: Caps,
    out: Replay,
    retries_before: u64,
    /// `storage_bytes()` after the lane's last disguise operation: only
    /// the lane's own calls change its vaults, so it is the next one's
    /// starting point and the whole vault is walked once per operation.
    vault_bytes: Option<i64>,
}

impl Lane {
    /// Copies `pristine` into `dir`, opens it, and prepares to enter at
    /// `depth`. Every depth gets the replication hub `server::start`
    /// attaches, so depths differ only by the layers above them. An
    /// untraced lane records no spans and no counts.
    pub fn open(depth: Depth, traced: bool, pristine: &Path, dir: PathBuf) -> Result<Lane, String> {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let state = dir.join("state");
        copy_state(pristine, &state)?;
        let svc = Arc::new(open_service(&state)?);
        let server = match depth {
            Depth::Wire => Some(
                edna_server::start(Arc::clone(&svc), server_config()).map_err(|e| e.to_string())?,
            ),
            _ => {
                let hub = ReplHub::new(svc.workspace(), 0, Duration::from_secs(2));
                edna_server::repl::install(&hub, svc.workspace());
                svc.attach_primary(hub);
                None
            }
        };
        let client = match &server {
            Some(s) => Some(Client::connect(s.addr()).map_err(|e| e.to_string())?),
            None => None,
        };
        let retries_before = svc.workspace().edna.vaults().store_stats().retries;
        Ok(Lane {
            depth,
            traced,
            dir,
            server,
            client,
            caps: Caps::default(),
            out: Replay::default(),
            retries_before,
            vault_bytes: None,
            svc,
        })
    }

    /// Runs one operation. A traced lane records the request's spans
    /// with `tracer`; the traced engine lane also takes the sibling
    /// probes and counter deltas. The lane's time for the operation
    /// covers all of that, so comparing it with an untraced lane's gives
    /// what tracing costs.
    fn step(&mut self, workload: Workload, s: &Scheduled, tracer: &Tracer) -> Result<(), String> {
        let svc = &*self.svc;
        let ws = svc.workspace();
        let vaults = ws.edna.vaults();
        let class = s.op.class();
        let attribute = self.traced && self.depth == Depth::Engine;
        let touches_vault = matches!(class, Class::Apply | Class::Reveal | Class::Tick);
        let started = Instant::now();
        let mut children = Vec::new();
        if attribute && self.out.call_us.is_empty() {
            // One probe of each sibling at set-up depth, so workloads
            // that never disguise still report what these calls cost.
            sibling_probes(svc, &mut children, &mut self.out, None)?;
        }
        if attribute {
            if let Some(user) = op_user(&s.op) {
                sibling_probes(svc, &mut children, &mut self.out, Some(user))?;
            }
        }
        let before = if attribute {
            snapshot(&ws.db)
        } else {
            Counts::default()
        };
        let vault_before = match self.vault_bytes {
            Some(b) if attribute && touches_vault => b,
            None if attribute && touches_vault => vault_bytes(vaults)?,
            _ => 0,
        };
        let at = Instant::now();
        let result = match self.depth {
            Depth::Wire => run_wire(
                self.client.as_mut().expect("the wire depth has a client"),
                svc,
                workload,
                s.id,
                &s.op,
                &mut self.caps,
            )
            .map(|()| Default::default()),
            Depth::Service => {
                run_service(svc, workload, s.id, &s.op, &mut self.caps).map(|()| Default::default())
            }
            Depth::Engine => run_engine(svc, workload, s.id, &s.op, &mut self.caps),
        };
        let dur = at.elapsed();
        let mut attrs = vec![attr("req", s.id), attr("op", format!("{class:?}"))];
        match result {
            Ok(outcome) if attribute => {
                let mut counts = delta(snapshot(&ws.db), before);
                if touches_vault {
                    let after = vault_bytes(vaults)?;
                    counts.vault_bytes = after - vault_before;
                    self.vault_bytes = Some(after);
                }
                attrs.extend([
                    attr("statements", counts.statements),
                    attr("rows_read", counts.rows_read),
                    attr("rows_written", counts.rows_written),
                    attr("wal_frames", counts.wal_frames),
                    attr("vault_bytes", counts.vault_bytes),
                ]);
                self.out.steps.push(Step {
                    class,
                    counts,
                    tick_users: outcome.tick_users,
                });
            }
            Ok(_) => {}
            Err(e) => {
                attrs.push(attr("error", &e));
                self.out
                    .failures
                    .push(format!("{} replay, op {}: {e}", self.depth.name(), s.id));
            }
        }
        if self.traced {
            children.push(Child {
                label: call_label(self.depth, &s.op),
                at,
                dur,
                attrs,
            });
            let root = tracer.record(
                None,
                &format!("{}.request", self.depth.name()),
                started,
                started.elapsed(),
                vec![
                    attr("req", s.id),
                    attr("workload", workload.name()),
                    attr("depth", self.depth.name()),
                ],
            );
            for c in children {
                tracer.record(Some(root), &c.label, c.at, c.dur, c.attrs);
            }
        }
        self.out.call_us.insert(s.id, dur.as_secs_f64() * 1e6);
        self.out.class.insert(s.id, class);
        self.out
            .lane_us
            .insert(s.id, started.elapsed().as_secs_f64() * 1e6);
        Ok(())
    }

    /// Stops the lane's server and removes its copy.
    fn finish(mut self) -> Result<Replay, String> {
        self.out.vault_retries =
            self.svc.workspace().edna.vaults().store_stats().retries - self.retries_before;
        drop(self.client);
        if let Some(server) = self.server {
            server
                .stop_and_wait()
                .map_err(|_| "replay server thread panicked".to_string())?;
        }
        drop(self.svc);
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        Ok(self.out)
    }
}

/// Operations a lane runs before the next lane takes over.
const CHUNK: usize = 25;

/// Replays `ops` once per lane, interleaved in chunks: each chunk of
/// [`CHUNK`] operations runs on every lane (in alternating lane order)
/// before the next chunk starts, so drift in the host's speed falls on
/// all depths alike while each lane keeps its own data in cache within a
/// chunk. The replays run on a thread of their own, as a server worker
/// does.
pub fn replay(
    workload: Workload,
    lanes: Vec<Lane>,
    ops: &[Scheduled],
    tracer: &Tracer,
) -> Result<Vec<Replay>, String> {
    let lanes = std::thread::scope(|scope| {
        scope
            .spawn(move || -> Result<Vec<Lane>, String> {
                let mut lanes = lanes;
                for (i, chunk) in ops.chunks(CHUNK).enumerate() {
                    let mut order: Vec<&mut Lane> = lanes.iter_mut().collect();
                    if i % 2 == 1 {
                        order.reverse();
                    }
                    for lane in order {
                        for s in chunk {
                            lane.step(workload, s, tracer)?;
                        }
                    }
                }
                Ok(lanes)
            })
            .join()
            .expect("replay thread panicked")
    })?;
    lanes.into_iter().map(Lane::finish).collect()
}

/// Times `HistoryLog::events()` and `TieredVault::entries_for(user)` as
/// siblings of the engine call they precede.
fn sibling_probes(
    svc: &Service,
    spans: &mut Vec<Child>,
    out: &mut Replay,
    user: Option<i64>,
) -> Result<(), String> {
    let edna = &svc.workspace().edna;
    let at = Instant::now();
    let events = edna.history().events().map_err(|e| e.to_string())?;
    let dur = at.elapsed();
    spans.push(Child {
        label: "core.history_events".to_string(),
        at,
        dur,
        attrs: vec![attr("depth", events.len())],
    });
    out.history_events_us.push(dur.as_secs_f64() * 1e6);

    let user = user.unwrap_or(1);
    let at = Instant::now();
    let entries = edna
        .vaults()
        .entries_for(&Value::Int(user))
        .map_err(|e| e.to_string())?;
    let dur = at.elapsed();
    spans.push(Child {
        label: "vault.entries_for".to_string(),
        at,
        dur,
        attrs: vec![attr("user", user), attr("entries", entries.len())],
    });
    out.entries_for_us.push(dur.as_secs_f64() * 1e6);
    Ok(())
}

fn call_label(depth: Depth, op: &Op) -> String {
    let call = match (depth, op) {
        (_, Op::Tick { .. }) => "Service::policy_tick_at",
        (_, Op::Checkpoint) => "Service::checkpoint",
        (Depth::Wire, _) => "Client::request",
        (Depth::Service, _) => "Service::handle",
        (Depth::Engine, Op::Read { .. } | Op::Write { .. }) => "Database::execute",
        (Depth::Engine, Op::Apply { .. }) => "Disguiser::apply_with_options",
        (Depth::Engine, Op::Reveal { .. }) => "Disguiser::reveal",
    };
    format!("{}.{call}", depth.name())
}
