//! Write-ahead log: redo records for committed transactions, flushed
//! through a group-commit pipeline.
//!
//! The engine is snapshot-durable on its own — state survives only as far
//! as the last [`crate::snapshot::save`]. The WAL closes that gap: every
//! committed transaction gets an fsynced *redo frame* before the commit
//! returns, so `Workspace`-level recovery can replay the tail of the log
//! over the last snapshot and recover every committed write.
//!
//! # Group commit
//!
//! Committers do not write the file themselves. [`Wal::stage`] assigns an
//! LSN and queues the encoded frame; [`Wal::wait_durable`] blocks until
//! that LSN is on disk. The first waiter to find the pipeline free
//! becomes the batch *leader*: it drains the queue (up to
//! [`WalGroupConfig::max_frames`]), writes every frame with one
//! `write`+`fsync` pair, and wakes the followers. While a flush is in
//! flight new committers keep staging, so batches form naturally under
//! load — N concurrent committers cost ~1 fsync per batch instead of N —
//! while a solo committer flushes immediately and sees exactly one fsync
//! with no added latency. [`WalGroupConfig::max_delay`] optionally trades
//! latency for bigger batches.
//!
//! A *failed* batch flush fails every waiter in the batch (and any frames
//! staged behind it): the file is truncated back to the last known-good
//! frame boundary, the LSN counter rewinds to just past the durable tail,
//! and the abort handler installed by `Database::attach_wal` rolls the
//! victims' already-visible effects back before any waiter is released.
//!
//! # Records
//!
//! Frames use the shared [`edna_util::frame`] codec
//! (`[len][body][sha256]`, torn tail truncated on open). Each body is
//! `[u64 LSN][u8 kind][payload]`:
//!
//! - **Txn** — the redo image of one committed transaction (implicit
//!   single-statement transactions included), as a list of [`RedoOp`]s.
//!   Redo ops are *physical-logical*: they address rows by slot id
//!   ([`RowId`]) and carry full row images, so replay needs no SQL,
//!   re-checks no constraints, and is idempotent (each op sets state
//!   rather than transforming it). Row ids are stable across snapshots as
//!   of format v3.
//! - **DisguiseIntent / DisguiseCommit** — markers bracketing a disguise
//!   application's vault-side writes (see `edna-core`); an intent without
//!   a matching commit or committed history row tells recovery to undo
//!   the vault half of a half-applied disguise.
//!
//! LSNs increase monotonically and never reset, surviving checkpoints: a
//! snapshot records the last LSN it contains (its *watermark*), a
//! checkpoint truncates the log, and replay skips any frame at or below
//! the watermark of the snapshot it starts from.
//!
//! # Crash points
//!
//! The [`WalCrashHook`] is the WAL-side half of the fault-injection
//! harness (`Database::set_fault_hook` is the statement-side half): it is
//! consulted once per frame, at flush time, with the frame's 0-based
//! index, and may kill the flush before the frame's write, mid-write
//! (torn frame, no fsync), or after a write+fsync — the three states a
//! real crash can leave. An injected crash also poisons the log (the
//! process is presumed dead), so later appends fail rather than writing
//! after a gap. A *real* flush failure (ENOSPC, EIO, failed fsync) is
//! handled differently: the file is truncated back to the last good
//! frame boundary so the log stays valid for further appends, and the
//! log is poisoned only if that restore itself fails.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use edna_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use edna_util::frame;
use edna_util::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

use crate::error::{Error, Result};
use crate::exec::Inner;
use crate::snapshot::{self, Reader, TableSnapshot, Writer};
use crate::storage::RowId;
use crate::txn::{Txn, UndoOp};
use crate::value::{Row, Value};

/// One redo operation inside a committed transaction's frame.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum RedoOp {
    /// Set slot `row_id` of `table` to `row` (insert, or overwrite on
    /// replay over state that already contains it).
    Insert {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// Replace slot `row_id` of `table` with `row`.
    Update {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// Clear slot `row_id` of `table`.
    Delete { table: String, row_id: RowId },
    /// (Re)create a table from its full image.
    CreateTable { image: TableSnapshot },
    /// Drop a table.
    DropTable { name: String },
    /// Replace a table wholesale with its post-alter image.
    AlterTable { name: String, image: TableSnapshot },
    /// Create a secondary index.
    CreateIndex {
        table: String,
        name: String,
        column: String,
        unique: bool,
    },
    /// Set a table's AUTO_INCREMENT counter.
    SetNextAuto { table: String, value: i64 },
    /// Set the logical clock.
    SetNow { now: i64 },
}

/// One WAL record (the body of one frame, minus its LSN).
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// The redo image of one committed transaction.
    Txn {
        /// Redo operations in application order.
        ops: Vec<RedoOp>,
    },
    /// A disguise application is about to write vault-side state.
    DisguiseIntent {
        /// The history row id the disguise was recorded under.
        disguise_id: u64,
        /// The disguise's subject user id (`Value::Null` for global
        /// disguises), as passed to the vault layer.
        user: Value,
    },
    /// The disguise application committed; its stores agree.
    DisguiseCommit {
        /// The matching intent's history row id.
        disguise_id: u64,
    },
    /// A scheduled policy run is starting (the decay daemon's bracket).
    PolicyRunStart {
        /// The policy's registered name.
        policy: String,
        /// The logical tick timestamp the run evaluates at.
        now: i64,
    },
    /// The matching policy run finished (complete or budget-paused); its
    /// disguise applications are individually intent/commit-bracketed, so
    /// an unmatched start marker is benign — the run resumes next tick.
    PolicyRunEnd {
        /// The matching start marker's policy name.
        policy: String,
    },
    /// The replication epoch changed (`edna promote`). Persisted in the
    /// log so a restarted node remembers which generation of primaries it
    /// belongs to; replication streams carry the sender's epoch on every
    /// frame and a receiver rejects anything older than its own — the
    /// fencing that keeps a deposed primary from feeding a promoted node.
    Epoch {
        /// The new epoch (monotonically increasing, starts at 0).
        epoch: u64,
    },
}

/// A disguise intent recovered from the log with no matching commit
/// marker: the application may have died between its vault writes and its
/// database commit. `edna-core` resolves it against the history table.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenIntent {
    /// LSN of the intent frame.
    pub lsn: u64,
    /// The history row id the disguise would have been recorded under.
    pub disguise_id: u64,
    /// The disguise's subject user id.
    pub user: Value,
}

/// A policy-run start marker recovered from the log with no matching end
/// marker: the process died mid-tick. Unlike an open disguise intent this
/// needs no repair — each disguise the run applied has its own
/// intent/commit bracket, and the scheduler's persisted last-run stamp is
/// only advanced when a run completes, so the policy simply re-fires (and
/// resumes) on the next tick.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenPolicyRun {
    /// LSN of the start frame.
    pub lsn: u64,
    /// The policy's registered name.
    pub policy: String,
    /// The logical tick timestamp the interrupted run evaluated at.
    pub now: i64,
}

/// How a [`WalCrashHook`] kills an append — the three states a real crash
/// can leave a log in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalCrash {
    /// Die before anything reaches the file: the frame is wholly absent.
    BeforeWrite,
    /// Die mid-write: a torn frame prefix reaches the file, unsynced.
    TornWrite,
    /// Die after write + fsync: the frame is durable, the caller's
    /// post-append work is lost.
    AfterWrite,
}

/// A WAL-level crash hook: called with the 0-based index of each frame
/// appended since the hook was installed; returning `Some(style)` kills
/// that append with [`Error::FaultInjected`] and poisons the log.
pub type WalCrashHook = Arc<dyn Fn(u64) -> Option<WalCrash> + Send + Sync>;

/// What [`Wal::open`] found in the file.
#[derive(Debug)]
pub struct WalScan {
    /// Every complete frame, as `(lsn, record)`, in log order.
    pub records: Vec<(u64, WalRecord)>,
    /// Torn-tail bytes truncated away.
    pub torn_bytes: usize,
}

/// Counters bound into a database's metrics registry on attach.
struct WalMetrics {
    frames: Arc<Counter>,
    fsyncs: Arc<Counter>,
    bytes: Arc<Counter>,
    group_commits: Arc<Counter>,
    group_size: Arc<Histogram>,
    fsyncs_saved: Arc<Counter>,
    frames_per_fsync: Arc<Gauge>,
}

struct WalFile {
    file: Option<std::fs::File>,
    /// File length as of the last successful flush (or truncation) — the
    /// restore point when a real flush fails partway through.
    good_len: u64,
}

/// Tuning knobs for the group-commit pipeline.
#[derive(Debug, Clone, Copy)]
pub struct WalGroupConfig {
    /// Most frames one leader flushes in a single write+fsync.
    pub max_frames: usize,
    /// How long a leader waits for co-committers to stage before
    /// flushing. The wait is *adaptive*: it is honored only when the
    /// queue (or the previous batch) shows more than one committer, so
    /// a strictly solo committer always sees one immediate fsync with
    /// no added latency — and under contention the pipeline escapes the
    /// steady state where each flush wakes only the previous batch's
    /// committers and batches never grow. Zero disables accumulation
    /// (batching still emerges while a flush is in flight).
    pub max_delay: Duration,
    /// Lower bound on the wall-clock cost of one batch flush (padded
    /// with a sleep when the real fsync beats it). Pins the relative
    /// price of durability on hosts whose fsync is too fast for
    /// group-commit effects to be measurable; zero disables.
    pub fsync_floor: Duration,
}

impl Default for WalGroupConfig {
    fn default() -> WalGroupConfig {
        WalGroupConfig {
            max_frames: 64,
            max_delay: Duration::from_micros(500),
            fsync_floor: Duration::ZERO,
        }
    }
}

/// A staged frame's claim check: pass to [`Wal::wait_durable`] to block
/// until the frame is on disk. The internal stage sequence number — not
/// the LSN — identifies the frame: a failed batch rewinds the LSN
/// counter, so LSNs can be reassigned, while stage seqs never are.
#[derive(Debug, Clone, Copy)]
pub struct WalTicket {
    seq: u64,
    /// The LSN assigned to the staged frame.
    pub lsn: u64,
}

/// Marker bookkeeping a staged frame carries so `open_intents` can be
/// updated when (and only when) the frame actually reaches disk.
enum MarkerNote {
    Intent(u64, Value),
    Commit(u64),
    PolicyStart(String, i64),
    PolicyEnd(String),
}

/// One frame queued for the next batch flush.
struct StagedFrame {
    seq: u64,
    lsn: u64,
    bytes: Vec<u8>,
    note: Option<MarkerNote>,
}

/// Why a staged frame's waiter is being failed.
enum AbortCause {
    /// The crash hook killed the flush at this frame (hook index).
    Injected(u64),
    /// The batch failed for a real (or neighboring) reason.
    Failed(String),
}

impl AbortCause {
    fn into_error(self) -> Error {
        match self {
            AbortCause::Injected(index) => Error::FaultInjected(index),
            AbortCause::Failed(msg) => Error::Wal(msg),
        }
    }
}

/// How one batch flush failed (internal to the leader protocol).
enum BatchFailure {
    /// The crash hook fired at the frame staged under `seq`.
    /// `persisted_lsn` is `Some` when the crash style left frames durable
    /// through that LSN ([`WalCrash::AfterWrite`]).
    Injected {
        seq: u64,
        index: u64,
        persisted_lsn: Option<u64>,
    },
    /// A real I/O failure; the file was restored to the good boundary.
    Real(Error),
}

/// Commit-pipeline state shared by stagers, waiters, and the leader.
struct GroupState {
    /// Frames staged and not yet flushed, in LSN order.
    pending: VecDeque<StagedFrame>,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Next stage sequence number to assign (starts at 1).
    next_seq: u64,
    /// Highest stage seq whose frame is durable *and acknowledged* — the
    /// waiters' release cursor.
    durable_seq: u64,
    /// Highest LSN durable on disk — the floor a failed batch rewinds
    /// `next_lsn` to (+1). Can run ahead of `durable_seq`'s frame when an
    /// injected `AfterWrite` crash makes frames durable but unacked.
    durable_lsn: u64,
    /// A leader is writing a batch (pipeline busy; new frames queue up).
    flushing: bool,
    /// A failed batch is being rolled back: staging is refused and abort
    /// verdicts are withheld until the rollback completes.
    aborting: bool,
    /// Abort verdicts by stage seq, awaiting pickup by their waiters.
    aborted: HashMap<u64, AbortCause>,
    /// How many frames the previous batch carried — the concurrency
    /// signal the adaptive accumulation delay keys off.
    last_batch_frames: usize,
}

/// Callback invoked with the *LSNs* of every frame killed by a failed
/// batch, before any of their waiters are released. `Database` uses it to
/// roll back the victims' still-visible transaction effects.
pub type WalAbortHandler = Arc<dyn Fn(&[u64]) + Send + Sync>;

/// Replication tap: called once per frame — `(lsn, epoch, framed bytes)` —
/// immediately after the batch flush that made the frame durable (frames
/// arrive in LSN order). Must not block: it runs on the group-commit
/// leader thread; a replication hub enqueues into bounded per-follower
/// buffers and drops stalled followers rather than stalling here.
pub type WalFrameSink = Arc<dyn Fn(u64, u64, &[u8]) + Send + Sync>;

/// Durability-quorum gate: called with the highest LSN of a freshly
/// durable batch *before* any of the batch's waiters are released. A
/// synchronous-replication hub blocks here until enough followers have
/// acked the LSN (with a bounded timeout + degradation path — it must
/// never wedge the commit pipeline indefinitely).
pub type WalCommitGate = Arc<dyn Fn(u64) + Send + Sync>;

/// An append-only redo log with group commit.
///
/// Obtained from [`Wal::open`] and attached to a database with
/// `Database::attach_wal`; thereafter every committed transaction's frame
/// is durable (via a shared batch fsync) before its commit returns.
pub struct Wal {
    path: PathBuf,
    state: Mutex<WalFile>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    config: RwLock<WalGroupConfig>,
    abort_handler: RwLock<Option<WalAbortHandler>>,
    crash_hook: RwLock<Option<WalCrashHook>>,
    frame_sink: RwLock<Option<WalFrameSink>>,
    commit_gate: RwLock<Option<WalCommitGate>>,
    /// Replication epoch (highest `Epoch` record seen or appended).
    epoch: AtomicU64,
    frame_seq: AtomicU64,
    poisoned: AtomicBool,
    metrics: RwLock<Option<WalMetrics>>,
    /// Intent markers appended (or found on open) with no matching commit
    /// marker yet, as `(disguise_id, user)`. A checkpoint truncation
    /// re-appends these to the fresh log: the vault-side state they guard
    /// lives outside the snapshot, so recovery must still see them.
    open_intents: Mutex<Vec<(u64, Value)>>,
    /// Policy-run start markers with no matching end marker yet, as
    /// `(policy, now)`. Carried across checkpoint truncation like
    /// `open_intents` so an interrupted tick stays visible to recovery.
    open_policy_runs: Mutex<Vec<(String, i64)>>,
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Wal(format!("{what}: {e}"))
}

impl Wal {
    /// Opens (or creates) the log at `path`, truncating any torn tail and
    /// decoding every complete frame. The returned [`WalScan`] is the
    /// replay input; the `Wal` continues appending after the valid tail.
    pub fn open(path: impl AsRef<Path>) -> Result<(Wal, WalScan)> {
        let path = path.as_ref().to_path_buf();
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read WAL", e)),
        };
        let scan = frame::scan_records(&data);
        if scan.valid_len < data.len() {
            // Torn tail: truncate back to the last complete frame.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err("open WAL for truncation", e))?;
            f.set_len(scan.valid_len as u64)
                .map_err(|e| io_err("truncate WAL", e))?;
            f.sync_all().map_err(|e| io_err("fsync WAL", e))?;
        }
        let torn_bytes = scan.torn_bytes(data.len());
        let mut records = Vec::with_capacity(scan.records.len());
        let mut next_lsn = 1;
        let mut epoch = 0u64;
        let mut open_intents: Vec<(u64, Value)> = Vec::new();
        let mut open_policy_runs: Vec<(String, i64)> = Vec::new();
        for body in &scan.records {
            let (lsn, record) = decode_body(body)?;
            next_lsn = next_lsn.max(lsn + 1);
            match &record {
                WalRecord::DisguiseIntent { disguise_id, user } => {
                    open_intents.push((*disguise_id, user.clone()));
                }
                WalRecord::DisguiseCommit { disguise_id } => {
                    open_intents.retain(|(id, _)| id != disguise_id);
                }
                WalRecord::PolicyRunStart { policy, now } => {
                    open_policy_runs.push((policy.clone(), *now));
                }
                WalRecord::PolicyRunEnd { policy } => {
                    open_policy_runs.retain(|(name, _)| name != policy);
                }
                WalRecord::Epoch { epoch: e } => epoch = epoch.max(*e),
                WalRecord::Txn { .. } => {}
            }
            records.push((lsn, record));
        }
        let wal = Wal {
            path,
            state: Mutex::new(WalFile {
                file: None,
                good_len: scan.valid_len as u64,
            }),
            group: Mutex::new(GroupState {
                pending: VecDeque::new(),
                next_lsn,
                next_seq: 1,
                durable_seq: 0,
                durable_lsn: next_lsn - 1,
                flushing: false,
                aborting: false,
                aborted: HashMap::new(),
                last_batch_frames: 0,
            }),
            group_cv: Condvar::new(),
            config: RwLock::new(WalGroupConfig::default()),
            abort_handler: RwLock::new(None),
            crash_hook: RwLock::new(None),
            frame_sink: RwLock::new(None),
            commit_gate: RwLock::new(None),
            epoch: AtomicU64::new(epoch),
            frame_seq: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            metrics: RwLock::new(None),
            open_intents: Mutex::new(open_intents),
            open_policy_runs: Mutex::new(open_policy_runs),
        };
        Ok((
            wal,
            WalScan {
                records,
                torn_bytes,
            },
        ))
    }

    /// Binds append counters into `registry` (idempotent; get-or-create).
    pub(crate) fn bind_metrics(&self, registry: &MetricsRegistry) {
        *write_unpoisoned(&self.metrics) = Some(WalMetrics {
            frames: registry.counter("edna_wal_frames_total", "WAL frames appended."),
            fsyncs: registry.counter("edna_wal_fsyncs_total", "WAL fsync calls."),
            bytes: registry.counter("edna_wal_bytes_total", "WAL bytes written."),
            group_commits: registry.counter(
                "edna_wal_group_commits_total",
                "Group-commit batch flushes (one fsync each).",
            ),
            group_size: registry.histogram(
                "edna_wal_group_size",
                "Frames per group-commit batch (unit: frames, not µs).",
                &[1, 2, 4, 8, 16, 32, 64, 128],
            ),
            fsyncs_saved: registry.counter(
                "edna_wal_group_fsyncs_saved_total",
                "Fsyncs avoided by batching (batch size - 1, summed).",
            ),
            frames_per_fsync: registry.gauge(
                "edna_wal_frames_per_fsync",
                "Cumulative mean frames per fsync, scaled by 1000.",
            ),
        });
    }

    /// Replaces the group-commit tuning knobs (defaults: flush
    /// immediately, at most 64 frames per batch, no fsync floor).
    pub fn set_group_commit(&self, cfg: WalGroupConfig) {
        *write_unpoisoned(&self.config) = cfg;
    }

    /// Installs (or with `None` removes) the failed-batch abort handler.
    /// It runs on the leader thread of a failed flush, after the file is
    /// restored and before any waiter is released, with the LSNs of every
    /// killed frame.
    pub fn set_abort_handler(&self, handler: Option<WalAbortHandler>) {
        *write_unpoisoned(&self.abort_handler) = handler;
    }

    /// Installs (or with `None` removes) a crash hook, resetting the frame
    /// index to 0 and clearing crash poisoning. The hook is consulted once
    /// per frame at flush time, *before* that frame's write reaches the
    /// file (frames flush in LSN order, so indices follow append order).
    pub fn set_crash_hook(&self, hook: Option<WalCrashHook>) {
        *write_unpoisoned(&self.crash_hook) = hook;
        self.frame_seq.store(0, Ordering::SeqCst);
        self.poisoned.store(false, Ordering::SeqCst);
    }

    /// Frames the installed hook has seen. With a never-firing hook this
    /// counts a workload's appends, giving the sweep bound for exhaustive
    /// crash injection.
    pub fn crash_frame_count(&self) -> u64 {
        self.frame_seq.load(Ordering::SeqCst)
    }

    /// Installs (or with `None` removes) the replication frame sink,
    /// called with `(lsn, epoch, framed bytes)` for every frame as it
    /// becomes durable — including the markers a checkpoint truncation
    /// carries into the fresh log, so a follower's LSN sequence never has
    /// holes. See [`WalFrameSink`] for the non-blocking contract.
    pub fn set_frame_sink(&self, sink: Option<WalFrameSink>) {
        *write_unpoisoned(&self.frame_sink) = sink;
    }

    /// Installs (or with `None` removes) the synchronous-replication
    /// commit gate, called with the highest LSN of each durable batch
    /// before that batch's waiters are released. See [`WalCommitGate`].
    pub fn set_commit_gate(&self, gate: Option<WalCommitGate>) {
        *write_unpoisoned(&self.commit_gate) = gate;
    }

    /// The current replication epoch (0 until a promotion ever happened).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bumps the replication epoch and durably appends the `Epoch` record
    /// (`edna promote`). Returns the new epoch. The atomic is raised
    /// before the append so the record itself — and everything after it —
    /// ships to followers stamped with the new epoch.
    pub fn bump_epoch(&self) -> Result<u64> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.append(&WalRecord::Epoch { epoch })?;
        Ok(epoch)
    }

    /// Follower-side append: writes an already-framed record shipped from
    /// the primary, preserving its original LSN, and fsyncs it before
    /// returning (the follower acks only durable frames). Bypasses the
    /// group-commit pipeline — a replica has exactly one applier thread —
    /// and refuses out-of-sequence LSNs, local staged frames, or an
    /// in-flight flush (a replica must not mix local commits with
    /// shipped ones).
    pub fn append_shipped(&self, lsn: u64, framed: &[u8], record: &WalRecord) -> Result<()> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Error::Wal(
                "log poisoned by a crash or unrestorable append failure; reopen to recover"
                    .to_string(),
            ));
        }
        let mut group = lock_unpoisoned(&self.group);
        if !group.pending.is_empty() || group.flushing || group.aborting {
            return Err(Error::Wal(
                "cannot apply shipped frame: local commit pipeline is active".to_string(),
            ));
        }
        if lsn != group.next_lsn {
            return Err(Error::Wal(format!(
                "shipped frame out of sequence: lsn {lsn}, expected {}",
                group.next_lsn
            )));
        }
        {
            let mut state = lock_unpoisoned(&self.state);
            self.write_raw(&mut state, framed)?;
            self.sync_file(&mut state)?;
            state.good_len += framed.len() as u64;
        }
        group.next_lsn = lsn + 1;
        group.durable_lsn = lsn;
        drop(group);
        match record {
            WalRecord::DisguiseIntent { disguise_id, user } => {
                self.note_marker(&MarkerNote::Intent(*disguise_id, user.clone()));
            }
            WalRecord::DisguiseCommit { disguise_id } => {
                self.note_marker(&MarkerNote::Commit(*disguise_id));
            }
            WalRecord::PolicyRunStart { policy, now } => {
                self.note_marker(&MarkerNote::PolicyStart(policy.clone(), *now));
            }
            WalRecord::PolicyRunEnd { policy } => {
                self.note_marker(&MarkerNote::PolicyEnd(policy.clone()));
            }
            WalRecord::Epoch { epoch } => {
                self.epoch.fetch_max(*epoch, Ordering::SeqCst);
            }
            WalRecord::Txn { .. } => {}
        }
        if let Some(m) = read_unpoisoned(&self.metrics).as_ref() {
            m.frames.inc();
            m.bytes.add(framed.len() as u64);
            m.fsyncs.inc();
        }
        Ok(())
    }

    /// The last LSN assigned to a staged frame (0 if none ever was).
    /// Monotonic across checkpoints: truncation keeps the counter.
    pub fn last_lsn(&self) -> u64 {
        lock_unpoisoned(&self.group).next_lsn - 1
    }

    /// Raises the LSN counter so the next append gets at least
    /// `min_next`. A checkpoint truncates the log file but the snapshot
    /// watermark keeps the old count, so a *reopened* log (which derives
    /// its counter from the — now empty — file) must be bumped past the
    /// watermark or its fresh frames would be skipped as already
    /// checkpointed on the next replay.
    pub fn ensure_next_lsn(&self, min_next: u64) {
        let mut group = lock_unpoisoned(&self.group);
        group.next_lsn = group.next_lsn.max(min_next);
        if group.pending.is_empty() && !group.flushing {
            // Keep the rewind floor in step: a failed batch resets
            // `next_lsn` to `durable_lsn + 1`, which must never fall back
            // below the watermark the caller just raised us past — a
            // reassigned lower LSN would be skipped as already
            // checkpointed on the next replay.
            group.durable_lsn = group.durable_lsn.max(group.next_lsn - 1);
        }
    }

    /// Appends one record as a durably-flushed frame, returning its LSN:
    /// [`Wal::stage`] followed by [`Wal::wait_durable`].
    pub fn append(&self, record: &WalRecord) -> Result<u64> {
        let ticket = self.stage(record)?;
        self.wait_durable(ticket)
    }

    /// Assigns the record an LSN and queues its encoded frame for the
    /// next batch flush. Cheap (no I/O): callers may stage while holding
    /// the engine lock, release it, then [`Wal::wait_durable`] so
    /// concurrent committers share one fsync.
    pub fn stage(&self, record: &WalRecord) -> Result<WalTicket> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Error::Wal(
                "log poisoned by a crash or unrestorable append failure; reopen to recover"
                    .to_string(),
            ));
        }
        let mut group = lock_unpoisoned(&self.group);
        if group.aborting {
            // Refusing (rather than waiting) keeps stagers that hold the
            // engine lock from deadlocking against the abort handler,
            // which needs that lock to roll the failed batch back.
            return Err(Error::Wal(
                "commit pipeline is rolling back a failed batch; retry".to_string(),
            ));
        }
        let seq = group.next_seq;
        group.next_seq += 1;
        let lsn = group.next_lsn;
        group.next_lsn = lsn + 1;
        let bytes = frame::encode_record(&encode_body(lsn, record));
        let note = match record {
            WalRecord::DisguiseIntent { disguise_id, user } => {
                Some(MarkerNote::Intent(*disguise_id, user.clone()))
            }
            WalRecord::DisguiseCommit { disguise_id } => Some(MarkerNote::Commit(*disguise_id)),
            WalRecord::PolicyRunStart { policy, now } => {
                Some(MarkerNote::PolicyStart(policy.clone(), *now))
            }
            WalRecord::PolicyRunEnd { policy } => Some(MarkerNote::PolicyEnd(policy.clone())),
            WalRecord::Txn { .. } | WalRecord::Epoch { .. } => None,
        };
        group.pending.push_back(StagedFrame {
            seq,
            lsn,
            bytes,
            note,
        });
        if group.pending.len() >= read_unpoisoned(&self.config).max_frames {
            // A dawdling leader stops accumulating the moment the batch
            // is full.
            self.group_cv.notify_all();
        }
        Ok(WalTicket { seq, lsn })
    }

    /// Blocks until the staged frame is durable (returning its LSN) or
    /// its batch failed (returning the failure). The first waiter to find
    /// the pipeline free leads the flush for everyone queued behind it.
    ///
    /// On a *real* flush failure (partial write, failed fsync) the file
    /// is truncated back to the last known-good frame boundary before any
    /// waiter is failed, so the next append continues a clean log rather
    /// than writing after torn frame bytes — which would wedge the next
    /// recovery scan at the tear and silently drop every later committed
    /// frame. Only if that restore itself fails is the log poisoned.
    pub fn wait_durable(&self, ticket: WalTicket) -> Result<u64> {
        let mut group = lock_unpoisoned(&self.group);
        loop {
            if !group.aborting {
                // Verdicts are withheld while `aborting`: the abort
                // handler must finish rolling back the victims'
                // still-visible effects before a waiter can observe the
                // failure.
                if let Some(cause) = group.aborted.remove(&ticket.seq) {
                    return Err(cause.into_error());
                }
                if group.durable_seq >= ticket.seq {
                    return Ok(ticket.lsn);
                }
                if !group.flushing {
                    // Our frame is still pending and nobody is flushing:
                    // become the leader.
                    group = self.lead(group, true);
                    continue;
                }
            }
            group = self
                .group_cv
                .wait(group)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Flushes every currently-staged frame, leading batches as needed,
    /// and returns once the pipeline is empty and quiescent. Used by
    /// checkpoints to drain in-flight commits before snapshotting.
    pub fn flush_pending(&self) -> Result<()> {
        let mut group = lock_unpoisoned(&self.group);
        loop {
            if group.flushing || group.aborting {
                group = self
                    .group_cv
                    .wait(group)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if group.pending.is_empty() {
                return Ok(());
            }
            group = self.lead(group, false);
        }
    }

    /// Whether the commit pipeline is empty and quiescent (nothing
    /// staged, no flush in flight, no abort in progress). Only meaningful
    /// while the caller excludes new commits (e.g. holding the engine
    /// lock commits stage under).
    pub fn pipeline_idle(&self) -> bool {
        let group = lock_unpoisoned(&self.group);
        group.pending.is_empty() && !group.flushing && !group.aborting
    }

    /// Becomes the batch leader: optionally waits out the accumulation
    /// window, drains up to `max_frames` staged frames, and flushes them
    /// with one write+fsync. Called with the group lock held; returns
    /// with it reacquired. On failure the whole batch (and everything
    /// staged behind it) is aborted before waiters are woken.
    fn lead<'a>(
        &'a self,
        mut group: MutexGuard<'a, GroupState>,
        honor_delay: bool,
    ) -> MutexGuard<'a, GroupState> {
        let cfg = *read_unpoisoned(&self.config);
        // Adaptive accumulation: only dawdle when there is evidence of
        // concurrency — co-committers already queued, or the previous
        // batch carried more than one frame. A strictly solo committer
        // never waits, so single-threaded latency stays one immediate
        // fsync per commit.
        if honor_delay
            && cfg.max_delay > Duration::ZERO
            && (group.pending.len() > 1 || group.last_batch_frames > 1)
        {
            let deadline = Instant::now() + cfg.max_delay;
            while group.pending.len() < cfg.max_frames {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _timeout) = self
                    .group_cv
                    .wait_timeout(group, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                group = g;
                if group.flushing || group.aborting || group.pending.is_empty() {
                    // The pipeline moved on while we dozed; re-evaluate.
                    return group;
                }
            }
        }
        let n = group.pending.len().min(cfg.max_frames.max(1));
        let batch: Vec<StagedFrame> = group.pending.drain(..n).collect();
        group.flushing = true;
        drop(group);

        let started = Instant::now();
        let result = self.flush_batch(&batch);
        if result.is_ok() && cfg.fsync_floor > Duration::ZERO {
            let elapsed = started.elapsed();
            if elapsed < cfg.fsync_floor {
                std::thread::sleep(cfg.fsync_floor - elapsed);
            }
        }
        if result.is_ok() {
            // Replication: ship the freshly durable frames, then hold the
            // batch at the quorum gate. Both run here — off the group
            // lock, before any waiter can observe `durable_seq` — so in
            // sync mode no commit is acknowledged before enough followers
            // acked it. The gate is bounded (it degrades to async rather
            // than wedging the pipeline).
            let epoch = self.epoch.load(Ordering::SeqCst);
            if let Some(sink) = read_unpoisoned(&self.frame_sink).clone() {
                for f in &batch {
                    sink(f.lsn, epoch, &f.bytes);
                }
            }
            if let Some(gate) = read_unpoisoned(&self.commit_gate).clone() {
                gate(batch.last().expect("batch is non-empty").lsn);
            }
        }

        let mut group = lock_unpoisoned(&self.group);
        group.flushing = false;
        group.last_batch_frames = batch.len();
        match result {
            Ok(bytes) => {
                let last = batch.last().expect("batch is non-empty");
                group.durable_seq = last.seq;
                group.durable_lsn = last.lsn;
                for f in &batch {
                    if let Some(note) = &f.note {
                        self.note_marker(note);
                    }
                }
                self.note_group_flush(batch.len(), bytes);
            }
            Err(failure) => {
                group = self.abort_batch(group, batch, failure);
            }
        }
        self.group_cv.notify_all();
        group
    }

    /// Writes one batch to the file: the crash hook is consulted per
    /// frame (before its write), frames are written in LSN order without
    /// syncing, and one fsync at the end makes the whole batch durable.
    /// Returns the bytes written on success.
    fn flush_batch(&self, batch: &[StagedFrame]) -> std::result::Result<u64, BatchFailure> {
        let mut state = lock_unpoisoned(&self.state);
        let mut written = 0u64;
        for f in batch {
            let crash = {
                let hook = read_unpoisoned(&self.crash_hook);
                hook.as_ref().and_then(|h| {
                    let index = self.frame_seq.fetch_add(1, Ordering::SeqCst);
                    h(index).map(|style| (index, style))
                })
            };
            if let Some((index, style)) = crash {
                self.poisoned.store(true, Ordering::SeqCst);
                return Err(match style {
                    WalCrash::BeforeWrite => {
                        // Nothing of this frame reaches the file, and the
                        // batch's earlier frames were never synced — the
                        // modeled crash loses them; restore the durable
                        // boundary.
                        self.restore_good_len(&mut state);
                        BatchFailure::Injected {
                            seq: f.seq,
                            index,
                            persisted_lsn: None,
                        }
                    }
                    WalCrash::TornWrite => {
                        // Half a frame reaches the file, never synced. A
                        // real crash may persist any prefix; half
                        // exercises both a torn length header and a torn
                        // body across the sweep.
                        let _ = self.write_raw(&mut state, &f.bytes[..f.bytes.len() / 2]);
                        BatchFailure::Injected {
                            seq: f.seq,
                            index,
                            persisted_lsn: None,
                        }
                    }
                    WalCrash::AfterWrite => {
                        // This frame and the batch's earlier frames all
                        // reach disk (one sync); the callers' post-append
                        // work is what dies.
                        match self
                            .write_raw(&mut state, &f.bytes)
                            .and_then(|()| self.sync_file(&mut state))
                        {
                            Ok(()) => {
                                state.good_len += written + f.bytes.len() as u64;
                                BatchFailure::Injected {
                                    seq: f.seq,
                                    index,
                                    persisted_lsn: Some(f.lsn),
                                }
                            }
                            Err(e) => {
                                self.restore_good_len(&mut state);
                                BatchFailure::Real(e)
                            }
                        }
                    }
                });
            }
            if let Err(e) = self.write_raw(&mut state, &f.bytes) {
                // The write failed (ENOSPC, EIO, …): any prefix of the
                // batch could be sitting mid-file. Restore the known-good
                // state before another flush lands after it.
                self.restore_good_len(&mut state);
                return Err(BatchFailure::Real(e));
            }
            written += f.bytes.len() as u64;
        }
        if let Err(e) = self.sync_file(&mut state) {
            // A failed fsync may still have persisted any of the writes;
            // same restore discipline.
            self.restore_good_len(&mut state);
            return Err(BatchFailure::Real(e));
        }
        state.good_len += written;
        Ok(written)
    }

    /// Fails every waiter of a dead batch (and everything staged behind
    /// it), rewinds the LSN counter to just past the durable tail, and
    /// runs the abort handler so the victims' still-visible effects are
    /// rolled back *before* any waiter observes the failure. Called with
    /// the group lock held; returns with it reacquired.
    fn abort_batch<'a>(
        &'a self,
        mut group: MutexGuard<'a, GroupState>,
        batch: Vec<StagedFrame>,
        failure: BatchFailure,
    ) -> MutexGuard<'a, GroupState> {
        group.aborting = true;
        let (crashed, msg) = match &failure {
            BatchFailure::Injected {
                seq,
                index,
                persisted_lsn,
            } => {
                if let Some(lsn) = persisted_lsn {
                    // AfterWrite left frames durable (but unacked): the
                    // rewind floor must not hand their LSNs out again.
                    group.durable_lsn = group.durable_lsn.max(*lsn);
                }
                (
                    Some(*seq),
                    format!("group commit batch killed by injected crash (frame {index})"),
                )
            }
            BatchFailure::Real(e) => (None, e.to_string()),
        };
        let mut victim_lsns = Vec::with_capacity(batch.len() + group.pending.len());
        for f in batch {
            let cause = match &failure {
                BatchFailure::Injected { index, .. } if crashed == Some(f.seq) => {
                    AbortCause::Injected(*index)
                }
                _ => AbortCause::Failed(msg.clone()),
            };
            group.aborted.insert(f.seq, cause);
            victim_lsns.push(f.lsn);
        }
        // Frames staged behind the failed batch would otherwise become
        // durable above a hole in the LSN sequence; cascade the abort.
        let trailing: Vec<StagedFrame> = group.pending.drain(..).collect();
        for f in trailing {
            group.aborted.insert(f.seq, AbortCause::Failed(msg.clone()));
            victim_lsns.push(f.lsn);
        }
        group.next_lsn = group.durable_lsn + 1;
        // No wakeup yet: waiters refuse verdicts until `aborting` clears,
        // which happens only after the handler has rolled the victims'
        // still-visible effects back.
        drop(group);
        let handler = read_unpoisoned(&self.abort_handler).clone();
        if let Some(h) = handler {
            h(&victim_lsns);
        }
        let mut group = lock_unpoisoned(&self.group);
        group.aborting = false;
        group
    }

    /// Tracks intent/commit markers when their frames reach disk so a
    /// checkpoint can carry still-open intents into the fresh log.
    fn note_marker(&self, note: &MarkerNote) {
        match note {
            MarkerNote::Intent(disguise_id, user) => {
                lock_unpoisoned(&self.open_intents).push((*disguise_id, user.clone()));
            }
            MarkerNote::Commit(disguise_id) => {
                lock_unpoisoned(&self.open_intents).retain(|(id, _)| id != disguise_id);
            }
            MarkerNote::PolicyStart(policy, now) => {
                lock_unpoisoned(&self.open_policy_runs).push((policy.clone(), *now));
            }
            MarkerNote::PolicyEnd(policy) => {
                lock_unpoisoned(&self.open_policy_runs).retain(|(name, _)| name != policy);
            }
        }
    }

    /// Feeds the metrics for one successful batch flush.
    fn note_group_flush(&self, frames: usize, bytes: u64) {
        if let Some(m) = read_unpoisoned(&self.metrics).as_ref() {
            m.frames.add(frames as u64);
            m.bytes.add(bytes);
            m.fsyncs.inc();
            m.group_commits.inc();
            m.group_size.observe_micros(frames as u64);
            m.fsyncs_saved.add(frames.saturating_sub(1) as u64);
            let fsyncs = m.fsyncs.get().max(1);
            m.frames_per_fsync
                .set(((m.frames.get().saturating_mul(1000)) / fsyncs) as i64);
        }
    }

    /// Truncates the file back to the last known-good frame boundary
    /// after a failed flush, fsyncing the truncation. If the restore
    /// itself cannot be made durable the log is poisoned instead: callers
    /// must reopen (which re-runs torn-tail truncation) before writing
    /// again.
    fn restore_good_len(&self, state: &mut WalFile) {
        // Drop the append handle; its offset may sit past the tear.
        state.file = None;
        let restore = || -> std::io::Result<()> {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            f.set_len(state.good_len)?;
            f.sync_all()?;
            Ok(())
        };
        if restore().is_err() {
            self.poisoned.store(true, Ordering::SeqCst);
        }
    }

    /// Appends `bytes` to the file (no sync), opening it lazily.
    fn write_raw(&self, state: &mut WalFile, bytes: &[u8]) -> Result<()> {
        if state.file.is_none() {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .map_err(|e| io_err("open WAL for append", e))?;
            state.file = Some(f);
        }
        let f = state.file.as_mut().expect("just opened");
        f.write_all(bytes).map_err(|e| io_err("append WAL", e))
    }

    /// Fsyncs the append handle (no-op metrics; callers account flushes).
    fn sync_file(&self, state: &mut WalFile) -> Result<()> {
        if let Some(f) = state.file.as_mut() {
            f.sync_all().map_err(|e| io_err("fsync WAL", e))?;
        }
        Ok(())
    }

    /// Truncates the log to empty (checkpoint: the snapshot now contains
    /// every Txn frame). LSNs keep counting from where they were. Any
    /// staged-but-unflushed frames are flushed (and their waiters acked)
    /// first, and the group lock is held across the file reset so no new
    /// frame can land mid-truncation.
    ///
    /// Disguise intent markers still unmatched by a commit marker are
    /// re-appended to the fresh log (with new LSNs): they guard vault-side
    /// state that lives *outside* the snapshot, so erasing them would hide
    /// a half-applied disguise's orphaned vault entry from the next
    /// recovery.
    pub fn truncate(&self) -> Result<()> {
        let mut group = lock_unpoisoned(&self.group);
        loop {
            if group.flushing || group.aborting {
                group = self
                    .group_cv
                    .wait(group)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if group.pending.is_empty() {
                break;
            }
            group = self.lead(group, false);
        }
        let mut state = lock_unpoisoned(&self.state);
        // Reopen from scratch so the append offset resets with the file.
        state.file = None;
        let f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)
            .map_err(|e| io_err("open WAL for truncation", e))?;
        f.sync_all().map_err(|e| io_err("fsync WAL", e))?;
        drop(f);
        state.good_len = 0;
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut carry: Vec<WalRecord> = Vec::new();
        // A non-zero epoch must survive the truncation: the snapshot does
        // not record it, so the fresh log re-asserts it first.
        if epoch > 0 {
            carry.push(WalRecord::Epoch { epoch });
        }
        carry.extend(
            lock_unpoisoned(&self.open_intents)
                .clone()
                .into_iter()
                .map(|(disguise_id, user)| WalRecord::DisguiseIntent { disguise_id, user }),
        );
        carry.extend(
            lock_unpoisoned(&self.open_policy_runs)
                .iter()
                .map(|(policy, now)| WalRecord::PolicyRunStart {
                    policy: policy.clone(),
                    now: *now,
                }),
        );
        let sink = read_unpoisoned(&self.frame_sink).clone();
        for record in carry {
            let lsn = group.next_lsn;
            let body = encode_body(lsn, &record);
            let framed = frame::encode_record(&body);
            self.write_raw(&mut state, &framed)?;
            self.sync_file(&mut state)?;
            state.good_len += framed.len() as u64;
            group.next_lsn = lsn + 1;
            // Ship carried markers too: a follower replays them as no-ops
            // but must see every LSN, or its sequence check would reject
            // the first post-checkpoint frame.
            if let Some(sink) = &sink {
                sink(lsn, epoch, &framed);
            }
            if let Some(m) = read_unpoisoned(&self.metrics).as_ref() {
                m.frames.inc();
                m.bytes.add(framed.len() as u64);
                m.fsyncs.inc();
            }
        }
        group.durable_lsn = group.next_lsn - 1;
        Ok(())
    }

    /// The log file's current size in bytes.
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }
}

// ---- record encoding --------------------------------------------------------

const KIND_TXN: u8 = 0;
const KIND_INTENT: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_POLICY_START: u8 = 3;
const KIND_POLICY_END: u8 = 4;
const KIND_EPOCH: u8 = 5;

fn encode_body(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(lsn);
    match record {
        WalRecord::Txn { ops } => {
            w.u8(KIND_TXN);
            w.u32(ops.len() as u32);
            for op in ops {
                encode_op(&mut w, op);
            }
        }
        WalRecord::DisguiseIntent { disguise_id, user } => {
            w.u8(KIND_INTENT);
            w.u64(*disguise_id);
            w.value(user);
        }
        WalRecord::DisguiseCommit { disguise_id } => {
            w.u8(KIND_COMMIT);
            w.u64(*disguise_id);
        }
        WalRecord::PolicyRunStart { policy, now } => {
            w.u8(KIND_POLICY_START);
            w.string(policy);
            w.i64(*now);
        }
        WalRecord::PolicyRunEnd { policy } => {
            w.u8(KIND_POLICY_END);
            w.string(policy);
        }
        WalRecord::Epoch { epoch } => {
            w.u8(KIND_EPOCH);
            w.u64(*epoch);
        }
    }
    w.buf
}

fn encode_op(w: &mut Writer, op: &RedoOp) {
    match op {
        RedoOp::Insert { table, row_id, row } => {
            w.u8(0);
            w.string(table);
            w.u64(*row_id as u64);
            w.u32(row.len() as u32);
            for v in row {
                w.value(v);
            }
        }
        RedoOp::Update { table, row_id, row } => {
            w.u8(1);
            w.string(table);
            w.u64(*row_id as u64);
            w.u32(row.len() as u32);
            for v in row {
                w.value(v);
            }
        }
        RedoOp::Delete { table, row_id } => {
            w.u8(2);
            w.string(table);
            w.u64(*row_id as u64);
        }
        RedoOp::CreateTable { image } => {
            w.u8(3);
            image.encode(w);
        }
        RedoOp::DropTable { name } => {
            w.u8(4);
            w.string(name);
        }
        RedoOp::AlterTable { name, image } => {
            w.u8(5);
            w.string(name);
            image.encode(w);
        }
        RedoOp::CreateIndex {
            table,
            name,
            column,
            unique,
        } => {
            w.u8(6);
            w.string(table);
            w.string(name);
            w.string(column);
            w.u8(u8::from(*unique));
        }
        RedoOp::SetNextAuto { table, value } => {
            w.u8(7);
            w.string(table);
            w.i64(*value);
        }
        RedoOp::SetNow { now } => {
            w.u8(8);
            w.i64(*now);
        }
    }
}

/// Decodes one frame *body* (the checksummed frame's payload: LSN +
/// record) as shipped over a replication stream. The inverse of what
/// [`Wal::stage`] frames.
pub fn decode_frame_body(body: &[u8]) -> Result<(u64, WalRecord)> {
    decode_body(body)
}

fn decode_body(body: &[u8]) -> Result<(u64, WalRecord)> {
    let mut r = Reader::new(body);
    let bad = |m: &str| Error::Wal(format!("corrupt WAL record: {m}"));
    let lsn = r.u64().map_err(|e| bad(&e.to_string()))?;
    let kind = r.u8().map_err(|e| bad(&e.to_string()))?;
    let record = match kind {
        KIND_TXN => {
            let n = r.u32().map_err(|e| bad(&e.to_string()))? as usize;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(decode_op(&mut r).map_err(|e| bad(&e.to_string()))?);
            }
            WalRecord::Txn { ops }
        }
        KIND_INTENT => WalRecord::DisguiseIntent {
            disguise_id: r.u64().map_err(|e| bad(&e.to_string()))?,
            user: r.value().map_err(|e| bad(&e.to_string()))?,
        },
        KIND_COMMIT => WalRecord::DisguiseCommit {
            disguise_id: r.u64().map_err(|e| bad(&e.to_string()))?,
        },
        KIND_POLICY_START => WalRecord::PolicyRunStart {
            policy: r.string().map_err(|e| bad(&e.to_string()))?,
            now: r.i64().map_err(|e| bad(&e.to_string()))?,
        },
        KIND_POLICY_END => WalRecord::PolicyRunEnd {
            policy: r.string().map_err(|e| bad(&e.to_string()))?,
        },
        KIND_EPOCH => WalRecord::Epoch {
            epoch: r.u64().map_err(|e| bad(&e.to_string()))?,
        },
        k => return Err(bad(&format!("unknown record kind {k}"))),
    };
    if r.remaining() != 0 {
        return Err(bad("trailing bytes"));
    }
    Ok((lsn, record))
}

fn decode_op(r: &mut Reader<'_>) -> Result<RedoOp> {
    Ok(match r.u8()? {
        0 => {
            let table = r.string()?;
            let row_id = r.u64()? as RowId;
            let n = r.u32()? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(r.value()?);
            }
            RedoOp::Insert { table, row_id, row }
        }
        1 => {
            let table = r.string()?;
            let row_id = r.u64()? as RowId;
            let n = r.u32()? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(r.value()?);
            }
            RedoOp::Update { table, row_id, row }
        }
        2 => RedoOp::Delete {
            table: r.string()?,
            row_id: r.u64()? as RowId,
        },
        3 => RedoOp::CreateTable {
            image: snapshot::decode_table(r, 3)?,
        },
        4 => RedoOp::DropTable { name: r.string()? },
        5 => RedoOp::AlterTable {
            name: r.string()?,
            image: snapshot::decode_table(r, 3)?,
        },
        6 => RedoOp::CreateIndex {
            table: r.string()?,
            name: r.string()?,
            column: r.string()?,
            unique: r.u8()? != 0,
        },
        7 => RedoOp::SetNextAuto {
            table: r.string()?,
            value: r.i64()?,
        },
        8 => RedoOp::SetNow { now: r.i64()? },
        t => return Err(Error::Wal(format!("unknown redo op tag {t}"))),
    })
}

// ---- undo → redo conversion -------------------------------------------------

/// Converts a committing transaction's undo log into redo operations.
///
/// The undo log records, per operation, how to restore the *previous*
/// state; redo needs the *resulting* state. Walking the log in reverse
/// recovers each operation's after-image: the state just after op `i` is
/// whatever the nearest later op recorded as its before-image — or the
/// live (committed) state if no later op touched that row/table. The
/// emitted list is then reversed back into application order.
///
/// Redo ops are replayed physically, so interleavings that reuse a
/// row slot or table name within one transaction (insert-then-delete,
/// drop-then-recreate) are safe: each op *sets* state, and replay
/// tolerates overwriting an occupied slot.
pub(crate) fn redo_from_txn(inner: &Inner, txn: &Txn) -> Result<Vec<RedoOp>> {
    // After-images discovered so far while walking backwards. Keys are
    // lowercase table names; a `None` image means "absent at that point".
    let mut row_after: HashMap<(String, RowId), Option<Row>> = HashMap::new();
    let mut table_after: HashMap<String, Option<TableSnapshot>> = HashMap::new();
    let mut auto_after: HashMap<String, i64> = HashMap::new();
    let mut rev = Vec::with_capacity(txn.undo.len());

    // The image of `table`.`id` just after the op being visited.
    let row_at = |row_after: &HashMap<(String, RowId), Option<Row>>,
                  table_after: &HashMap<String, Option<TableSnapshot>>,
                  key: &str,
                  id: RowId|
     -> Option<Row> {
        if let Some(img) = row_after.get(&(key.to_string(), id)) {
            return img.clone();
        }
        if let Some(timg) = table_after.get(key) {
            return timg.as_ref().and_then(|t| {
                t.rows
                    .iter()
                    .find(|(rid, _)| *rid == id)
                    .map(|(_, r)| r.clone())
            });
        }
        inner.tables.get(key).and_then(|t| t.get(id)).cloned()
    };
    // The image of `table` just after the op being visited.
    let table_at = |table_after: &HashMap<String, Option<TableSnapshot>>,
                    key: &str|
     -> Option<TableSnapshot> {
        if let Some(img) = table_after.get(key) {
            return img.clone();
        }
        inner.tables.get(key).map(TableSnapshot::of)
    };

    for op in txn.undo.iter().rev() {
        match op {
            UndoOp::Inserted { table, row_id } => {
                let key = table.to_lowercase();
                let row = row_at(&row_after, &table_after, &key, *row_id)
                    .ok_or_else(|| Error::Wal(format!("no after-image for insert into {table}")))?;
                rev.push(RedoOp::Insert {
                    table: key.clone(),
                    row_id: *row_id,
                    row,
                });
                row_after.insert((key, *row_id), None);
            }
            UndoOp::Updated {
                table,
                row_id,
                old_row,
            } => {
                let key = table.to_lowercase();
                let row = row_at(&row_after, &table_after, &key, *row_id)
                    .ok_or_else(|| Error::Wal(format!("no after-image for update of {table}")))?;
                rev.push(RedoOp::Update {
                    table: key.clone(),
                    row_id: *row_id,
                    row,
                });
                row_after.insert((key, *row_id), Some(old_row.clone()));
            }
            UndoOp::Deleted { table, row_id, row } => {
                let key = table.to_lowercase();
                rev.push(RedoOp::Delete {
                    table: key.clone(),
                    row_id: *row_id,
                });
                row_after.insert((key, *row_id), Some(row.clone()));
            }
            UndoOp::CreatedTable { name } => {
                let key = name.to_lowercase();
                let image = table_at(&table_after, &key).ok_or_else(|| {
                    Error::Wal(format!("no after-image for created table {name}"))
                })?;
                rev.push(RedoOp::CreateTable { image });
                table_after.insert(key, None);
            }
            UndoOp::DroppedTable { name, table } => {
                let key = name.to_lowercase();
                rev.push(RedoOp::DropTable { name: key.clone() });
                table_after.insert(key, Some(TableSnapshot::of(table)));
            }
            UndoOp::AlteredTable { name, table } => {
                let key = name.to_lowercase();
                let image = table_at(&table_after, &key).ok_or_else(|| {
                    Error::Wal(format!("no after-image for altered table {name}"))
                })?;
                rev.push(RedoOp::AlterTable {
                    name: key.clone(),
                    image,
                });
                table_after.insert(key, Some(TableSnapshot::of(table)));
            }
            UndoOp::CreatedIndex { table, index } => {
                let key = table.to_lowercase();
                let timg = table_at(&table_after, &key).ok_or_else(|| {
                    Error::Wal(format!("no table image for index {index} on {table}"))
                })?;
                // The index definition as it existed just after creation.
                let full = inner.tables.get(&key);
                let (column, unique) = timg
                    .indexes
                    .iter()
                    .find(|(n, _, _)| n.eq_ignore_ascii_case(index))
                    .map(|(_, c, u)| (c.clone(), *u))
                    .or_else(|| {
                        full.and_then(|t| {
                            t.indexes
                                .iter()
                                .find(|ix| ix.name.eq_ignore_ascii_case(index))
                                .map(|ix| (t.schema.columns[ix.column].name.clone(), ix.unique))
                        })
                    })
                    .ok_or_else(|| {
                        Error::Wal(format!("created index {index} not found on {table}"))
                    })?;
                rev.push(RedoOp::CreateIndex {
                    table: key,
                    name: index.clone(),
                    column,
                    unique,
                });
            }
            UndoOp::AutoIncrement { table, old_value } => {
                let key = table.to_lowercase();
                let value = auto_after
                    .get(&key)
                    .copied()
                    .or_else(|| {
                        table_after
                            .get(&key)
                            .and_then(|t| t.as_ref().map(|t| t.next_auto))
                    })
                    .or_else(|| inner.tables.get(&key).map(|t| t.next_auto))
                    .ok_or_else(|| {
                        Error::Wal(format!("no after-image for auto-increment of {table}"))
                    })?;
                rev.push(RedoOp::SetNextAuto {
                    table: key.clone(),
                    value,
                });
                auto_after.insert(key, *old_value);
            }
        }
    }
    rev.reverse();
    Ok(rev)
}

// ---- replay -----------------------------------------------------------------

/// Applies one redo op to engine state, physically and idempotently: ops
/// *set* state, so replaying a frame whose effects are already present
/// (snapshot taken mid-append, double recovery) converges to the same
/// result. No constraints are re-checked — the ops describe a state that
/// passed them when it committed.
pub(crate) fn apply_op(inner: &mut Inner, op: &RedoOp) -> Result<()> {
    match op {
        RedoOp::Insert { table, row_id, row } | RedoOp::Update { table, row_id, row } => {
            let t = inner
                .tables
                .get_mut(table)
                .ok_or_else(|| Error::Wal(format!("replay into missing table {table}")))?;
            if t.get(*row_id).is_some() {
                t.replace(*row_id, row.clone());
            } else {
                t.restore_at(*row_id, row.clone());
            }
        }
        RedoOp::Delete { table, row_id } => {
            if let Some(t) = inner.tables.get_mut(table) {
                t.remove(*row_id);
            }
        }
        RedoOp::CreateTable { image } => {
            let key = image.schema.name.to_lowercase();
            let table = image.clone().into_table()?;
            if inner.tables.insert(key.clone(), table).is_none() {
                inner.table_order.push(key);
            }
        }
        RedoOp::DropTable { name } => {
            let key = name.to_lowercase();
            inner.tables.remove(&key);
            inner.table_order.retain(|k| k != &key);
        }
        RedoOp::AlterTable { name, image } => {
            let old_key = name.to_lowercase();
            let new_key = image.schema.name.to_lowercase();
            let table = image.clone().into_table()?;
            inner.tables.remove(&old_key);
            if inner.tables.insert(new_key.clone(), table).is_none() {
                match inner.table_order.iter().position(|k| k == &old_key) {
                    Some(pos) => inner.table_order[pos] = new_key,
                    None => inner.table_order.push(new_key),
                }
            }
        }
        RedoOp::CreateIndex {
            table,
            name,
            column,
            unique,
        } => {
            let t = inner
                .tables
                .get_mut(table)
                .ok_or_else(|| Error::Wal(format!("replay index onto missing table {table}")))?;
            let already = t
                .indexes
                .iter()
                .any(|ix| ix.name.eq_ignore_ascii_case(name));
            if !already {
                let pos = t.schema.require_column(column)?;
                t.add_index(name.clone(), pos, *unique)?;
            }
        }
        RedoOp::SetNextAuto { table, value } => {
            if let Some(t) = inner.tables.get_mut(table) {
                t.next_auto = *value;
            }
        }
        RedoOp::SetNow { now } => {
            inner.now = *now;
        }
    }
    Ok(())
}

/// The outcome of replaying a scanned log over a snapshot.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Txn frames whose LSN exceeded the snapshot watermark and were
    /// applied.
    pub frames_replayed: usize,
    /// Intent markers with no matching commit marker, in log order.
    pub open_intents: Vec<OpenIntent>,
    /// Policy-run start markers with no matching end marker, in log
    /// order.
    pub open_policy_runs: Vec<OpenPolicyRun>,
}

/// A report of one recovery pass (what `Workspace::open` and the
/// `edna recover` subcommand surface).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Complete frames found in the log.
    pub frames_scanned: usize,
    /// Txn frames replayed over the snapshot.
    pub frames_replayed: usize,
    /// Torn-tail bytes truncated off the log.
    pub torn_bytes: usize,
    /// The snapshot's checkpoint watermark (frames at or below it were
    /// skipped).
    pub snapshot_watermark: u64,
    /// The highest LSN in the log (equals the watermark when no replay
    /// was needed; 0 for an empty log).
    pub last_lsn: u64,
    /// Disguise intents with no matching commit marker; `edna-core`
    /// resolves each to "completed" or "undone".
    pub open_intents: Vec<OpenIntent>,
    /// Policy runs interrupted mid-tick. Benign by construction (the
    /// scheduler re-fires and resumes them), surfaced so operators can
    /// see what the crash cut short.
    pub open_policy_runs: Vec<OpenPolicyRun>,
    /// Whether a complete snapshot temp file was promoted to
    /// authoritative (crash between temp fsync and rename). Set by the
    /// caller that owns snapshot file management, not by `open_durable`.
    pub snapshot_promoted: bool,
    /// Wall-clock time recovery took.
    pub duration: Duration,
}

impl RecoveryReport {
    /// Whether recovery changed (or found suspect) anything at all.
    pub fn acted(&self) -> bool {
        self.frames_replayed > 0
            || self.torn_bytes > 0
            || !self.open_intents.is_empty()
            || self.snapshot_promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("edna_wal_{}_{name}", std::process::id()))
    }

    #[test]
    fn record_round_trip() {
        let ops = vec![
            RedoOp::Insert {
                table: "t".into(),
                row_id: 3,
                row: vec![Value::Int(1), Value::Text("x".into())],
            },
            RedoOp::Delete {
                table: "t".into(),
                row_id: 0,
            },
            RedoOp::SetNextAuto {
                table: "t".into(),
                value: 9,
            },
            RedoOp::SetNow { now: -5 },
        ];
        let body = encode_body(7, &WalRecord::Txn { ops });
        let (lsn, rec) = decode_body(&body).unwrap();
        assert_eq!(lsn, 7);
        let WalRecord::Txn { ops } = rec else {
            panic!("wrong kind")
        };
        assert_eq!(ops.len(), 4);
        assert!(matches!(&ops[0], RedoOp::Insert { table, row_id: 3, row }
            if table == "t" && row.len() == 2));

        let body = encode_body(
            8,
            &WalRecord::DisguiseIntent {
                disguise_id: 12,
                user: Value::Int(42),
            },
        );
        let (lsn, rec) = decode_body(&body).unwrap();
        assert_eq!(lsn, 8);
        assert!(
            matches!(rec, WalRecord::DisguiseIntent { disguise_id: 12, user }
            if user == Value::Int(42))
        );
    }

    #[test]
    fn append_scan_and_torn_tail_truncation() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, scan) = Wal::open(&path).unwrap();
            assert!(scan.records.is_empty());
            wal.append(&WalRecord::DisguiseCommit { disguise_id: 1 })
                .unwrap();
            wal.append(&WalRecord::DisguiseCommit { disguise_id: 2 })
                .unwrap();
            assert_eq!(wal.last_lsn(), 2);
        }
        // Tear the tail by appending garbage.
        let mut data = std::fs::read(&path).unwrap();
        let full = data.len();
        data.extend_from_slice(&[0xAB; 9]);
        std::fs::write(&path, &data).unwrap();
        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 9);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full as u64);
        // LSNs continue past the recovered tail.
        let lsn = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 3 })
            .unwrap();
        assert_eq!(lsn, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_hook_styles_and_poisoning() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 1 })
            .unwrap();
        let base = std::fs::metadata(&path).unwrap().len();

        // BeforeWrite: nothing reaches the file; the log is poisoned.
        wal.set_crash_hook(Some(Arc::new(|i| {
            (i == 0).then_some(WalCrash::BeforeWrite)
        })));
        let err = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap_err();
        assert_eq!(err, Error::FaultInjected(0));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), base);
        assert!(matches!(
            wal.append(&WalRecord::DisguiseCommit { disguise_id: 2 }),
            Err(Error::Wal(_))
        ));

        // TornWrite: a partial frame lands; reopen truncates it away.
        wal.set_crash_hook(Some(Arc::new(|i| (i == 0).then_some(WalCrash::TornWrite))));
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap_err();
        assert!(std::fs::metadata(&path).unwrap().len() > base);
        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);

        // AfterWrite: the frame is durable; only the caller's follow-up dies.
        wal.set_crash_hook(Some(Arc::new(|i| (i == 0).then_some(WalCrash::AfterWrite))));
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap_err();
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_append_restores_known_good_state() {
        let path = tmp("real_fail");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 1 })
            .unwrap();
        let good = std::fs::metadata(&path).unwrap().len();

        // Simulate partially-persisted frame bytes from a failed append
        // (e.g. an fsync that failed after its writes reached the file):
        // garbage past the good boundary, then a write error on the next
        // append, injected by swapping in a read-only handle.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xEE; 7]).unwrap();
        }
        lock_unpoisoned(&wal.state).file = Some(std::fs::File::open(&path).unwrap());
        let err = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap_err();
        assert!(matches!(err, Error::Wal(_)), "got: {err:?}");

        // The restore truncated back to the last good frame: no torn
        // bytes remain, the log is NOT poisoned, and the next append
        // succeeds with the same LSN the failed one would have used.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        let lsn = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap();
        assert_eq!(lsn, 2);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "both frames intact after reopen");
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_carries_open_intents() {
        let path = tmp("carry_intents");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::DisguiseIntent {
            disguise_id: 7,
            user: Value::Int(1),
        })
        .unwrap();
        wal.append(&WalRecord::DisguiseIntent {
            disguise_id: 8,
            user: Value::Int(2),
        })
        .unwrap();
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 8 })
            .unwrap();
        wal.append(&WalRecord::Txn { ops: Vec::new() }).unwrap();
        wal.truncate().unwrap();
        // The still-open intent (7) survives the checkpoint, re-appended
        // with a fresh LSN; the matched pair (8) and the Txn frame do not.
        let (wal2, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        let (lsn, rec) = &scan.records[0];
        assert!(*lsn > 4, "re-appended intent keeps counting LSNs");
        assert!(
            matches!(rec, WalRecord::DisguiseIntent { disguise_id: 7, user }
            if *user == Value::Int(1))
        );
        // Committing it (e.g. recovery resolving the intent) then
        // checkpointing empties the log for good.
        wal2.append(&WalRecord::DisguiseCommit { disguise_id: 7 })
            .unwrap();
        wal2.truncate().unwrap();
        assert_eq!(wal2.size_bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn solo_append_flushes_immediately_with_one_fsync() {
        let path = tmp("solo_fsync");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        let registry = MetricsRegistry::new();
        wal.bind_metrics(&registry);
        // Under the default group config a solo committer must not wait
        // for co-committers: one append = one immediate fsync, and the
        // frame is on disk before the call returns.
        let lsn = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 1 })
            .unwrap();
        assert_eq!(lsn, 1);
        let frames = registry.counter("edna_wal_frames_total", "").get();
        let fsyncs = registry.counter("edna_wal_fsyncs_total", "").get();
        assert_eq!(frames, 1);
        assert_eq!(fsyncs, 1, "solo commit fsyncs before returning");
        // Durable without any explicit flush/close: a fresh scan sees it.
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let path = tmp("group_batch");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        let registry = MetricsRegistry::new();
        wal.bind_metrics(&registry);
        // A generous accumulation window guarantees the concurrent
        // appends below share batches regardless of scheduling.
        wal.set_group_commit(WalGroupConfig {
            max_frames: 8,
            max_delay: Duration::from_millis(250),
            fsync_floor: Duration::ZERO,
        });
        const N: u64 = 8;
        let mut lsns: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|i| {
                    let wal = &wal;
                    s.spawn(move || {
                        wal.append(&WalRecord::DisguiseCommit { disguise_id: i })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        lsns.sort_unstable();
        assert_eq!(
            lsns,
            (1..=N).collect::<Vec<_>>(),
            "distinct contiguous LSNs"
        );
        let frames = registry.counter("edna_wal_frames_total", "").get();
        let fsyncs = registry.counter("edna_wal_fsyncs_total", "").get();
        let saved = registry
            .counter("edna_wal_group_fsyncs_saved_total", "")
            .get();
        assert_eq!(frames, N);
        assert!(
            fsyncs < N,
            "{N} concurrent appends must share fsyncs, got {fsyncs}"
        );
        assert_eq!(saved, N - fsyncs, "every saved fsync is accounted");
        // Every acked frame is durable and well-formed.
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), N as usize);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_batch_flush_fails_every_waiter_and_restores() {
        let path = tmp("batch_fail");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 1 })
            .unwrap();
        let good = std::fs::metadata(&path).unwrap().len();

        // Stage a whole batch, then make the file handle unwritable so
        // the flush dies with a real I/O error.
        let t1 = wal
            .stage(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap();
        let t2 = wal
            .stage(&WalRecord::DisguiseCommit { disguise_id: 3 })
            .unwrap();
        let t3 = wal.stage(&WalRecord::Txn { ops: Vec::new() }).unwrap();
        assert_eq!((t1.lsn, t2.lsn, t3.lsn), (2, 3, 4));
        lock_unpoisoned(&wal.state).file = Some(std::fs::File::open(&path).unwrap());
        wal.flush_pending().unwrap();
        // Every waiter in the dead batch fails; none hang.
        for t in [t1, t2, t3] {
            assert!(matches!(wal.wait_durable(t), Err(Error::Wal(_))));
        }
        // File restored to the durable boundary, log not poisoned, and
        // the LSN counter rewound: the retry reuses LSN 2.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        let lsn = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap();
        assert_eq!(lsn, 2);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn policy_run_markers_round_trip_and_carry_across_truncation() {
        // Encode/decode of the new marker kinds.
        let body = encode_body(
            5,
            &WalRecord::PolicyRunStart {
                policy: "aging".into(),
                now: 1_234,
            },
        );
        let (lsn, rec) = decode_body(&body).unwrap();
        assert_eq!(lsn, 5);
        assert!(
            matches!(rec, WalRecord::PolicyRunStart { ref policy, now: 1_234 }
            if policy == "aging")
        );
        let body = encode_body(
            6,
            &WalRecord::PolicyRunEnd {
                policy: "aging".into(),
            },
        );
        let (_, rec) = decode_body(&body).unwrap();
        assert!(matches!(rec, WalRecord::PolicyRunEnd { ref policy } if policy == "aging"));

        let path = tmp("policy_markers");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, _) = Wal::open(&path).unwrap();
            // A completed run: start matched by end — not open.
            wal.append(&WalRecord::PolicyRunStart {
                policy: "done".into(),
                now: 10,
            })
            .unwrap();
            wal.append(&WalRecord::PolicyRunEnd {
                policy: "done".into(),
            })
            .unwrap();
            // An interrupted run: start with no end — open.
            wal.append(&WalRecord::PolicyRunStart {
                policy: "cut".into(),
                now: 20,
            })
            .unwrap();
        }
        // A fresh scan rebuilds the open set: only the unmatched start.
        let (wal, _) = Wal::open(&path).unwrap();
        assert_eq!(
            *lock_unpoisoned(&wal.open_policy_runs),
            vec![("cut".to_string(), 20)]
        );
        // Checkpoint truncation must carry the open marker, exactly like
        // an open disguise intent: a crash after the checkpoint still
        // knows the run was in flight.
        wal.truncate().unwrap();
        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "carried start marker survives");
        assert_eq!(
            *lock_unpoisoned(&wal.open_policy_runs),
            vec![("cut".to_string(), 20)]
        );
        // The resumed run's end marker closes it; the next checkpoint
        // drops the bracket entirely.
        wal.append(&WalRecord::PolicyRunEnd {
            policy: "cut".into(),
        })
        .unwrap();
        assert!(lock_unpoisoned(&wal.open_policy_runs).is_empty());
        wal.truncate().unwrap();
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(scan.records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_keeps_lsn_counter() {
        let path = tmp("truncate");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::DisguiseCommit { disguise_id: 1 })
            .unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.size_bytes(), 0);
        let lsn = wal
            .append(&WalRecord::DisguiseCommit { disguise_id: 2 })
            .unwrap();
        assert_eq!(lsn, 2, "LSNs must not reset at checkpoint");
        std::fs::remove_file(&path).unwrap();
    }
}
