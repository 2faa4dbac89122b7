//! The public database handle.
//!
//! [`Database`] is cheaply cloneable (`Arc` inside) and thread-safe. Two
//! locks order all access:
//!
//! - the **state lock**, a [`std::sync::RwLock`] over the tables, held
//!   per statement: reads (SELECTs and typed row reads) share it and run
//!   concurrently, writes take it exclusively;
//! - the **gate**, an `RwLock<()>` held per transaction: a
//!   [`Database::transaction`] takes it exclusively for its whole run (the
//!   paper's prototype applies each disguise in one large SQL
//!   transaction), and every other thread's statement takes its shared
//!   side before the state lock, so it waits for an open transaction
//!   instead of reading or joining it. The owning thread, marked
//!   thread-locally, skips the gate.
//!
//! Statistics are atomic, and repeated SQL shapes skip the parser via a
//! per-database statement cache.
//!
//! Locks recover from poisoning: a panic inside one statement (e.g. from
//! a user callback in [`Database::update_with`]) must not wedge the
//! engine for every later caller. Poisoned plain-data locks (caches,
//! latency model, gate) are simply re-entered; the state lock
//! additionally rolls back any implicit transaction the panic abandoned,
//! so no half-applied statement becomes visible.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use std::sync::{Mutex, RwLock};

use edna_obs::{Histogram, MetricsRegistry, Tracer, DEFAULT_LATENCY_BUCKETS_US};
use edna_util::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

use crate::access::{column_names, AccessPath};
use crate::error::{Error, Result};
use crate::exec::{Inner, QueryResult};
use crate::expr::Expr;
use crate::parser::{parse_script, parse_statement, Statement};
use crate::schema::TableSchema;
use crate::stats::{LatencyModel, Stats, StatsSnapshot};
use crate::txn::Txn;
use crate::value::{Row, Value};
use crate::wal::{self, OpenIntent, RecoveryReport, ReplayOutcome, Wal, WalRecord};

/// An in-process relational database.
///
/// # Examples
///
/// ```
/// use edna_relational::Database;
///
/// let db = Database::new();
/// db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)").unwrap();
/// db.execute("INSERT INTO t (name) VALUES ('bea'), ('axolotl')").unwrap();
/// let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
/// assert_eq!(r.scalar().unwrap().as_int().unwrap(), 2);
/// ```
#[derive(Clone)]
pub struct Database {
    inner: Arc<RwLock<Inner>>,
    /// Held exclusively by an open [`Database::transaction`], shared by
    /// every other thread's statement (see the module docs).
    gate: Arc<RwLock<()>>,
    pub(crate) stats: Arc<Stats>,
    latency: Arc<RwLock<LatencyModel>>,
    fault: Arc<FaultState>,
    stmt_cache: Arc<Mutex<StmtCache>>,
    obs: Arc<DbObs>,
    wal: Arc<RwLock<Option<Arc<Wal>>>>,
    /// Transactions whose redo frame is staged in the WAL's group-commit
    /// pipeline but not yet durable, keyed by LSN. Their effects are
    /// already visible; if the batch flush fails, the WAL's abort handler
    /// pulls them from here and rolls them back before any committer
    /// observes the failure.
    pending_txns: Arc<Mutex<HashMap<u64, Txn>>>,
    /// Held by [`Database::save`] after the gate and the state lock, so
    /// concurrent saves (which share the snapshot's temp path and
    /// truncate one log) run one at a time.
    saving: Arc<Mutex<()>>,
}

/// One entry of the slow-statement log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowStatement {
    /// The SQL text (typed-API statements log their operation name).
    pub sql: String,
    /// Wall-clock execution time, microseconds.
    pub micros: u64,
}

/// Entries the slow-statement log retains (oldest evicted first).
const SLOW_LOG_CAP: usize = 128;

/// Per-database observability state: optional tracer, statement latency
/// histogram, and the slow-statement log.
struct DbObs {
    tracer: RwLock<Option<Tracer>>,
    stmt_seconds: Arc<Histogram>,
    slow_threshold: RwLock<Option<Duration>>,
    slow_log: Mutex<VecDeque<SlowStatement>>,
    slow_total: Arc<edna_obs::Counter>,
}

impl DbObs {
    fn new(registry: &MetricsRegistry) -> DbObs {
        DbObs {
            tracer: RwLock::new(None),
            stmt_seconds: registry.histogram(
                "edna_statement_seconds",
                "In-engine statement execution latency.",
                DEFAULT_LATENCY_BUCKETS_US,
            ),
            slow_threshold: RwLock::new(None),
            slow_log: Mutex::new(VecDeque::new()),
            slow_total: registry.counter(
                "edna_slow_statements_total",
                "Statements exceeding the slow-statement threshold.",
            ),
        }
    }
}

/// SQL texts the statement cache holds before evicting least-recently-used
/// entries. A disguise workload repeats a handful of shapes; 256 leaves
/// generous headroom without letting ad-hoc SQL grow the cache unboundedly.
const STMT_CACHE_CAP: usize = 256;

/// An LRU cache of parsed statements, keyed by exact SQL text.
#[derive(Default)]
struct StmtCache {
    map: HashMap<String, CachedStmt>,
    tick: u64,
}

struct CachedStmt {
    stmt: Arc<Statement>,
    last_used: u64,
}

impl StmtCache {
    fn get(&mut self, sql: &str) -> Option<Arc<Statement>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(sql).map(|c| {
            c.last_used = tick;
            Arc::clone(&c.stmt)
        })
    }

    fn insert(&mut self, sql: String, stmt: Arc<Statement>) {
        if self.map.len() >= STMT_CACHE_CAP {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
            }
        }
        self.tick += 1;
        self.map.insert(
            sql,
            CachedStmt {
                stmt,
                last_used: self.tick,
            },
        );
    }
}

/// A statement-level fault hook: called with the 0-based index of each
/// statement executed since the hook was installed; returning `true`
/// kills that statement with [`Error::FaultInjected`] *before* it runs.
///
/// This is the engine-side half of the fault-injection harness: tests
/// sweep the hook across every statement index of a workload to prove
/// that a fault at any point leaves the database unchanged (the disguiser
/// rolls its transaction back).
pub type FaultHook = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Shared fault-injection state (statement counter + optional hook).
#[derive(Default)]
struct FaultState {
    hook: RwLock<Option<FaultHook>>,
    seq: AtomicU64,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        let stats = Arc::new(Stats::default());
        let obs = Arc::new(DbObs::new(&stats.registry()));
        Database {
            inner: Arc::new(RwLock::new(Inner::new())),
            gate: Arc::new(RwLock::new(())),
            stats,
            latency: Arc::new(RwLock::new(LatencyModel::NONE)),
            fault: Arc::new(FaultState::default()),
            stmt_cache: Arc::new(Mutex::new(StmtCache::default())),
            obs,
            wal: Arc::new(RwLock::new(None)),
            pending_txns: Arc::new(Mutex::new(HashMap::new())),
            saving: Arc::new(Mutex::new(())),
        }
    }

    // ---- engine locks (poison-tolerant) ------------------------------------

    /// Read-locks the engine state (behind the gate), recovering from
    /// poisoning first.
    pub(crate) fn inner_read(&self) -> Locked<'_, RwLockReadGuard<'_, Inner>> {
        let gate = self.enter_gate();
        if self.inner.is_poisoned() {
            self.repair_poisoned();
        }
        Locked {
            state: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _gate: gate,
        }
    }

    /// Write-locks the engine state (behind the gate), recovering from
    /// poisoning first.
    fn inner_write(&self) -> Locked<'_, RwLockWriteGuard<'_, Inner>> {
        let gate = self.enter_gate();
        if self.inner.is_poisoned() {
            self.repair_poisoned();
        }
        Locked {
            state: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _gate: gate,
        }
    }

    /// The gate's shared side, or `None` on the thread that owns the open
    /// transaction: its statements run inside that transaction.
    fn enter_gate(&self) -> Option<RwLockReadGuard<'_, ()>> {
        if self.owns_transaction() {
            return None;
        }
        Some(self.gate.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Identifies this database (shared by every clone) in the
    /// thread-local owner marks.
    fn gate_id(&self) -> usize {
        Arc::as_ptr(&self.gate) as usize
    }

    /// Whether the calling thread holds this database's open transaction.
    fn owns_transaction(&self) -> bool {
        let id = self.gate_id();
        OWNED_GATES.with_borrow(|owned| owned.contains(&id))
    }

    /// A panic while the state lock was held poisons it; the panicking
    /// statement may have died mid-write. Its implicit transaction (if
    /// any) still holds the undo log, so replay it before letting any
    /// later statement see the state. An *explicit* transaction is left
    /// open — only its owner can reach the state, and its
    /// [`Database::transaction`] call commits or rolls it back, the undo
    /// log covering the partial statement either way.
    fn repair_poisoned(&self) {
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if guard.txn.as_ref().is_some_and(|t| t.implicit) {
            let txn = guard.txn.take().expect("checked above");
            guard.rollback(txn);
        }
        self.inner.clear_poison();
    }

    // ---- fault injection ---------------------------------------------------

    /// Installs (or with `None` removes) a statement-level fault hook,
    /// resetting the statement index to 0. The hook is consulted once per
    /// statement — SQL and typed API alike — *before* execution; a
    /// transaction's commit and rollback are exempt so recovery paths
    /// cannot themselves be killed.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *write_unpoisoned(&self.fault.hook) = hook;
        self.fault.seq.store(0, Ordering::SeqCst);
    }

    /// Convenience: fail exactly the `n`th statement from now (0-based).
    pub fn fail_statement(&self, n: u64) {
        self.set_fault_hook(Some(Arc::new(move |i| i == n)));
    }

    /// Statements the installed hook has seen. With a never-firing hook
    /// (`|_| false`) this counts a workload's statements, giving the
    /// sweep bound for exhaustive fault injection.
    pub fn fault_statement_count(&self) -> u64 {
        self.fault.seq.load(Ordering::SeqCst)
    }

    /// Consults the fault hook, if any; charges one statement index.
    fn failpoint(&self) -> Result<()> {
        let hook = read_unpoisoned(&self.fault.hook);
        if let Some(h) = hook.as_ref() {
            let index = self.fault.seq.fetch_add(1, Ordering::SeqCst);
            if h(index) {
                return Err(Error::FaultInjected(index));
            }
        }
        Ok(())
    }

    // ---- SQL execution ----------------------------------------------------

    /// Parses and executes one SQL statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with_params(sql, &HashMap::new())
    }

    /// Parses and executes one SQL statement with bound `$param`s. Repeat
    /// SQL texts skip the parser via the statement cache. `EXPLAIN ANALYZE
    /// <select>` is intercepted here and routed to the query profiler.
    pub fn execute_with_params(
        &self,
        sql: &str,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        if let Some(rest) = strip_explain_analyze(sql) {
            return self.explain_analyze(rest, params);
        }
        let started = Instant::now();
        let tracer = self.tracer();
        let hits_before = self.stats.stmt_cache_hits.get();
        let stmt = self.cached_statement(sql)?;
        if let Some(t) = &tracer {
            let cache = if self.stats.stmt_cache_hits.get() > hits_before {
                "hit"
            } else {
                "miss"
            };
            t.record(
                t.current(),
                "parse",
                started,
                started.elapsed(),
                vec![
                    ("sql".to_string(), truncate_sql(sql)),
                    ("cache".to_string(), cache.to_string()),
                ],
            );
        }
        let result = self.execute_stmt(&stmt, params);
        self.note_slow(sql, started.elapsed());
        result
    }

    /// The parsed form of `sql`, served from the statement cache when the
    /// exact text was executed before. Parsing happens outside the cache
    /// lock; a racing parse of the same text is wasted work, not an error.
    pub fn cached_statement(&self, sql: &str) -> Result<Arc<Statement>> {
        if let Some(stmt) = lock_unpoisoned(&self.stmt_cache).get(sql) {
            self.stats.bump(&self.stats.stmt_cache_hits, 1);
            return Ok(stmt);
        }
        self.stats.bump(&self.stats.stmt_cache_misses, 1);
        let stmt = Arc::new(parse_statement(sql)?);
        lock_unpoisoned(&self.stmt_cache).insert(sql.to_string(), Arc::clone(&stmt));
        Ok(stmt)
    }

    /// Executes a pre-parsed statement. SELECTs run under the shared (read)
    /// lock and so proceed concurrently; everything else serializes behind
    /// the write lock.
    pub fn execute_stmt(
        &self,
        stmt: &Statement,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.failpoint()?;
        if let Statement::Select(sel) = stmt {
            let started = Instant::now();
            let (result, lock_wait) = {
                let inner = self.inner_read();
                let lock_wait = started.elapsed();
                self.stats.bump(&self.stats.statements, 1);
                self.stats.bump(&self.stats.selects, 1);
                (inner.select(sel, params, &self.stats), lock_wait)
            };
            let latency = *read_unpoisoned(&self.latency);
            latency.charge(0);
            self.note_statement("select", started, lock_wait);
            return result;
        }
        let is_ddl = matches!(
            stmt,
            Statement::CreateTable(_)
                | Statement::CreateIndex { .. }
                | Statement::DropTable { .. }
                | Statement::AlterTable { .. }
        );
        let op = match stmt {
            Statement::Insert { .. } => "insert",
            Statement::Update { .. } => "update",
            Statement::Delete { .. } => "delete",
            _ if is_ddl => "ddl",
            _ => "other",
        };
        let result = self.run_in_txn(op, |inner| inner.execute_stmt(stmt, params, &self.stats));
        if is_ddl && result.is_ok() {
            // Schema changed: drop cached parses so nothing stale survives
            // (the executor's plan cache is invalidated engine-side).
            lock_unpoisoned(&self.stmt_cache).map.clear();
        }
        result
    }

    /// Executes a `;`-separated script, stopping at the first error. The
    /// whole script parses before anything runs; each statement then
    /// commits on its own.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<QueryResult>> {
        let stmts = parse_script(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute_stmt(stmt, &HashMap::new())?);
        }
        Ok(out)
    }

    /// Runs `f` inside the calling thread's open transaction, or an
    /// implicit per-statement transaction if none is open (rolled back on
    /// error). The engine lock is released before any synthetic latency is
    /// charged, so concurrent callers overlap their simulated I/O. `op`
    /// labels the statement in traces and the latency histogram.
    fn run_in_txn<T>(&self, op: &str, f: impl FnOnce(&mut Inner) -> Result<T>) -> Result<T> {
        let written_before = self.stats.snapshot().rows_written;
        let started = Instant::now();
        let mut guard = self.inner_write();
        let lock_wait = started.elapsed();
        let inner = &mut *guard;
        let mut ticket = None;
        let result = if inner.txn.is_some() {
            let mark = inner.txn.as_ref().expect("checked").mark();
            match f(inner) {
                Ok(v) => Ok(v),
                Err(e) => {
                    // Statement-level rollback within the explicit txn.
                    let txn = inner.txn.take().expect("still open");
                    let txn = inner.rollback_to(txn, mark);
                    inner.txn = Some(txn);
                    Err(e)
                }
            }
        } else {
            inner.txn = Some(Txn::implicit());
            match f(inner) {
                // Commit, references checked and redo frame staged, while
                // the lock still excludes other writers (the LSN order must
                // match commit order); the durability wait happens after
                // release so concurrent committers share one batch fsync.
                Ok(v) => self.commit(inner).map(|t| {
                    ticket = t;
                    v
                }),
                Err(e) => {
                    let txn = inner.txn.take().expect("installed above");
                    inner.rollback(txn);
                    Err(e)
                }
            }
        };
        drop(guard);
        let result = match (result, ticket) {
            (Ok(v), Some(t)) => self.wal_wait_commit(t).map(|()| v),
            (result, _) => result,
        };
        let latency = *read_unpoisoned(&self.latency);
        if !latency.is_none() {
            let written_after = self.stats.snapshot().rows_written;
            latency.charge(written_after.saturating_sub(written_before));
        }
        self.note_statement(op, started, lock_wait);
        result
    }

    /// Observes one finished statement: feeds the latency histogram and,
    /// when a tracer is installed, emits a `statement` span with
    /// `lock_wait`/`execute` children.
    fn note_statement(&self, op: &str, started: Instant, lock_wait: Duration) {
        let elapsed = started.elapsed();
        self.obs.stmt_seconds.observe(elapsed);
        if let Some(t) = self.tracer() {
            let id = t.record(
                t.current(),
                "statement",
                started,
                elapsed,
                vec![("op".to_string(), op.to_string())],
            );
            t.record(Some(id), "lock_wait", started, lock_wait, Vec::new());
            t.record(
                Some(id),
                "execute",
                started + lock_wait,
                elapsed.saturating_sub(lock_wait),
                Vec::new(),
            );
        }
    }

    /// Appends to the slow-statement log if `elapsed` crosses the
    /// configured threshold.
    fn note_slow(&self, sql: &str, elapsed: Duration) {
        let Some(threshold) = *read_unpoisoned(&self.obs.slow_threshold) else {
            return;
        };
        if elapsed < threshold {
            return;
        }
        self.obs.slow_total.inc();
        let mut log = lock_unpoisoned(&self.obs.slow_log);
        if log.len() == SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(SlowStatement {
            sql: sql.to_string(),
            micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
        });
    }

    // ---- transactions ------------------------------------------------------

    /// Runs `f` as one transaction: commits on `Ok`, rolls back on `Err` or
    /// a panic. Foreign keys are checked at commit, so `f` may write a
    /// child before its parent; a reference still dangling then rolls the
    /// transaction back. The transaction holds the gate exclusively, so other
    /// threads' statements, checkpoints and replica applies wait for it
    /// instead of reading or joining it; statements the calling thread
    /// issues meanwhile, through any clone of this handle, run inside it.
    /// With a WAL attached, `Ok` means the commit is durable; a failed log
    /// write rolls the transaction back instead. Transactions do not nest,
    /// and `f` must not wait on another thread that uses this database:
    /// that thread's statements wait for the transaction.
    pub fn transaction<T, E: From<Error>>(
        &self,
        f: impl FnOnce(&Database) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        if self.owns_transaction() {
            return Err(Error::Txn("transaction already open on this thread".to_string()).into());
        }
        let id = self.gate_id();
        let gate = self.gate.write().unwrap_or_else(PoisonError::into_inner);
        OWNED_GATES.with_borrow_mut(|owned| owned.push(id));
        self.inner_write().txn = Some(Txn::explicit());
        let outcome = catch_unwind(AssertUnwindSafe(|| f(self)));
        // Staged under the gate (LSN order is commit order); the
        // durability wait comes after its release, so concurrent
        // committers share one batch fsync.
        let staged = {
            let mut inner = self.inner_write();
            if matches!(outcome, Ok(Ok(_))) {
                self.commit(&mut inner)
            } else {
                let txn = inner.txn.take().expect("the open transaction");
                inner.rollback(txn);
                Ok(None)
            }
        };
        OWNED_GATES.with_borrow_mut(|owned| owned.retain(|g| *g != id));
        drop(gate);
        let value = match outcome {
            Ok(result) => result?,
            Err(panic) => resume_unwind(panic),
        };
        if let Some(ticket) = staged? {
            self.wal_wait_commit(ticket)?;
        }
        Ok(value)
    }

    /// Runs `f` while no other thread's transaction is open: like a
    /// statement, it holds the gate's shared side, so a transaction waits
    /// for it and it waits out an open one, while other statements run
    /// alongside. On the thread that owns the open transaction, `f` runs
    /// inside it. For work outside the engine that must not interleave
    /// with a transaction; `f` must not itself run statements.
    pub fn between_transactions<T>(&self, f: impl FnOnce() -> T) -> T {
        let _gate = self.enter_gate();
        f()
    }

    // ---- write-ahead log and recovery --------------------------------------

    /// Attaches a write-ahead log: from now on every committed transaction
    /// gets a durable redo frame (via the group-commit pipeline) before
    /// its commit returns, and [`Database::save`] becomes a checkpoint
    /// (snapshot + log truncation). The log's counters are bound into
    /// this database's metrics registry, and its abort handler is wired
    /// to roll back transactions whose batch flush fails.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        wal.bind_metrics(&self.stats.registry());
        let inner = Arc::clone(&self.inner);
        let pending = Arc::clone(&self.pending_txns);
        wal.set_abort_handler(Some(Arc::new(move |lsns: &[u64]| {
            let mut victims: Vec<(u64, Txn)> = {
                let mut p = lock_unpoisoned(&pending);
                lsns.iter()
                    .filter_map(|lsn| p.remove(lsn).map(|txn| (*lsn, txn)))
                    .collect()
            };
            if victims.is_empty() {
                // Only marker frames died; nothing visible to undo (and
                // skipping the engine lock here keeps a checkpoint that
                // holds a read guard from deadlocking against us).
                return;
            }
            // Two failed transactions can touch the same row slot; undo
            // in reverse commit order so each rollback sees the state its
            // undo log expects.
            victims.sort_by_key(|v| std::cmp::Reverse(v.0));
            let mut guard = inner.write().unwrap_or_else(PoisonError::into_inner);
            for (_, txn) in victims {
                guard.rollback(txn);
            }
        })));
        *write_unpoisoned(&self.wal) = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        read_unpoisoned(&self.wal).clone()
    }

    /// The last LSN the attached WAL assigned (0 with no WAL or an empty
    /// one). Snapshots record this as their checkpoint watermark.
    pub fn wal_last_lsn(&self) -> u64 {
        self.wal().map(|w| w.last_lsn()).unwrap_or(0)
    }

    /// Checks the references the calling thread's open transaction has
    /// written so far, as its commit will, for code that must fail before
    /// it writes outside the database. Rows that pass are not checked
    /// again unless written again; outside a transaction each statement
    /// checked its own.
    pub fn check_references(&self) -> Result<()> {
        if !self.owns_transaction() {
            return Ok(());
        }
        self.inner_write().check_references(&self.stats)
    }

    /// Commits the open transaction: checks its references, then stages
    /// its redo frame in the WAL's group-commit pipeline (no-op without a
    /// WAL or for a read-only transaction), returning the ticket to wait
    /// on *after* the engine lock is released. The transaction is taken
    /// out of `inner` first, so the live state *is* the post-commit state
    /// the redo conversion resolves after-images against. On a failed
    /// check or staging the transaction is rolled back here (not staged ⇒
    /// not logged ⇒ not committed); once staged, it is parked in
    /// `pending_txns` so a failed batch flush can roll it back.
    fn commit(&self, inner: &mut Inner) -> Result<Option<wal::WalTicket>> {
        let checked = inner.check_references(&self.stats);
        let txn = inner.txn.take().expect("the open transaction");
        if let Err(e) = checked {
            inner.rollback(txn);
            return Err(e);
        }
        let Some(w) = self.wal() else { return Ok(None) };
        if txn.undo.is_empty() {
            return Ok(None);
        }
        let staged =
            wal::redo_from_txn(inner, &txn).and_then(|ops| w.stage(&WalRecord::Txn { ops }));
        match staged {
            Ok(ticket) => {
                lock_unpoisoned(&self.pending_txns).insert(ticket.lsn, txn);
                Ok(Some(ticket))
            }
            Err(e) => {
                inner.rollback(txn);
                Err(e)
            }
        }
    }

    /// Blocks until a staged commit's batch is durable, then retires its
    /// `pending_txns` entry. On batch failure the WAL's abort handler has
    /// already rolled the transaction back (it runs before any waiter is
    /// released), so only the error needs propagating.
    fn wal_wait_commit(&self, ticket: wal::WalTicket) -> Result<()> {
        let Some(w) = self.wal() else {
            return Err(Error::Wal("WAL detached mid-commit".to_string()));
        };
        match w.wait_durable(ticket) {
            Ok(lsn) => {
                lock_unpoisoned(&self.pending_txns).remove(&lsn);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Logs a marker frame. It is staged behind the gate, like a
    /// statement's commit frame, so it never lands inside another thread's
    /// transaction (say, between a replication bootstrap's checkpoint and
    /// its file copy); the durability wait comes after. No-op without a
    /// WAL.
    fn log_marker(&self, record: WalRecord) -> Result<()> {
        let Some(w) = self.wal() else { return Ok(()) };
        let ticket = {
            let _gate = self.enter_gate();
            w.stage(&record)?
        };
        w.wait_durable(ticket).map(|_| ())
    }

    /// Appends a disguise *intent* marker: disguise `disguise_id` for
    /// `user` is about to write vault-side state. No-op without a WAL.
    pub fn wal_disguise_intent(&self, disguise_id: u64, user: &Value) -> Result<()> {
        self.log_marker(WalRecord::DisguiseIntent {
            disguise_id,
            user: user.clone(),
        })
    }

    /// Appends a disguise *commit* marker: disguise `disguise_id` fully
    /// applied; database, history, and vault agree. No-op without a WAL.
    pub fn wal_disguise_commit(&self, disguise_id: u64) -> Result<()> {
        self.log_marker(WalRecord::DisguiseCommit { disguise_id })
    }

    /// Appends a policy-run *start* marker: the scheduler is about to run
    /// `policy` at logical time `now`. No-op without a WAL.
    pub fn wal_policy_start(&self, policy: &str, now: i64) -> Result<()> {
        self.log_marker(WalRecord::PolicyRunStart {
            policy: policy.to_string(),
            now,
        })
    }

    /// Appends a policy-run *end* marker matching the start marker for
    /// `policy`. No-op without a WAL.
    pub fn wal_policy_end(&self, policy: &str) -> Result<()> {
        self.log_marker(WalRecord::PolicyRunEnd {
            policy: policy.to_string(),
        })
    }

    /// Replays scanned WAL records over this database. Txn frames with
    /// `lsn > watermark` are applied physically (no transaction, no
    /// constraint re-checks — they describe committed state); frames at or
    /// below the watermark are already contained in the snapshot and are
    /// skipped. Intent/commit markers are matched across the *whole* log
    /// regardless of watermark, since the vault state they guard lives
    /// outside the snapshot.
    pub fn replay_wal(
        &self,
        records: &[(u64, WalRecord)],
        watermark: u64,
    ) -> Result<ReplayOutcome> {
        let mut inner = self.inner_write();
        let mut frames_replayed = 0;
        let mut intents: Vec<OpenIntent> = Vec::new();
        let mut policy_runs: Vec<wal::OpenPolicyRun> = Vec::new();
        for (lsn, record) in records {
            match record {
                WalRecord::Txn { ops } => {
                    if *lsn > watermark {
                        for op in ops {
                            wal::apply_op(&mut inner, op)?;
                        }
                        frames_replayed += 1;
                    }
                }
                WalRecord::DisguiseIntent { disguise_id, user } => {
                    intents.push(OpenIntent {
                        lsn: *lsn,
                        disguise_id: *disguise_id,
                        user: user.clone(),
                    });
                }
                WalRecord::DisguiseCommit { disguise_id } => {
                    intents.retain(|i| i.disguise_id != *disguise_id);
                }
                WalRecord::PolicyRunStart { policy, now } => {
                    policy_runs.push(wal::OpenPolicyRun {
                        lsn: *lsn,
                        policy: policy.clone(),
                        now: *now,
                    });
                }
                WalRecord::PolicyRunEnd { policy } => {
                    policy_runs.retain(|r| r.policy != *policy);
                }
                // The epoch lives in the `Wal` (re-derived by its own
                // open-time scan); replay has nothing to apply.
                WalRecord::Epoch { .. } => {}
            }
        }
        inner.invalidate_plans();
        drop(inner);
        lock_unpoisoned(&self.stmt_cache).map.clear();
        Ok(ReplayOutcome {
            frames_replayed,
            open_intents: intents,
            open_policy_runs: policy_runs,
        })
    }

    /// Applies one shipped WAL record to the live state (a replica's
    /// continuous replay). `Txn` frames are applied physically, exactly
    /// like [`Database::replay_wal`] — they describe a transaction the
    /// primary already committed; marker and epoch frames are no-ops here
    /// (the replica's `Wal` tracks them via `append_shipped`).
    pub fn apply_shipped(&self, record: &WalRecord) -> Result<()> {
        let WalRecord::Txn { ops } = record else {
            return Ok(());
        };
        let mut inner = self.inner_write();
        for op in ops {
            wal::apply_op(&mut inner, op)?;
        }
        if ops.iter().any(|op| {
            matches!(
                op,
                wal::RedoOp::CreateTable { .. }
                    | wal::RedoOp::DropTable { .. }
                    | wal::RedoOp::AlterTable { .. }
                    | wal::RedoOp::CreateIndex { .. }
            )
        }) {
            inner.invalidate_plans();
            drop(inner);
            lock_unpoisoned(&self.stmt_cache).map.clear();
        }
        Ok(())
    }

    /// Opens a durable database: loads the snapshot (an empty database if
    /// `snapshot` is `None`), opens the WAL at `wal_path` (truncating any
    /// torn tail), replays the log's tail over the snapshot, and attaches
    /// the log for future commits. The report says what recovery did;
    /// `report.open_intents` must be resolved by the disguise layer before
    /// the vault is trusted.
    pub fn open_durable(
        snapshot: Option<&std::path::Path>,
        wal_path: &std::path::Path,
    ) -> Result<(Database, RecoveryReport)> {
        let started = Instant::now();
        let (db, watermark) = match snapshot {
            Some(p) => crate::snapshot::load_with_watermark(p)?,
            None => (Database::new(), 0),
        };
        let (wal, scan) = Wal::open(wal_path)?;
        let outcome = db.replay_wal(&scan.records, watermark)?;
        let last_lsn = scan
            .records
            .last()
            .map(|(lsn, _)| *lsn)
            .unwrap_or(watermark)
            .max(watermark);
        // The file alone under-counts after a checkpoint truncated it;
        // new frames must sort after everything the snapshot absorbed.
        wal.ensure_next_lsn(last_lsn + 1);
        db.attach_wal(Arc::new(wal));
        let report = RecoveryReport {
            frames_scanned: scan.records.len(),
            frames_replayed: outcome.frames_replayed,
            torn_bytes: scan.torn_bytes,
            snapshot_watermark: watermark,
            last_lsn,
            open_intents: outcome.open_intents,
            open_policy_runs: outcome.open_policy_runs,
            snapshot_promoted: false,
            duration: started.elapsed(),
        };
        let registry = db.metrics();
        registry
            .counter(
                "edna_wal_replayed_frames_total",
                "WAL frames replayed during recovery.",
            )
            .add(report.frames_replayed as u64);
        registry
            .counter(
                "edna_wal_torn_bytes_total",
                "Torn-tail bytes truncated off the WAL during recovery.",
            )
            .add(report.torn_bytes as u64);
        registry
            .gauge(
                "edna_recovery_duration_us",
                "Wall-clock microseconds the last recovery pass took.",
            )
            .set(report.duration.as_micros().min(u128::from(u64::MAX) / 2) as i64);
        Ok((db, report))
    }

    /// Self-checks structural invariants after recovery: foreign keys
    /// resolve, UNIQUE/PRIMARY KEY columns hold no duplicates, and
    /// AUTO_INCREMENT counters sit above every assigned id. Returns one
    /// human-readable line per violation (empty = consistent). The crash
    /// sweep calls this after every recovery; it is cheap enough to run
    /// unconditionally on open.
    pub fn verify_integrity(&self) -> Vec<String> {
        let inner = self.inner_read();
        let mut problems = Vec::new();
        for key in &inner.table_order {
            let t = &inner.tables[key];
            let name = &t.schema.name;
            // Foreign keys: every non-NULL child value has a parent.
            for fk in &t.schema.foreign_keys {
                let Ok(child_col) = t.schema.require_column(&fk.column) else {
                    problems.push(format!("{name}: FK column {} missing", fk.column));
                    continue;
                };
                let Some(parent) = inner.tables.get(&fk.parent_table.to_lowercase()) else {
                    problems.push(format!(
                        "{name}: FK parent table {} missing",
                        fk.parent_table
                    ));
                    continue;
                };
                let Ok(parent_col) = parent.schema.require_column(&fk.parent_column) else {
                    problems.push(format!(
                        "{name}: FK parent column {}.{} missing",
                        fk.parent_table, fk.parent_column
                    ));
                    continue;
                };
                for (_, row) in t.iter() {
                    let v = &row[child_col];
                    if *v == Value::Null {
                        continue;
                    }
                    let found = parent.iter().any(|(_, p)| p[parent_col] == *v);
                    if !found {
                        problems.push(format!(
                            "{name}.{}: dangling FK value {} (no row in {}.{})",
                            fk.column,
                            v.to_sql_literal(),
                            fk.parent_table,
                            fk.parent_column
                        ));
                    }
                }
            }
            // Unique columns (PRIMARY KEY and UNIQUE): no duplicates.
            for (pos, col) in t.schema.columns.iter().enumerate() {
                let unique = col.unique || t.schema.primary_key == Some(pos);
                if !unique {
                    continue;
                }
                let mut seen = std::collections::HashSet::new();
                for (_, row) in t.iter() {
                    let v = &row[pos];
                    if *v == Value::Null {
                        continue;
                    }
                    if !seen.insert(v.to_sql_literal()) {
                        problems.push(format!(
                            "{name}.{}: duplicate value {} in unique column",
                            col.name,
                            v.to_sql_literal()
                        ));
                    }
                }
            }
            // AUTO_INCREMENT sits above every assigned id.
            for (pos, col) in t.schema.columns.iter().enumerate() {
                if !col.auto_increment {
                    continue;
                }
                let max = t
                    .iter()
                    .filter_map(|(_, row)| row[pos].as_int().ok())
                    .max()
                    .unwrap_or(0);
                if t.next_auto <= max {
                    problems.push(format!(
                        "{name}.{}: AUTO_INCREMENT counter {} not above max id {max}",
                        col.name, t.next_auto
                    ));
                }
            }
        }
        problems
    }

    // ---- schema and typed access -------------------------------------------

    /// The schema of `table`.
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        Ok(self.inner_read().table(table)?.schema.clone())
    }

    /// All table names, in creation order.
    pub fn table_names(&self) -> Vec<String> {
        let inner = self.inner_read();
        inner
            .table_order
            .iter()
            .map(|k| inner.tables[k].schema.name.clone())
            .collect()
    }

    /// Whether `table` exists.
    pub fn has_table(&self, table: &str) -> bool {
        self.inner_read().table(table).is_ok()
    }

    /// Number of live rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.inner_read().table(table)?.len())
    }

    /// Rows of `table` matching `where_` (all rows if `None`), as full rows
    /// in schema column order.
    pub fn select_rows(
        &self,
        table: &str,
        where_: Option<&Expr>,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<Row>> {
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.selects, 1);
        let started = Instant::now();
        let (rows, lock_wait) = {
            let inner = self.inner_read();
            let lock_wait = started.elapsed();
            let ids = inner.matching_row_ids(table, where_, params, &self.stats)?;
            let t = inner.table(table)?;
            let rows: Vec<Row> = ids
                .iter()
                .map(|&id| t.get(id).expect("live").clone())
                .collect();
            (rows, lock_wait)
        };
        let latency = *read_unpoisoned(&self.latency);
        latency.charge(0);
        self.note_statement("select", started, lock_wait);
        Ok(rows)
    }

    /// Inserts one row given `(column, value)` pairs; omitted columns take
    /// their default (or auto-increment). Returns the auto-assigned id, if
    /// any.
    pub fn insert_row(&self, table: &str, values: &[(&str, Value)]) -> Result<Option<i64>> {
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.inserts, 1);
        self.run_in_txn("insert", |inner| {
            let schema = inner.table(table)?.schema.clone();
            let mut row: Row = schema
                .columns
                .iter()
                .map(|c| c.default.clone().unwrap_or(Value::Null))
                .collect();
            for (col, v) in values {
                let pos = schema.require_column(col)?;
                row[pos] = v.clone();
            }
            inner.insert_row_checked(table, row, &self.stats)
        })
    }

    /// Deletes rows matching `where_`, applying referential actions;
    /// returns the number of rows removed (including cascades).
    pub fn delete_where(
        &self,
        table: &str,
        where_: &Expr,
        params: &HashMap<String, Value>,
    ) -> Result<usize> {
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.deletes, 1);
        self.run_in_txn("delete", |inner| {
            let ids = inner.matching_row_ids(table, Some(where_), params, &self.stats)?;
            let mut removed = 0;
            for id in ids {
                if inner.table(table)?.get(id).is_some() {
                    removed += inner.delete_row_checked(table, id, &self.stats)?;
                }
            }
            Ok(removed)
        })
    }

    /// Like [`Database::delete_where`], but returns every removed row
    /// (including cascaded child rows) as `(table, row)` pairs in deletion
    /// order — children precede the parent whose deletion cascaded to them.
    pub fn delete_where_returning(
        &self,
        table: &str,
        where_: &Expr,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<(String, Row)>> {
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.deletes, 1);
        self.run_in_txn("delete", |inner| {
            let ids = inner.matching_row_ids(table, Some(where_), params, &self.stats)?;
            let mut collected = Vec::new();
            for id in ids {
                if inner.table(table)?.get(id).is_some() {
                    inner.delete_row_collect(table, id, &self.stats, &mut collected)?;
                }
            }
            Ok(collected)
        })
    }

    /// Inserts one fully materialized row (all columns, in schema order,
    /// including any explicit primary key). Used to restore rows verbatim.
    pub fn insert_full_row(&self, table: &str, row: Row) -> Result<()> {
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.inserts, 1);
        self.run_in_txn("insert", |inner| {
            inner.insert_row_checked(table, row, &self.stats)?;
            Ok(())
        })
    }

    /// Updates every row matching `where_` through `f`, which may mutate
    /// the row in place. Constraints are enforced per row.
    pub fn update_with(
        &self,
        table: &str,
        where_: Option<&Expr>,
        params: &HashMap<String, Value>,
        mut f: impl FnMut(&TableSchema, &mut Row) -> Result<()>,
    ) -> Result<usize> {
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.updates, 1);
        self.run_in_txn("update", |inner| {
            let ids = inner.matching_row_ids(table, where_, params, &self.stats)?;
            let schema = inner.table(table)?.schema.clone();
            let mut n = 0;
            for id in ids {
                let mut row = inner.table(table)?.get(id).expect("live").clone();
                f(&schema, &mut row)?;
                inner.update_row_checked(table, id, row, &self.stats)?;
                n += 1;
            }
            Ok(n)
        })
    }

    /// Applies a whole batch of per-row column writes under ONE lock
    /// acquisition and ONE statement charge: each entry addresses a row by
    /// its primary-key value and lists `(column index, new value)` writes.
    /// Rows whose primary key no longer exists are skipped; NOT NULL and
    /// UNIQUE are enforced (and undo logged) per row, so a violation
    /// anywhere rolls back the statement's earlier rows too; references
    /// are checked at commit. Returns the number of rows updated.
    ///
    /// This is the engine half of batched disguise application: a
    /// `Decorrelate`/`Modify` transform collects its per-row rewrites and
    /// flushes them here in one round trip instead of N.
    pub fn update_rows_by_pk(
        &self,
        table: &str,
        updates: &[(Value, Vec<(usize, Value)>)],
    ) -> Result<usize> {
        if updates.is_empty() {
            return Ok(0);
        }
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.updates, 1);
        self.run_in_txn("update", |inner| {
            inner.update_rows_by_pk(table, updates, &self.stats)
        })
    }

    /// Inserts a batch of fully materialized rows (all columns, in schema
    /// order) under one lock acquisition and one statement charge,
    /// returning the auto-increment value assigned to each. A NOT NULL or
    /// UNIQUE violation anywhere fails the whole batch (statement-level
    /// rollback); references are checked at commit.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<Vec<Option<i64>>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        self.failpoint()?;
        self.stats.bump(&self.stats.statements, 1);
        self.stats.bump(&self.stats.inserts, 1);
        self.run_in_txn("insert", |inner| {
            inner.insert_rows(table, rows, &self.stats)
        })
    }

    /// The access path `SELECT ... FROM table WHERE pred` would use — the
    /// same (cached) decision the executor makes.
    pub fn access_path(&self, table: &str, pred: Option<&Expr>) -> Result<AccessPath> {
        let inner = self.inner_read();
        let t = inner.table(table)?;
        let qualifier = Some(t.schema.name.as_str());
        let columns = column_names(t, qualifier);
        Ok(match pred {
            Some(p) => inner
                .cached_access_path(t, qualifier, &columns, p, &self.stats)
                .public(t),
            None => AccessPath::FullScan,
        })
    }

    // ---- clock, stats, latency ----------------------------------------------

    /// The logical clock value `NOW()` evaluates against on the calling
    /// thread: a [`crate::clock::scoped`] override if one is active,
    /// otherwise the global clock.
    pub fn now(&self) -> i64 {
        crate::clock::current().unwrap_or_else(|| self.inner_read().now)
    }

    /// The global logical clock, ignoring any thread-local override —
    /// what snapshots persist and what other threads' statements see.
    pub fn global_now(&self) -> i64 {
        self.inner_read().now
    }

    /// Sets the logical clock (used by expiration/decay policies). With a
    /// WAL attached the new clock value is logged best-effort: a failed
    /// append loses only the clock (re-set by the caller on restart), not
    /// data, so it does not fail the call.
    pub fn set_now(&self, now: i64) {
        self.inner_write().now = now;
        let _ = self.log_marker(WalRecord::Txn {
            ops: vec![wal::RedoOp::SetNow { now }],
        });
    }

    /// A snapshot of the execution counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resets the execution counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// The metrics registry backing this database's counters and
    /// histograms; render with `render_prometheus()` / `render_json()`.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.stats.registry()
    }

    /// Installs (or with `None` removes) a tracer. While installed, the
    /// engine emits a `statement` span (with `lock_wait`/`execute`
    /// children) per statement and a `parse` span per SQL text.
    pub fn set_tracer(&self, tracer: Option<Tracer>) {
        *write_unpoisoned(&self.obs.tracer) = tracer;
    }

    /// The installed tracer, if any (clones share the span buffer).
    pub fn tracer(&self) -> Option<Tracer> {
        read_unpoisoned(&self.obs.tracer).clone()
    }

    /// Sets (or with `None` disables) the slow-statement threshold: SQL
    /// statements whose wall-clock time reaches it are appended to the
    /// slow-statement log and counted in `edna_slow_statements_total`.
    pub fn set_slow_statement_threshold(&self, threshold: Option<Duration>) {
        *write_unpoisoned(&self.obs.slow_threshold) = threshold;
    }

    /// The recorded slow statements, oldest first (bounded; oldest entries
    /// are evicted past the cap).
    pub fn slow_statements(&self) -> Vec<SlowStatement> {
        lock_unpoisoned(&self.obs.slow_log)
            .iter()
            .cloned()
            .collect()
    }

    /// Executes `SELECT` SQL under the query profiler and reports one row
    /// per executed operator: `operator`, `detail`, `rows` (rows the
    /// operator produced) and `time_us` (wall-clock spent in it), with a
    /// trailing `total` row. This is what `EXPLAIN ANALYZE <select>`
    /// (accepted by [`Database::execute`]) runs; the statement *is*
    /// executed for real, against live data.
    pub fn explain_analyze(
        &self,
        sql: &str,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(Error::Unsupported(
                "EXPLAIN ANALYZE supports SELECT statements only".to_string(),
            ));
        };
        self.failpoint()?;
        let started = Instant::now();
        let (result, profile) = {
            let inner = self.inner_read();
            self.stats.bump(&self.stats.statements, 1);
            self.stats.bump(&self.stats.selects, 1);
            let mut profile = Vec::new();
            let result = inner.select_profiled(&sel, params, &self.stats, &mut profile)?;
            (result, profile)
        };
        let total_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut rows: Vec<Row> = profile
            .iter()
            .map(|op| {
                vec![
                    Value::Text(op.op.to_string()),
                    Value::Text(op.detail.clone()),
                    Value::Int(op.rows as i64),
                    Value::Int(op.elapsed_us as i64),
                ]
            })
            .collect();
        rows.push(vec![
            Value::Text("total".to_string()),
            Value::Text(format!("{} row(s) returned", result.rows.len())),
            Value::Int(result.rows.len() as i64),
            Value::Int(total_us as i64),
        ]);
        Ok(QueryResult {
            columns: vec![
                "operator".to_string(),
                "detail".to_string(),
                "rows".to_string(),
                "time_us".to_string(),
            ],
            rows,
            ..QueryResult::default()
        })
    }

    /// Sets the synthetic latency model.
    pub fn set_latency(&self, model: LatencyModel) {
        *write_unpoisoned(&self.latency) = model;
    }

    /// The current synthetic latency model.
    pub fn latency(&self) -> LatencyModel {
        *read_unpoisoned(&self.latency)
    }

    /// Names of the indexed columns of `table` (implicit PK/UNIQUE/FOREIGN
    /// KEY indexes and explicit `CREATE INDEX`es), in index-creation order —
    /// the order the executor tries them for predicate probes.
    pub fn index_columns(&self, table: &str) -> Result<Vec<String>> {
        let inner = self.inner_read();
        let t = inner.table(table)?;
        Ok(t.indexes
            .iter()
            .map(|ix| t.schema.columns[ix.column].name.clone())
            .collect())
    }

    /// Extracts serializable images of every table, in creation order
    /// (used by [`crate::snapshot`]).
    pub fn snapshot_tables(&self) -> Result<Vec<crate::snapshot::TableSnapshot>> {
        let inner = self.inner_read();
        Ok(inner
            .table_order
            .iter()
            .map(|key| crate::snapshot::TableSnapshot::of(&inner.tables[key]))
            .collect())
    }

    /// Encodes the snapshot image straight from the live tables under one
    /// read guard, with `watermark` as its WAL checkpoint position (used by
    /// [`crate::snapshot::encode`]).
    pub(crate) fn encode_snapshot(&self, watermark: u64) -> Vec<u8> {
        crate::snapshot::encode_inner(&self.inner_read(), watermark)
    }

    /// Rebuilds a database from table images (used by [`crate::snapshot`]).
    /// Rows are assumed internally consistent; constraints are *not*
    /// re-checked row by row, but indexes are rebuilt and row slot ids are
    /// preserved (the WAL addresses rows by id).
    pub fn from_snapshots(snapshots: Vec<crate::snapshot::TableSnapshot>) -> Result<Database> {
        let db = Database::new();
        {
            let mut inner = db.inner_write();
            for snap in snapshots {
                snap.schema.validate()?;
                let key = snap.schema.name.to_lowercase();
                if inner.tables.contains_key(&key) {
                    return Err(Error::AlreadyExists(snap.schema.name.clone()));
                }
                inner.tables.insert(key.clone(), snap.into_table()?);
                inner.table_order.push(key);
            }
        }
        Ok(db)
    }

    /// Saves the database to a snapshot file (see [`crate::snapshot`]).
    /// With a WAL attached this is a **checkpoint**: the snapshot records
    /// the WAL watermark, and once it is durably renamed into place the
    /// log is truncated — every frame it held is contained in the
    /// snapshot. (Intent markers still open at the checkpoint are carried
    /// into the fresh log by [`Wal::truncate`].) Concurrent saves run one
    /// at a time.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let Some(w) = self.wal() else {
            let inner = self.inner_read();
            let _saving = lock_unpoisoned(&self.saving);
            let data = crate::snapshot::encode_inner(&inner, 0);
            return crate::snapshot::write_atomic(&data, path.as_ref());
        };
        // The database is Arc-shared and writable from other threads, so
        // hold the engine lock across encode → rename → truncate: a
        // transaction committing in the gap would have an LSN above the
        // captured watermark, effects absent from the snapshot, and its
        // frame deleted by the truncation — an acknowledged durable
        // commit lost. Commits stage their frame under the write lock, so
        // a read guard held here excludes new ones while letting
        // concurrent readers proceed; its gate share waits out another
        // thread's open transaction, so none of its rows are captured.
        loop {
            // Drain the commit pipeline first: a staged-but-unflushed
            // frame belongs to a transaction whose effects are already
            // visible, and a failed flush would roll it back *after* the
            // snapshot encoded them — an unacknowledged commit made
            // durable by the checkpoint. Only snapshot a quiescent
            // pipeline.
            w.flush_pending()?;
            let inner = self.inner_read();
            if !w.pipeline_idle() {
                // A committer slipped a frame in between the flush and
                // the lock; let it finish and retry.
                drop(inner);
                std::thread::yield_now();
                continue;
            }
            let _saving = lock_unpoisoned(&self.saving);
            let data = crate::snapshot::encode_inner(&inner, w.last_lsn());
            crate::snapshot::write_atomic(&data, path.as_ref())?;
            w.truncate()?;
            drop(inner);
            return Ok(());
        }
    }

    /// Loads a database from a snapshot file (see [`crate::snapshot`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Database> {
        crate::snapshot::load(path)
    }

    /// A deep snapshot of all table contents, for test assertions: table
    /// name → sorted rows rendered as SQL literals.
    pub fn dump(&self) -> std::collections::BTreeMap<String, Vec<String>> {
        let inner = self.inner_read();
        let mut out = std::collections::BTreeMap::new();
        for key in &inner.table_order {
            let t = &inner.tables[key];
            let mut rows: Vec<String> = t
                .iter()
                .map(|(_, r)| {
                    r.iter()
                        .map(|v| v.to_sql_literal())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            rows.sort();
            out.insert(t.schema.name.clone(), rows);
        }
        out
    }
}

thread_local! {
    /// Gates of the databases whose open transaction this thread holds.
    static OWNED_GATES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The engine state under its lock, plus the gate's shared side when the
/// locking thread does not own the open transaction. The state lock is
/// released first.
pub(crate) struct Locked<'a, G> {
    state: G,
    _gate: Option<RwLockReadGuard<'a, ()>>,
}

impl<G: Deref<Target = Inner>> Deref for Locked<'_, G> {
    type Target = Inner;

    fn deref(&self) -> &Inner {
        &self.state
    }
}

impl<G: DerefMut<Target = Inner>> DerefMut for Locked<'_, G> {
    fn deref_mut(&mut self) -> &mut Inner {
        &mut self.state
    }
}

/// Strips a leading `EXPLAIN ANALYZE` (case-insensitive), returning the
/// statement text that follows, or `None` if `sql` is not one.
fn strip_explain_analyze(sql: &str) -> Option<&str> {
    let rest = strip_keyword(sql.trim_start(), "EXPLAIN")?;
    strip_keyword(rest.trim_start(), "ANALYZE")
}

/// Strips one leading keyword followed by whitespace (case-insensitive).
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let head = s.get(..kw.len())?;
    if !head.eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    if rest.starts_with(char::is_whitespace) {
        Some(rest)
    } else {
        None
    }
}

/// Trims SQL for span attributes: collapsed to one line, capped length.
fn truncate_sql(sql: &str) -> String {
    const MAX: usize = 120;
    let flat: String = sql.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.len() <= MAX {
        flat
    } else {
        let cut = (0..=MAX)
            .rev()
            .find(|&i| flat.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &flat[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn setup() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL, \
             karma INT DEFAULT 0);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             title TEXT, FOREIGN KEY (user_id) REFERENCES users(id));",
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_select_roundtrip() {
        let db = setup();
        let r = db
            .execute("INSERT INTO users (name) VALUES ('bea')")
            .unwrap();
        assert_eq!(r.last_insert_id, Some(1));
        let r = db
            .execute("SELECT id, name, karma FROM users WHERE id = 1")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Int(1),
                Value::Text("bea".into()),
                Value::Int(0)
            ]]
        );
    }

    #[test]
    fn fk_insert_enforced() {
        let db = setup();
        let err = db.execute("INSERT INTO posts (user_id, title) VALUES (99, 'x')");
        assert!(matches!(err, Err(Error::ForeignKeyViolation { .. })));
    }

    #[test]
    fn fk_delete_restrict() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('bea')")
            .unwrap();
        db.execute("INSERT INTO posts (user_id, title) VALUES (1, 'x')")
            .unwrap();
        assert!(db.execute("DELETE FROM users WHERE id = 1").is_err());
        // Remove the child first, then the parent delete succeeds.
        db.execute("DELETE FROM posts WHERE user_id = 1").unwrap();
        assert_eq!(
            db.execute("DELETE FROM users WHERE id = 1")
                .unwrap()
                .affected,
            1
        );
    }

    #[test]
    fn fk_delete_cascade() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE a (id INT PRIMARY KEY);
             CREATE TABLE b (id INT PRIMARY KEY, a_id INT, \
             FOREIGN KEY (a_id) REFERENCES a(id) ON DELETE CASCADE);",
        )
        .unwrap();
        db.execute("INSERT INTO a VALUES (1)").unwrap();
        db.execute("INSERT INTO b VALUES (10, 1), (11, 1)").unwrap();
        let r = db.execute("DELETE FROM a WHERE id = 1").unwrap();
        assert_eq!(r.affected, 3);
        assert_eq!(db.row_count("b").unwrap(), 0);
    }

    #[test]
    fn fk_delete_set_null() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE a (id INT PRIMARY KEY);
             CREATE TABLE b (id INT PRIMARY KEY, a_id INT, \
             FOREIGN KEY (a_id) REFERENCES a(id) ON DELETE SET NULL);",
        )
        .unwrap();
        db.execute("INSERT INTO a VALUES (1)").unwrap();
        db.execute("INSERT INTO b VALUES (10, 1)").unwrap();
        db.execute("DELETE FROM a WHERE id = 1").unwrap();
        let r = db.execute("SELECT a_id FROM b WHERE id = 10").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn unique_violation() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, email TEXT UNIQUE)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a@x')").unwrap();
        assert!(db.execute("INSERT INTO t VALUES (2, 'a@x')").is_err());
        // NULLs do not collide.
        db.execute("INSERT INTO t VALUES (3, NULL)").unwrap();
        db.execute("INSERT INTO t VALUES (4, NULL)").unwrap();
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap();
        // Second row violates NOT NULL; the whole statement must roll back.
        assert!(db
            .execute("INSERT INTO users (name) VALUES ('b'), (NULL)")
            .is_err());
        assert_eq!(db.row_count("users").unwrap(), 1);
    }

    /// The error a test transaction returns to roll itself back.
    fn abort() -> Error {
        Error::Txn("rolled back by the test".to_string())
    }

    #[test]
    fn explicit_transaction_rollback() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('keep')")
            .unwrap();
        let before = db.dump();
        let r: Result<()> = db.transaction(|db| {
            db.execute("INSERT INTO users (name) VALUES ('gone')")?;
            db.execute("UPDATE users SET karma = 99 WHERE name = 'keep'")?;
            Err(abort())
        });
        assert_eq!(r.unwrap_err(), abort());
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn statement_failure_inside_txn_keeps_earlier_work() {
        let db = setup();
        let r: Result<()> = db.transaction(|db| {
            db.execute("INSERT INTO users (name) VALUES ('a')")?;
            assert!(db
                .execute("INSERT INTO users (name) VALUES (NULL)")
                .is_err());
            Ok(())
        });
        r.unwrap();
        assert_eq!(db.row_count("users").unwrap(), 1);
    }

    #[test]
    fn transactions_do_not_nest() {
        let db = setup();
        let r: Result<()> = db.transaction(|db| {
            let nested: Result<()> = db.clone().transaction(|_| Ok(()));
            assert!(matches!(nested, Err(Error::Txn(_))), "{nested:?}");
            db.execute("INSERT INTO users (name) VALUES ('a')")?;
            Ok(())
        });
        r.unwrap();
        assert_eq!(db.row_count("users").unwrap(), 1);
    }

    #[test]
    fn a_panic_inside_a_transaction_rolls_it_back() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('keep')")
            .unwrap();
        let before = db.dump();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<()> = db.transaction(|db| {
                db.execute("INSERT INTO users (name) VALUES ('gone')")?;
                // Panics under the state lock, poisoning it mid-statement.
                db.update_with("users", None, &HashMap::new(), |_, _| {
                    panic!("injected panic inside a transaction")
                })?;
                Ok(())
            });
        }));
        assert!(caught.is_err(), "the panic propagates");
        // The gate is free for another thread, which sees none of it.
        let other = db.clone();
        let seen = std::thread::spawn(move || other.dump()).join().unwrap();
        assert_eq!(seen, before);
        // And this thread is no longer marked as an owner.
        let r: Result<()> = db.transaction(|db| {
            db.execute("INSERT INTO users (name) VALUES ('next')")?;
            Ok(())
        });
        r.unwrap();
        assert_eq!(db.row_count("users").unwrap(), 2);
    }

    #[test]
    fn update_and_aggregates() {
        let db = setup();
        for name in ["a", "b", "c"] {
            db.execute(&format!("INSERT INTO users (name) VALUES ('{name}')"))
                .unwrap();
        }
        db.execute("UPDATE users SET karma = 10 WHERE name != 'a'")
            .unwrap();
        let r = db
            .execute("SELECT SUM(karma), AVG(karma), MAX(karma) FROM users")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(20));
        assert_eq!(r.rows[0][1], Value::Float(20.0 / 3.0));
        assert_eq!(r.rows[0][2], Value::Int(10));
    }

    #[test]
    fn group_by_and_order() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('u1'), ('u2')")
            .unwrap();
        db.execute("INSERT INTO posts (user_id, title) VALUES (1, 'a'), (1, 'b'), (2, 'c')")
            .unwrap();
        let r = db
            .execute("SELECT user_id, COUNT(*) AS n FROM posts GROUP BY user_id ORDER BY n DESC")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn joins_inner_and_left() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('u1'), ('u2')")
            .unwrap();
        db.execute("INSERT INTO posts (user_id, title) VALUES (1, 'a')")
            .unwrap();
        let inner = db
            .execute("SELECT u.name, p.title FROM users u INNER JOIN posts p ON p.user_id = u.id")
            .unwrap();
        assert_eq!(inner.rows.len(), 1);
        let left = db
            .execute(
                "SELECT u.name, p.title FROM users u LEFT JOIN posts p ON p.user_id = u.id \
                 ORDER BY u.id",
            )
            .unwrap();
        assert_eq!(left.rows.len(), 2);
        assert_eq!(left.rows[1][1], Value::Null);
    }

    #[test]
    fn params_bind() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('bea')")
            .unwrap();
        let mut params = HashMap::new();
        params.insert("UID".to_string(), Value::Int(1));
        let r = db
            .execute_with_params("SELECT name FROM users WHERE id = $UID", &params)
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("bea".into()));
        assert!(db
            .execute("SELECT name FROM users WHERE id = $UID")
            .is_err());
    }

    #[test]
    fn typed_api() {
        let db = setup();
        let id = db
            .insert_row("users", &[("name", Value::Text("bea".into()))])
            .unwrap();
        assert_eq!(id, Some(1));
        let pred = crate::parser::parse_expr("name = 'bea'").unwrap();
        let rows = db
            .select_rows("users", Some(&pred), &HashMap::new())
            .unwrap();
        assert_eq!(rows.len(), 1);
        let n = db
            .update_with("users", Some(&pred), &HashMap::new(), |schema, row| {
                let k = schema.require_column("karma")?;
                row[k] = Value::Int(7);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            db.execute("SELECT karma FROM users WHERE id = 1")
                .unwrap()
                .rows[0][0],
            Value::Int(7)
        );
        let removed = db.delete_where("users", &pred, &HashMap::new()).unwrap();
        assert_eq!(removed, 1);
    }

    #[test]
    fn stats_count_queries() {
        let db = setup();
        db.reset_stats();
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap();
        db.execute("SELECT * FROM users").unwrap();
        let s = db.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.selects, 1);
        assert_eq!(s.statements, 2);
        assert!(s.rows_written >= 1);
    }

    #[test]
    fn drop_table_and_rollback_restores_it() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap();
        let r: Result<()> = db.transaction(|db| {
            // Child table first (users is referenced by posts).
            db.execute("DROP TABLE posts")?;
            db.execute("DROP TABLE users")?;
            assert!(!db.has_table("users"));
            Err(abort())
        });
        assert!(r.is_err());
        assert!(db.has_table("users"));
        assert_eq!(db.row_count("users").unwrap(), 1);
    }

    #[test]
    fn now_follows_logical_clock() {
        let db = setup();
        db.set_now(12345);
        let r = db.execute("SELECT NOW() FROM users").unwrap();
        // No rows in users yet, so no output rows; insert one and retry.
        assert!(r.rows.is_empty());
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap();
        let r = db.execute("SELECT NOW() FROM users").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(12345));
    }

    #[test]
    fn auto_increment_respects_explicit_values() {
        let db = setup();
        db.execute("INSERT INTO users (id, name) VALUES (10, 'x')")
            .unwrap();
        let r = db.execute("INSERT INTO users (name) VALUES ('y')").unwrap();
        assert_eq!(r.last_insert_id, Some(11));
    }

    #[test]
    fn fault_hook_kills_the_chosen_statement_only() {
        let db = setup();
        db.fail_statement(1);
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap(); // stmt 0
        let err = db.execute("INSERT INTO users (name) VALUES ('b')"); // stmt 1
        assert_eq!(err.unwrap_err(), Error::FaultInjected(1));
        db.execute("INSERT INTO users (name) VALUES ('c')").unwrap(); // stmt 2
        assert_eq!(db.row_count("users").unwrap(), 2);
        assert_eq!(db.fault_statement_count(), 3);
        db.set_fault_hook(None);
        assert_eq!(db.fault_statement_count(), 0, "removal resets the index");
    }

    #[test]
    fn fault_hook_counts_typed_statements_and_spares_txn_control() {
        let db = setup();
        db.set_fault_hook(Some(Arc::new(|_| false)));
        // Opening and committing the transaction are exempt: not counted.
        let r: Result<()> = db.transaction(|db| {
            db.insert_row("users", &[("name", Value::Text("a".into()))])?;
            db.select_rows("users", None, &HashMap::new())?;
            db.update_with("users", None, &HashMap::new(), |_, _| Ok(()))?;
            Ok(())
        });
        r.unwrap();
        assert_eq!(db.fault_statement_count(), 3);
        // A hook that fails everything still lets rollback through.
        db.set_fault_hook(Some(Arc::new(|_| true)));
        let r: Result<()> = db.transaction(|db| {
            db.insert_row("users", &[("name", Value::Text("b".into()))])?;
            Ok(())
        });
        assert_eq!(r.unwrap_err(), Error::FaultInjected(0));
        db.set_fault_hook(None);
        assert_eq!(db.row_count("users").unwrap(), 1);
    }

    #[test]
    fn fault_mid_transaction_rolls_back_cleanly() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('keep')")
            .unwrap();
        let before = db.dump();
        db.fail_statement(1);
        let result: Result<()> = db.transaction(|db| {
            db.insert_row("users", &[("name", Value::Text("gone".into()))])?; // stmt 0
            db.insert_row("users", &[("name", Value::Text("never".into()))])?; // stmt 1: killed
            Ok(())
        });
        assert_eq!(result.unwrap_err(), Error::FaultInjected(1));
        db.set_fault_hook(None);
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn parent_key_update_with_children_is_rejected() {
        let db = setup();
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap();
        db.execute("INSERT INTO posts (user_id, title) VALUES (1, 't')")
            .unwrap();
        assert!(db.execute("UPDATE users SET id = 5 WHERE id = 1").is_err());
        // Without children the key update is allowed.
        db.execute("DELETE FROM posts WHERE id = 1").unwrap();
        db.execute("UPDATE users SET id = 5 WHERE id = 1").unwrap();
    }
}

#[cfg(test)]
mod select_feature_tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Database {
        let db = Database::new();
        db.execute(
            "CREATE TABLE votes (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT, score INT)",
        )
        .unwrap();
        for (u, s) in [(1, 5), (1, 5), (1, 3), (2, 4), (2, 4), (3, 1)] {
            db.execute(&format!(
                "INSERT INTO votes (user_id, score) VALUES ({u}, {s})"
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn offset_pages_through_results() {
        let db = db();
        let page1 = db
            .execute("SELECT id FROM votes ORDER BY id LIMIT 2")
            .unwrap();
        let page2 = db
            .execute("SELECT id FROM votes ORDER BY id LIMIT 2 OFFSET 2")
            .unwrap();
        assert_eq!(page1.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(page2.rows, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
        // Offset past the end yields nothing.
        let empty = db
            .execute("SELECT id FROM votes LIMIT 5 OFFSET 100")
            .unwrap();
        assert!(empty.rows.is_empty());
    }

    #[test]
    fn having_filters_groups_by_alias() {
        let db = db();
        let r = db
            .execute(
                "SELECT user_id, COUNT(*) AS n FROM votes GROUP BY user_id \
                 HAVING n > 1 ORDER BY user_id",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn count_distinct() {
        let db = db();
        let r = db
            .execute("SELECT COUNT(DISTINCT score), COUNT(score) FROM votes")
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(4), Value::Int(6)]);
        // DISTINCT with other aggregates.
        let r = db.execute("SELECT SUM(DISTINCT score) FROM votes").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5 + 3 + 4 + 1));
        // COUNT(DISTINCT *) is rejected.
        assert!(db.execute("SELECT COUNT(DISTINCT *) FROM votes").is_err());
    }

    #[test]
    fn having_without_group_by_checks_global_aggregate() {
        let db = db();
        let some = db
            .execute("SELECT COUNT(*) AS n FROM votes HAVING n > 5")
            .unwrap();
        assert_eq!(some.rows.len(), 1);
        let none = db
            .execute("SELECT COUNT(*) AS n FROM votes HAVING n > 100")
            .unwrap();
        assert!(none.rows.is_empty());
    }
}

#[cfg(test)]
mod subquery_tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE authors (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, banned BOOL \
             NOT NULL DEFAULT FALSE);
             CREATE TABLE books (id INT PRIMARY KEY AUTO_INCREMENT, author_id INT NOT NULL, \
             title TEXT, FOREIGN KEY (author_id) REFERENCES authors(id));",
        )
        .unwrap();
        db.execute(
            "INSERT INTO authors (name, banned) VALUES ('a', FALSE), ('b', TRUE), \
             ('c', TRUE)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO books (author_id, title) VALUES (1, 't1'), (2, 't2'), (3, 't3'), \
             (2, 't4')",
        )
        .unwrap();
        db
    }

    #[test]
    fn in_select_filters_rows() {
        let db = db();
        let r = db
            .execute(
                "SELECT title FROM books WHERE author_id IN \
                 (SELECT id FROM authors WHERE banned = TRUE) ORDER BY id",
            )
            .unwrap();
        let titles: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
        assert_eq!(titles, vec!["t2", "t3", "t4"]);
    }

    #[test]
    fn not_in_select() {
        let db = db();
        let r = db
            .execute(
                "SELECT title FROM books WHERE author_id NOT IN \
                 (SELECT id FROM authors WHERE banned = TRUE)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Text("t1".into()));
    }

    #[test]
    fn subquery_in_update_and_delete_predicates() {
        let db = db();
        let n = db
            .execute(
                "UPDATE books SET title = '[banned]' WHERE author_id IN \
                 (SELECT id FROM authors WHERE banned = TRUE)",
            )
            .unwrap();
        assert_eq!(n.affected, 3);
        let d = db
            .execute(
                "DELETE FROM books WHERE author_id IN \
                 (SELECT id FROM authors WHERE banned = TRUE)",
            )
            .unwrap();
        assert_eq!(d.affected, 3);
        assert_eq!(db.row_count("books").unwrap(), 1);
    }

    #[test]
    fn nested_subqueries() {
        let db = db();
        let r = db
            .execute(
                "SELECT COUNT(*) FROM authors WHERE id IN \
                 (SELECT author_id FROM books WHERE author_id IN \
                  (SELECT id FROM authors WHERE banned = TRUE))",
            )
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(2));
    }

    #[test]
    fn multi_column_subquery_rejected() {
        let db = db();
        assert!(db
            .execute("SELECT * FROM books WHERE author_id IN (SELECT id, name FROM authors)")
            .is_err());
    }

    #[test]
    fn empty_subquery_matches_nothing() {
        let db = db();
        let r = db
            .execute(
                "SELECT COUNT(*) FROM books WHERE author_id IN \
                 (SELECT id FROM authors WHERE name = 'nobody')",
            )
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn subquery_counts_as_statement() {
        let db = db();
        db.reset_stats();
        db.execute("SELECT title FROM books WHERE author_id IN (SELECT id FROM authors)")
            .unwrap();
        let s = db.stats();
        assert_eq!(s.selects, 2, "outer + subquery");
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::value::Value;
    use edna_obs::Tracer;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT);
             CREATE INDEX idx_v ON t (v);",
        )
        .unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t (v) VALUES ('v{i}')"))
                .unwrap();
        }
        db
    }

    #[test]
    fn metrics_render_after_statements() {
        let d = db();
        let text = d.metrics().render_prometheus();
        assert!(text.contains("# TYPE edna_statements_total counter"));
        assert!(text.contains("edna_selects_total"));
        assert!(text.contains("# TYPE edna_statement_seconds histogram"));
        assert!(text.contains("edna_statement_seconds_bucket{le=\"+Inf\"}"));
        // Every INSERT above fed the statement histogram.
        assert!(text.contains("edna_statement_seconds_count 1"));
        // The JSON form must parse and carry the same counters.
        let json = d.metrics().render_json();
        let parsed = edna_obs::json::parse(&json).expect("metrics JSON parses");
        let obj = parsed.as_obj().unwrap();
        let stmts = obj["edna_statements_total"].as_obj().unwrap();
        // 2 DDL statements + 10 INSERTs.
        assert_eq!(stmts["value"].as_num(), Some(12.0));
    }

    #[test]
    fn explain_analyze_reports_real_operators() {
        let d = db();
        let r = d
            .execute("EXPLAIN ANALYZE SELECT v FROM t WHERE v = 'v3'")
            .unwrap();
        assert_eq!(r.columns, vec!["operator", "detail", "rows", "time_us"]);
        let ops: Vec<&str> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Text(s) => s.as_str(),
                other => panic!("non-text operator {other:?}"),
            })
            .collect();
        assert!(
            ops.contains(&"probe"),
            "indexed lookup should probe: {ops:?}"
        );
        assert_eq!(*ops.last().unwrap(), "total");
        // The probe stage saw exactly the matching row.
        let probe = r
            .rows
            .iter()
            .find(|row| row[0] == Value::Text("probe".into()))
            .unwrap();
        assert_eq!(probe[2], Value::Int(1));

        // A predicate no index serves falls back to a scan over all 10 rows.
        let r = d
            .execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v LIKE 'v%'")
            .unwrap();
        let scan = r
            .rows
            .iter()
            .find(|row| row[0] == Value::Text("scan".into()))
            .expect("scan operator");
        assert_eq!(scan[2], Value::Int(10), "scan reads every live row");

        // A comparison on an indexed column walks the index range.
        let r = d
            .execute("EXPLAIN ANALYZE SELECT id FROM t WHERE id > 5")
            .unwrap();
        let range = r
            .rows
            .iter()
            .find(|row| row[0] == Value::Text("range".into()))
            .expect("range operator");
        assert_eq!(range[2], Value::Int(5), "the range yields ids 6 to 10");
    }

    #[test]
    fn explain_analyze_rejects_non_select() {
        let d = db();
        let err = d.execute("EXPLAIN ANALYZE DELETE FROM t WHERE id = 1");
        assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        // And bare EXPLAIN (without ANALYZE) is still a parse error, not
        // silently executed.
        assert!(d.execute("EXPLAIN SELECT * FROM t").is_err());
    }

    #[test]
    fn slow_statement_log_respects_threshold() {
        let d = db();
        // No threshold: nothing is recorded.
        d.execute("SELECT * FROM t").unwrap();
        assert!(d.slow_statements().is_empty());
        // Zero threshold: everything is recorded, counter moves.
        d.set_slow_statement_threshold(Some(Duration::ZERO));
        d.execute("SELECT * FROM t WHERE id = 1").unwrap();
        let slow = d.slow_statements();
        assert_eq!(slow.len(), 1);
        assert!(slow[0].sql.contains("WHERE id = 1"));
        assert!(d
            .metrics()
            .render_prometheus()
            .contains("edna_slow_statements_total 1"));
        // Unreachable threshold: recording stops.
        d.set_slow_statement_threshold(Some(Duration::from_secs(3600)));
        d.execute("SELECT * FROM t").unwrap();
        assert_eq!(d.slow_statements().len(), 1);
    }

    #[test]
    fn tracer_emits_statement_spans() {
        let d = db();
        let tracer = Tracer::new(1024);
        d.set_tracer(Some(tracer.clone()));
        d.execute("INSERT INTO t (v) VALUES ('traced')").unwrap();
        d.execute("SELECT * FROM t WHERE v = 'traced'").unwrap();
        d.set_tracer(None);

        let spans = tracer.spans();
        let stmt_ops: Vec<String> = spans
            .iter()
            .filter(|s| s.label == "statement")
            .filter_map(|s| {
                s.attrs
                    .iter()
                    .find(|(k, _)| k == "op")
                    .map(|(_, v)| v.clone())
            })
            .collect();
        assert_eq!(stmt_ops, vec!["insert".to_string(), "select".to_string()]);
        // Each statement span has lock_wait + execute children.
        let stmt = spans.iter().find(|s| s.label == "statement").unwrap();
        for child in ["lock_wait", "execute"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.label == child && s.parent == Some(stmt.id)),
                "missing child {child}"
            );
        }
        // Parse spans carry the (truncated) SQL text.
        let parse = spans.iter().find(|s| s.label == "parse").unwrap();
        assert!(parse
            .attrs
            .iter()
            .any(|(k, v)| k == "sql" && v.contains("INSERT")));

        // JSONL round trip.
        let jsonl = tracer.to_jsonl();
        for line in jsonl.lines() {
            let rec = crate::SpanRecord::from_json(line).expect("span line parses");
            assert!(!rec.label.is_empty());
        }
    }

    #[test]
    fn typed_select_feeds_statement_histogram() {
        let d = db();
        let before = histogram_count(&d);
        d.select_rows("t", None, &HashMap::new()).unwrap();
        assert_eq!(histogram_count(&d), before + 1);
    }

    fn histogram_count(d: &Database) -> u64 {
        let json = d.metrics().render_json();
        let parsed = edna_obs::json::parse(&json).unwrap();
        let obj = parsed.as_obj().unwrap();
        let hist = obj["edna_statement_seconds"].as_obj().unwrap();
        hist["count"].as_num().unwrap() as u64
    }

    #[test]
    fn poisoned_lock_recovers_and_rolls_back() {
        let d = db();
        // Panic mid-update, while the engine write lock is held and an
        // implicit transaction is open with one row already mutated.
        let mut seen = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.update_with("t", None, &HashMap::new(), |schema, row| {
                seen += 1;
                let pos = schema.require_column("v")?;
                row[pos] = Value::Text("poisoned".into());
                if seen == 2 {
                    panic!("injected panic under engine lock");
                }
                Ok(())
            })
        }));
        assert!(result.is_err(), "closure panic must propagate");

        // The engine must self-repair: the abandoned implicit txn is rolled
        // back (no 'poisoned' values survive) and new statements work.
        let r = d
            .execute("SELECT COUNT(*) FROM t WHERE v = 'poisoned'")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
        d.execute("INSERT INTO t (v) VALUES ('after')").unwrap();
        assert_eq!(d.row_count("t").unwrap(), 11);
    }

    #[test]
    fn poisoned_stmt_cache_recovers() {
        let d = db();
        // Poison the statement-cache mutex directly.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = d.stmt_cache.lock().unwrap();
            panic!("poison stmt cache");
        }));
        assert!(d.stmt_cache.is_poisoned());
        // Cached execution still works (lock_unpoisoned re-enters).
        d.execute("SELECT * FROM t WHERE id = $ID").unwrap_err();
        d.execute("SELECT * FROM t").unwrap();
    }

    #[test]
    fn auto_increment_restored_on_rollback() {
        let d = Database::new();
        d.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)")
            .unwrap();
        d.execute("INSERT INTO t (v) VALUES ('a')").unwrap(); // id 1
        let r: Result<()> = d.transaction(|d| {
            d.execute("INSERT INTO t (v) VALUES ('b')")?; // id 2
                                                          // Explicit value ahead of the counter bumps it too...
            d.execute("INSERT INTO t (id, v) VALUES (50, 'c')")?;
            Err(Error::Txn("roll back".to_string()))
        });
        assert!(r.is_err());
        // ...but rollback fully restores the counter (deliberately not
        // MySQL's leak-the-ids behavior — see exec.rs): the next insert
        // reuses id 2, not 51.
        let r = d.execute("INSERT INTO t (v) VALUES ('d')").unwrap();
        assert_eq!(r.last_insert_id, Some(2));
    }

    #[test]
    fn auto_increment_survives_snapshot_round_trip() {
        let d = Database::new();
        d.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)")
            .unwrap();
        for v in ["a", "b", "c"] {
            d.execute(&format!("INSERT INTO t (v) VALUES ('{v}')"))
                .unwrap();
        }
        // Delete the highest row: a naive max(id)+1 reconstruction would
        // hand out 3 again.
        d.execute("DELETE FROM t WHERE id = 3").unwrap();
        let restored = Database::from_snapshots(d.snapshot_tables().unwrap()).unwrap();
        let r = restored.execute("INSERT INTO t (v) VALUES ('d')").unwrap();
        assert_eq!(r.last_insert_id, Some(4), "snapshot must persist next_auto");
    }
}
