//! The disguising tool: applying disguises.
//!
//! [`Disguiser`] is the external tool of paper Figure 1: applications
//! invoke its API with a disguise name (and user id for user-scoped
//! disguises); it interprets the registered specification and applies the
//! necessary physical changes to the database in one transaction,
//! recording reveal functions in vaults for reversible disguises and
//! logging the application in the disguise history.
//!
//! Apply-time composition (paper §4.2, §6): when a prior reversible
//! disguise has transformed rows this disguise's predicates need to see,
//! the tool reads reveal functions from vaults, *temporarily recorrelates*
//! the affected rows, applies the disguise, and re-disguises whatever
//! survives untouched. With [`ApplyOptions::optimize`] set, the static
//! analysis of [`crate::analysis`] skips recorrelation for decorrelations
//! a prior disguise already performed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use edna_obs::{SpanGuard, Tracer};
use edna_util::rng::Prng;
use edna_util::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use std::sync::{Mutex, RwLock};

use edna_relational::{
    eval_predicate, Database, EvalContext, Expr, OpenIntent, StatsSnapshot, TableSchema, Value,
};
use edna_vault::{MemoryStore, RevealOp, TieredVault, Vault, VaultEntry, VaultTier};

use crate::analysis::{plan_composition, CompositionPlan};
use crate::analyze::{self, Diagnostic};
use crate::error::{Error, Result};
use crate::history::{HistoryLog, HISTORY_TABLE};
use crate::placeholder::create_placeholders;
use crate::spec::{validate_spec, DisguiseSpec, PredicatedTransform, Transformation};

/// One batch of pk-keyed updates, as `Database::update_rows_by_pk` takes
/// them: `(pk, [(column index, new value)])` per row.
type PkUpdates = Vec<(Value, Vec<(usize, Value)>)>;

/// Knobs controlling disguise application.
#[derive(Debug, Clone, Copy)]
pub struct ApplyOptions {
    /// Consult vaults of prior disguises and recorrelate conflicting rows
    /// (paper §4.2). Off = pretend prior disguises don't exist; assertions
    /// will catch missed rows.
    pub compose: bool,
    /// Use static analysis to skip decorrelations a prior disguise already
    /// performed (the paper's §6 optimization).
    pub optimize: bool,
    /// Wrap the whole application in one transaction ("Edna currently
    /// applies these changes in one large SQL transaction", §6).
    pub use_transaction: bool,
    /// Upper bound on rows transformed by this application (`None` =
    /// unbounded). The decay daemon uses this to run incrementally: when
    /// the budget runs out mid-application the report comes back with
    /// `budget_exhausted` set, end-state assertions are skipped (the
    /// state is partial by design), and re-applying the same disguise
    /// later picks up the untouched rows. `Remove` transforms are gated
    /// at transform granularity — cascade deletes make exact row bounds
    /// impractical — so a single Remove may overshoot the budget but the
    /// next transform then stops.
    pub row_budget: Option<usize>,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        ApplyOptions {
            compose: true,
            optimize: true,
            use_transaction: true,
            row_budget: None,
        }
    }
}

/// What one disguise application did.
#[derive(Debug, Clone)]
pub struct DisguiseReport {
    /// History id of this application (0 if the disguise recorded nothing).
    pub disguise_id: u64,
    /// Disguise name.
    pub name: String,
    /// Disguised user (NULL for global).
    pub user_id: Value,
    /// Rows deleted (including cascades).
    pub rows_removed: usize,
    /// Rows whose foreign key was re-pointed at a placeholder.
    pub rows_decorrelated: usize,
    /// Rows with a modified column.
    pub rows_modified: usize,
    /// Placeholder rows created.
    pub placeholders_created: usize,
    /// Rows temporarily recorrelated from vaults (composition).
    pub rows_recorrelated: usize,
    /// Recorrelated rows re-disguised afterwards.
    pub rows_redone: usize,
    /// Vault ops skipped by the static-analysis optimization.
    pub skipped_redundant: usize,
    /// Wall-clock duration of the application.
    pub duration: Duration,
    /// Engine statement/row counters consumed by this application.
    pub stats: StatsSnapshot,
    /// Vault-store retries absorbed during this application.
    pub vault_retries: u64,
    /// Whether a WAL intent marker brackets this application's vault-side
    /// writes (set when the database has a WAL attached and the disguise
    /// recorded reveal functions).
    pub(crate) wal_intent: bool,
    /// Whether [`ApplyOptions::row_budget`] ran out before every matching
    /// row was transformed: the application is partial and should be
    /// re-run (the scheduler does so on its next tick).
    pub budget_exhausted: bool,
    /// Rows of budget left while the application runs (`None` =
    /// unbounded). Seeded from [`ApplyOptions::row_budget`].
    pub(crate) remaining_budget: Option<usize>,
}

impl Default for DisguiseReport {
    fn default() -> Self {
        DisguiseReport {
            disguise_id: 0,
            name: String::new(),
            user_id: Value::Null,
            rows_removed: 0,
            rows_decorrelated: 0,
            rows_modified: 0,
            placeholders_created: 0,
            rows_recorrelated: 0,
            rows_redone: 0,
            skipped_redundant: 0,
            duration: Duration::ZERO,
            stats: StatsSnapshot::default(),
            vault_retries: 0,
            wal_intent: false,
            budget_exhausted: false,
            remaining_budget: None,
        }
    }
}

/// A vault write deferred by `apply_many` so a shard can flush a whole
/// chunk of users' entries in one batched backend round trip.
pub(crate) struct PendingVaultPut {
    pub(crate) tier: VaultTier,
    pub(crate) entry: VaultEntry,
    pub(crate) disguise_id: u64,
}

/// What one mass disguise application ([`Disguiser::apply_many`]) did.
#[derive(Debug, Clone)]
pub struct ApplyManyReport {
    /// Disguise name.
    pub name: String,
    /// Users requested.
    pub users: usize,
    /// Users disguised successfully.
    pub succeeded: usize,
    /// Users whose application failed, with the error rendered: either
    /// it rolled back, or its vault write failed after it committed (see
    /// `degraded`).
    pub failures: Vec<(Value, String)>,
    /// Shards the users were hash-partitioned into.
    pub shards: usize,
    /// Rows deleted across all users.
    pub rows_removed: usize,
    /// Rows decorrelated across all users.
    pub rows_decorrelated: usize,
    /// Rows modified across all users.
    pub rows_modified: usize,
    /// Placeholder rows created across all users.
    pub placeholders_created: usize,
    /// Reveal-function entries written to vaults (batched per chunk).
    pub vault_entries: usize,
    /// Users whose disguise degraded to irreversible because the vault
    /// write failed after the database changes were already committed.
    pub degraded: usize,
    /// Wall-clock duration of the whole mass application.
    pub duration: Duration,
}

/// What one shard worker accumulated; merged into [`ApplyManyReport`].
#[derive(Default)]
struct ShardOutcome {
    succeeded: usize,
    failures: Vec<(Value, String)>,
    rows_removed: usize,
    rows_decorrelated: usize,
    rows_modified: usize,
    placeholders_created: usize,
    vault_entries: usize,
    degraded: usize,
}

/// A row temporarily recorrelated from a vault during composition.
pub(crate) struct Recorrelated {
    pub table: String,
    pub pk_column: String,
    pub pk: Value,
    /// `(column, original value, disguised value)` triples.
    pub cols: Vec<(String, Value, Value)>,
}

/// The data disguising tool.
///
/// # Examples
///
/// ```
/// use edna_core::{Disguiser, spec::DisguiseSpecBuilder};
/// use edna_relational::{Database, Value};
///
/// let db = Database::new();
/// db.execute("CREATE TABLE users (id INT PRIMARY KEY, email TEXT)").unwrap();
/// db.execute("INSERT INTO users VALUES (19, 'bea@uni.edu')").unwrap();
///
/// let edna = Disguiser::new(db.clone());
/// edna.register(
///     DisguiseSpecBuilder::new("GDPR")
///         .user_scoped()
///         .remove("users", Some("id = $UID"))
///         .build()
///         .unwrap(),
/// ).unwrap();
/// let report = edna.apply("GDPR", Some(&Value::Int(19))).unwrap();
/// assert_eq!(report.rows_removed, 1);
/// assert_eq!(db.row_count("users").unwrap(), 0);
///
/// // The user returns: reverse the disguise.
/// edna.reveal(report.disguise_id).unwrap();
/// assert_eq!(db.row_count("users").unwrap(), 1);
/// ```
pub struct Disguiser {
    pub(crate) db: Database,
    pub(crate) vaults: TieredVault,
    pub(crate) history: HistoryLog,
    /// Registered specs, behind interior locking so registration is a
    /// `&self` operation and the disguiser can be shared across server
    /// worker threads (`Send + Sync` service shape).
    pub(crate) specs: RwLock<HashMap<String, DisguiseSpec>>,
    /// Warnings the static analyzer recorded when each spec registered.
    pub(crate) warnings: RwLock<HashMap<String, Vec<Diagnostic>>>,
    pub(crate) rng: Mutex<Prng>,
}

/// The placeholder RNG seed of a fresh state.
const BASE_SEED: u64 = 0xED4A;

/// The placeholder RNG seed for a disguiser opened over `db`: the base seed
/// mixed with the state's WAL position and history length. A session that
/// stored placeholders committed writes, which advanced the WAL position of
/// a durable state (and the history of any state), so a reopened workspace
/// draws a stream no earlier session drew — replaying one would redraw
/// names `UNIQUE` columns already hold — while a given state always draws
/// the same one. A fresh state keeps the base seed.
fn placeholder_seed(db: &Database) -> u64 {
    let history = db.row_count(HISTORY_TABLE).unwrap_or(0) as u64;
    BASE_SEED ^ db.wal_last_lsn().rotate_left(32) ^ history
}

impl Disguiser {
    /// Creates a disguiser over `db` with default in-memory vaults
    /// (plain global tier, encrypted per-user tier) and an RNG seeded from
    /// the state (see [`Disguiser::set_seed`] to pin it).
    pub fn new(db: Database) -> Disguiser {
        let vaults = TieredVault::new(
            Vault::plain(MemoryStore::new()),
            Vault::encrypted(MemoryStore::new(), 0xED4A),
        );
        Self::with_vaults(db, vaults)
    }

    /// Creates a disguiser with explicit vault tiers.
    pub fn with_vaults(db: Database, vaults: TieredVault) -> Disguiser {
        let history = HistoryLog::open(db.clone()).expect("history table creation");
        let seed = placeholder_seed(&db);
        Disguiser {
            db,
            vaults,
            history,
            specs: RwLock::new(HashMap::new()),
            warnings: RwLock::new(HashMap::new()),
            rng: Mutex::new(Prng::seed_from_u64(seed)),
        }
    }

    /// Reseeds the RNG (placeholder values become reproducible).
    pub fn set_seed(&self, seed: u64) {
        *lock_unpoisoned(&self.rng) = Prng::seed_from_u64(seed);
    }

    /// Installs (or with `None` removes) a tracer across every layer this
    /// disguiser touches: the engine emits per-statement spans, the vaults
    /// emit storage spans, and the disguiser itself emits disguise-phase
    /// spans (`disguise_apply`, `recorrelate`, `transform`,
    /// `predicate_scan`, `placeholder_gen`, `transform_write`,
    /// `redo_pass`, `assertions`, `history_append`, `vault_write`,
    /// `reveal`, ...), all sharing one span buffer.
    pub fn set_tracer(&self, tracer: Option<Tracer>) {
        self.db.set_tracer(tracer.clone());
        self.vaults.set_tracer(tracer);
    }

    /// Opens a disguise-phase span if a tracer is installed.
    pub(crate) fn span(&self, label: &str) -> Option<SpanGuard> {
        self.db.tracer().map(|t| t.begin(label))
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The vault tiers.
    pub fn vaults(&self) -> &TieredVault {
        &self.vaults
    }

    /// The history log.
    pub fn history(&self) -> &HistoryLog {
        &self.history
    }

    /// Resolves disguise intents that recovery found open in the WAL
    /// (intent marker with no commit marker): for each one, the database's
    /// own history table is the commit arbiter.
    ///
    /// - History row **present** — the disguise's transaction committed;
    ///   its vault writes are legitimate. The intent is closed with a
    ///   commit marker (the original one was lost to the crash).
    /// - History row **absent** — the transaction never committed; the
    ///   vault entry is an orphan carrying reveal functions for a disguise
    ///   that never happened. It is removed, then the intent is closed.
    ///
    /// Idempotent: re-resolving an already-resolved intent removes nothing
    /// and re-stamps the marker. Called by `Workspace::open` after WAL
    /// replay; safe to call with an empty slice.
    pub fn resolve_recovered_intents(&self, intents: &[OpenIntent]) -> Result<IntentResolution> {
        let mut resolution = IntentResolution::default();
        for intent in intents {
            let committed = self.history.get(intent.disguise_id).is_ok();
            if committed {
                resolution.completed.push(intent.disguise_id);
            } else {
                self.vaults.remove(&intent.user, intent.disguise_id)?;
                resolution.undone.push(intent.disguise_id);
            }
            // Close the bracket either way so the next recovery does not
            // re-resolve it (a commit marker here means "resolved", not
            // necessarily "applied" — the history row is the arbiter).
            self.db.wal_disguise_commit(intent.disguise_id)?;
        }
        Ok(resolution)
    }

    /// Registers a disguise specification: validates it against the
    /// schema, then runs the static analyzer ([`crate::analyze`]) with
    /// every already-registered spec as composition context.
    /// Registration fails on analyzer errors ([`Error::AnalysisFailed`]);
    /// warnings are recorded and readable via
    /// [`Disguiser::registration_warnings`].
    pub fn register(&self, spec: DisguiseSpec) -> Result<()> {
        validate_spec(&spec, &self.db)?;
        let priors = self.prior_specs(&spec.name);
        let prior_refs: Vec<&DisguiseSpec> = priors.iter().collect();
        let diags = analyze::analyze_spec(&spec, &self.db, &prior_refs);
        if analyze::has_errors(&diags) {
            return Err(Error::AnalysisFailed {
                disguise: spec.name.clone(),
                report: analyze::render_report(&diags),
            });
        }
        write_unpoisoned(&self.warnings).insert(spec.name.clone(), diags);
        write_unpoisoned(&self.specs).insert(spec.name.clone(), spec);
        Ok(())
    }

    /// Every registered spec except `excluding`, sorted by name so
    /// analyzer output is deterministic.
    fn prior_specs(&self, excluding: &str) -> Vec<DisguiseSpec> {
        let specs = read_unpoisoned(&self.specs);
        let mut priors: Vec<DisguiseSpec> = specs
            .values()
            .filter(|s| s.name != excluding)
            .cloned()
            .collect();
        priors.sort_by(|a, b| a.name.cmp(&b.name));
        priors
    }

    /// Re-runs the static analyzer on a registered spec against the
    /// current schema and the other registered specs.
    pub fn check(&self, name: &str) -> Result<Vec<Diagnostic>> {
        let spec = self.spec(name)?;
        let priors = self.prior_specs(name);
        let prior_refs: Vec<&DisguiseSpec> = priors.iter().collect();
        Ok(analyze::analyze_spec(&spec, &self.db, &prior_refs))
    }

    /// Runs [`Disguiser::check`] over every registered spec, sorted by
    /// name.
    pub fn check_all(&self) -> Vec<(String, Vec<Diagnostic>)> {
        let mut names: Vec<String> = read_unpoisoned(&self.specs).keys().cloned().collect();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let diags = self.check(&n).expect("registered spec");
                (n, diags)
            })
            .collect()
    }

    /// Audits the whole registered disguise graph (all interleavings)
    /// plus the given scheduled `policies`; see
    /// [`analyze::audit_workspace`]. Specs are passed sorted by name so
    /// the exploration and its diagnostics are deterministic.
    pub fn audit(&self, policies: &[crate::policy::Policy]) -> Vec<Diagnostic> {
        let mut specs: Vec<DisguiseSpec> = read_unpoisoned(&self.specs).values().cloned().collect();
        specs.sort_by(|a, b| a.name.cmp(&b.name));
        analyze::audit_workspace(&self.db, &specs, policies)
    }

    /// The warnings the analyzer recorded when `name` registered (empty
    /// if none, or if the spec is unknown).
    pub fn registration_warnings(&self, name: &str) -> Vec<Diagnostic> {
        read_unpoisoned(&self.warnings)
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Parses, validates, and registers a DSL spec; returns its name.
    pub fn register_dsl(&self, dsl: &str) -> Result<String> {
        let spec = crate::spec::parse_spec(dsl)?;
        let name = spec.name.clone();
        self.register(spec)?;
        Ok(name)
    }

    /// Re-validates every registered disguise against the (possibly
    /// evolved) schema, returning the names of specs that no longer
    /// validate and the reason (paper §7: schema updates in a system that
    /// has already applied disguises).
    pub fn revalidate(&self) -> Vec<(String, Error)> {
        let specs = read_unpoisoned(&self.specs);
        let mut failures = Vec::new();
        let mut names: Vec<&String> = specs.keys().collect();
        names.sort();
        for name in names {
            if let Err(e) = validate_spec(&specs[name], &self.db) {
                failures.push((name.clone(), e));
            }
        }
        failures
    }

    /// The registered spec with the given name (cloned out of the
    /// interior-locked registry).
    pub fn spec(&self, name: &str) -> Result<DisguiseSpec> {
        read_unpoisoned(&self.specs)
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchDisguise(name.to_string()))
    }

    /// Purges expired vault entries at logical time `now`, making their
    /// disguises irreversible; returns how many entries were dropped. Runs
    /// inside a transaction, so it cannot land in the middle of another
    /// thread's apply, reveal or replication bootstrap.
    pub fn purge_expired(&self, now: i64) -> Result<usize> {
        self.db.transaction(|_| Ok(self.vaults.purge_expired(now)?))
    }

    /// Applies a registered disguise with the default [`ApplyOptions`].
    pub fn apply(&self, name: &str, user: Option<&Value>) -> Result<DisguiseReport> {
        let applied = self.apply_if(name, user, |_| Ok(true))?;
        Ok(applied.expect("an unconditional apply always applies"))
    }

    /// Like [`Disguiser::apply`], but first evaluates `due` inside the
    /// apply's transaction and applies only if it returns true; returns
    /// `Ok(None)` otherwise. The check and the application are one step
    /// to other threads, so a caller that picked the user earlier (a
    /// policy tick) cannot apply on top of a concurrent apply of the same
    /// disguise, or to a user who became active meanwhile.
    pub fn apply_if(
        &self,
        name: &str,
        user: Option<&Value>,
        due: impl Fn(&Disguiser) -> Result<bool>,
    ) -> Result<Option<DisguiseReport>> {
        self.apply_recorded(name, user, ApplyOptions::default(), &due, &mut |_| Ok(()))
    }

    /// Applies a registered disguise with explicit options.
    pub fn apply_with_options(
        &self,
        name: &str,
        user: Option<&Value>,
        opts: ApplyOptions,
    ) -> Result<DisguiseReport> {
        let applied = self.apply_recorded(name, user, opts, &|_| Ok(true), &mut |_| Ok(()))?;
        Ok(applied.expect("an unconditional apply always applies"))
    }

    /// [`Disguiser::apply_if`] with explicit options and a bookkeeping
    /// step: once the history row is written, `record` runs with the
    /// report so far (its id and row counts are final), still inside the
    /// apply's transaction and before anything leaves the database (the
    /// WAL intent marker and the vault put). Rows it writes commit or
    /// roll back with the disguise, and an error from it aborts the apply
    /// like a failed statement. The server stores a reveal capability
    /// and an idempotency-ledger row this way.
    pub fn apply_recorded(
        &self,
        name: &str,
        user: Option<&Value>,
        opts: ApplyOptions,
        due: &dyn Fn(&Disguiser) -> Result<bool>,
        record: &mut dyn FnMut(&DisguiseReport) -> Result<()>,
    ) -> Result<Option<DisguiseReport>> {
        let spec = self.spec(name)?;
        let user_value = match (spec.user_scoped, user) {
            (true, Some(u)) if !u.is_null() => u.clone(),
            (true, _) => return Err(Error::MissingUser(name.to_string())),
            (false, _) => Value::Null,
        };
        let mut params = HashMap::new();
        if !user_value.is_null() {
            params.insert("UID".to_string(), user_value.clone());
        }

        let mut root = self.span("disguise_apply");
        if let Some(g) = root.as_mut() {
            g.attr("disguise", name);
            g.attr("user", user_value.to_sql_literal());
        }
        let started = Instant::now();
        let stats_before = self.db.stats();
        let vault_stats_before = self.vaults.store_stats();
        let mut apply = || match due(self)? {
            true => self
                .apply_inner(&spec, &user_value, &params, opts, record, None)
                .map(Some),
            false => Ok(None),
        };
        // A failed commit (e.g. the WAL append died) rolled the transaction
        // back inside the engine, but the vault write already happened
        // outside it — and the commit is AMBIGUOUS: the frame may or may
        // not have reached disk before the append reported failure. The
        // vault entry is NOT undone here; the intent marker stays open and
        // the next recovery resolves it against what actually persisted
        // (history row present → entry is legitimate; absent → removed).
        // Without `use_transaction` the statements commit one by one.
        let applied = if opts.use_transaction {
            self.db.transaction(|_| apply())
        } else {
            apply()
        };
        let Some(mut report) = applied? else {
            return Ok(None);
        };
        // The disguise is durable: close the intent bracket. Losing this
        // marker is benign — recovery re-resolves the intent against the
        // committed history row.
        if report.wal_intent {
            let _ = self.db.wal_disguise_commit(report.disguise_id);
        }
        report.duration = started.elapsed();
        report.stats = self.db.stats().since(&stats_before);
        report.vault_retries = self
            .vaults
            .store_stats()
            .retries
            .saturating_sub(vault_stats_before.retries);
        Ok(Some(report))
    }

    /// Applies a user-scoped disguise to many users at once, sharded by
    /// owner hash across a scoped thread pool (ROADMAP: mass disguising —
    /// "10k departing users in one request").
    ///
    /// Each shard owns a disjoint set of users (owner-column predicates
    /// make their row sets disjoint too, which is what makes the shards
    /// independent), applies the disguise to each user in a transaction
    /// of its own, with the default [`ApplyOptions`], so other threads
    /// see a user's disguise all or nothing — the shards' work
    /// serializes on the engine gate, but their commits wait for the
    /// group-commit WAL after releasing it and share fsyncs — and batches
    /// its vault puts (in one short transaction) and intent-close markers
    /// per chunk of [`Disguiser::VAULT_PUT_BATCH`] users. Do not call it
    /// inside a transaction: the shards would wait for it.
    ///
    /// Failure semantics: a user whose application errors is rolled back,
    /// reported in [`ApplyManyReport::failures`], and does not stop the
    /// rest. If a batched vault put fails, the affected users' database
    /// changes are already committed and cannot be rolled back: they are
    /// marked degraded (irreversible) and reported failed. Open WAL
    /// intents from a crash mid-`apply_many` are resolved by the next
    /// recovery exactly as for single applications.
    pub fn apply_many(
        &self,
        name: &str,
        users: &[Value],
        shards: usize,
    ) -> Result<ApplyManyReport> {
        let spec = self.spec(name)?;
        if !spec.user_scoped {
            return Err(Error::SpecInvalid {
                disguise: name.to_string(),
                message: "apply_many requires a user-scoped disguise".to_string(),
            });
        }
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shard_count = if shards == 0 { hw } else { shards }
            .min(users.len())
            .max(1);

        let mut root = self.span("disguise_apply_many");
        if let Some(g) = root.as_mut() {
            g.attr("disguise", name);
            g.attr("users", users.len().to_string());
            g.attr("shards", shard_count.to_string());
        }
        let started = Instant::now();

        // Owner-hash partition: every occurrence of the same user id lands
        // in the same shard, so per-user application order is preserved.
        let mut buckets: Vec<Vec<Value>> = vec![Vec::new(); shard_count];
        for user in users {
            buckets[owner_shard(user, shard_count)].push(user.clone());
        }

        let spec = &spec;
        let outcomes: Vec<ShardOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .iter()
                .filter(|b| !b.is_empty())
                .map(|bucket| s.spawn(move || self.apply_shard(spec, bucket)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => outcome,
                    Err(_) => ShardOutcome {
                        failures: vec![(Value::Null, "shard worker panicked".to_string())],
                        ..ShardOutcome::default()
                    },
                })
                .collect()
        });

        let mut report = ApplyManyReport {
            name: name.to_string(),
            users: users.len(),
            succeeded: 0,
            failures: Vec::new(),
            shards: shard_count,
            rows_removed: 0,
            rows_decorrelated: 0,
            rows_modified: 0,
            placeholders_created: 0,
            vault_entries: 0,
            degraded: 0,
            duration: Duration::ZERO,
        };
        for o in outcomes {
            report.succeeded += o.succeeded;
            report.failures.extend(o.failures);
            report.rows_removed += o.rows_removed;
            report.rows_decorrelated += o.rows_decorrelated;
            report.rows_modified += o.rows_modified;
            report.placeholders_created += o.placeholders_created;
            report.vault_entries += o.vault_entries;
            report.degraded += o.degraded;
        }
        report.duration = started.elapsed();
        Ok(report)
    }

    /// Users per batched vault flush inside one `apply_many` shard.
    pub const VAULT_PUT_BATCH: usize = 32;

    /// One shard of [`Disguiser::apply_many`]: applies the disguise to its
    /// users chunk by chunk, flushing each chunk's vault entries in one
    /// batched put and then closing their WAL intent brackets.
    fn apply_shard(&self, spec: &DisguiseSpec, users: &[Value]) -> ShardOutcome {
        let opts = ApplyOptions::default();
        let mut out = ShardOutcome::default();
        for chunk in users.chunks(Self::VAULT_PUT_BATCH) {
            let mut pending: Vec<PendingVaultPut> = Vec::new();
            let mut applied: Vec<(Value, DisguiseReport)> = Vec::new();
            for user in chunk {
                let mut params = HashMap::new();
                params.insert("UID".to_string(), user.clone());
                // A failed commit is ambiguous, as for a single apply: the
                // user's deferred vault entry stays in the batch and the
                // open intent lets recovery decide.
                match self.db.transaction(|_| {
                    self.apply_inner(
                        spec,
                        user,
                        &params,
                        opts,
                        &mut |_| Ok(()),
                        Some(&mut pending),
                    )
                }) {
                    Ok(report) => applied.push((user.clone(), report)),
                    Err(e) => out.failures.push((user.clone(), e.to_string())),
                }
            }
            for (_, r) in &applied {
                out.rows_removed += r.rows_removed;
                out.rows_decorrelated += r.rows_decorrelated;
                out.rows_modified += r.rows_modified;
                out.placeholders_created += r.placeholders_created;
            }
            // Inside a transaction, so a replication bootstrap cannot copy
            // the vault files halfway through the chunk's puts.
            let flushed = self
                .db
                .transaction(|_| Ok::<_, Error>(self.flush_pending_puts(pending, &mut out)));
            let flush_failures = match flushed {
                Ok(failures) => failures,
                // Its degraded marks did not commit: fail the whole chunk.
                Err(e) => applied
                    .iter()
                    .map(|(u, _)| (u.clone(), e.to_string()))
                    .collect(),
            };
            // Close every intent bracket the chunk opened — including
            // degraded ones, whose history rows now say "irreversible"
            // (recovery treats a present history row as committed either
            // way). Losing a marker here is benign: see apply_recorded.
            for (_, r) in &applied {
                if r.wal_intent {
                    let _ = self.db.wal_disguise_commit(r.disguise_id);
                }
            }
            for (user, reason) in flush_failures {
                match applied.iter().position(|(u, _)| *u == user) {
                    Some(i) => {
                        applied.remove(i);
                        out.failures.push((user, reason));
                    }
                    None => out.failures.push((user, reason)),
                }
            }
            out.succeeded += applied.len();
        }
        out
    }

    /// Flushes one chunk's deferred vault puts: the fast path is a single
    /// batched `put_all` per tier. If a batch fails, falls back to
    /// idempotent per-entry puts (a prefix of the batch may already be
    /// stored) and marks each entry that still cannot be stored degraded.
    /// Returns the users to be marked failed.
    fn flush_pending_puts(
        &self,
        pending: Vec<PendingVaultPut>,
        out: &mut ShardOutcome,
    ) -> Vec<(Value, String)> {
        if pending.is_empty() {
            return Vec::new();
        }
        let mut failures = Vec::new();
        for tier in [VaultTier::Global, VaultTier::PerUser] {
            let batch: Vec<&PendingVaultPut> = pending.iter().filter(|p| p.tier == tier).collect();
            if batch.is_empty() {
                continue;
            }
            let entries: Vec<VaultEntry> = batch.iter().map(|p| p.entry.clone()).collect();
            if self.vaults.put_all(tier, &entries).is_ok() {
                out.vault_entries += entries.len();
                continue;
            }
            // Batch failed partway: settle each entry individually.
            for p in &batch {
                let already = self
                    .vaults
                    .entries_for_disguise(&p.entry.user_id, p.disguise_id)
                    .map(|es| es.contains(&p.entry))
                    .unwrap_or(false);
                if already {
                    out.vault_entries += 1;
                    continue;
                }
                let vault_err = match self.vaults.put(tier, &p.entry) {
                    Ok(()) => {
                        out.vault_entries += 1;
                        continue;
                    }
                    Err(e) => e,
                };
                // The database changes are committed; nothing to roll
                // back. Degrade instead, so the history row never offers
                // a reveal it cannot honor.
                let reason = format!("vault write failed: {vault_err}");
                let _ = self.history.mark_degraded(p.disguise_id, &reason);
                out.degraded += 1;
                failures.push((p.entry.user_id.clone(), reason));
            }
        }
        failures
    }

    fn apply_inner(
        &self,
        spec: &DisguiseSpec,
        user_value: &Value,
        params: &HashMap<String, Value>,
        opts: ApplyOptions,
        record: &mut dyn FnMut(&DisguiseReport) -> Result<()>,
        mut vault_sink: Option<&mut Vec<PendingVaultPut>>,
    ) -> Result<DisguiseReport> {
        let mut report = DisguiseReport {
            name: spec.name.clone(),
            user_id: user_value.clone(),
            remaining_budget: opts.row_budget,
            ..DisguiseReport::default()
        };
        let now = self.db.now();

        // Composition pre-pass: temporarily recorrelate rows that prior
        // disguises transformed and this disguise needs to see (§4.2).
        let recorrelated = if opts.compose {
            let _phase = self.span("recorrelate");
            self.recorrelate_for(spec, user_value, params, opts.optimize, &mut report)?
        } else {
            Vec::new()
        };

        // Main pass: the spec's predicated transformations, in order.
        let mut ops: Vec<RevealOp> = Vec::new();
        for section in &spec.tables {
            for pt in &section.transformations {
                self.apply_transform(
                    spec,
                    &section.table,
                    pt,
                    None,
                    params,
                    &mut ops,
                    &mut report,
                )?;
            }
        }

        // Redo pass: re-disguise recorrelated rows the main pass left
        // untouched, restoring the prior disguise's protection. Writes are
        // collected per table and flushed in one batch each.
        let redo_span = self.span("redo_pass");
        let mut redo: Vec<(String, PkUpdates)> = Vec::new();
        for r in &recorrelated {
            let schema = self.db.schema(&r.table)?;
            let pred = pk_pred(&r.pk_column, &r.pk);
            let rows = self
                .db
                .select_rows(&r.table, Some(&pred), &HashMap::new())?;
            let Some(row) = rows.first() else { continue };
            let mut to_redo: Vec<(usize, Value)> = Vec::new();
            for (col, original, disguised) in &r.cols {
                let idx = schema.require_column(col)?;
                if row[idx] == *original {
                    to_redo.push((idx, disguised.clone()));
                }
            }
            if to_redo.is_empty() {
                continue;
            }
            match redo.iter_mut().find(|(t, _)| t == &r.table) {
                Some((_, batch)) => batch.push((r.pk.clone(), to_redo)),
                None => redo.push((r.table.clone(), vec![(r.pk.clone(), to_redo)])),
            }
        }
        for (table, updates) in &redo {
            report.rows_redone += self.db.update_rows_by_pk(table, updates)?;
        }
        drop(redo_span);

        // End-state assertions (§7): zero rows may match. A budget-paused
        // application skips them — rows the budget left untouched would
        // fail them by design; the eventual complete run enforces them.
        if !report.budget_exhausted {
            let assert_span = self.span("assertions");
            for assertion in &spec.assertions {
                let matching =
                    self.db
                        .select_rows(&assertion.table, Some(&assertion.pred), params)?;
                if !matching.is_empty() {
                    return Err(Error::AssertionFailed {
                        disguise: spec.name.clone(),
                        assertion: assertion.description.clone(),
                        matching_rows: matching.len(),
                    });
                }
            }
            drop(assert_span);
        }

        // Record history and reveal functions.
        let id = {
            let _phase = self.span("history_append");
            self.history
                .record(&spec.name, user_value, now, spec.reversible)?
        };
        report.disguise_id = id;
        record(&report)?;
        // Every reference written so far must resolve before anything
        // leaves the database: neither the intent marker nor the vault put
        // below rolls back with the transaction.
        self.db.check_references()?;
        if spec.reversible && !ops.is_empty() {
            let _phase = self.span("vault_write");
            // Durable intent marker *before* any vault-side write: if the
            // process dies between the vault put below and the database
            // commit, recovery finds this intent with no committed history
            // row and undoes the orphaned vault entry (see
            // [`Disguiser::resolve_recovered_intents`]). No-op without a
            // WAL attached.
            if self.db.wal().is_some() {
                self.db.wal_disguise_intent(id, user_value)?;
                report.wal_intent = true;
            }
            let entry = VaultEntry {
                disguise_id: id,
                disguise_name: spec.name.clone(),
                user_id: user_value.clone(),
                ops,
                created_at: now,
                expires_at: spec.expires_after.map(|d| now + d),
            };
            // Deferred mode (`apply_many`): the caller batches vault puts
            // across users, so just hand the entry over. The intent marker
            // above is already durable, bracketing the deferred put.
            if let Some(sink) = vault_sink.as_mut() {
                sink.push(PendingVaultPut {
                    tier: spec.vault_tier,
                    entry,
                    disguise_id: id,
                });
                return Ok(report);
            }
            // A failed put aborts: the caller rolls the transaction back,
            // and the history row above vanishes with it. Without a
            // transaction that row has already committed, so degrade it
            // instead, as `apply_many` does: the history must never offer
            // a reveal the vault cannot honor.
            if let Err(e) = self.vaults.put(spec.vault_tier, &entry) {
                if !opts.use_transaction {
                    let _ = self
                        .history
                        .mark_degraded(id, &format!("vault write failed: {e}"));
                }
                return Err(e.into());
            }
        }
        Ok(report)
    }

    /// Applies one predicated transformation, optionally restricted by an
    /// extra predicate (used by reveal re-application). Appends reveal ops.
    #[allow(clippy::too_many_arguments)] // Internal plumbing shared with reveal.
    pub(crate) fn apply_transform(
        &self,
        spec: &DisguiseSpec,
        table: &str,
        pt: &PredicatedTransform,
        extra_pred: Option<&Expr>,
        params: &HashMap<String, Value>,
        ops: &mut Vec<RevealOp>,
        report: &mut DisguiseReport,
    ) -> Result<()> {
        let pred = combine_preds(pt.pred.as_ref(), extra_pred);
        // Budget gate: a spent budget skips the transform entirely (and
        // every later one) — the re-run picks them up.
        if report.remaining_budget == Some(0) {
            report.budget_exhausted = true;
            return Ok(());
        }
        let mut phase = self.span("transform");
        if let Some(g) = phase.as_mut() {
            g.attr("table", table);
            g.attr(
                "kind",
                match &pt.transform {
                    Transformation::Remove => "remove",
                    Transformation::Decorrelate { .. } => "decorrelate",
                    Transformation::Modify { .. } => "modify",
                },
            );
        }
        match &pt.transform {
            Transformation::Remove => {
                // The delete both scans the predicate and writes, so it
                // counts as the transform's write phase.
                let removed = {
                    let _w = self.span("transform_write");
                    self.db.delete_where_returning(table, &pred, params)?
                };
                report.rows_removed += removed.len();
                if let Some(b) = report.remaining_budget.as_mut() {
                    *b = b.saturating_sub(removed.len());
                }
                // Column names are recorded so reveal can adapt rows if
                // the schema evolves in between (paper §7).
                let mut name_cache: HashMap<String, Vec<String>> = HashMap::new();
                for (t, row) in removed {
                    let columns = match name_cache.get(&t) {
                        Some(c) => c.clone(),
                        None => {
                            let schema = self.db.schema(&t)?;
                            let names: Vec<String> =
                                schema.columns.iter().map(|c| c.name.clone()).collect();
                            name_cache.insert(t.clone(), names.clone());
                            names
                        }
                    };
                    ops.push(RevealOp::ReinsertRow {
                        table: t,
                        columns,
                        row,
                    });
                }
            }
            Transformation::Decorrelate {
                fk_column,
                parent_table,
            } => {
                let schema = self.db.schema(table)?;
                let (pk_idx, pk_col) = pk_of(&schema, "decorrelation")?;
                let fk_idx = schema.require_column(fk_column)?;
                let parent_schema = self.db.schema(parent_table)?;
                let (_, parent_pk_col) = pk_of(&parent_schema, "placeholder creation")?;
                let rows = {
                    let _scan = self.span("predicate_scan");
                    self.db.select_rows(table, Some(&pred), params)?
                };
                // Batched apply: one placeholder insert batch, then all
                // fk rewrites in one engine round trip (instead of two
                // statements per row).
                let mut targets: Vec<&edna_relational::Row> =
                    rows.iter().filter(|r| !r[fk_idx].is_null()).collect();
                if let Some(b) = report.remaining_budget.as_mut() {
                    if targets.len() > *b {
                        targets.truncate(*b);
                        report.budget_exhausted = true;
                    }
                    *b -= targets.len();
                }
                let originals: Vec<Value> = targets.iter().map(|r| r[fk_idx].clone()).collect();
                let placeholder_pks = {
                    let _gen = self.span("placeholder_gen");
                    let mut rng = lock_unpoisoned(&self.rng);
                    create_placeholders(&self.db, spec, parent_table, &originals, &mut *rng)?
                };
                report.placeholders_created += placeholder_pks.len();
                let updates: Vec<(Value, Vec<(usize, Value)>)> = targets
                    .iter()
                    .zip(&placeholder_pks)
                    .map(|(row, ppk)| (row[pk_idx].clone(), vec![(fk_idx, ppk.clone())]))
                    .collect();
                report.rows_decorrelated += {
                    let _w = self.span("transform_write");
                    self.db.update_rows_by_pk(table, &updates)?
                };
                for ((row, original), placeholder_pk) in
                    targets.iter().zip(originals).zip(placeholder_pks)
                {
                    ops.push(RevealOp::RestoreColumns {
                        table: table.to_string(),
                        pk_column: pk_col.clone(),
                        pk: row[pk_idx].clone(),
                        columns: vec![(fk_column.clone(), original)],
                    });
                    ops.push(RevealOp::RemovePlaceholder {
                        table: parent_table.clone(),
                        pk_column: parent_pk_col.clone(),
                        pk: placeholder_pk,
                    });
                }
            }
            Transformation::Modify { column, modifier } => {
                let schema = self.db.schema(table)?;
                let (pk_idx, pk_col) = pk_of(&schema, "modification")?;
                let col_idx = schema.require_column(column)?;
                let rows = {
                    let _scan = self.span("predicate_scan");
                    self.db.select_rows(table, Some(&pred), params)?
                };
                // Batched apply: compute every new value first (RNG draws
                // stay in row order, so seeded runs are unchanged), then
                // flush all column writes in one engine round trip.
                let mut updates: Vec<(Value, Vec<(usize, Value)>)> = Vec::new();
                {
                    let mut rng = lock_unpoisoned(&self.rng);
                    for row in &rows {
                        let original = row[col_idx].clone();
                        let new_value = modifier.apply(&original, &mut *rng);
                        // Already-settled rows (a converging modifier
                        // re-run over its own output) consume no budget,
                        // so a paused run resumes past them cleanly.
                        if new_value == original {
                            continue;
                        }
                        if report.remaining_budget == Some(updates.len()) {
                            report.budget_exhausted = true;
                            break;
                        }
                        updates.push((row[pk_idx].clone(), vec![(col_idx, new_value)]));
                        ops.push(RevealOp::RestoreColumns {
                            table: table.to_string(),
                            pk_column: pk_col.clone(),
                            pk: row[pk_idx].clone(),
                            columns: vec![(column.clone(), original)],
                        });
                    }
                }
                if let Some(b) = report.remaining_budget.as_mut() {
                    *b -= updates.len();
                }
                report.rows_modified += {
                    let _w = self.span("transform_write");
                    self.db.update_rows_by_pk(table, &updates)?
                };
            }
        }
        Ok(())
    }

    /// The composition pre-pass: reads reveal functions of prior active
    /// disguises and temporarily restores original values for rows this
    /// disguise's predicates need to see.
    fn recorrelate_for(
        &self,
        spec: &DisguiseSpec,
        user_value: &Value,
        params: &HashMap<String, Value>,
        optimize: bool,
        report: &mut DisguiseReport,
    ) -> Result<Vec<Recorrelated>> {
        let priors = self.history.active_for(user_value)?;
        if priors.is_empty() {
            return Ok(Vec::new());
        }
        let plan = if optimize {
            let specs = read_unpoisoned(&self.specs);
            let prior_specs: Vec<&DisguiseSpec> =
                priors.iter().filter_map(|e| specs.get(&e.name)).collect();
            plan_composition(spec, &prior_specs)
        } else {
            CompositionPlan::default()
        };

        let mut out: Vec<Recorrelated> = Vec::new();
        for event in &priors {
            let entries = self.vaults.entries_for_disguise(&event.user_id, event.id)?;
            for entry in entries {
                for op in &entry.ops {
                    let RevealOp::RestoreColumns {
                        table,
                        pk_column,
                        pk,
                        columns,
                    } = op
                    else {
                        // Rows a prior disguise removed need no
                        // decorrelation (§4.2: disguises compose naturally
                        // there); placeholders carry no user data.
                        continue;
                    };
                    let affected = self.affected_transforms(spec, table, columns, &plan);
                    if affected.skipped > 0 {
                        report.skipped_redundant += affected.skipped;
                    }
                    if affected.transforms.is_empty() {
                        continue;
                    }
                    let schema = self.db.schema(table)?;
                    let pred = pk_pred(pk_column, pk);
                    // Membership check: would the row match one of the
                    // affected predicates with its original values back?
                    // When every predicate column is covered by the vault
                    // op (plus the pk), membership is decidable from the
                    // reveal function alone — the "selective
                    // reintroduction" of §6 — without touching the DB.
                    let op_decides = affected.transforms.iter().all(|pt| {
                        pt.pred.as_ref().is_some_and(|p| {
                            p.referenced_columns().iter().all(|c| {
                                c.eq_ignore_ascii_case(pk_column)
                                    || columns.iter().any(|(oc, _)| oc.eq_ignore_ascii_case(c))
                            })
                        })
                    });
                    let current: Option<Vec<Value>>;
                    let overlay_cols: Vec<String>;
                    let overlay: Vec<Value>;
                    if op_decides {
                        current = None;
                        overlay_cols = std::iter::once(pk_column.clone())
                            .chain(columns.iter().map(|(c, _)| c.clone()))
                            .collect();
                        overlay = std::iter::once(pk.clone())
                            .chain(columns.iter().map(|(_, v)| v.clone()))
                            .collect();
                    } else {
                        let rows = self.db.select_rows(table, Some(&pred), &HashMap::new())?;
                        let Some(row) = rows.into_iter().next() else {
                            continue;
                        };
                        let mut o = row.clone();
                        for (col, original) in columns {
                            let idx = schema.require_column(col)?;
                            o[idx] = original.clone();
                        }
                        current = Some(row);
                        overlay_cols = schema.columns.iter().map(|c| c.name.clone()).collect();
                        overlay = o;
                    }
                    let ctx = EvalContext {
                        columns: &overlay_cols,
                        row: &overlay,
                        params,
                        now: self.db.now(),
                    };
                    let matched = affected
                        .transforms
                        .iter()
                        .filter_map(|pt| pt.pred.as_ref())
                        .map(|p| eval_predicate(p, &ctx))
                        .collect::<edna_relational::Result<Vec<bool>>>()
                        .map_err(Error::Relational)?
                        .into_iter()
                        .any(|m| m)
                        || affected.transforms.iter().any(|pt| pt.pred.is_none());
                    if !matched {
                        continue;
                    }
                    // Fetch the row (if the fast path skipped it) to record
                    // the disguised values for the redo pass.
                    let current = match current {
                        Some(row) => row,
                        None => {
                            let rows = self.db.select_rows(table, Some(&pred), &HashMap::new())?;
                            match rows.into_iter().next() {
                                Some(row) => row,
                                None => continue, // Row removed meanwhile.
                            }
                        }
                    };
                    let mut cols: Vec<(String, Value, Value)> = Vec::new();
                    for (col, original) in columns {
                        let idx = schema.require_column(col)?;
                        cols.push((col.clone(), original.clone(), current[idx].clone()));
                    }
                    // Recorrelate: write the original values back.
                    let restores: Vec<(usize, Value)> = cols
                        .iter()
                        .map(|(col, original, _)| {
                            Ok((schema.require_column(col)?, original.clone()))
                        })
                        .collect::<Result<_>>()?;
                    self.db
                        .update_with(table, Some(&pred), &HashMap::new(), |_, r| {
                            for (idx, v) in &restores {
                                r[*idx] = v.clone();
                            }
                            Ok(())
                        })?;
                    report.rows_recorrelated += 1;
                    out.push(Recorrelated {
                        table: table.clone(),
                        pk_column: pk_column.clone(),
                        pk: pk.clone(),
                        cols,
                    });
                }
            }
        }
        Ok(out)
    }

    /// The current spec's transforms on `table` whose predicates reference
    /// any of the vault op's columns (and would therefore mis-evaluate on
    /// disguised data), minus those the plan marks redundant.
    fn affected_transforms<'s>(
        &self,
        spec: &'s DisguiseSpec,
        table: &str,
        op_columns: &[(String, Value)],
        plan: &CompositionPlan,
    ) -> AffectedTransforms<'s> {
        let mut result = AffectedTransforms {
            transforms: Vec::new(),
            skipped: 0,
        };
        let Some(section) = spec.table(table) else {
            return result;
        };
        for pt in &section.transformations {
            let references_op_column = match &pt.pred {
                None => true,
                Some(pred) => {
                    let cols = pred.referenced_columns();
                    op_columns
                        .iter()
                        .any(|(c, _)| cols.iter().any(|pc| pc.eq_ignore_ascii_case(c)))
                }
            };
            if !references_op_column {
                continue;
            }
            match &pt.transform {
                Transformation::Decorrelate { fk_column, .. }
                    if plan.is_redundant(table, fk_column) =>
                {
                    result.skipped += 1;
                    continue;
                }
                Transformation::Modify { column, .. }
                    if plan.is_redundant_modify(table, column) =>
                {
                    result.skipped += 1;
                    continue;
                }
                _ => {}
            }
            result.transforms.push(pt);
        }
        result
    }
}

/// What [`Disguiser::resolve_recovered_intents`] did with each open
/// intent.
#[derive(Debug, Clone, Default)]
pub struct IntentResolution {
    /// Disguise ids whose transaction had committed: vault state kept.
    pub completed: Vec<u64>,
    /// Disguise ids whose transaction never committed: orphaned vault
    /// entries removed.
    pub undone: Vec<u64>,
}

impl IntentResolution {
    /// Whether any intent needed resolving.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty() && self.undone.is_empty()
    }
}

struct AffectedTransforms<'s> {
    transforms: Vec<&'s PredicatedTransform>,
    skipped: usize,
}

/// Owner-hash partitioning for [`Disguiser::apply_many`]: hashes the
/// user id's SQL-literal rendering (the same key vaults and history use)
/// so every representation of an id lands in the same shard.
fn owner_shard(user: &Value, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    user.to_sql_literal().hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// `pk_column = pk` as an expression.
pub(crate) fn pk_pred(pk_column: &str, pk: &Value) -> Expr {
    Expr::eq(Expr::col(pk_column), Expr::lit(pk.clone()))
}

/// The primary-key index and column name of `schema`.
pub(crate) fn pk_of(schema: &TableSchema, context: &str) -> Result<(usize, String)> {
    match schema.primary_key {
        Some(i) => Ok((i, schema.columns[i].name.clone())),
        None => Err(Error::NeedsPrimaryKey {
            table: schema.name.clone(),
            context: context.to_string(),
        }),
    }
}

/// Conjoins an optional transform predicate with an optional restriction;
/// `TRUE` if both are absent.
pub(crate) fn combine_preds(pred: Option<&Expr>, extra: Option<&Expr>) -> Expr {
    match (pred, extra) {
        (Some(p), Some(e)) => Expr::and(p.clone(), e.clone()),
        (Some(p), None) => p.clone(),
        (None, Some(e)) => e.clone(),
        (None, None) => Expr::lit(true),
    }
}
