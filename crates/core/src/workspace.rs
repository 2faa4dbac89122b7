//! On-disk workspace: database + disguiser wired to file vaults.
//!
//! Historically this lived in the CLI crate; it moved here so that both
//! the CLI and the network server (`edna-server`) can open the same
//! state layout, and so a `Workspace` is a `Send + Sync` service value
//! that can be shared across server worker threads behind an `Arc`.
//!
//! State layout for a workspace at path `STATE`:
//!
//! - `STATE` — database snapshot (see `edna_relational::snapshot`);
//! - `STATE.wal` — the write-ahead log: every committed statement is
//!   fsynced here before it returns, so work between `save`s survives a
//!   crash (replayed on the next open);
//! - `STATE.lock` — advisory PID lock file held for the lifetime of the
//!   workspace, so two processes cannot interleave WAL appends (stale
//!   locks from crashed processes are reclaimed, see
//!   [`edna_util::lockfile`]);
//! - `STATE.metrics` — Prometheus-text metrics sidecar;
//! - `STATE.vault/global/vault.log`, `STATE.vault/user/vault.log` — the
//!   file-backed vault tiers, one append-only log each (see
//!   [`edna_vault::FileStore`]; a non-empty `STATE.vault/pending.journal`,
//!   the plaintext spool of vault writes an earlier edna could leave
//!   behind, is refused at open);
//! - registered disguise DSL texts live *in* the database, in the reserved
//!   `_edna_spec_registry` table, so every command sees the same specs.
//!
//! The per-user vault tier is encrypted when a passphrase is given
//! (per-user keys derived from it), matching the paper's §4.2 external
//! encrypted per-user vaults; without one it is plaintext, like the
//! prototype (§5).
//!
//! Every [`Workspace::open`] is a recovery pass: stale temp files are
//! swept (or, after a crash mid-save, a complete checksum-valid snapshot
//! temp is promoted), the WAL's torn tail is truncated, its tail beyond
//! the snapshot watermark is replayed, and half-applied disguises are
//! rolled forward or back against the history table (see
//! [`crate::Disguiser::resolve_recovered_intents`]). `edna recover
//! --verify` reports what such a pass did and self-checks integrity.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use edna_relational::{snapshot, Database, RecoveryReport, Value};
use edna_util::lockfile::LockFile;
use edna_util::sync::lock_unpoisoned;
use edna_vault::{FileStore, ShipFn, ShipSlot, TieredVault, Vault};

use crate::apply::{Disguiser, IntentResolution};
use crate::error::{Error, Result};
use crate::Tracer;

/// Reserved table persisting registered disguise DSL texts.
pub const SPEC_REGISTRY_TABLE: &str = "_edna_spec_registry";

/// Reserved table persisting registered policy DSL texts.
pub const POLICY_REGISTRY_TABLE: &str = "_edna_policy_registry";

/// An open workspace: database + disguiser wired to on-disk vaults,
/// holding the state lock for its lifetime.
pub struct Workspace {
    /// Path of the snapshot file.
    pub path: PathBuf,
    /// The database (loaded from the snapshot, WAL tail replayed).
    pub db: Database,
    /// The disguising tool (vaults under `<path>.vault/`).
    pub edna: Disguiser,
    /// What open-time recovery did (snapshot promotion, WAL replay).
    pub last_recovery: RecoveryReport,
    /// How open disguise intents found in the WAL were resolved.
    pub last_resolution: IntentResolution,
    /// Replication taps of the vault-side files, keyed by the relative
    /// directory prefix a follower should mirror them under.
    ship_slots: Vec<(&'static str, ShipSlot)>,
    /// Held while [`Workspace::save`] writes the metrics sidecar: two
    /// saves (a background checkpoint, a replication bootstrap) share its
    /// temp path.
    metrics_write: Mutex<()>,
    /// The `<state>.lock` advisory lock, released on drop.
    _lock: LockFile,
}

fn vault_dir(state: &Path, tier: &str) -> PathBuf {
    let mut os = state.as_os_str().to_os_string();
    os.push(".vault");
    PathBuf::from(os).join(tier)
}

/// `<state><suffix>` — the workspace sidecar naming convention.
pub fn sidecar(state: &Path, suffix: &str) -> PathBuf {
    let mut os = state.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn ws_err(msg: String) -> Error {
    Error::Workspace(msg)
}

/// Fsyncs the directory containing `path` so a rename into it is durable.
/// Best-effort: not every filesystem supports opening directories.
fn fsync_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Fails if `<state>.vault/pending.journal` holds anything. Earlier
/// versions of edna could spool vault writes there, unencrypted, when a
/// vault put failed, to be flushed later by a library call. This version
/// neither flushes nor ships that file, so opening over a non-empty one
/// would silently strand the reveal functions it holds. An empty file is
/// left alone.
fn refuse_vault_spool(state: &Path) -> Result<()> {
    let spool = sidecar(state, ".vault").join("pending.journal");
    match std::fs::metadata(&spool) {
        Ok(m) if m.len() > 0 => Err(ws_err(format!(
            "{} holds vault writes spooled by an earlier edna, which this version \
             can neither flush nor replicate; flush it with that version, or remove \
             it to give up those reveals",
            spool.display()
        ))),
        _ => Ok(()),
    }
}

/// If the authoritative snapshot is missing but a complete,
/// checksum-valid `.tmp` exists (crash after the temp was fully written
/// and fsynced, before the rename), promote the temp. A temp that fails
/// the checksum is swept; a temp beside a live snapshot is stale and
/// swept too.
fn resolve_snapshot_tmp(path: &Path) -> Result<bool> {
    let tmp = path.with_extension("tmp");
    if !tmp.exists() {
        return Ok(false);
    }
    if !path.exists() && snapshot::load(&tmp).is_ok() {
        std::fs::rename(&tmp, path)
            .map_err(|e| ws_err(format!("cannot promote {}: {e}", tmp.display())))?;
        fsync_parent(path);
        return Ok(true);
    }
    std::fs::remove_file(&tmp)
        .map_err(|e| ws_err(format!("cannot sweep stale {}: {e}", tmp.display())))?;
    Ok(false)
}

impl Workspace {
    /// Creates a fresh workspace at `path` (fails if it exists).
    pub fn init(path: impl AsRef<Path>, passphrase: Option<&str>) -> Result<Workspace> {
        let path = path.as_ref();
        if path.exists() {
            return Err(ws_err(format!("{} already exists", path.display())));
        }
        // Hold the lock across setup so a concurrent open cannot observe
        // the half-initialized state; open() then re-acquires it.
        {
            let _lock = Self::acquire_lock(path)?;
            // A stale log from a deleted workspace must not replay into
            // the fresh one.
            let wal = sidecar(path, ".wal");
            if wal.exists() {
                std::fs::remove_file(&wal)
                    .map_err(|e| ws_err(format!("cannot remove stale {}: {e}", wal.display())))?;
            }
            let db = Database::new();
            ensure_registry(&db)?;
            db.save(path)?;
        }
        Self::open(path, passphrase)
    }

    fn acquire_lock(path: &Path) -> Result<LockFile> {
        LockFile::acquire(sidecar(path, ".lock")).map_err(|e| ws_err(e.to_string()))
    }

    /// Opens an existing workspace, recovering whatever a crash left
    /// behind:
    ///
    /// - a complete checksum-valid snapshot `.tmp` with no authoritative
    ///   snapshot (crash between temp fsync and rename) is promoted;
    ///   stale temps (snapshot and metrics sidecar) are swept;
    /// - the WAL's torn tail is truncated and committed frames beyond the
    ///   snapshot watermark are replayed;
    /// - disguises that logged an intent but never committed are resolved
    ///   (rolled forward or fully undone) against the history table;
    /// - if recovery changed anything, the result is checkpointed so the
    ///   next open starts clean.
    ///
    /// The file-backed vault tiers likewise sweep their temp files,
    /// truncate torn record tails and fold in the per-user files earlier
    /// versions wrote when opened.
    ///
    /// The `<state>.lock` file is taken first and held until the
    /// workspace drops; a second process opening the same state gets a
    /// [`Error::Workspace`] naming the holding PID. A non-empty
    /// `<state>.vault/pending.journal` is an [`Error::Workspace`] too.
    pub fn open(path: impl AsRef<Path>, passphrase: Option<&str>) -> Result<Workspace> {
        Self::open_as(path.as_ref(), passphrase, false)
    }

    /// Opens a state a replica bootstrapped from its primary. Unlike
    /// [`Workspace::open`] it leaves the WAL alone: disguise intents the
    /// primary had open when it shipped the state stay open (its stream
    /// delivers their commit markers), and nothing is checkpointed, since
    /// any local frame would take an LSN the primary is about to ship.
    pub fn open_replica(path: impl AsRef<Path>, passphrase: Option<&str>) -> Result<Workspace> {
        Self::open_as(path.as_ref(), passphrase, true)
    }

    fn open_as(path: &Path, passphrase: Option<&str>, replica: bool) -> Result<Workspace> {
        let path = path.to_path_buf();
        let lock = Self::acquire_lock(&path)?;
        refuse_vault_spool(&path)?;
        let promoted = resolve_snapshot_tmp(&path)?;
        let metrics_tmp = sidecar(&path, ".metrics.tmp");
        if metrics_tmp.exists() {
            std::fs::remove_file(&metrics_tmp).map_err(|e| {
                ws_err(format!("cannot sweep stale {}: {e}", metrics_tmp.display()))
            })?;
        }
        let (db, mut report) = Database::open_durable(Some(&path), &sidecar(&path, ".wal"))?;
        report.snapshot_promoted = promoted;
        ensure_registry(&db)?;
        let global_store = FileStore::open(vault_dir(&path, "global"))?;
        let user_store = FileStore::open(vault_dir(&path, "user"))?;
        // The stores move behind trait objects next; keep their
        // replication tap slots so `set_vault_ship_hook` can still reach
        // the live stores later.
        let ship_slots = vec![
            ("global", global_store.ship_slot()),
            ("user", user_store.ship_slot()),
        ];
        let global = Vault::plain(global_store);
        let per_user = match passphrase {
            Some(p) => Vault::encrypted_derived(user_store, p, 0xC11),
            None => Vault::plain(user_store),
        };
        let edna = Disguiser::with_vaults(db.clone(), TieredVault::new(global, per_user));
        // Re-register persisted specs.
        let specs = db.execute(&format!(
            "SELECT dsl FROM {SPEC_REGISTRY_TABLE} ORDER BY id"
        ))?;
        for row in specs.rows {
            let dsl = row[0].as_text()?;
            edna.register_dsl(dsl)?;
        }
        let resolution = if replica {
            IntentResolution::default()
        } else {
            edna.resolve_recovered_intents(&report.open_intents)?
        };
        let ws = Workspace {
            path,
            db,
            edna,
            last_recovery: report,
            last_resolution: resolution,
            ship_slots,
            metrics_write: Mutex::new(()),
            _lock: lock,
        };
        // Checkpoint what recovery rebuilt: fold the replayed tail into
        // the snapshot so the next open starts from a clean log.
        if !replica && (ws.last_recovery.acted() || !ws.last_resolution.is_empty()) {
            ws.save()?;
        }
        Ok(ws)
    }

    /// Persists the database snapshot (checkpointing — truncating — the
    /// WAL), compacts the vault logs that hold removed or purged entries,
    /// and writes a `<state>.metrics` sidecar with the Prometheus-text
    /// rendering of this process's metrics registry (readable later via
    /// `edna stats`). The sidecar is written with the same
    /// temp-write + fsync + atomic-rename discipline as the snapshot, so
    /// a crash mid-save never leaves a torn sidecar.
    pub fn save(&self) -> Result<()> {
        self.db.save(&self.path)?;
        // Removed and purged reveal functions leave the disk with the
        // checkpoint, as disguised rows leave the snapshot. Between
        // transactions, so a compaction lands neither beside a disguise's
        // vault put nor inside a replication bootstrap's freeze.
        self.db
            .between_transactions(|| self.edna.vaults().compact())?;
        let target = self.metrics_path();
        let tmp = sidecar(&self.path, ".metrics.tmp");
        let metrics = self.db.metrics().render_prometheus();
        let _writing = lock_unpoisoned(&self.metrics_write);
        (|| -> std::io::Result<()> {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(metrics.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &target)?;
            fsync_parent(&target);
            Ok(())
        })()
        .map_err(|e| ws_err(format!("cannot write metrics sidecar: {e}")))?;
        Ok(())
    }

    /// Where the metrics sidecar of this workspace lives.
    pub fn metrics_path(&self) -> PathBuf {
        sidecar(&self.path, ".metrics")
    }

    /// Where the write-ahead log of this workspace lives.
    pub fn wal_path(&self) -> PathBuf {
        sidecar(&self.path, ".wal")
    }

    /// Installs (or with `None` removes) a replication tap over the
    /// vault-side files. The hook sees every durable mutation of the
    /// vault tiers as raw bytes (sealed payloads ship sealed), with the
    /// file name prefixed by its tier directory under `<state>.vault/`:
    /// `global/<file>` or `user/<file>`. Hooks run inside the emitting
    /// store's lock — enqueue only, never block.
    pub fn set_vault_ship_hook(&self, hook: Option<Arc<ShipFn>>) {
        for (prefix, slot) in &self.ship_slots {
            match &hook {
                Some(h) => {
                    let h = Arc::clone(h);
                    let prefix = *prefix;
                    slot.install(Some(Arc::new(move |kind, name, bytes: &[u8]| {
                        h(kind, &format!("{prefix}/{name}"), bytes);
                    })));
                }
                None => slot.install(None),
            }
        }
    }

    /// The replication epoch recorded in the WAL (0 until the first
    /// promotion).
    pub fn epoch(&self) -> u64 {
        self.db.wal().map(|w| w.epoch()).unwrap_or(0)
    }

    /// Durably advances the replication epoch by one and returns the new
    /// value. Used by `edna promote` to fence a deposed primary: stream
    /// frames carry the epoch, and a follower refuses any peer whose
    /// epoch is behind its own.
    pub fn bump_epoch(&self) -> Result<u64> {
        let wal = self
            .db
            .wal()
            .ok_or_else(|| ws_err("workspace has no write-ahead log attached".to_string()))?;
        Ok(wal.bump_epoch()?)
    }

    /// Emits a retroactive `recovery` span (plus a child per resolved
    /// intent) describing what this open's recovery pass did, for
    /// `--trace-out` exports.
    pub fn record_recovery_span(&self, tracer: &Tracer) {
        let r = &self.last_recovery;
        let started = Instant::now()
            .checked_sub(r.duration)
            .unwrap_or_else(Instant::now);
        let id = tracer.record(
            None,
            "recovery",
            started,
            r.duration,
            vec![
                ("frames_scanned".into(), r.frames_scanned.to_string()),
                ("frames_replayed".into(), r.frames_replayed.to_string()),
                ("torn_bytes".into(), r.torn_bytes.to_string()),
                ("snapshot_promoted".into(), r.snapshot_promoted.to_string()),
            ],
        );
        for (label, ids) in [
            ("intent_completed", &self.last_resolution.completed),
            ("intent_undone", &self.last_resolution.undone),
        ] {
            for d in ids {
                tracer.record(
                    Some(id),
                    label,
                    started,
                    std::time::Duration::ZERO,
                    vec![("disguise_id".into(), d.to_string())],
                );
            }
        }
    }

    /// Registers a disguise from DSL text and persists it in the registry.
    pub fn register_spec(&self, dsl: &str) -> Result<String> {
        let name = self.edna.register_dsl(dsl)?;
        let quoted = name.replace('\'', "''");
        self.db.execute(&format!(
            "DELETE FROM {SPEC_REGISTRY_TABLE} WHERE name = '{quoted}'"
        ))?;
        self.db.insert_row(
            SPEC_REGISTRY_TABLE,
            &[
                ("name", Value::Text(name.clone())),
                ("dsl", Value::Text(dsl.to_string())),
            ],
        )?;
        self.save()?;
        Ok(name)
    }

    /// Names of registered disguises, sorted.
    pub fn spec_names(&self) -> Result<Vec<String>> {
        let r = self.db.execute(&format!(
            "SELECT name FROM {SPEC_REGISTRY_TABLE} ORDER BY name"
        ))?;
        r.rows
            .into_iter()
            .map(|row| Ok(row[0].as_text()?.to_string()))
            .collect()
    }

    /// Registers a policy from DSL text and persists it in the policy
    /// registry. Policies are validated syntactically here; whether the
    /// disguises they reference exist and have the right scope is the
    /// audit's job (`E053`), so a policy can be registered before its
    /// disguises.
    pub fn register_policy(&self, dsl: &str) -> Result<String> {
        let policy = crate::policy::parse_policy(dsl)?;
        let name = policy.name().to_string();
        let quoted = name.replace('\'', "''");
        // Re-registering keeps the persisted last-run stamp: updating a
        // policy's text must not make it re-fire out of cadence.
        let prev = self.db.execute(&format!(
            "SELECT last_run FROM {POLICY_REGISTRY_TABLE} WHERE name = '{quoted}'"
        ))?;
        let last_run = prev
            .rows
            .first()
            .map(|row| row[0].clone())
            .unwrap_or(Value::Null);
        self.db.execute(&format!(
            "DELETE FROM {POLICY_REGISTRY_TABLE} WHERE name = '{quoted}'"
        ))?;
        self.db.insert_row(
            POLICY_REGISTRY_TABLE,
            &[
                ("name", Value::Text(name.clone())),
                ("dsl", Value::Text(dsl.to_string())),
                ("last_run", last_run),
            ],
        )?;
        self.save()?;
        Ok(name)
    }

    /// Names of registered policies, sorted.
    pub fn policy_names(&self) -> Result<Vec<String>> {
        let r = self.db.execute(&format!(
            "SELECT name FROM {POLICY_REGISTRY_TABLE} ORDER BY name"
        ))?;
        r.rows
            .into_iter()
            .map(|row| Ok(row[0].as_text()?.to_string()))
            .collect()
    }

    /// The registered policies, parsed, in registration order.
    pub fn policies(&self) -> Result<Vec<crate::policy::Policy>> {
        let r = self.db.execute(&format!(
            "SELECT dsl FROM {POLICY_REGISTRY_TABLE} ORDER BY id"
        ))?;
        r.rows
            .into_iter()
            .map(|row| crate::policy::parse_policy(row[0].as_text()?))
            .collect()
    }

    /// A [`crate::policy::Scheduler`] over the registered policies, with
    /// each policy's last-run stamp seeded from the persisted registry
    /// column — a restarted server resumes the cadence where the previous
    /// process left it instead of re-firing every policy immediately.
    pub fn scheduler(&self) -> Result<crate::policy::Scheduler> {
        let r = self.db.execute(&format!(
            "SELECT dsl, last_run FROM {POLICY_REGISTRY_TABLE} ORDER BY id"
        ))?;
        let mut sched = crate::policy::Scheduler::new();
        for row in r.rows {
            let policy = crate::policy::parse_policy(row[0].as_text()?)?;
            if let Value::Int(last) = row[1] {
                sched.seed_last_run(policy.name(), last);
            }
            sched.add(policy);
        }
        Ok(sched)
    }

    /// Audits the whole workspace: every registered disguise under
    /// arbitrary interleaving plus every registered policy. See
    /// [`crate::analyze::audit_workspace`].
    pub fn audit(&self) -> Result<Vec<crate::analyze::Diagnostic>> {
        Ok(self.edna.audit(&self.policies()?))
    }
}

fn ensure_registry(db: &Database) -> Result<()> {
    for table in [SPEC_REGISTRY_TABLE, POLICY_REGISTRY_TABLE] {
        if !db.has_table(table) {
            db.execute(&format!(
                "CREATE TABLE {table} (id INT PRIMARY KEY AUTO_INCREMENT, \
                 name TEXT NOT NULL UNIQUE, dsl TEXT NOT NULL)"
            ))?;
        }
    }
    // Migration: the policy registry grew a nullable `last_run` column
    // (the persisted per-policy last-run stamp; NULL = never completed a
    // run). Workspaces created before it exist get it added on open.
    let schema = db.schema(POLICY_REGISTRY_TABLE)?;
    if !schema.columns.iter().any(|c| c.name == "last_run") {
        db.execute(&format!(
            "ALTER TABLE {POLICY_REGISTRY_TABLE} ADD COLUMN last_run INT"
        ))?;
    }
    Ok(())
}

/// Parses a user id argument: integer if it parses, text otherwise.
pub fn parse_user(arg: &str) -> Value {
    match arg.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::Text(arg.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_state(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("edna_ws_test_{tag}_{}", std::process::id()));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(p.with_extension("tmp"));
        for suffix in [".metrics", ".metrics.tmp", ".wal", ".lock"] {
            let _ = std::fs::remove_file(sidecar(p, suffix));
        }
        let _ = std::fs::remove_dir_all(sidecar(p, ".vault"));
    }

    const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

    #[test]
    fn full_lifecycle_across_reopens() {
        let state = temp_state("lifecycle");
        // init + schema + data.
        {
            let ws = Workspace::init(&state, Some("pw")).unwrap();
            ws.db
                .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
                .unwrap();
            ws.db
                .execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
                .unwrap();
            ws.save().unwrap();
        }
        // register the disguise in a second "process".
        {
            let ws = Workspace::open(&state, Some("pw")).unwrap();
            let name = ws.register_spec(SPEC).unwrap();
            assert_eq!(name, "Gdpr");
            assert_eq!(ws.spec_names().unwrap(), vec!["Gdpr".to_string()]);
        }
        // apply in a third.
        let disguise_id = {
            let ws = Workspace::open(&state, Some("pw")).unwrap();
            let report = ws.edna.apply("Gdpr", Some(&Value::Int(1))).unwrap();
            ws.save().unwrap();
            report.disguise_id
        };
        // reveal in a fourth — the vault survived on disk, encrypted.
        {
            let ws = Workspace::open(&state, Some("pw")).unwrap();
            assert_eq!(ws.db.row_count("users").unwrap(), 1);
            ws.edna.reveal(disguise_id).unwrap();
            ws.save().unwrap();
        }
        let ws = Workspace::open(&state, Some("pw")).unwrap();
        assert_eq!(ws.db.row_count("users").unwrap(), 2);
        drop(ws);
        cleanup(&state);
    }

    /// A checkpoint compacts the vault logs: once a disguise is revealed
    /// and the workspace saved, no byte of its vault record is left on
    /// disk, while a disguise still applied keeps its record.
    #[test]
    fn save_drops_a_revealed_disguises_vault_record() {
        let state = temp_state("compact");
        let ws = Workspace::init(&state, Some("pw")).unwrap();
        ws.db
            .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
            .unwrap();
        ws.db
            .execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
            .unwrap();
        ws.register_spec(SPEC).unwrap();
        let logs = || -> Vec<u8> {
            ["global", "user"]
                .iter()
                .flat_map(|tier| std::fs::read(vault_dir(&state, tier).join("vault.log")))
                .flatten()
                .collect()
        };
        // The bytes an apply adds to the logs: its record.
        let apply = |user: i64| {
            let before = logs().len();
            let id = ws
                .edna
                .apply("Gdpr", Some(&Value::Int(user)))
                .unwrap()
                .disguise_id;
            (id, logs()[before..].to_vec())
        };
        let (revealed, revealed_record) = apply(1);
        let (_, kept_record) = apply(2);
        assert!(!revealed_record.is_empty() && !kept_record.is_empty());
        ws.edna.reveal(revealed).unwrap();
        ws.save().unwrap();
        let contains = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|w| w == needle);
        let after = logs();
        assert!(contains(&after, &kept_record), "the live record survives");
        // Its trailing checksum is unique to the record: not even that is left.
        let digest = &revealed_record[revealed_record.len() - 32..];
        assert!(
            !contains(&after, digest),
            "the revealed record left the disk"
        );
        drop(ws);
        cleanup(&state);
    }

    #[test]
    fn reopened_workspace_draws_fresh_placeholder_names() {
        const ANON: &str = r#"
disguise_name: "Anon"
user_to_disguise: $UID
tables: {
  users: { generate_placeholder: [ (username, Random) ] },
  posts: { transformations: [ Decorrelate(pred: "user_id = $UID", foreign_key: (user_id, users)) ] },
}
"#;
        // More placeholder names than the bounded redraw's 64 attempts:
        // a session replaying this stream would exhaust it.
        const USERS: i64 = 80;
        let state = temp_state("reseed");
        {
            let ws = Workspace::init(&state, None).unwrap();
            ws.db
                .execute_script(
                    "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, \
                     username TEXT NOT NULL UNIQUE);
                     CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
                     FOREIGN KEY (user_id) REFERENCES users(id));",
                )
                .unwrap();
            for i in 1..=USERS + 1 {
                ws.db
                    .execute(&format!("INSERT INTO users (username) VALUES ('user{i}')"))
                    .unwrap();
                ws.db
                    .execute(&format!("INSERT INTO posts (user_id) VALUES ({i})"))
                    .unwrap();
            }
            ws.register_spec(ANON).unwrap();
            for i in 1..=USERS {
                ws.edna.apply("Anon", Some(&Value::Int(i))).unwrap();
            }
        }
        // Reopens the state, applies to the last user and returns the
        // placeholder drawn for them.
        let reopen_and_apply = || {
            let ws = Workspace::open(&state, None).unwrap();
            let report = ws.edna.apply("Anon", Some(&Value::Int(USERS + 1)));
            assert_eq!(
                report.map(|r| r.rows_decorrelated).unwrap(),
                1,
                "the reopened session must draw unused names"
            );
            ws.db
                .execute("SELECT username FROM users ORDER BY id DESC LIMIT 1")
                .unwrap()
                .rows
        };
        // Keep the database files aside so the same state reopens twice.
        let copy = temp_state("reseed_copy");
        let copy_db = |from: &Path, to: &Path| {
            for suffix in ["", ".wal"] {
                std::fs::copy(sidecar(from, suffix), sidecar(to, suffix)).unwrap();
            }
        };
        copy_db(&state, &copy);
        let drawn = reopen_and_apply();
        // Deterministic for a given state: it draws the same name again.
        copy_db(&copy, &state);
        assert_eq!(reopen_and_apply(), drawn);
        cleanup(&state);
        cleanup(&copy);
    }

    #[test]
    fn wrong_passphrase_cannot_reveal() {
        let state = temp_state("wrongpw");
        let disguise_id = {
            let ws = Workspace::init(&state, Some("pw")).unwrap();
            ws.db
                .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
                .unwrap();
            ws.db
                .execute("INSERT INTO users (name) VALUES ('bea')")
                .unwrap();
            ws.register_spec(SPEC).unwrap();
            let r = ws.edna.apply("Gdpr", Some(&Value::Int(1))).unwrap();
            ws.save().unwrap();
            r.disguise_id
        };
        let ws = Workspace::open(&state, Some("not-the-passphrase")).unwrap();
        assert!(ws.edna.reveal(disguise_id).is_err());
        drop(ws);
        cleanup(&state);
    }

    #[test]
    fn second_opener_is_refused_while_lock_held() {
        let state = temp_state("locked");
        let ws = Workspace::init(&state, None).unwrap();
        let err = match Workspace::open(&state, None) {
            Ok(_) => panic!("second open should be refused"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("locked by running process"), "got: {err}");
        assert!(
            err.contains(&std::process::id().to_string()),
            "names the holder: {err}"
        );
        // Releasing the first workspace frees the state.
        drop(ws);
        let _ws = Workspace::open(&state, None).unwrap();
        cleanup(&state);
    }

    #[test]
    fn stale_lock_from_dead_process_is_reclaimed() {
        let state = temp_state("stalelock");
        {
            let _ws = Workspace::init(&state, None).unwrap();
        }
        // A SIGKILLed process leaves its lock file behind; 4194304999 is
        // above any real pid_max, standing in for the dead holder.
        std::fs::write(sidecar(&state, ".lock"), "4194304999").unwrap();
        let ws = Workspace::open(&state, None).unwrap();
        drop(ws);
        cleanup(&state);
    }

    #[test]
    fn crashed_save_is_recovered_on_open() {
        let state = temp_state("crashsave");
        {
            let ws = Workspace::init(&state, None).unwrap();
            ws.db
                .execute("CREATE TABLE users (id INT PRIMARY KEY, name TEXT)")
                .unwrap();
            ws.db
                .execute("INSERT INTO users VALUES (1, 'bea')")
                .unwrap();
            ws.save().unwrap();
        }
        // Simulate a crash mid-save: a half-written temp file next to the
        // authoritative snapshot.
        std::fs::write(state.with_extension("tmp"), b"half a snapshot").unwrap();
        let ws = Workspace::open(&state, None).unwrap();
        assert!(!state.with_extension("tmp").exists(), "stale tmp swept");
        assert_eq!(ws.db.row_count("users").unwrap(), 1);
        drop(ws);

        // Crash between temp fsync and rename: the authoritative snapshot
        // is gone but a complete checksum-valid temp exists — promote it.
        let good = std::fs::read(&state).unwrap();
        std::fs::remove_file(&state).unwrap();
        std::fs::write(state.with_extension("tmp"), &good).unwrap();
        let ws = Workspace::open(&state, None).unwrap();
        assert!(ws.last_recovery.snapshot_promoted);
        assert!(state.exists(), "tmp promoted to authoritative");
        assert!(!state.with_extension("tmp").exists());
        assert_eq!(ws.db.row_count("users").unwrap(), 1);
        drop(ws);

        // Same crash shape but the temp is garbage: swept, and the
        // missing snapshot surfaces as a clear error.
        std::fs::remove_file(&state).unwrap();
        std::fs::write(state.with_extension("tmp"), b"not a snapshot").unwrap();
        assert!(Workspace::open(&state, None).is_err());
        assert!(!state.with_extension("tmp").exists(), "garbage tmp swept");

        // A corrupted snapshot itself is a clear error, not a bad load.
        let mut bytes = good.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&state, &bytes).unwrap();
        let err = Workspace::open(&state, None).err().unwrap().to_string();
        assert!(err.contains("corrupt snapshot"), "got: {err}");
        cleanup(&state);
    }

    #[test]
    fn unsaved_work_survives_reopen_via_wal() {
        let state = temp_state("walreplay");
        {
            let ws = Workspace::init(&state, None).unwrap();
            ws.db
                .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
                .unwrap();
            ws.db
                .execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
                .unwrap();
            // Crash: drop without save() — the WAL is the only record.
        }
        let ws = Workspace::open(&state, None).unwrap();
        assert!(ws.last_recovery.frames_replayed > 0);
        assert_eq!(ws.db.row_count("users").unwrap(), 2);
        assert_eq!(ws.db.verify_integrity(), Vec::<String>::new());
        drop(ws);
        // Recovery checkpointed: a second open replays nothing.
        let ws = Workspace::open(&state, None).unwrap();
        assert_eq!(ws.last_recovery.frames_replayed, 0);
        assert_eq!(ws.db.row_count("users").unwrap(), 2);
        drop(ws);
        cleanup(&state);
    }

    #[test]
    fn stale_metrics_sidecar_tmp_is_swept() {
        let state = temp_state("metricstmp");
        {
            let ws = Workspace::init(&state, None).unwrap();
            ws.save().unwrap();
        }
        let tmp = sidecar(&state, ".metrics.tmp");
        std::fs::write(&tmp, b"half-written metrics").unwrap();
        let _ws = Workspace::open(&state, None).unwrap();
        assert!(!tmp.exists(), "stale metrics tmp swept");
        cleanup(&state);
    }

    #[test]
    fn non_empty_vault_spool_is_refused_at_open() {
        let state = temp_state("spool");
        {
            let _ws = Workspace::init(&state, None).unwrap();
        }
        let spool = sidecar(&state, ".vault").join("pending.journal");
        std::fs::write(&spool, b"").unwrap();
        drop(Workspace::open(&state, None).unwrap());
        std::fs::write(&spool, b"x").unwrap();
        let err = Workspace::open(&state, None).err().unwrap().to_string();
        assert!(
            err.contains(&spool.display().to_string()),
            "names the spool: {err}"
        );
        std::fs::remove_file(&spool).unwrap();
        drop(Workspace::open(&state, None).unwrap());
        cleanup(&state);
    }

    #[test]
    fn init_refuses_to_clobber() {
        let state = temp_state("clobber");
        {
            let _ws = Workspace::init(&state, None).unwrap();
        }
        assert!(Workspace::init(&state, None).is_err());
        cleanup(&state);
    }

    #[test]
    fn parse_user_handles_ints_and_text() {
        assert_eq!(parse_user("42"), Value::Int(42));
        assert_eq!(parse_user("-3"), Value::Int(-3));
        assert_eq!(parse_user("bea"), Value::Text("bea".into()));
    }

    #[test]
    fn save_writes_metrics_sidecar() {
        let state = temp_state("metrics");
        let ws = Workspace::init(&state, None).unwrap();
        ws.db
            .execute("CREATE TABLE t (id INT PRIMARY KEY)")
            .unwrap();
        ws.save().unwrap();
        let text = std::fs::read_to_string(ws.metrics_path()).unwrap();
        assert!(text.contains("edna_statements_total"), "got: {text}");
        assert!(text.contains("# TYPE"), "got: {text}");
        drop(ws);
        cleanup(&state);
    }

    /// Checkpoints from several threads (a background checkpointer, a
    /// replication bootstrap) share the snapshot's and the sidecar's temp
    /// paths; each must succeed and the state must reopen intact.
    #[test]
    fn concurrent_saves_all_succeed() {
        let state = temp_state("concurrent_saves");
        let ws = Workspace::init(&state, None).unwrap();
        ws.db
            .execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, x INT)")
            .unwrap();
        const SAVES: usize = 40;
        std::thread::scope(|s| {
            let savers: Vec<_> = (0..3)
                .map(|_| s.spawn(|| (0..SAVES).map(|_| ws.save()).collect::<Vec<_>>()))
                .collect();
            for i in 0..200 {
                ws.db
                    .execute(&format!("INSERT INTO t (x) VALUES ({i})"))
                    .unwrap();
            }
            for saver in savers {
                for result in saver.join().unwrap() {
                    result.unwrap();
                }
            }
        });
        drop(ws);
        let ws = Workspace::open(&state, None).unwrap();
        assert_eq!(ws.db.row_count("t").unwrap(), 200);
        drop(ws);
        cleanup(&state);
    }
}
