//! Set-up: generates the workload's Lobsters state, disguises its
//! users through `Service::handle`, and starts the server in-process
//! through `edna_server::server::start` — the code `edna serve` runs.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edna_apps::lobsters::{self, generate::LobstersConfig};
use edna_core::Workspace;
use edna_server::{Client, Request, ServerConfig, ServerHandle, Service};

use crate::workload::{shuffle, Population, Workload, DISGUISE, MIXED_FRESH_LOGIN};

/// A workspace on disk, served.
pub struct Served {
    /// The shared service the server wraps.
    pub svc: Arc<Service>,
    /// The running server.
    pub server: ServerHandle,
}

impl Served {
    /// Opens the workspace at `state` and serves it with the benchmark's
    /// server configuration.
    pub fn open(state: &Path) -> Result<Served, String> {
        let svc = Arc::new(open_service(state)?);
        let server =
            edna_server::start(Arc::clone(&svc), server_config()).map_err(|e| e.to_string())?;
        Ok(Served { svc, server })
    }

    /// Drains the server (it checkpoints on the way out) and releases the
    /// workspace lock.
    pub fn stop(self) -> Result<(), String> {
        self.server
            .stop_and_wait()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// `edna serve`'s defaults, minus the two wall-clock background threads:
/// `mixed` drives checkpoints and policy ticks itself so every run does
/// the same work.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        checkpoint_every: None,
        policy_tick: None,
        ..ServerConfig::default()
    }
}

/// Placeholder RNG seed for every reopened workspace. A freshly opened
/// `Disguiser` restarts its RNG at a fixed seed, so after a restart it
/// redraws the placeholder names set-up already used and `users.username`
/// (UNIQUE) collisions exhaust the bounded redraw; reseeding moves the
/// reopened state onto a stream set-up never drew from.
const REOPEN_SEED: u64 = 0x7769_7265_6265_6e63;

/// Opens the workspace at `state` (a recovery pass, as `edna serve`
/// does) and wraps it in a service.
pub fn open_service(state: &Path) -> Result<Service, String> {
    let ws = Workspace::open(state, None).map_err(|e| e.to_string())?;
    ws.edna.set_seed(REOPEN_SEED);
    Service::new(ws).map_err(|e| e.to_string())
}

/// The outcome of one set-up.
pub struct Setup {
    /// The served state the round drives.
    pub served: Served,
    /// A copy of the state as set-up left it, for the traced replays.
    pub pristine: Option<PathBuf>,
    /// The data the schedules draw from.
    pub pop: Population,
    /// Each user's generated username, for the end-of-run checks.
    pub usernames: HashMap<i64, String>,
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// `TieredVault::storage_bytes()` after set-up per disguise it
    /// applied (`None` when set-up applied none).
    pub vault_bytes_per_disguise: Option<f64>,
}

/// Sets the workload up once, in `dir`. When `keep_pristine` is set,
/// the state is also copied aside before it is served.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    keep_pristine: bool,
) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (built, elapsed) = build(workload, seed, &dir.join("state"), keep_pristine)?;
    let vault_bytes = built
        .served
        .svc
        .workspace()
        .edna
        .vaults()
        .storage_bytes()
        .map_err(|e| e.to_string())?;
    let predisguised = workload.spec().predisguised;
    Ok(Setup {
        served: built.served,
        pristine: built.pristine,
        pop: built.pop,
        usernames: built.usernames,
        setup_s: elapsed.as_secs_f64(),
        vault_bytes_per_disguise: (predisguised > 0)
            .then(|| vault_bytes as f64 / predisguised as f64),
    })
}

struct Built {
    served: Served,
    pristine: Option<PathBuf>,
    pop: Population,
    usernames: HashMap<i64, String>,
}

/// One full set-up, timed until the server answers `health`. Copying
/// the pristine state aside is not part of the timed work.
fn build(
    workload: Workload,
    seed: u64,
    state: &Path,
    keep_pristine: bool,
) -> Result<(Built, Duration), String> {
    let spec = workload.spec();
    let started = Instant::now();

    // Generate in memory, then persist: generation is the application's
    // history, not traffic the server logs.
    let db = lobsters::create_db().map_err(|e| e.to_string())?;
    let config = LobstersConfig {
        seed,
        ..LobstersConfig::sized(spec.users)
    };
    let inst = lobsters::generate::generate(&db, &config).map_err(|e| e.to_string())?;
    let rows = db
        .execute("SELECT id, username, last_login, invited_by_user_id FROM users")
        .map_err(|e| e.to_string())?
        .rows;
    let mut usernames = HashMap::new();
    let mut eligible = HashSet::new();
    let mut invited = HashSet::new();
    for row in rows {
        let id = row[0].as_int().map_err(|e| e.to_string())?;
        usernames.insert(id, row[1].as_text().map_err(|e| e.to_string())?.to_string());
        // The run's own applies pick users nobody invited: a reveal
        // re-inserts the user's row, which fails while its inviter is
        // disguised — and the other stream or a policy tick may have
        // disguised the inviter in between.
        let last_login = row[2].as_int().map_err(|e| e.to_string())?;
        let safe_login = workload != Workload::Mixed || last_login >= MIXED_FRESH_LOGIN;
        if !row[3].is_null() {
            invited.insert(id);
        } else if safe_login {
            eligible.insert(id);
        }
    }
    db.save(state).map_err(|e| e.to_string())?;
    drop(db);

    let ws = Workspace::open(state, None).map_err(|e| e.to_string())?;
    ws.register_spec(lobsters::GDPR_DSL)
        .map_err(|e| e.to_string())?;
    if spec.policy {
        ws.register_policy(&crate::workload::policy_dsl())
            .map_err(|e| e.to_string())?;
    }
    let svc = Service::new(ws).map_err(|e| e.to_string())?;

    // Disguise the set-up cohort the way a long-running server would
    // have: through the service, so history, `_edna_caps` and
    // `_edna_requests` all reach the workload's depth. The cohort is
    // drawn from invited users first, leaving the uninvited ones — the
    // only users the run can apply to and reveal again — to the run.
    let mut order = inst.user_ids.clone();
    shuffle(&mut order, seed);
    order.sort_by_key(|u| !invited.contains(u));
    let (cohort, rest) = order.split_at(spec.predisguised);
    for user in cohort {
        let resp = svc.handle(
            &Request::new("apply")
                .arg(DISGUISE)
                .header("user", user.to_string())
                .header("idem", format!("setup-{user}")),
        );
        if !resp.ok {
            return Err(format!(
                "set-up apply for user {user} failed: {}",
                resp.body
            ));
        }
    }
    svc.checkpoint().map_err(|e| e.to_string())?;
    drop(svc);
    let timed = started.elapsed();

    let pristine = if keep_pristine {
        let copy = state.with_file_name("pristine");
        std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
        copy_state(state, &copy.join("state"))?;
        Some(copy.join("state"))
    } else {
        None
    };

    // Restart on the checkpointed state, as an operator would, and wait
    // until the server answers.
    let restarted = Instant::now();
    let served = Served::open(state)?;
    let mut probe =
        Client::connect(served.server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    let health = probe.health().map_err(|e| e.to_string())?;
    if !health.ok {
        return Err(format!("server is not healthy: {}", health.body));
    }
    drop(probe);
    let elapsed = timed + restarted.elapsed();

    let fresh: Vec<i64> = rest
        .iter()
        .copied()
        .filter(|u| eligible.contains(u))
        .collect();
    Ok((
        Built {
            served,
            pristine,
            pop: Population {
                users: inst.user_ids,
                stories: inst.story_ids,
                fresh,
            },
            usernames,
        },
        elapsed,
    ))
}

/// Copies a closed workspace — snapshot, WAL and vault sidecars — from
/// `state` to `to`, leaving the lock file behind.
pub fn copy_state(state: &Path, to: &Path) -> Result<(), String> {
    let src_dir = state.parent().ok_or("state has no directory")?;
    let dst_dir = to.parent().ok_or("copy target has no directory")?;
    let stem = state
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("state name is not UTF-8")?;
    let to_stem = to
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("copy name is not UTF-8")?;
    for entry in std::fs::read_dir(src_dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(suffix) = name.strip_prefix(stem) else {
            continue;
        };
        if suffix == ".lock" {
            continue;
        }
        copy_tree(&entry.path(), &dst_dir.join(format!("{to_stem}{suffix}")))?;
    }
    Ok(())
}

fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    if from.is_dir() {
        std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
        for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            copy_tree(&entry.path(), &to.join(entry.file_name()))?;
        }
        Ok(())
    } else {
        std::fs::copy(from, to)
            .map(|_| ())
            .map_err(|e| format!("cannot copy {}: {e}", from.display()))
    }
}
