//! Followers attaching while the primary takes writes. The bootstrap's
//! checkpoint, file copy and follower registration run in one engine
//! transaction, so no commit, vault write or WAL marker falls between the
//! shipped state and the live tail: once traffic stops and a follower has
//! applied everything, it holds the primary's rows and byte-identical
//! vault files.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edna_core::Workspace;
use edna_server::{replica, server, Client, ReplicaShared, ServerConfig, Service};

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_replboot_test_{tag}_{}", std::process::id()));
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

/// Every file under `<state>.vault/`, by path relative to it.
fn vault_files(state: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let root = edna_core::workspace::sidecar(state, ".vault");
    let mut out = BTreeMap::new();
    walk(&root, &root, &mut out);
    out
}

/// Reversible, and its vault entries expire 30 logical seconds after
/// the apply, so policy ticks purge them.
const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
expires_after: 30
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

const USERS: usize = 400;

/// Applies, reveals, SQL writes and purging policy ticks until `stop`;
/// counts rounds in `rounds`.
fn traffic(svc: &Service, client: &mut Client, stop: &AtomicBool, rounds: &AtomicUsize) {
    let mut last: Option<(u64, String)> = None;
    let mut now = 0;
    for user in 1..=USERS {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let r = client.apply("Gdpr", Some(&user.to_string())).unwrap();
        assert!(r.ok, "{}", r.body);
        let id = r.header_value("id").unwrap().parse().unwrap();
        let cap = r.header_value("cap").unwrap().to_string();
        // Reveal every other disguise; a purged one is irreversible.
        if let Some((id, cap)) = last.take() {
            let r = client.reveal(id, &cap).unwrap();
            assert!(r.ok || r.body.contains("no vault entries"), "{}", r.body);
        } else {
            last = Some((id, cap));
        }
        let r = client
            .sql(&format!("INSERT INTO notes (body) VALUES ('round {user}')"))
            .unwrap();
        assert!(r.ok, "{}", r.body);
        if user % 3 == 0 {
            now += 20;
            svc.policy_tick_at(now, None).unwrap();
        }
        rounds.fetch_add(1, Ordering::SeqCst);
    }
    panic!("traffic ran out of users before the test stopped it");
}

/// A replica attached over the wire, with its apply loop running.
struct Follower {
    state: PathBuf,
    svc: Arc<Service>,
    shared: Arc<ReplicaShared>,
    stop: Arc<AtomicBool>,
    applier: std::thread::JoinHandle<()>,
}

/// Attaches a follower exactly as `edna serve --replica-of` does.
fn attach(addr: SocketAddr, tag: &str) -> Follower {
    let state = temp_state(tag);
    let boot = replica::bootstrap(addr, &state, Duration::from_secs(30)).unwrap();
    let ws = Workspace::open_replica(&state, None).unwrap();
    assert_eq!(ws.db.wal_last_lsn(), boot.last_lsn, "{tag}: bootstrap LSN");
    let svc = Arc::new(Service::new(ws).unwrap());
    let shared = ReplicaShared::new(addr.to_string(), boot.epoch, boot.last_lsn);
    svc.attach_replica(Arc::clone(&shared));
    let stop = Arc::new(AtomicBool::new(false));
    let applier = {
        let (svc, shared, stop) = (svc.clone(), shared.clone(), stop.clone());
        std::thread::spawn(move || replica::run(boot.stream, &svc, &shared, &stop))
    };
    Follower {
        state,
        svc,
        shared,
        stop,
        applier,
    }
}

#[test]
fn followers_bootstrapped_under_traffic_converge() {
    let primary_state = temp_state("primary");
    let ws = Workspace::init(&primary_state, None).unwrap();
    ws.db
        .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    ws.db
        .execute("CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, body TEXT)")
        .unwrap();
    for i in 1..=USERS {
        ws.db
            .execute(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
            .unwrap();
    }
    ws.register_spec(SPEC).unwrap();
    let svc = Arc::new(Service::new(ws).unwrap());
    let handle = server::start(Arc::clone(&svc), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Three followers attach one after another, ten traffic rounds apart.
    let stop = AtomicBool::new(false);
    let rounds = AtomicUsize::new(0);
    let followers: Vec<Follower> = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            traffic(&svc, &mut client, &stop, &rounds);
        });
        let wait_for_rounds = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while rounds.load(Ordering::SeqCst) < n {
                assert!(!writer.is_finished(), "traffic died");
                assert!(Instant::now() < deadline, "traffic stalled");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let mut followers = Vec::new();
        for tag in ["replica_a", "replica_b", "replica_c"] {
            wait_for_rounds(rounds.load(Ordering::SeqCst) + 10);
            followers.push(attach(addr, tag));
        }
        wait_for_rounds(rounds.load(Ordering::SeqCst) + 10);
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        followers
    });

    let target = svc.workspace().db.wal_last_lsn();
    let primary_rows = svc.workspace().db.dump();
    let primary_vault = vault_files(&primary_state);
    for f in &followers {
        let deadline = Instant::now() + Duration::from_secs(20);
        while f.shared.applied_lsn() < target {
            assert!(f.shared.connected(), "follower stream died");
            assert!(
                Instant::now() < deadline,
                "follower stuck below lsn {target}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(f.svc.workspace().db.dump(), primary_rows);
        assert_eq!(vault_files(&f.state), primary_vault);
    }

    for f in &followers {
        f.stop.store(true, Ordering::SeqCst);
    }
    handle.stop_and_wait().unwrap();
    for f in followers {
        f.applier.join().unwrap();
        drop(f.svc);
        cleanup(&f.state);
    }
    drop(svc);
    cleanup(&primary_state);
}
