//! End-to-end server tests: a real listener, real sockets, concurrent
//! clients, backpressure, capability enforcement, and graceful drain.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use edna_core::{Workspace, HISTORY_TABLE};
use edna_server::{code, server, Client, Request, Response, ServerConfig, ServerHandle, Service};

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_serve_test_{tag}_{}", std::process::id()));
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

fn start_server(tag: &str, config: ServerConfig) -> (ServerHandle, PathBuf) {
    let state = temp_state(tag);
    let ws = Workspace::init(&state, None).unwrap();
    ws.db
        .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    ws.db
        .execute("INSERT INTO users (name) VALUES ('bea'), ('mel'), ('lyn')")
        .unwrap();
    ws.register_spec(SPEC).unwrap();
    let svc = Arc::new(Service::new(ws).unwrap());
    let handle = server::start(svc, config).unwrap();
    (handle, state)
}

#[test]
fn full_lifecycle_over_the_wire() {
    let (handle, state) = start_server("lifecycle", ServerConfig::default());
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    assert!(c.health().unwrap().ok);
    assert!(c.request(&Request::new("ready")).unwrap().ok);

    // SQL round trip on a persistent connection.
    let r = c.sql("SELECT name FROM users ORDER BY id").unwrap();
    assert!(r.ok, "{}", r.body);
    assert_eq!(r.header_value("rows"), Some("3"));
    assert!(r.body.contains("bea\n"), "{}", r.body);
    let r = c.sql("INSERT INTO users (name) VALUES ('new')").unwrap();
    assert_eq!(r.header_value("affected"), Some("1"));
    assert!(r.header_value("last-insert-id").is_some());

    // Apply mints a capability; reveal requires it.
    let r = c.apply("Gdpr", Some("1")).unwrap();
    assert!(r.ok, "{}", r.body);
    let id: u64 = r.header_value("id").unwrap().parse().unwrap();
    let cap = r.header_value("cap").unwrap().to_string();
    assert_eq!(cap.len(), 64, "32 random bytes, hex-encoded");

    let denied = c.reveal(id, &"ab".repeat(32)).unwrap();
    assert!(!denied.ok);
    assert_eq!(denied.code.as_deref(), Some(code::DENIED));
    let missing = c
        .request(&Request::new("reveal").header("id", id.to_string()))
        .unwrap();
    assert_eq!(missing.code.as_deref(), Some(code::DENIED));

    let r = c.reveal(id, &cap).unwrap();
    assert!(r.ok, "{}", r.body);
    let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
    assert!(r.body.contains('4'), "all rows back: {}", r.body);

    // check and recover ops answer over the wire.
    let r = c.request(&Request::new("check").arg("Gdpr")).unwrap();
    assert!(r.ok, "{}", r.body);
    let r = c
        .request(&Request::new("recover").header("verify", "true"))
        .unwrap();
    assert!(r.ok, "{}", r.body);
    assert!(r.body.contains("integrity: ok"), "{}", r.body);

    // Live stats include the server's own counters.
    let r = c.stats().unwrap();
    assert!(r.body.contains("edna_server_requests_total"), "{}", r.body);
    assert!(
        r.body.contains("edna_server_connections_total"),
        "{}",
        r.body
    );

    // Graceful drain: shutdown (with the operator token) answers, then
    // the server checkpoints and exits; the WAL is folded into the
    // snapshot.
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();
    let wal = edna_core::workspace::sidecar(&state, ".wal");
    let wal_len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    assert_eq!(wal_len, 0, "clean shutdown leaves a checkpointed WAL");

    // The state reopens cleanly (the server released the lock).
    let ws = Workspace::open(&state, None).unwrap();
    assert_eq!(ws.last_recovery.frames_replayed, 0);
    assert_eq!(ws.db.row_count("users").unwrap(), 4);
    drop(ws);
    cleanup(&state);
}

#[test]
fn shutdown_without_the_operator_token_is_denied() {
    let (handle, state) = start_server("shutdown_token", ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    // Missing and wrong tokens are both refused, and the refusal does
    // not drain the server: other tenants keep working.
    let r = c.request(&Request::new("shutdown")).unwrap();
    assert!(!r.ok);
    assert_eq!(r.code.as_deref(), Some(code::DENIED), "{}", r.body);
    let r = c.shutdown(&"ff".repeat(32)).unwrap();
    assert_eq!(r.code.as_deref(), Some(code::DENIED), "{}", r.body);
    assert!(c.health().unwrap().ok, "denied shutdown must not drain");
    let mut other = Client::connect(handle.addr()).unwrap();
    assert!(other.sql("SELECT COUNT(*) FROM users").unwrap().ok);

    // The real token drains.
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();
    cleanup(&state);
}

#[test]
fn wire_sql_cannot_forge_or_destroy_capabilities() {
    let (handle, state) = start_server("reserved_wire", ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    let r = c.apply("Gdpr", Some("1")).unwrap();
    assert!(r.ok, "{}", r.body);
    let id: u64 = r.header_value("id").unwrap().parse().unwrap();
    let cap = r.header_value("cap").unwrap().to_string();

    // A hostile tenant cannot rewrite the stored hash to one they chose,
    // delete it to deny the legitimate reveal, or read hashes out.
    for stmt in [
        "UPDATE _edna_caps SET cap_hash = 'mine'",
        "DELETE FROM _edna_caps",
        "SELECT cap_hash FROM _edna_caps",
        "DROP TABLE _edna_caps",
    ] {
        let r = c.sql(stmt).unwrap();
        assert!(!r.ok, "{stmt} must be refused");
        assert_eq!(r.code.as_deref(), Some(code::DENIED), "{stmt}: {}", r.body);
    }

    // The legitimate capability still reveals.
    let r = c.reveal(id, &cap).unwrap();
    assert!(r.ok, "{}", r.body);

    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn second_server_on_same_state_is_refused_by_the_lock() {
    let (handle, state) = start_server("lock", ServerConfig::default());
    let err = match Workspace::open(&state, None) {
        Ok(_) => panic!("state lock should refuse a second opener"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("locked by running process"), "got: {err}");
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn admission_control_answers_busy_instead_of_queueing_forever() {
    // One worker, no spare queue slot beyond it: with the worker pinned
    // on a slow statement and one connection queued, the next connection
    // must get an immediate `err busy`.
    let config = ServerConfig {
        max_conns: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (handle, state) = start_server("busy", config);
    let addr = handle.addr();

    let mut pinned = Client::connect(addr).unwrap();
    assert!(pinned.health().unwrap().ok); // worker now owns this connection
    let _queued = Client::connect(addr).unwrap(); // fills the queue slot
    std::thread::sleep(Duration::from_millis(100));

    // The rejected connection gets the busy frame as the response to
    // whatever it sends first. The client retries `busy` with bounded
    // backoff (reconnecting each attempt, since the server closes after
    // the refusal); with the worker still pinned, every retry is also
    // refused and the exhaustion surfaces as an error naming the code.
    let t0 = Instant::now();
    let mut rejected = Client::connect(addr).unwrap();
    let err = rejected
        .health()
        .expect_err("busy past every retry must surface");
    assert!(err.to_string().contains("busy"), "{err}");
    assert_eq!(rejected.retry_count(), 4, "MAX_ATTEMPTS-1 bounded retries");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "busy must be immediate (and backoff bounded), not queued"
    );

    drop(pinned);
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn slow_apply_does_not_block_health_probes() {
    let config = ServerConfig {
        max_conns: 4,
        ..ServerConfig::default()
    };
    let (handle, state) = start_server("liveness", config);
    let addr = handle.addr();

    // Grow the table so the apply runs a while.
    {
        let mut c = Client::connect(addr).unwrap();
        // Injected latency is a test knob on the engine, reachable only
        // in-process — but the apply path issues many statements, so a
        // big INSERT workload keeps the writer busy instead.
        for _ in 0..3 {
            let values: Vec<String> = (0..400).map(|i| format!("('bulk{i}')")).collect();
            let stmt = format!("INSERT INTO users (name) VALUES {}", values.join(", "));
            assert!(c.sql(&stmt).unwrap().ok);
        }
    }

    let applier = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let r = c.apply("Gdpr", Some("2")).unwrap();
        assert!(r.ok, "{}", r.body);
    });
    // While the apply runs, health (lock-free) answers with bounded
    // latency from a separate connection.
    let mut prober = Client::connect(addr).unwrap();
    for _ in 0..10 {
        let t0 = Instant::now();
        assert!(prober.health().unwrap().ok);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "health must not wait on the apply"
        );
    }
    applier.join().unwrap();
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn drain_refuses_new_connections_and_finishes_in_flight_work() {
    let (handle, state) = start_server("drain", ServerConfig::default());
    let addr = handle.addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.health().unwrap().ok);
    assert!(b.health().unwrap().ok);

    assert!(a.shutdown(handle.shutdown_token()).unwrap().ok);

    // The other persistent connection is told the server is draining on
    // its next request (or sees a clean close), and new connections
    // cannot get work done.
    // An Err means the connection was already closed by the drain,
    // which is also an acceptable refusal.
    if let Ok(r) = b.health() {
        assert_eq!(r.code.as_deref(), Some(code::SHUTTING_DOWN));
    }
    handle.wait().unwrap();
    if let Ok(mut c) = Client::connect(addr) {
        if let Ok(r) = c.health() {
            assert_eq!(r.code.as_deref(), Some(code::SHUTTING_DOWN));
        }
    }
    cleanup(&state);
}

#[test]
fn concurrent_mixed_clients_keep_state_consistent() {
    let (handle, state) = start_server(
        "mixed",
        ServerConfig {
            max_conns: 8,
            queue_depth: 16,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..10 {
                    if t % 2 == 0 {
                        let r = c
                            .sql(&format!("INSERT INTO users (name) VALUES ('t{t}i{i}')"))
                            .unwrap();
                        assert!(r.ok, "{}", r.body);
                    } else {
                        let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
                        assert!(r.ok, "{}", r.body);
                    }
                }
            });
        }
    });

    let mut c = Client::connect(addr).unwrap();
    let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
    assert!(r.body.contains("43"), "3 seed + 40 inserted: {}", r.body);
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();

    // Everything survived into the checkpointed state.
    let ws = Workspace::open(&state, None).unwrap();
    assert_eq!(ws.db.row_count("users").unwrap(), 43);
    assert_eq!(ws.db.verify_integrity(), Vec::<String>::new());
    drop(ws);
    cleanup(&state);
}

#[test]
fn background_checkpointer_bounds_the_wal() {
    let (handle, state) = start_server(
        "ckpt",
        ServerConfig {
            checkpoint_every: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    for i in 0..20 {
        assert!(
            c.sql(&format!("INSERT INTO users (name) VALUES ('w{i}')"))
                .unwrap()
                .ok
        );
    }
    let wal = edna_core::workspace::sidecar(&state, ".wal");
    let grown = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    assert!(grown > 0, "writes land in the WAL first");
    // Within a few checkpoint intervals the WAL is truncated without any
    // client asking for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        if len == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background checkpoint never truncated the WAL (still {len} bytes)"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // The checkpoint is a real snapshot: metrics sidecar refreshed too.
    assert!(edna_core::workspace::sidecar(&state, ".metrics").exists());
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();
    cleanup(&state);
}

#[test]
fn apply_many_disguises_a_cohort_over_the_wire() {
    let (handle, state) = start_server("apply_many", ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();

    // Grow the population past the three seed users.
    for i in 0..20 {
        let r = c
            .sql(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
            .unwrap();
        assert!(r.ok, "{}", r.body);
    }

    // Disguise users 1..=20 in one request, leaving 21..=23.
    let ids: String = (1..=20).map(|i| format!("{i}\n")).collect();
    let r = c
        .request(
            &Request::new("apply_many")
                .arg("Gdpr")
                .header("shards", "4")
                .body(format!("# departing cohort\n{ids}")),
        )
        .unwrap();
    assert!(r.ok, "{}", r.body);
    assert_eq!(r.header_value("users"), Some("20"));
    assert_eq!(r.header_value("succeeded"), Some("20"));
    assert_eq!(r.header_value("failed"), Some("0"));
    assert_eq!(r.header_value("shards"), Some("4"));

    let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
    assert!(r.body.contains('3'), "only the cohort is gone: {}", r.body);

    // Bad requests answer with usage errors, not hangs.
    let r = c.request(&Request::new("apply_many")).unwrap();
    assert_eq!(r.code.as_deref(), Some(code::USAGE));
    let r = c
        .request(
            &Request::new("apply_many")
                .arg("Gdpr")
                .body("\n# only comments\n"),
        )
        .unwrap();
    assert_eq!(r.code.as_deref(), Some(code::USAGE));
    let r = c
        .request(
            &Request::new("apply_many")
                .arg("Gdpr")
                .header("shards", "zap")
                .body("21\n"),
        )
        .unwrap();
    assert_eq!(r.code.as_deref(), Some(code::USAGE));

    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

/// Sends `req` from two connections released at the same instant and
/// returns both replies.
fn race(addr: SocketAddr, req: &Request) -> [Response; 2] {
    let go = &Barrier::new(2);
    std::thread::scope(|s| {
        let racers = [(); 2].map(|()| {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                go.wait();
                c.request(req).unwrap()
            })
        });
        racers.map(|h| h.join().unwrap())
    })
}

/// Rounds per race test: each round is one chance to interleave.
const RACE_ROUNDS: i64 = 10;

#[test]
fn racing_applies_with_one_idempotency_key_apply_once() {
    let (handle, state) = start_server("idem_race", ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    for i in 0..RACE_ROUNDS {
        assert!(
            c.sql(&format!("INSERT INTO users (name) VALUES ('r{i}')"))
                .unwrap()
                .ok
        );
    }
    // Users 4.. are the ones just inserted.
    for user in 4..4 + RACE_ROUNDS {
        let req = Request::new("apply")
            .arg("Gdpr")
            .header("user", user.to_string())
            .header("idem", format!("race-{user}"));
        let [a, b] = race(addr, &req);
        assert!(a.ok && b.ok, "{} / {}", a.body, b.body);
        assert!(a.header_value("cap").is_some(), "{}", a.body);
        assert_eq!(a.header_value("id"), b.header_value("id"));
        assert_eq!(a.header_value("cap"), b.header_value("cap"));
    }
    drop(c);
    handle.stop_and_wait().unwrap();
    let ws = Workspace::open(&state, None).unwrap();
    assert_eq!(
        ws.db.row_count(HISTORY_TABLE).unwrap(),
        RACE_ROUNDS as usize,
        "one history row per idempotency key"
    );
    drop(ws);
    cleanup(&state);
}

#[test]
fn racing_reveals_of_one_disguise_restore_it_once() {
    let (handle, state) = start_server("reveal_race", ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    for i in 0..RACE_ROUNDS {
        assert!(
            c.sql(&format!("INSERT INTO users (name) VALUES ('r{i}')"))
                .unwrap()
                .ok
        );
    }
    for user in 4..4 + RACE_ROUNDS {
        let r = c.apply("Gdpr", Some(&user.to_string())).unwrap();
        assert!(r.ok, "{}", r.body);
        let req = Request::new("reveal")
            .header("id", r.header_value("id").unwrap())
            .header("cap", r.header_value("cap").unwrap());
        let replies = race(addr, &req);
        let [won, lost] = if replies[0].ok { [0, 1] } else { [1, 0] };
        assert!(replies[won].ok, "{}", replies[won].body);
        assert!(!replies[lost].ok, "both reveals succeeded");
        assert_eq!(replies[lost].code.as_deref(), Some(code::RUNTIME));
        assert!(
            replies[lost].body.contains("already reverted"),
            "{}",
            replies[lost].body
        );
        let r = c
            .sql(&format!("SELECT name FROM users WHERE id = {user}"))
            .unwrap();
        assert_eq!(
            r.header_value("rows"),
            Some("1"),
            "restored once: {}",
            r.body
        );
    }
    drop(c);
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

/// Busy-waits `d`: finer than `thread::sleep`, to sweep a race window.
fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// An expiration policy over `Gdpr` that finds users whose last login
/// is more than 1,000 logical seconds old.
const EXPIRE_POLICY: &str = "policy_name: \"expire\"\n\
                             kind: expiration\n\
                             cadence: 1\n\
                             disguise: \"Gdpr\"\n\
                             inactive_after: 1000\n\
                             user_query: \"SELECT id FROM users WHERE last_login < $CUTOFF\"\n";

#[test]
fn a_policy_tick_never_disguises_a_user_a_racing_apply_already_did() {
    const ROUNDS: i64 = 40;
    let state = temp_state("tick_race");
    let ws = Workspace::init(&state, None).unwrap();
    ws.db
        .execute(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, last_login INT)",
        )
        .unwrap();
    // User k + 1 last logged in at 10k + 5, and round k ticks at
    // 1,000 + 10k + 6, so the tick finds that user and no other.
    for k in 0..ROUNDS {
        ws.db
            .execute(&format!(
                "INSERT INTO users (name, last_login) VALUES ('u{k}', {})",
                10 * k + 5
            ))
            .unwrap();
    }
    ws.register_spec(SPEC).unwrap();
    ws.register_policy(EXPIRE_POLICY).unwrap();
    let svc = Service::new(ws).unwrap();
    for k in 0..ROUNDS {
        let user = k + 1;
        let req = Request::new("apply")
            .arg("Gdpr")
            .header("user", user.to_string());
        let go = Barrier::new(2);
        // Each round sends the apply a little later, sweeping it across
        // the tick's query, checks and apply.
        let (wire, tick) = std::thread::scope(|s| {
            let wire = s.spawn(|| {
                go.wait();
                spin(Duration::from_micros(25 * k as u64));
                svc.handle(&req)
            });
            go.wait();
            let tick = svc.policy_tick_at(1_000 + 10 * k + 6, None).unwrap();
            (wire.join().unwrap(), tick)
        });
        assert!(wire.ok, "{}", wire.body);
        let wire_id: u64 = wire.header_value("id").unwrap().parse().unwrap();
        let ticked: Vec<_> = tick.runs.iter().flat_map(|r| &r.reports).collect();
        assert!(ticked.len() <= 1, "round {k}: {} disguises", ticked.len());
        // The tick may disguise the user before the wire apply does, but
        // never after it: it re-checks inside its own transaction.
        if let Some(report) = ticked.first() {
            assert_eq!(report.user_id, edna_relational::Value::Int(user));
            assert!(
                report.disguise_id < wire_id,
                "round {k}: the tick disguised user {user} (id {}) after the wire apply (id {wire_id})",
                report.disguise_id
            );
        }
    }
    drop(svc);
    cleanup(&state);
}

/// Removes a user's posts, then the user.
const POSTS_SPEC: &str = r#"
disguise_name: "GdprPosts"
user_to_disguise: $UID
tables: {
  posts: { transformations: [ Remove(pred: "user_id = $UID") ] },
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

#[test]
fn a_reader_beside_apply_many_sees_each_user_all_or_nothing() {
    const COHORT: usize = 200;
    let state = temp_state("apply_many_reader");
    let ws = Workspace::init(&state, None).unwrap();
    ws.db
        .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    ws.db
        .execute("CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT, body TEXT)")
        .unwrap();
    for user in 1..=COHORT {
        ws.db
            .execute(&format!("INSERT INTO users (name) VALUES ('u{user}')"))
            .unwrap();
        ws.db
            .execute(&format!(
                "INSERT INTO posts (user_id, body) VALUES ({user}, 'a'), ({user}, 'b')"
            ))
            .unwrap();
    }
    ws.register_spec(POSTS_SPEC).unwrap();
    let svc = Arc::new(Service::new(ws).unwrap());
    let handle = server::start(svc, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Users present without their posts: a disguise seen half done.
    let half_disguised = "SELECT COUNT(*) FROM users u LEFT JOIN posts p ON p.user_id = u.id \
                          WHERE p.id IS NULL";
    let done = AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        s.spawn(|| {
            let ids: String = (1..=COHORT).map(|i| format!("{i}\n")).collect();
            let mut c = Client::connect(addr).unwrap();
            let r = c
                .request(
                    &Request::new("apply_many")
                        .arg("GdprPosts")
                        .header("shards", "4")
                        .body(ids),
                )
                .unwrap();
            done.store(true, Ordering::SeqCst);
            assert!(r.ok, "{}", r.body);
            assert_eq!(
                r.header_value("succeeded"),
                Some(COHORT.to_string().as_str())
            );
        });
        let mut c = Client::connect(addr).unwrap();
        let mut reads = 0;
        loop {
            let finished = done.load(Ordering::SeqCst);
            let r = c.sql(half_disguised).unwrap();
            assert!(r.ok, "{}", r.body);
            assert_eq!(r.body.lines().nth(1), Some("0"), "read {reads}: {}", r.body);
            reads += 1;
            if finished {
                break reads;
            }
        }
    });
    assert!(reads > 1, "the reader never ran beside the apply_many");
    let mut c = Client::connect(addr).unwrap();
    let r = c.sql("SELECT COUNT(*) FROM posts").unwrap();
    assert_eq!(r.body.lines().nth(1), Some("0"), "{}", r.body);
    drop(c);
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}
