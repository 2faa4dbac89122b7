//! Kill-sweep for the decay daemon: serve a workspace with a ticking
//! decay policy under concurrent mixed traffic, SIGKILL the server at a
//! random instant, then prove `edna recover --verify` passes, the state
//! re-serves cleanly, and — the bug this pins down — a restarted server
//! resumes the policy cadence from the persisted last-run stamp instead
//! of re-firing every policy immediately.
//!
//! Policy runs are WAL-bracketed, and each disguise a run applies is one
//! engine transaction like a foreground apply, so a kill mid-run leaves
//! either a cleanly committed prefix of the run's disguises (each fsynced
//! before acknowledgement) or an open run marker that `recover` reports
//! as benign: incomplete runs never advance the stamp and resume on the
//! next tick.
//!
//! Iterations default low to keep `cargo test` fast; CI raises them via
//! `EDNA_SOAK_ITERS` (ci.sh runs the full sweep).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use edna_server::Client;
use edna_util::rng::{Rng as _, SplitMix64};

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_decay_{tag}_{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    for suffix in [".tmp", ".metrics", ".metrics.tmp", ".wal", ".lock"] {
        let mut os = p.as_os_str().to_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(os));
    }
    let mut os = p.as_os_str().to_os_string();
    os.push(".vault");
    let _ = std::fs::remove_dir_all(PathBuf::from(os));
}

fn edna_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_edna"))
}

/// Spawns `edna serve` with a fast policy tick and parses the bound
/// address and operator token from the stdout banner.
fn spawn_serve(state: &str) -> (Child, SocketAddr, String) {
    let mut child = edna_bin()
        .args([
            "serve",
            state,
            "--addr",
            "127.0.0.1:0",
            "--checkpoint-secs",
            "1",
            "--conn-timeout-ms",
            "5000",
            "--policy-tick-ms",
            "50",
            "--decay-rows",
            "64",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("serve announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .parse()
        .expect("parsable address");
    let mut token_line = String::new();
    reader
        .read_line(&mut token_line)
        .expect("serve announces its shutdown token");
    let token = token_line
        .trim()
        .strip_prefix("shutdown token ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {token_line:?}"))
        .to_string();
    (child, addr, token)
}

const GDPR_SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

// The decay stage: irreversible, converging (a truncated body truncates
// to itself), on a table the GDPR disguise never touches so the audit
// has no interleaving to object to.
const DECAY_SPEC: &str = r#"
disguise_name: "AgeNotes"
reversible: false
tables: {
  notes: { transformations: [ Modify(pred: "created_at < 100", column: body, modifier: Truncate(1)) ] },
}
"#;

const DECAY_POLICY: &str = "policy_name: \"aging\"\n\
                            kind: decay\n\
                            cadence: 5\n\
                            stages: [ \"AgeNotes\" ]\n";

/// The policy table row for `aging`: `(last_run, runs_total)`, with
/// `last_run` as the raw column text (`never` until a run completes).
fn policy_row(c: &mut Client) -> (String, u64) {
    let r = c.policy_status().expect("policy status answers");
    assert!(r.ok, "{}", r.body);
    let row = r
        .body
        .lines()
        .find(|l| l.starts_with("aging\t"))
        .unwrap_or_else(|| panic!("no aging row in {:?}", r.body))
        .to_string();
    let last = row.rsplit('\t').next().unwrap().to_string();
    let runs = r
        .header_value("runs-total")
        .and_then(|v| v.parse().ok())
        .expect("runs-total header");
    (last, runs)
}

/// One traffic thread: mixed inserts, selects, apply/reveal pairs, and
/// fresh decayable notes, until the connection dies (the kill) or
/// `rounds` complete.
fn traffic(addr: SocketAddr, thread_id: u64, rounds: usize) {
    let Ok(mut c) = Client::connect_with_timeout(addr, Duration::from_secs(5)) else {
        return;
    };
    for i in 0..rounds {
        let r = match i % 4 {
            0 => c.sql(&format!(
                "INSERT INTO users (name) VALUES ('t{thread_id}r{i}')"
            )),
            1 => c.sql(&format!(
                "INSERT INTO notes (body, created_at) VALUES ('note t{thread_id}r{i}', 50)"
            )),
            2 => c.sql("SELECT COUNT(*) FROM notes"),
            _ => match c.apply("Gdpr", Some(&format!("{}", thread_id + 1))) {
                Ok(resp) if resp.ok => {
                    let id: u64 = match resp.header_value("id").and_then(|v| v.parse().ok()) {
                        Some(id) => id,
                        None => continue,
                    };
                    match resp.header_value("cap") {
                        Some(cap) => {
                            let cap = cap.to_string();
                            c.reveal(id, &cap)
                        }
                        None => continue,
                    }
                }
                other => other,
            },
        };
        if r.is_err() {
            return; // server killed mid-conversation — expected.
        }
    }
}

#[test]
fn sigkill_under_decay_recovers_and_does_not_refire_policies() {
    let iterations: usize = std::env::var("EDNA_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let state = temp_state("sigkill");
    let s = state.to_str().unwrap().to_string();

    // Seed the workspace through the binary, like an operator would.
    assert!(edna_bin().args(["init", &s]).status().unwrap().success());
    for stmt in [
        "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)",
        "CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, body TEXT, \
         created_at INT NOT NULL DEFAULT 0)",
        "INSERT INTO notes (body, created_at) VALUES ('old-a', 0), ('old-b', 0)",
    ] {
        assert!(
            edna_bin()
                .args(["sql", &s, stmt])
                .status()
                .unwrap()
                .success(),
            "seed statement failed: {stmt}"
        );
    }
    for (name, text) in [
        ("gdpr", GDPR_SPEC),
        ("decay", DECAY_SPEC),
        ("policy", DECAY_POLICY),
    ] {
        let f = state.with_extension(format!("{name}_edna"));
        std::fs::write(&f, text).unwrap();
        assert!(
            edna_bin()
                .args(["register", &s, f.to_str().unwrap()])
                .status()
                .unwrap()
                .success(),
            "register {name} failed"
        );
        let _ = std::fs::remove_file(&f);
    }

    // Phase 1: kill sweep. The decay daemon ticks every 50 ms while
    // mixed traffic flows; a SIGKILL lands at a random instant — before,
    // during, or after a policy run.
    let mut rng = SplitMix64::new(0xDECA_FADE);
    for iteration in 0..iterations {
        let (mut child, addr, _token) = spawn_serve(&s);
        let threads: Vec<_> = (0..4)
            .map(|t| std::thread::spawn(move || traffic(addr, t, 200)))
            .collect();
        let delay = 50 + (rng.next_u64() % 400);
        std::thread::sleep(Duration::from_millis(delay));
        child.kill().expect("SIGKILL");
        let _ = child.wait();
        for t in threads {
            let _ = t.join();
        }

        let out = edna_bin()
            .args(["recover", &s, "--verify"])
            .output()
            .expect("recover runs");
        assert!(
            out.status.success(),
            "iteration {iteration}: recover --verify failed (exit {:?}):\n{}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("integrity: ok"),
            "iteration {iteration}: {stdout}"
        );
    }

    // Phase 2: a clean serve. Wait until the daemon fires a run in THIS
    // process (a kill-phase server may already have completed one and
    // persisted its stamp, in which case the next firing waits out the
    // cadence — the logical clock resumes, it does not leap), then check
    // the decay is visible in the data, the policy metrics are in the
    // Prometheus exposition, and drain cleanly so the stamp is
    // checkpointed.
    let (mut child, addr, token) = spawn_serve(&s);
    let mut c = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let last_run = loop {
        let (last, runs) = policy_row(&mut c);
        if runs >= 1 && last != "never" {
            break last;
        }
        assert!(Instant::now() < deadline, "policy never completed a run");
        std::thread::sleep(Duration::from_millis(100));
    };
    let r = c
        .sql("SELECT COUNT(*) FROM notes WHERE body = 'o'")
        .unwrap();
    assert!(r.ok, "{}", r.body);
    let decayed: u64 = r.body.lines().nth(1).and_then(|l| l.parse().ok()).unwrap();
    assert!(decayed >= 2, "seeded notes were not decayed: {}", r.body);
    let stats = c.stats().unwrap();
    assert!(
        stats.body.contains("edna_policy_runs_total"),
        "{}",
        stats.body
    );
    assert!(
        stats.body.contains("edna_decay_rows_total"),
        "{}",
        stats.body
    );
    assert!(
        stats.body.contains("edna_policy_tick_us_aging"),
        "{}",
        stats.body
    );
    assert!(c.shutdown(&token).unwrap().ok);
    assert!(child.wait().unwrap().success(), "clean drain exits 0");

    // Phase 3: restart. The scheduler must reload the persisted stamp:
    // the status row shows the previous run's time, not `never`, and no
    // run fires immediately (the cadence window has not elapsed — the
    // logical clock resumes where the last tick left it, it does not
    // rewind or leap).
    let (mut child, addr, token) = spawn_serve(&s);
    let mut c = Client::connect(addr).unwrap();
    let (last, runs) = policy_row(&mut c);
    assert_ne!(last, "never", "last-run stamp lost across restart");
    assert!(
        last.parse::<i64>().unwrap() >= last_run.parse::<i64>().unwrap(),
        "stamp rewound: {last} < {last_run}"
    );
    assert_eq!(runs, 0, "policy re-fired immediately on restart");
    assert!(c.shutdown(&token).unwrap().ok);
    assert!(child.wait().unwrap().success());

    cleanup(&state);
}
