//! The I/O one wire operation costs, pinned by counters: an `idem` apply
//! of a fresh user writes three WAL frames with an fsync each (the intent
//! marker, the transaction that holds the disguise, its capability and
//! its ledger row, and the commit marker) and appends to the vault log
//! rather than creating a file; its reveal writes one frame.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use edna_core::workspace::sidecar;
use edna_core::Workspace;
use edna_server::{server, Client, Request, ServerConfig, Service};

const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

const USERS: usize = 20;

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_wire_io_test_{tag}_{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    for suffix in [".tmp", ".metrics", ".metrics.tmp", ".wal", ".lock"] {
        let _ = std::fs::remove_file(sidecar(p, suffix));
    }
    let _ = std::fs::remove_dir_all(sidecar(p, ".vault"));
}

/// Files under `<state>.vault/`, at any depth.
fn vault_files(state: &Path) -> usize {
    fn walk(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .map(|e| e.unwrap().path())
                    .map(|p| if p.is_dir() { walk(&p) } else { 1 })
                    .sum()
            })
            .unwrap_or(0)
    }
    walk(&sidecar(state, ".vault"))
}

#[test]
fn a_wire_apply_appends_and_waits_on_three_fsyncs() {
    let state = temp_state("apply");
    let ws = Workspace::init(&state, None).unwrap();
    ws.db
        .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    for i in 1..=USERS {
        ws.db
            .execute(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
            .unwrap();
    }
    ws.register_spec(SPEC).unwrap();
    let svc = Arc::new(Service::new(ws).unwrap());
    let config = ServerConfig {
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let handle = server::start(Arc::clone(&svc), config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let metrics = svc.workspace().db.metrics();
    let frames = metrics.counter("edna_wal_frames_total", "");
    let fsyncs = metrics.counter("edna_wal_fsyncs_total", "");
    let apply = |client: &mut Client, user: usize| {
        let r = client
            .request(
                &Request::new("apply")
                    .arg("Gdpr")
                    .header("user", user.to_string())
                    .header("idem", format!("io-{user}")),
            )
            .unwrap();
        assert!(r.ok, "{}", r.body);
        r
    };

    apply(&mut client, 1);
    let files_for_one = vault_files(&state);
    assert!(files_for_one > 0, "the first apply writes a vault file");

    let (f0, s0) = (frames.get(), fsyncs.get());
    let applied = apply(&mut client, 2);
    assert_eq!(frames.get() - f0, 3, "WAL frames per idem apply");
    assert_eq!(fsyncs.get() - s0, 3, "WAL fsyncs per idem apply");

    let f0 = frames.get();
    let id = applied.header_value("id").unwrap();
    let cap = applied.header_value("cap").unwrap();
    let r = client
        .request(&Request::new("reveal").header("id", id).header("cap", cap))
        .unwrap();
    assert!(r.ok, "{}", r.body);
    assert_eq!(frames.get() - f0, 1, "WAL frames per reveal");

    for user in 3..=USERS {
        apply(&mut client, user);
    }
    assert_eq!(
        vault_files(&state),
        files_for_one,
        "applying to {USERS} users leaves as many vault files as applying to one"
    );

    drop(client);
    handle.stop_and_wait().unwrap();
    drop(svc);
    cleanup(&state);
}
