//! Exactly-once `apply` under a crash: an `idem` apply killed at every
//! WAL frame it writes, in every crash style, then retried with the same
//! key after the state reopens, leaves exactly one disguise for its user.
//! When the reply before the crash was `ok`, the retry replays it — the
//! same disguise id and the same reveal capability — because the ledger
//! row committed in the disguise's own transaction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use edna_core::workspace::sidecar;
use edna_core::{Workspace, HISTORY_TABLE};
use edna_relational::{Value, WalCrash};
use edna_server::{Request, Response, Service};

const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("edna_idem_crash_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A served state with two users and the spec registered, checkpointed
/// after the service created its bookkeeping tables.
fn make_baseline(state: &Path) {
    let ws = Workspace::init(state, None).unwrap();
    ws.db
        .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    ws.db
        .execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
        .unwrap();
    ws.register_spec(SPEC).unwrap();
    Service::new(ws).unwrap().checkpoint().unwrap();
}

fn copy_state(src: &Path, dst: &Path) {
    std::fs::copy(src, dst).unwrap();
    let wal = sidecar(src, ".wal");
    if wal.exists() {
        std::fs::copy(&wal, sidecar(dst, ".wal")).unwrap();
    }
    let vault = sidecar(src, ".vault");
    for tier in ["global", "user"] {
        let Ok(files) = std::fs::read_dir(vault.join(tier)) else {
            continue;
        };
        let to = sidecar(dst, ".vault").join(tier);
        std::fs::create_dir_all(&to).unwrap();
        for f in files {
            let f = f.unwrap();
            std::fs::copy(f.path(), to.join(f.file_name())).unwrap();
        }
    }
}

fn apply_request() -> Request {
    Request::new("apply")
        .arg("Gdpr")
        .header("user", "1")
        .header("idem", "crash-1")
}

fn applied_disguises(ws: &Workspace) -> i64 {
    let count = ws
        .db
        .execute(&format!(
            "SELECT COUNT(*) FROM {HISTORY_TABLE} WHERE userId = '1' AND reverted = FALSE"
        ))
        .unwrap();
    match count.scalar().unwrap() {
        Value::Int(n) => *n,
        other => panic!("count returned {other:?}"),
    }
}

/// Opens `state`, arms the WAL crash hook, sends the apply and "dies"
/// (no checkpoint, no cleanup); returns the reply the client saw.
fn crashed_apply(state: &Path, hook: Option<edna_relational::WalCrashHook>) -> (Response, u64) {
    let svc = Service::new(Workspace::open(state, None).unwrap()).unwrap();
    let wal = svc.workspace().db.wal().unwrap();
    wal.set_crash_hook(hook);
    let reply = svc.handle(&apply_request());
    (reply, wal.crash_frame_count())
}

#[test]
fn an_idem_apply_crashed_at_every_wal_frame_applies_exactly_once() {
    let dir = TempDir::new("sweep");
    let baseline = dir.path("base.edna");
    make_baseline(&baseline);

    let frames = {
        let state = dir.path("count.edna");
        copy_state(&baseline, &state);
        let (reply, frames) = crashed_apply(&state, Some(Arc::new(|_| None)));
        assert!(reply.ok, "{}", reply.body);
        frames
    };
    assert!(
        frames >= 3,
        "expected at least intent + txn + commit frames, got {frames}"
    );

    for style in [
        WalCrash::BeforeWrite,
        WalCrash::TornWrite,
        WalCrash::AfterWrite,
    ] {
        for k in 0..frames {
            let ctx = format!("style {style:?} frame {k}");
            let state = dir.path(&format!("sweep_{style:?}_{k}.edna"));
            copy_state(&baseline, &state);
            let (before, _) =
                crashed_apply(&state, Some(Arc::new(move |i| (i == k).then_some(style))));

            let svc = Service::new(Workspace::open(&state, None).unwrap()).unwrap();
            let retry = svc.handle(&apply_request());
            assert!(retry.ok, "{ctx}: retry failed: {}", retry.body);
            let ws = svc.workspace();
            assert_eq!(ws.db.verify_integrity(), Vec::<String>::new(), "{ctx}");
            assert_eq!(applied_disguises(ws), 1, "{ctx}: exactly one disguise");
            if before.ok {
                assert_eq!(retry.header_value("idem"), Some("replayed"), "{ctx}");
                assert_eq!(retry.header_value("id"), before.header_value("id"), "{ctx}");
                assert_eq!(
                    retry.header_value("cap"),
                    before.header_value("cap"),
                    "{ctx}"
                );
            }
            // Whichever attempt applied, its capability reveals it.
            let id = retry.header_value("id").unwrap();
            let cap = retry.header_value("cap").unwrap();
            let reveal = svc.handle(&Request::new("reveal").header("id", id).header("cap", cap));
            assert!(reveal.ok, "{ctx}: reveal failed: {}", reveal.body);
        }
    }
}
