//! Kill sweep over disguise application: crash at every WAL frame, in
//! every crash style, and assert that `Workspace::open` recovers to a
//! state where the database is structurally consistent and the history
//! table and vault agree — the disguise either fully happened or fully
//! didn't.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use edna_cli::Workspace;
use edna_core::HISTORY_TABLE;
use edna_relational::{Value, WalCrash};
use edna_vault::{FileStore, Vault};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("edna_cli_sweep_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

/// Builds a saved baseline workspace: FK schema, data, registered spec.
fn make_baseline(state: &Path) {
    let ws = Workspace::init(state, None).unwrap();
    ws.db
        .execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id) ON DELETE CASCADE);
             INSERT INTO users (name) VALUES ('bea'), ('mel');
             INSERT INTO posts (user_id, body) VALUES (1, 'a'), (2, 'b');",
        )
        .unwrap();
    ws.register_spec(SPEC).unwrap();
    ws.save().unwrap();
}

/// Copies every on-disk artifact of a workspace to a new base path.
fn copy_state(src: &Path, dst: &Path) {
    std::fs::copy(src, dst).unwrap();
    for suffix in [".wal", ".metrics"] {
        let s = sidecar(src, suffix);
        if s.exists() {
            std::fs::copy(&s, sidecar(dst, suffix)).unwrap();
        }
    }
    let (sv, dv) = (sidecar(src, ".vault"), sidecar(dst, ".vault"));
    if sv.exists() {
        copy_dir(&sv, &dv);
    }
}

fn sidecar(base: &Path, suffix: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn user_rows(ws: &Workspace) -> Vec<Vec<Value>> {
    ws.db
        .execute("SELECT id, name FROM users ORDER BY id")
        .unwrap()
        .rows
}

fn post_rows(ws: &Workspace) -> Vec<Vec<Value>> {
    ws.db
        .execute("SELECT id, user_id FROM posts ORDER BY id")
        .unwrap()
        .rows
}

fn history_count(ws: &Workspace) -> i64 {
    match ws
        .db
        .execute(&format!(
            "SELECT COUNT(*) FROM {HISTORY_TABLE} WHERE name = 'Gdpr' AND reverted = FALSE"
        ))
        .unwrap()
        .scalar()
        .unwrap()
    {
        Value::Int(n) => *n,
        other => panic!("count returned {other:?}"),
    }
}

fn vault_entry_count(state: &Path, user: &Value, disguise_id: u64) -> usize {
    let vault = Vault::plain(FileStore::open(sidecar(state, ".vault").join("user")).unwrap());
    vault.entries_for_disguise(user, disguise_id).unwrap().len()
}

/// Builds a saved baseline with `n` users (each owning one post) and the
/// Gdpr spec registered — the cohort for the `apply_many` kill test.
fn make_cohort_baseline(state: &Path, n: usize) {
    let ws = Workspace::init(state, None).unwrap();
    ws.db
        .execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id) ON DELETE CASCADE);",
        )
        .unwrap();
    let users: Vec<String> = (0..n).map(|i| format!("('u{i}')")).collect();
    ws.db
        .execute(&format!(
            "INSERT INTO users (name) VALUES {}",
            users.join(", ")
        ))
        .unwrap();
    let posts: Vec<String> = (1..=n).map(|id| format!("({id}, 'p{id}')")).collect();
    ws.db
        .execute(&format!(
            "INSERT INTO posts (user_id, body) VALUES {}",
            posts.join(", ")
        ))
        .unwrap();
    ws.register_spec(SPEC).unwrap();
    ws.save().unwrap();
}

#[test]
fn sigkill_mid_apply_many_recovers_with_verify() {
    // A real SIGKILL (not an injected hook) lands mid-flight in a sharded
    // `edna apply --users-file` child process; `edna recover --verify`
    // must then report a consistent state, and every user must be either
    // fully disguised (history row present, user row gone) or fully
    // untouched — the WAL intent/commit protocol resolves the rest.
    use std::process::{Command, Stdio};

    const USERS: usize = 300;
    let dir = TempDir::new("apply_many_kill");
    let baseline = dir.path("cohort.edna");
    make_cohort_baseline(&baseline, USERS);
    let ids_file = dir.path("ids.txt");
    let ids: Vec<String> = (1..=USERS).map(|id| id.to_string()).collect();
    std::fs::write(&ids_file, ids.join("\n")).unwrap();

    for (iteration, delay_ms) in [5u64, 25, 75].into_iter().enumerate() {
        let state = dir.path(&format!("kill_{iteration}.edna"));
        copy_state(&baseline, &state);

        let mut child = Command::new(env!("CARGO_BIN_EXE_edna"))
            .args([
                "apply",
                state.to_str().unwrap(),
                "Gdpr",
                "--users-file",
                ids_file.to_str().unwrap(),
                "--shards",
                "4",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn edna apply");
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        let _ = child.kill();
        let _ = child.wait();

        let out = Command::new(env!("CARGO_BIN_EXE_edna"))
            .args(["recover", state.to_str().unwrap(), "--verify"])
            .output()
            .expect("recover runs");
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            out.status.success() && stdout.contains("integrity: ok"),
            "iteration {iteration}: recover --verify failed (exit {:?}):\n{stdout}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr),
        );

        // Shard-bounded atomicity: each shard applies one user at a time
        // as auto-commit statements (row transformations, then the
        // history record), so a SIGKILL can catch at most one user per
        // shard between its removal and its history row. Everyone else
        // is fully disguised (history row, user gone) or fully untouched.
        let ws = Workspace::open(&state, None).unwrap();
        assert_eq!(ws.db.verify_integrity(), Vec::<String>::new());
        let remaining = match ws
            .db
            .execute("SELECT COUNT(*) FROM users")
            .unwrap()
            .scalar()
            .unwrap()
        {
            Value::Int(n) => *n,
            other => panic!("count returned {other:?}"),
        };
        let applied = history_count(&ws);
        let in_flight = USERS as i64 - (remaining + applied);
        assert!(
            (0..=4).contains(&in_flight),
            "iteration {iteration}: at most one in-flight user per shard \
             ({remaining} remaining, {applied} disguised, {in_flight} in flight)"
        );
    }
}

#[test]
fn disguise_application_survives_a_crash_at_every_wal_frame() {
    let dir = TempDir::new("kill");
    let baseline = dir.path("base.edna");
    make_baseline(&baseline);

    // Count the frames a clean application writes, with a hook that
    // never fires (counting is a side effect of consultation).
    let frames = {
        let state = dir.path("count.edna");
        copy_state(&baseline, &state);
        let ws = Workspace::open(&state, None).unwrap();
        let wal = ws.db.wal().unwrap();
        wal.set_crash_hook(Some(Arc::new(|_| None)));
        ws.edna.apply("Gdpr", Some(&Value::Int(1))).unwrap();
        wal.crash_frame_count()
    };
    assert!(
        frames >= 3,
        "expected at least intent + txn + commit frames, got {frames}"
    );

    let baseline_users = {
        let ws = Workspace::open(&baseline, None).unwrap();
        (user_rows(&ws), post_rows(&ws))
    };

    for style in [
        WalCrash::BeforeWrite,
        WalCrash::TornWrite,
        WalCrash::AfterWrite,
    ] {
        for k in 0..frames {
            let state = dir.path(&format!("sweep_{style:?}_{k}.edna"));
            copy_state(&baseline, &state);
            {
                let ws = Workspace::open(&state, None).unwrap();
                let wal = ws.db.wal().unwrap();
                wal.set_crash_hook(Some(Arc::new(move |i| (i == k).then_some(style))));
                // Crashing on the trailing commit marker is absorbed
                // (the marker is advisory), so Ok is possible at the
                // last frames; everything earlier must surface the
                // injected death.
                let _ = ws.edna.apply("Gdpr", Some(&Value::Int(1)));
                // Process dies here: no save, no cleanup.
            }
            let ws = Workspace::open(&state, None).unwrap();
            let ctx = format!("style {style:?} frame {k}");

            // Structural integrity: FKs, unique indexes, auto cursors.
            assert_eq!(ws.db.verify_integrity(), Vec::<String>::new(), "{ctx}");

            // Atomicity: the disguise fully happened or fully didn't,
            // and history and vault tell the same story.
            let applied = history_count(&ws) == 1;
            let disguise_id = 1;
            if applied {
                assert_eq!(
                    user_rows(&ws),
                    vec![vec![Value::Int(2), Value::Text("mel".into())]],
                    "{ctx}: user row must be removed"
                );
                assert_eq!(
                    post_rows(&ws),
                    vec![vec![Value::Int(2), Value::Int(2)]],
                    "{ctx}: cascade must be complete"
                );
                assert_eq!(
                    vault_entry_count(&state, &Value::Int(1), disguise_id),
                    1,
                    "{ctx}: applied disguise must keep its reveal functions"
                );
                // The reveal functions actually work after recovery.
                ws.edna.reveal(disguise_id).unwrap();
                assert_eq!(user_rows(&ws), baseline_users.0, "{ctx}: reveal restores");
            } else {
                assert_eq!(user_rows(&ws), baseline_users.0, "{ctx}: rolled back");
                assert_eq!(post_rows(&ws), baseline_users.1, "{ctx}: rolled back");
                assert_eq!(
                    vault_entry_count(&state, &Value::Int(1), disguise_id),
                    0,
                    "{ctx}: undone disguise must leave no orphan vault entry"
                );
            }
        }
    }
}
