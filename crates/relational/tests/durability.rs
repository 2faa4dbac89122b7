//! End-to-end WAL durability: committed writes survive a process "crash"
//! (dropping the database without saving) and come back via replay.

use std::path::PathBuf;
use std::sync::Arc;

use edna_relational::wal::WalGroupConfig;
use edna_relational::{Database, Error, Value, WalCrash};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("edna_durability_{}_{name}", std::process::id()));
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

fn seed_schema(db: &Database) {
    db.execute_script(
        "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL);
         CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
         body TEXT, FOREIGN KEY (user_id) REFERENCES users(id) ON DELETE CASCADE);",
    )
    .unwrap();
}

#[test]
fn committed_rows_survive_a_crash_without_save() {
    let dir = TempDir::new("no_save");
    let wal_path = dir.path("db.wal");
    {
        let (db, report) = Database::open_durable(None, &wal_path).unwrap();
        assert_eq!(report.frames_replayed, 0);
        seed_schema(&db);
        db.execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
            .unwrap();
        db.execute("INSERT INTO posts (user_id, body) VALUES (1, 'hi')")
            .unwrap();
        db.execute("UPDATE users SET name = 'bee' WHERE id = 1")
            .unwrap();
        db.execute("DELETE FROM users WHERE id = 2").unwrap();
        // Crash: drop without ever calling save().
    }
    let (back, report) = Database::open_durable(None, &wal_path).unwrap();
    assert!(report.frames_replayed > 0);
    assert!(report.open_intents.is_empty());
    assert_eq!(back.verify_integrity(), Vec::<String>::new());
    assert_eq!(
        back.execute("SELECT name FROM users ORDER BY id")
            .unwrap()
            .rows,
        vec![vec![Value::Text("bee".into())]]
    );
    assert_eq!(
        back.execute("SELECT body FROM posts").unwrap().rows,
        vec![vec![Value::Text("hi".into())]]
    );
    // AUTO_INCREMENT continues past replayed ids.
    let r = back
        .execute("INSERT INTO users (name) VALUES ('zoe')")
        .unwrap();
    assert_eq!(r.last_insert_id, Some(3));
}

#[test]
fn checkpoint_truncates_and_replay_starts_at_watermark() {
    let dir = TempDir::new("checkpoint");
    let wal_path = dir.path("db.wal");
    let snap_path = dir.path("db.edna");
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        db.execute("INSERT INTO users (name) VALUES ('bea')")
            .unwrap();
        db.save(&snap_path).unwrap();
        assert_eq!(
            db.wal().unwrap().size_bytes(),
            0,
            "checkpoint must truncate the log"
        );
        // Post-checkpoint writes land in the (new) log tail.
        db.execute("INSERT INTO users (name) VALUES ('mel')")
            .unwrap();
    }
    let (back, report) = Database::open_durable(Some(&snap_path), &wal_path).unwrap();
    assert_eq!(report.frames_replayed, 1, "only the post-checkpoint insert");
    assert!(report.snapshot_watermark > 0);
    assert_eq!(
        back.execute("SELECT COUNT(*) FROM users")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(2)
    );
}

#[test]
fn explicit_transactions_log_one_frame_and_replay() {
    let dir = TempDir::new("explicit");
    let wal_path = dir.path("db.wal");
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        let frames_before = db.wal().unwrap().last_lsn();
        db.transaction(|db| -> Result<(), Error> {
            db.execute("INSERT INTO users (name) VALUES ('bea')")?;
            db.execute("INSERT INTO posts (user_id, body) VALUES (1, 'x')")?;
            Ok(())
        })
        .unwrap();
        assert_eq!(
            db.wal().unwrap().last_lsn(),
            frames_before + 1,
            "one commit = one frame"
        );
        // A rolled-back transaction logs nothing.
        let r: Result<(), Error> = db.transaction(|db| {
            db.execute("INSERT INTO users (name) VALUES ('ghost')")?;
            Err(Error::Txn("roll back".to_string()))
        });
        assert!(r.is_err());
        assert_eq!(db.wal().unwrap().last_lsn(), frames_before + 1);
    }
    let (back, _) = Database::open_durable(None, &wal_path).unwrap();
    assert_eq!(
        back.execute("SELECT COUNT(*) FROM users")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(1)
    );
    assert_eq!(back.verify_integrity(), Vec::<String>::new());
}

#[test]
fn ddl_and_cascading_deletes_replay() {
    let dir = TempDir::new("ddl");
    let wal_path = dir.path("db.wal");
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        db.execute("CREATE INDEX posts_by_user ON posts (user_id)")
            .unwrap();
        db.execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
            .unwrap();
        db.execute("INSERT INTO posts (user_id, body) VALUES (1, 'a'), (1, 'b'), (2, 'c')")
            .unwrap();
        // Cascade: deleting user 1 removes two posts in the same frame.
        db.execute("DELETE FROM users WHERE id = 1").unwrap();
        db.execute("DROP TABLE posts").unwrap();
        db.execute("ALTER TABLE users RENAME COLUMN name TO handle")
            .unwrap();
    }
    let (back, _) = Database::open_durable(None, &wal_path).unwrap();
    assert!(!back.has_table("posts"));
    assert_eq!(
        back.execute("SELECT handle FROM users").unwrap().rows,
        vec![vec![Value::Text("mel".into())]]
    );
    assert_eq!(back.verify_integrity(), Vec::<String>::new());
}

#[test]
fn failed_wal_append_rolls_the_commit_back() {
    let dir = TempDir::new("append_fail");
    let wal_path = dir.path("db.wal");
    let (db, _) = Database::open_durable(None, &wal_path).unwrap();
    seed_schema(&db);
    db.execute("INSERT INTO users (name) VALUES ('bea')")
        .unwrap();
    let wal = db.wal().unwrap();
    wal.set_crash_hook(Some(Arc::new(|i| {
        (i == 0).then_some(WalCrash::BeforeWrite)
    })));
    let err = db
        .execute("INSERT INTO users (name) VALUES ('ghost')")
        .unwrap_err();
    assert!(
        matches!(err, edna_relational::Error::FaultInjected(_)),
        "got: {err}"
    );
    // The insert is NOT visible: unlogged means uncommitted.
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM users")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(1)
    );
    // While the injected crash is live, the log stays poisoned: a process
    // that "died" must not keep writing.
    assert!(db
        .execute("INSERT INTO users (name) VALUES ('dead')")
        .is_err());
    // Clearing the hook clears the simulated death; writes flow again.
    wal.set_crash_hook(None);
    db.execute("INSERT INTO users (name) VALUES ('mel')")
        .unwrap();
    let (back, _) = Database::open_durable(None, &wal_path).unwrap();
    assert_eq!(
        back.execute("SELECT COUNT(*) FROM users")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(2)
    );
}

#[test]
fn concurrent_checkpoints_never_lose_acknowledged_commits() {
    // The database is Arc-shared: one thread commits acknowledged inserts
    // while another checkpoints in a loop. Every acknowledged commit must
    // be in the final snapshot or the WAL tail — a commit landing between
    // snapshot encode and log truncation must not fall through the gap.
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = TempDir::new("ckpt_race");
    let wal_path = dir.path("db.wal");
    let snap_path = dir.path("db.edna");
    const N: usize = 200;
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let db = db.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                for i in 0..N {
                    db.execute(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
                        .unwrap();
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        while !done.load(Ordering::SeqCst) {
            db.save(&snap_path).unwrap();
        }
        writer.join().unwrap();
        // Crash: drop without a final save — unreplayed commits must be
        // sitting in the WAL tail, not erased by an earlier checkpoint.
    }
    let (back, _) = Database::open_durable(Some(&snap_path), &wal_path).unwrap();
    assert_eq!(back.verify_integrity(), Vec::<String>::new());
    assert_eq!(
        back.execute("SELECT COUNT(*) FROM users")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(N as i64),
        "every acknowledged commit survives checkpoint + crash"
    );
}

#[test]
fn a_save_during_another_threads_transaction_captures_none_of_it() {
    // Thread A inserts inside a transaction it then rolls back; thread B
    // checkpoints meanwhile. The checkpoint must wait for A to finish: a
    // snapshot taken mid-transaction would persist a row nobody committed.
    let dir = TempDir::new("save_mid_txn");
    let wal_path = dir.path("db.wal");
    let snap_path = dir.path("db.edna");
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        db.execute("INSERT INTO users (name) VALUES ('committed')")
            .unwrap();
        let (inserted, wake_saver) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let saver = s.spawn(|| {
                let wake_saver = wake_saver;
                wake_saver.recv().unwrap();
                db.save(&snap_path).unwrap();
            });
            let r: Result<(), Error> = db.transaction(|db| {
                db.execute("INSERT INTO users (name) VALUES ('uncommitted')")?;
                inserted.send(()).unwrap();
                // Long enough for the saver to run into the transaction.
                std::thread::sleep(std::time::Duration::from_millis(100));
                Err(Error::Txn("roll back".to_string()))
            });
            assert!(r.is_err());
            saver.join().unwrap();
        });
    }
    let (back, _) = Database::open_durable(Some(&snap_path), &wal_path).unwrap();
    let names = back.execute("SELECT name FROM users ORDER BY id").unwrap();
    assert_eq!(names.rows, vec![vec![Value::Text("committed".into())]]);
}

#[test]
fn open_disguise_intent_survives_checkpoint() {
    // An intent marker with no commit marker guards vault-side state that
    // lives outside the snapshot; checkpoint truncation must carry it into
    // the fresh log so the next recovery still resolves it.
    let dir = TempDir::new("intent_ckpt");
    let wal_path = dir.path("db.wal");
    let snap_path = dir.path("db.edna");
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        db.wal_disguise_intent(5, &Value::Int(1)).unwrap();
        db.save(&snap_path).unwrap();
        assert!(
            db.wal().unwrap().size_bytes() > 0,
            "the open intent must survive truncation"
        );
        // Crash with the disguise still half-applied.
    }
    let (_, report) = Database::open_durable(Some(&snap_path), &wal_path).unwrap();
    assert_eq!(report.open_intents.len(), 1);
    assert_eq!(report.open_intents[0].disguise_id, 5);
    assert_eq!(report.open_intents[0].user, Value::Int(1));
}

#[test]
fn solo_commit_fsyncs_immediately_through_group_pipeline() {
    // Group commit must not weaken the solo-committer contract: with no
    // co-committers, every acknowledged auto-commit is one immediate
    // write+fsync (no deferral window a crash could exploit).
    let dir = TempDir::new("solo_fsync");
    let (db, _) = Database::open_durable(None, &dir.path("db.wal")).unwrap();
    seed_schema(&db);
    db.wal().unwrap().set_group_commit(WalGroupConfig {
        max_frames: 64,
        max_delay: std::time::Duration::ZERO,
        fsync_floor: std::time::Duration::ZERO,
    });
    let fsyncs = db.metrics().counter("edna_wal_fsyncs_total", "").get();
    db.execute("INSERT INTO users (name) VALUES ('bea')")
        .unwrap();
    assert_eq!(
        db.metrics().counter("edna_wal_fsyncs_total", "").get(),
        fsyncs + 1,
        "a solo auto-commit is exactly one fsync"
    );
    db.execute("UPDATE users SET name = 'bee' WHERE id = 1")
        .unwrap();
    assert_eq!(
        db.metrics().counter("edna_wal_fsyncs_total", "").get(),
        fsyncs + 2,
        "each further solo commit fsyncs again"
    );
}

#[test]
fn group_commit_kill_sweep_with_concurrent_committers() {
    // Extend the every-frame kill sweep to the multi-threaded pipeline:
    // N committers push acknowledged inserts through group commit (an
    // fsync floor keeps flushes slow enough that real multi-frame batches
    // form) while the k-th WAL frame crashes in each style. Invariant:
    // an insert whose statement returned Ok was acknowledged durable, so
    // it must be present after recovery — no matter which frame of which
    // batch died.
    use std::sync::Mutex;

    const THREADS: usize = 4;
    const PER_THREAD: usize = 6;
    let dir = TempDir::new("group_sweep");

    let run = |wal_path: &PathBuf,
               hook: Option<edna_relational::WalCrashHook>|
     -> (Vec<String>, u64) {
        let (db, _) = Database::open_durable(None, wal_path).unwrap();
        seed_schema(&db);
        let wal = db.wal().unwrap();
        wal.set_group_commit(WalGroupConfig {
            max_frames: 8,
            max_delay: std::time::Duration::ZERO,
            fsync_floor: std::time::Duration::from_micros(100),
        });
        wal.set_crash_hook(hook);
        let acked = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = db.clone();
                let acked = &acked;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let name = format!("t{t}_{i}");
                        match db.execute(&format!("INSERT INTO users (name) VALUES ('{name}')")) {
                            Ok(_) => acked.lock().unwrap().push(name),
                            // The injected crash poisons the log; this
                            // committer is dead from here on.
                            Err(_) => break,
                        }
                    }
                });
            }
        });
        let frames = wal.crash_frame_count();
        (acked.into_inner().unwrap(), frames)
    };

    // Bound the sweep with a never-firing hook.
    let (all, frames) = run(&dir.path("count.wal"), Some(Arc::new(|_| None)));
    assert_eq!(all.len(), THREADS * PER_THREAD);
    assert_eq!(frames, (THREADS * PER_THREAD) as u64);

    for style in [
        WalCrash::BeforeWrite,
        WalCrash::TornWrite,
        WalCrash::AfterWrite,
    ] {
        for k in 0..frames {
            let wal_path = dir.path(&format!("group_{style:?}_{k}.wal"));
            let (acked, _) = run(
                &wal_path,
                Some(Arc::new(move |i| (i == k).then_some(style))),
            );
            assert!(
                acked.len() < THREADS * PER_THREAD,
                "style {style:?} frame {k}: the crash must kill at least one commit"
            );
            let (back, report) = Database::open_durable(None, &wal_path).unwrap();
            assert_eq!(
                back.verify_integrity(),
                Vec::<String>::new(),
                "style {style:?} frame {k}"
            );
            assert!(report.open_intents.is_empty());
            let recovered: std::collections::HashSet<String> = back
                .execute("SELECT name FROM users")
                .unwrap()
                .rows
                .into_iter()
                .map(|r| match &r[0] {
                    Value::Text(s) => s.clone(),
                    other => panic!("unexpected name {other:?}"),
                })
                .collect();
            for name in &acked {
                assert!(
                    recovered.contains(name),
                    "style {style:?} frame {k}: acknowledged insert '{name}' lost \
                     (recovered {} of {} acked)",
                    recovered.len(),
                    acked.len(),
                );
            }
            // BeforeWrite restores the durable boundary, losing the whole
            // crashed batch: nothing unacknowledged may survive. (Torn and
            // after-write crashes may leave unsynced-but-lingering frames
            // of the crashed batch on disk even though their committers
            // saw an error — durable-but-unacked is allowed,
            // lost-but-acked never is.)
            if style == WalCrash::BeforeWrite {
                assert_eq!(
                    recovered.len(),
                    acked.len(),
                    "style {style:?} frame {k}: an unacknowledged insert survived"
                );
            }
        }
    }
}

#[test]
fn crash_at_every_wal_frame_recovers_consistently() {
    // Sweep: crash the k-th WAL append in each of the three styles; after
    // each crash, recovery must yield a database where every committed
    // frame's effects are present, FK structure intact.
    let dir = TempDir::new("sweep");
    // Count the workload's frames with a never-firing hook.
    let workload = |db: &Database| -> edna_relational::Result<()> {
        db.execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")?;
        db.execute("INSERT INTO posts (user_id, body) VALUES (1, 'a'), (2, 'b')")?;
        db.execute("UPDATE users SET name = 'bee' WHERE id = 1")?;
        db.execute("DELETE FROM posts WHERE id = 2")?;
        Ok(())
    };
    let frames = {
        let wal_path = dir.path("count.wal");
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed_schema(&db);
        let wal = db.wal().unwrap();
        wal.set_crash_hook(Some(Arc::new(|_| None)));
        workload(&db).unwrap();
        wal.crash_frame_count()
    };
    assert!(
        frames >= 4,
        "expected one frame per statement, got {frames}"
    );
    for style in [
        WalCrash::BeforeWrite,
        WalCrash::TornWrite,
        WalCrash::AfterWrite,
    ] {
        for k in 0..frames {
            let wal_path = dir.path(&format!("sweep_{style:?}_{k}.wal"));
            {
                let (db, _) = Database::open_durable(None, &wal_path).unwrap();
                seed_schema(&db);
                let wal = db.wal().unwrap();
                wal.set_crash_hook(Some(Arc::new(move |i| (i == k).then_some(style))));
                let err = workload(&db);
                assert!(err.is_err(), "hook at frame {k} must fire");
            }
            let (back, report) = Database::open_durable(None, &wal_path).unwrap();
            assert_eq!(
                back.verify_integrity(),
                Vec::<String>::new(),
                "style {style:?} frame {k}"
            );
            // Durability floor: everything before the crashed frame
            // survived. (AfterWrite also persists the crashed frame.)
            let expected_frames = report.frames_scanned;
            let min_expected = k as usize + usize::from(style == WalCrash::AfterWrite);
            assert!(
                expected_frames >= min_expected,
                "style {style:?} frame {k}: {expected_frames} < {min_expected}"
            );
        }
    }
}
