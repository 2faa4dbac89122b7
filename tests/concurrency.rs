//! Concurrency tests for the engine's two locks: SELECTs share the state
//! lock and run concurrently with each other, every statement takes it
//! per statement, and a `Database::transaction` (each disguise
//! application is one) holds the gate that other threads' statements
//! pass first. So a reader waits for an open transaction instead of
//! reading its rows, a write never joins another thread's transaction,
//! and concurrent in-process applies serialize. The tests check that
//! isolation, that nothing deadlocks, and wall-clock evidence that
//! readers overlap each other.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use edna::apps::hotcrp::{self, generate::HotCrpConfig};
use edna::core::Disguiser;
use edna::relational::{Database, Error as RelError, LatencyModel, Value};

fn latency(per_statement: Duration) -> LatencyModel {
    LatencyModel {
        per_statement,
        per_row_written: Duration::ZERO,
    }
}

/// N readers issuing the same SELECT concurrently must overlap: total
/// wall-clock stays far below the serial sum of per-statement latencies.
#[test]
fn readers_overlap_under_injected_latency() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, x INT)")
        .unwrap();
    db.execute("INSERT INTO t (x) VALUES (1), (2), (3)")
        .unwrap();

    const READERS: usize = 8;
    const SELECTS_PER_READER: usize = 5;
    let per_statement = Duration::from_millis(10);
    db.set_latency(latency(per_statement));

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..READERS {
            let db = &db;
            s.spawn(move || {
                for _ in 0..SELECTS_PER_READER {
                    let r = db.execute("SELECT x FROM t WHERE id = 2").unwrap();
                    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let serial = per_statement * (READERS * SELECTS_PER_READER) as u32;
    // 8 readers x 5 selects x 10 ms = 400 ms serially. With a shared read
    // lock the latency charges overlap; allow a generous 2x margin over
    // one reader's serial share.
    assert!(
        elapsed < serial / 2,
        "readers did not overlap: {elapsed:?} vs. serial {serial:?}"
    );
}

/// A table with one committed row, for the isolation probes.
fn one_row_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    db.execute("INSERT INTO t (name) VALUES ('committed')")
        .unwrap();
    db
}

/// Runs `other` on a second thread while this thread holds a transaction
/// open that has inserted a row, then rolls the transaction back. `other`
/// starts once the row is in and gets 100 ms to run into the open
/// transaction before the rollback.
fn during_rolled_back_insert<R: Send>(db: &Database, other: impl FnOnce() -> R + Send) -> R {
    let (inserted, wake) = mpsc::channel();
    std::thread::scope(|s| {
        let other = s.spawn(move || {
            wake.recv().unwrap();
            other()
        });
        let r: Result<(), RelError> = db.transaction(|db| {
            db.execute("INSERT INTO t (name) VALUES ('uncommitted')")?;
            inserted.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            Err(RelError::Txn("roll back".to_string()))
        });
        assert!(r.is_err());
        other.join().unwrap()
    })
}

/// A reader never sees another thread's uncommitted rows: its statement
/// waits for the open transaction and then sees only committed state.
#[test]
fn a_reader_sees_only_committed_rows_during_another_transaction() {
    let db = one_row_db();
    let seen = during_rolled_back_insert(&db, || {
        db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0].clone()
    });
    assert_eq!(seen, Value::Int(1), "read an uncommitted row");
}

/// An auto-commit write issued during another thread's transaction is
/// its own transaction: the other thread's rollback does not erase it.
#[test]
fn an_auto_commit_insert_survives_another_threads_rollback() {
    let db = one_row_db();
    during_rolled_back_insert(&db, || {
        db.execute("INSERT INTO t (name) VALUES ('acknowledged')")
            .expect("the insert is acknowledged");
    });
    let r = db.execute("SELECT name FROM t ORDER BY id").unwrap();
    let names: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(names, ["committed", "acknowledged"]);
}

/// In-process applies from several threads serialize in the engine:
/// every one succeeds, each under its own history id.
#[test]
fn concurrent_in_process_applies_all_succeed() {
    let db = hotcrp::create_db().unwrap();
    let inst = hotcrp::generate::generate(&db, &HotCrpConfig::small()).unwrap();
    let edna = Disguiser::new(db.clone());
    hotcrp::register_disguises(&edna).unwrap();
    let users = &inst.pc_contact_ids[..4];
    let mut ids: Vec<u64> = std::thread::scope(|s| {
        let appliers: Vec<_> = users
            .iter()
            .map(|&u| {
                let edna = &edna;
                s.spawn(move || edna.apply("HotCRP-GDPR+", Some(&Value::Int(u))))
            })
            .collect();
        appliers
            .into_iter()
            .map(|h| h.join().unwrap().expect("apply succeeds").disguise_id)
            .collect()
    });
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), users.len(), "distinct history ids");
    for u in users {
        let r = db
            .execute(&format!(
                "SELECT COUNT(*) FROM ContactInfo WHERE contactId = {u}"
            ))
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0), "user {u} not scrubbed");
    }
}

/// A reader that reads a user's ReviewPreference and Review rows inside
/// its own transaction sees both before HotCRP-GDPR+ (which removes the
/// first and decorrelates the second) or both after: never one of each.
#[test]
fn a_reader_transaction_sees_a_disguise_all_or_nothing() {
    let db = hotcrp::create_db().unwrap();
    let inst = hotcrp::generate::generate(&db, &HotCrpConfig::small()).unwrap();
    let edna = Disguiser::new(db.clone());
    hotcrp::register_disguises(&edna).unwrap();
    let bea = inst.pc_contact_ids[0];
    let params = HashMap::from([("UID".to_string(), Value::Int(bea))]);
    let count = |db: &Database, table: &str| -> Result<Value, RelError> {
        let sql = format!("SELECT COUNT(*) FROM {table} WHERE contactId = $UID");
        Ok(db.execute_with_params(&sql, &params)?.rows[0][0].clone())
    };
    let both = |db: &Database| -> Result<(Value, Value), RelError> {
        Ok((count(db, "ReviewPreference")?, count(db, "Review")?))
    };
    let before: (Value, Value) = db.transaction(both).unwrap();
    assert_ne!(before.0, Value::Int(0), "bea has review preferences");
    assert_ne!(before.1, Value::Int(0), "bea has reviews");
    let after = (Value::Int(0), Value::Int(0));

    // Slow every statement a little so the reader contends with the apply.
    db.set_latency(latency(Duration::from_micros(300)));
    let done = AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let seen = db.transaction(both).expect("reads never fail mid-disguise");
                assert!(seen == before || seen == after, "torn read: {seen:?}");
                reads += 1;
            }
            reads
        });
        edna.apply("HotCRP-GDPR+", Some(&Value::Int(bea)))
            .expect("disguise applies under reader load");
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    assert!(reads > 0, "the reader made progress");
    assert_eq!(db.transaction(both).unwrap(), after);
}

/// Consistency under concurrency: GDPR+ decorrelates Review rows (updates
/// in place) but never inserts or removes them, so a concurrent reader
/// must observe the exact same Review count in every read — any other
/// value would prove it saw partial engine state.
#[test]
fn concurrent_reader_sees_stable_review_count() {
    let db = hotcrp::create_db().unwrap();
    let inst = hotcrp::generate::generate(&db, &HotCrpConfig::small()).unwrap();
    let edna = Disguiser::new(db.clone());
    hotcrp::register_disguises(&edna).unwrap();
    let mel = inst.pc_contact_ids[1];
    let expected = {
        let r = db.execute("SELECT COUNT(*) FROM Review").unwrap();
        let Value::Int(n) = r.rows[0][0] else {
            panic!("COUNT(*) returns an int");
        };
        n
    };
    db.set_latency(latency(Duration::from_micros(300)));

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let flag = &done;
        let db_ref = &db;
        let reader = s.spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                let r = db_ref.execute("SELECT COUNT(*) FROM Review").unwrap();
                assert_eq!(
                    r.rows[0][0],
                    Value::Int(expected),
                    "Review population changed mid-disguise: torn read"
                );
            }
        });
        edna.apply("HotCRP-GDPR+", Some(&Value::Int(mel)))
            .expect("disguise applies");
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread");
    });
}
