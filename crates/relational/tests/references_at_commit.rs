//! Foreign keys are checked at commit (SQL's deferred constraint check):
//! inside a transaction a child may be written before its parent, and a
//! dangling key may be repaired later; a reference still dangling at
//! commit rolls the whole transaction back before anything reaches the
//! WAL. An auto-commit statement commits, and so checks, at its end.

use std::path::PathBuf;

use edna_relational::{Database, Error, Value};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "edna_references_at_commit_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SCHEMA: &str = "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, \
     invited_by INT, FOREIGN KEY (invited_by) REFERENCES users(id));
     CREATE TABLE posts (id INT PRIMARY KEY, user_id INT, \
     FOREIGN KEY (user_id) REFERENCES users(id));";

fn seeded(db: &Database) {
    db.execute_script(SCHEMA).unwrap();
    db.execute("INSERT INTO users (id, name) VALUES (1, 'bea'), (2, 'mel')")
        .unwrap();
    db.execute("INSERT INTO posts VALUES (10, 1)").unwrap();
}

fn db() -> Database {
    let db = Database::new();
    seeded(&db);
    db
}

fn count(db: &Database, sql: &str) -> i64 {
    db.execute(sql).unwrap().scalar().unwrap().as_int().unwrap()
}

/// Asserts `err` is a foreign-key violation on `table`.`column`.
fn assert_violation(err: Error, table: &str, column: &str) {
    match err {
        Error::ForeignKeyViolation {
            table: t,
            column: c,
            ..
        } => assert_eq!((t.as_str(), c.as_str()), (table, column)),
        other => panic!("expected a foreign-key violation, got {other:?}"),
    }
}

#[test]
fn a_child_written_before_its_parent_commits() {
    let db = db();
    db.transaction(|db| {
        db.execute("INSERT INTO posts VALUES (11, 3)")?;
        db.execute("INSERT INTO users (id, name) VALUES (3, 'zoe')")
    })
    .unwrap();
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM posts WHERE user_id = 3"),
        1
    );
}

#[test]
fn a_dangling_reference_fails_the_commit_and_leaves_no_trace() {
    let dir = TempDir::new("dangling");
    let (db, _) = Database::open_durable(None, &dir.0.join("db.wal")).unwrap();
    seeded(&db);
    let dump = db.dump();
    let lsn = db.wal_last_lsn();

    let err = db
        .transaction(|db| {
            db.execute("INSERT INTO users (id, name) VALUES (3, 'zoe')")?;
            db.execute("INSERT INTO posts VALUES (11, 99)")
        })
        .unwrap_err();

    assert_violation(err, "posts", "user_id");
    assert_eq!(db.dump(), dump, "the whole transaction rolled back");
    assert_eq!(db.wal_last_lsn(), lsn, "no WAL frame was staged");
}

#[test]
fn a_dangling_key_repaired_later_in_the_transaction_commits() {
    let db = db();
    db.transaction(|db| {
        db.execute("UPDATE posts SET user_id = 99 WHERE id = 10")?;
        db.execute("UPDATE posts SET user_id = 2 WHERE id = 10")
    })
    .unwrap();
    assert_eq!(count(&db, "SELECT user_id FROM posts WHERE id = 10"), 2);
}

#[test]
fn a_key_written_back_to_a_deleted_parent_fails() {
    // The post ends with the key it started with, but its parent went
    // while the post pointed elsewhere: the reference was written.
    let db = db();
    let err = db
        .transaction(|db| {
            db.execute("UPDATE posts SET user_id = 2 WHERE id = 10")?;
            db.execute("DELETE FROM users WHERE id = 1")?;
            db.execute("UPDATE posts SET user_id = 1 WHERE id = 10")
        })
        .unwrap_err();
    assert_violation(err, "posts", "user_id");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM users WHERE id = 1"), 1);
}

#[test]
fn an_auto_commit_statement_checks_at_its_end() {
    let db = db();
    // A self-referencing multi-row INSERT may name a parent a later row
    // of the same statement supplies.
    db.execute("INSERT INTO users (id, name, invited_by) VALUES (4, 'ada', 3), (3, 'zoe', NULL)")
        .unwrap();
    assert_eq!(count(&db, "SELECT invited_by FROM users WHERE id = 4"), 3);
    // A reference still dangling at the statement's end fails it, and
    // the error names the child table.
    let err = db.execute("INSERT INTO posts VALUES (11, 99)").unwrap_err();
    assert_violation(err, "posts", "user_id");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM posts"), 1);
}

#[test]
fn an_early_check_fails_inside_the_transaction_and_is_not_repeated() {
    let db = db();
    let err = db
        .transaction(|db| {
            db.execute("INSERT INTO posts VALUES (11, 99)")?;
            db.check_references()
        })
        .unwrap_err();
    assert_violation(err, "posts", "user_id");

    // A passing early check covers the rows it saw: the commit probes
    // only what was written after it.
    let before = db.stats();
    db.transaction(|db| {
        db.insert_row(
            "posts",
            &[("id", Value::Int(11)), ("user_id", Value::Int(2))],
        )?;
        db.check_references()?;
        db.insert_row(
            "posts",
            &[("id", Value::Int(12)), ("user_id", Value::Int(1))],
        )
    })
    .unwrap();
    let probes = db.stats().since(&before).index_probes;
    assert_eq!(probes, 2, "one parent probe per inserted post");
    // Outside a transaction there is nothing left to check.
    db.check_references().unwrap();
}
