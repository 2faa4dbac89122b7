//! Implicit FOREIGN KEY indexes and `IS NULL` probes: every referencing
//! column is indexed from `CREATE TABLE` on, the index is rebuilt (never
//! stored) across snapshots and WAL replay, and a probe returns exactly
//! the rows a scan would.

use std::collections::HashMap;
use std::path::PathBuf;

use edna_relational::{Database, Value};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("edna_fk_indexes_{}_{name}", std::process::id()));
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

const SCHEMA: &str = "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL, \
     invited_by INT, FOREIGN KEY (invited_by) REFERENCES users(id));
     CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT, body TEXT, \
     FOREIGN KEY (user_id) REFERENCES users(id) ON DELETE CASCADE);";

fn seed(db: &Database) {
    db.execute_script(SCHEMA).unwrap();
    db.execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
        .unwrap();
    db.execute("INSERT INTO users (name, invited_by) VALUES ('zoe', 1), ('ada', 1)")
        .unwrap();
    db.execute(
        "INSERT INTO posts (user_id, body) VALUES (1, 'a'), (2, 'b'), (1, 'c'), (NULL, 'd')",
    )
    .unwrap();
}

fn fk_columns_indexed(db: &Database) {
    assert_eq!(db.index_columns("users").unwrap(), ["id", "invited_by"]);
    assert_eq!(db.index_columns("posts").unwrap(), ["id", "user_id"]);
}

fn one(name: &str, v: Value) -> HashMap<String, Value> {
    HashMap::from([(name.to_string(), v)])
}

/// Runs `sql` and returns its rows plus whether it probed (one index
/// probe, no scan) — asserted against what `EXPLAIN` promised.
fn run(db: &Database, sql: &str, params: &HashMap<String, Value>) -> (Vec<Vec<Value>>, bool) {
    let plan = db.explain(sql).unwrap();
    db.reset_stats();
    let rows = db.execute_with_params(sql, params).unwrap().rows;
    let s = db.stats();
    let probed = (s.index_probes, s.table_scans) == (1, 0);
    assert_eq!(
        plan.contains("index probe"),
        probed,
        "EXPLAIN and execution disagree for {sql}: {plan}"
    );
    (rows, probed)
}

#[test]
fn foreign_key_columns_are_indexed_at_create_table() {
    let db = Database::new();
    seed(&db);
    fk_columns_indexed(&db);
    // Child lookups behind a cascading delete probe instead of scanning.
    db.reset_stats();
    db.execute("DELETE FROM users WHERE id = 2").unwrap();
    assert_eq!(db.stats().table_scans, 0);
    assert_eq!(db.row_count("posts").unwrap(), 3);
}

#[test]
fn fk_and_is_null_predicates_probe_and_match_a_scan() {
    let db = Database::new();
    seed(&db);
    let uid = one("X", Value::Int(1));
    let (probe, probed) = run(
        &db,
        "SELECT body FROM posts WHERE user_id = $X ORDER BY id",
        &uid,
    );
    assert!(probed);
    let (scan, scanned) = run(
        &db,
        "SELECT body FROM posts WHERE user_id IN ($X) ORDER BY id",
        &uid,
    );
    assert!(!scanned);
    assert_eq!(probe, scan);
    assert_eq!(probe.len(), 2);

    let none = HashMap::new();
    let (probe, probed) = run(&db, "SELECT body FROM posts WHERE user_id IS NULL", &none);
    assert!(probed);
    let (scan, scanned) = run(
        &db,
        "SELECT body FROM posts WHERE NOT (user_id IS NOT NULL)",
        &none,
    );
    assert!(!scanned);
    assert_eq!(probe, scan);
    assert_eq!(probe, vec![vec![Value::Text("d".into())]]);
    // `IS NULL` probes also narrow UPDATE and DELETE.
    let (users, probed) = run(
        &db,
        "SELECT name FROM users WHERE invited_by IS NULL ORDER BY id",
        &none,
    );
    assert!(probed);
    assert_eq!(users.len(), 2);
    db.reset_stats();
    let r = db
        .execute("UPDATE users SET name = 'root' WHERE invited_by IS NULL AND id = 2")
        .unwrap();
    assert_eq!((r.affected, db.stats().table_scans), (1, 0));

    // `= NULL` is never true, even though the index holds NULL keys.
    let (rows, _) = run(&db, "SELECT body FROM posts WHERE user_id = NULL", &none);
    assert!(rows.is_empty());
    let (rows, _) = run(
        &db,
        "SELECT body FROM posts WHERE user_id = $X",
        &one("X", Value::Null),
    );
    assert!(rows.is_empty());
}

#[test]
fn a_null_parent_key_has_no_children() {
    // A nullable UNIQUE parent key: children with a NULL reference are not
    // attached to the parent whose key is NULL, even though the child's
    // FK index holds them under the NULL key.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE p (id INT PRIMARY KEY, code INT UNIQUE);
         CREATE TABLE c (id INT PRIMARY KEY, code INT, \
         FOREIGN KEY (code) REFERENCES p(code));
         INSERT INTO p (id, code) VALUES (1, NULL);
         INSERT INTO c (id, code) VALUES (1, NULL);",
    )
    .unwrap();
    db.execute("UPDATE p SET code = 5 WHERE id = 1").unwrap();
    db.execute("DELETE FROM p WHERE id = 1").unwrap();
    assert_eq!(db.row_count("c").unwrap(), 1);
}

#[test]
fn implicit_indexes_are_rebuilt_not_stored_by_snapshots() {
    let dir = TempDir::new("snapshot");
    let db = Database::new();
    seed(&db);
    assert!(
        db.snapshot_tables()
            .unwrap()
            .iter()
            .all(|t| t.indexes.is_empty()),
        "implicit indexes must not be part of a table image"
    );
    let path = dir.path("db.edna");
    db.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let needle = b"_auto_posts_user_id";
    assert!(!bytes.windows(needle.len()).any(|w| w == needle));
    let back = Database::load(&path).unwrap();
    fk_columns_indexed(&back);
    assert_eq!(back.dump(), db.dump());
    let (_, probed) = run(
        &back,
        "SELECT body FROM posts WHERE user_id = $X",
        &one("X", Value::Int(2)),
    );
    assert!(probed);
}

#[test]
fn wal_replay_of_create_table_rebuilds_the_fk_index() {
    let dir = TempDir::new("wal");
    let wal_path = dir.path("db.wal");
    {
        let (db, _) = Database::open_durable(None, &wal_path).unwrap();
        seed(&db);
        // Crash: drop without a checkpoint, so CREATE TABLE replays.
    }
    let (back, report) = Database::open_durable(None, &wal_path).unwrap();
    assert!(report.frames_replayed > 0);
    fk_columns_indexed(&back);
    assert_eq!(back.verify_integrity(), Vec::<String>::new());
    let (rows, probed) = run(
        &back,
        "SELECT body FROM posts WHERE user_id = $X ORDER BY id",
        &one("X", Value::Int(1)),
    );
    assert!(probed);
    assert_eq!(rows.len(), 2);
}
