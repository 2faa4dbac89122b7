//! Integration tests for the statement cache and the shared (cached)
//! access-path chooser: hit/miss accounting, DDL invalidation, and
//! explain/execution agreement.

use std::collections::HashMap;

use edna_relational::{parse_expr, AccessPath, Database, Error, Value};

fn params(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, age INT)")
        .unwrap();
    db.execute("INSERT INTO users (name, age) VALUES ('bea', 30), ('mel', 40), ('zoe', 50)")
        .unwrap();
    db
}

#[test]
fn repeated_sql_hits_the_statement_cache() {
    let db = db();
    db.reset_stats();
    db.execute("SELECT name FROM users WHERE age = 40").unwrap();
    let after_first = db.stats();
    assert_eq!(after_first.stmt_cache_hits, 0, "first run must miss");
    assert!(after_first.stmt_cache_misses >= 1);
    db.execute("SELECT name FROM users WHERE age = 40").unwrap();
    db.execute("SELECT name FROM users WHERE age = 40").unwrap();
    let s = db.stats();
    assert_eq!(
        s.stmt_cache_hits, 2,
        "identical SQL text must be served parsed"
    );
    assert_eq!(s.stmt_cache_misses, after_first.stmt_cache_misses);
}

#[test]
fn param_bound_sql_shares_one_cached_statement() {
    let db = db();
    db.reset_stats();
    for age in [30, 40, 50] {
        let r = db
            .execute_with_params(
                "SELECT name FROM users WHERE age = $AGE",
                &params(&[("AGE", Value::Int(age))]),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }
    let s = db.stats();
    assert_eq!(s.stmt_cache_misses, 1, "one parse serves every binding");
    assert_eq!(s.stmt_cache_hits, 2);
}

#[test]
fn create_index_flips_a_cached_full_scan_plan() {
    let db = db();
    let pred = parse_expr("age = 40").unwrap();
    // Prime the plan cache with a full-scan decision.
    assert_eq!(
        db.access_path("users", Some(&pred)).unwrap(),
        AccessPath::FullScan
    );
    db.reset_stats();
    db.execute("SELECT name FROM users WHERE age = 40").unwrap();
    assert_eq!(db.stats().table_scans, 1);
    assert_eq!(db.stats().index_probes, 0);

    db.execute("CREATE INDEX users_by_age ON users (age)")
        .unwrap();
    // The cached decision must be invalidated, not served stale.
    match db.access_path("users", Some(&pred)).unwrap() {
        AccessPath::IndexProbe { index, column } => {
            assert_eq!(index, "users_by_age");
            assert!(column.eq_ignore_ascii_case("age"));
        }
        AccessPath::FullScan => panic!("stale full-scan plan survived CREATE INDEX"),
    }
    db.reset_stats();
    let r = db.execute("SELECT name FROM users WHERE age = 40").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Text("mel".into())]]);
    assert_eq!(
        db.stats().index_probes,
        1,
        "execution must use the new index"
    );
    assert_eq!(db.stats().table_scans, 0);
}

#[test]
fn rolled_back_create_index_does_not_leave_a_stale_probe_plan() {
    let db = db();
    let pred = parse_expr("age = 40").unwrap();
    let r: Result<(), Error> = db.transaction(|db| {
        db.execute("CREATE INDEX users_by_age ON users (age)")?;
        assert!(
            db.access_path("users", Some(&pred))?.is_probe(),
            "inside the txn the index is visible"
        );
        Err(Error::Txn("roll back".to_string()))
    });
    assert!(r.is_err());
    assert_eq!(
        db.access_path("users", Some(&pred)).unwrap(),
        AccessPath::FullScan,
        "rollback undid the index; the cached probe plan must go with it"
    );
    // And execution agrees: the probe target no longer exists.
    db.reset_stats();
    db.execute("SELECT name FROM users WHERE age = 40").unwrap();
    assert_eq!(db.stats().table_scans, 1);
    assert_eq!(db.stats().index_probes, 0);
}

#[test]
fn drop_and_recreate_table_serves_the_new_schema() {
    let db = db();
    // Cache both the statement and a plan against the old schema.
    db.execute("SELECT * FROM users WHERE id = 1").unwrap();
    db.execute("DROP TABLE users").unwrap();
    db.execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, nick TEXT)")
        .unwrap();
    db.execute("INSERT INTO users (nick) VALUES ('rex')")
        .unwrap();
    let r = db.execute("SELECT * FROM users WHERE id = 1").unwrap();
    assert_eq!(
        r.columns,
        vec!["users.id".to_string(), "users.nick".to_string()]
    );
    assert_eq!(r.rows, vec![vec![Value::Int(1), Value::Text("rex".into())]]);
}

#[test]
fn alter_table_is_visible_through_cached_statements() {
    let db = db();
    let wide = db.execute("SELECT * FROM users WHERE id = 1").unwrap();
    assert_eq!(wide.columns.len(), 3);
    db.execute("ALTER TABLE users DROP COLUMN age").unwrap();
    let narrow = db.execute("SELECT * FROM users WHERE id = 1").unwrap();
    assert_eq!(
        narrow.columns,
        vec!["users.id".to_string(), "users.name".to_string()],
        "cached SELECT * must not serve the pre-ALTER schema"
    );
}

#[test]
fn explain_and_execution_agree_for_param_bound_predicates() {
    let db = db();
    db.execute("CREATE INDEX users_by_age ON users (age)")
        .unwrap();
    // The pre-bind plan (what explain sees) says probe...
    let plan = db
        .explain("SELECT name FROM users WHERE age = $AGE")
        .unwrap();
    assert!(plan.contains("index probe on users.age"), "{plan}");
    // ...and the bound execution actually probes.
    db.reset_stats();
    db.execute_with_params(
        "SELECT name FROM users WHERE age = $AGE",
        &params(&[("AGE", Value::Int(30))]),
    )
    .unwrap();
    let s = db.stats();
    assert_eq!(
        s.index_probes, 1,
        "explain promised a probe; execution must deliver"
    );
    assert_eq!(s.table_scans, 0);
}

#[test]
fn plan_cache_hits_are_counted() {
    let db = db();
    db.execute("CREATE INDEX users_by_age ON users (age)")
        .unwrap();
    db.reset_stats();
    for _ in 0..3 {
        db.execute_with_params(
            "SELECT name FROM users WHERE age = $AGE",
            &params(&[("AGE", Value::Int(30))]),
        )
        .unwrap();
    }
    assert!(
        db.stats().plan_cache_hits >= 2,
        "repeated shape must reuse the access-path decision: {:?}",
        db.stats()
    );
}
