//! Access paths decide how many rows a statement touches, never which
//! rows it returns. Probes and joins follow the `=` a predicate states
//! (one key rule for every index probe, index join and hash join); a
//! corpus of joins, ranges and top-k queries returns the same rows, in
//! the same order, with and without the indexes involved; and `EXPLAIN`
//! names, for each table, the operator `EXPLAIN ANALYZE` runs.

use edna_relational::{Database, Row, Value};

fn rows(db: &Database, sql: &str) -> Vec<Row> {
    db.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
}

/// `t(id INT PRIMARY KEY, flag BOOL, x FLOAT)` and an unindexed
/// `u(id INT, x FLOAT)` whose `x` holds 1.0 and 2.0.
fn typed() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, flag BOOL, x FLOAT);
         CREATE TABLE u (id INT, x FLOAT);
         INSERT INTO t VALUES (1, TRUE, 1.5), (2, FALSE, 2.5);
         INSERT INTO u VALUES (1, 1.0), (2, 2.0);",
    )
    .unwrap();
    db
}

#[test]
fn an_index_probe_coerces_its_constant_to_the_column_type() {
    let db = typed();
    let sql = "SELECT id FROM t WHERE flag = 1";
    assert_eq!(rows(&db, sql), vec![vec![Value::Int(1)]], "scan");
    db.execute("CREATE INDEX t_flag ON t (flag)").unwrap();
    assert_eq!(rows(&db, sql), vec![vec![Value::Int(1)]], "probe");
    assert!(db.explain(sql).unwrap().contains("index probe on t.flag"));
    // A constant that cannot take the column's type matches nothing.
    assert!(rows(&db, "SELECT id FROM t WHERE flag = 'yes'").is_empty());
}

#[test]
fn a_hash_join_matches_numerically_equal_keys() {
    let db = typed();
    let nested = rows(
        &db,
        "SELECT t.id, u.id FROM t JOIN u ON (t.id = u.x OR 1 = 0) ORDER BY t.id",
    );
    assert_eq!(nested.len(), 2, "the nested loop compares with `=`");
    let sql = "SELECT t.id, u.id FROM t JOIN u ON t.id = u.x ORDER BY t.id";
    assert_eq!(rows(&db, sql), nested, "hash join");
    assert!(db.explain(sql).unwrap().contains("hash join on u.x"));
    db.execute("CREATE INDEX u_x ON u (x)").unwrap();
    assert_eq!(rows(&db, sql), nested, "index join");
    assert!(db.explain(sql).unwrap().contains("index join on u.x"));
}

#[test]
fn a_hash_join_coerces_a_bool_outer_key() {
    let db = typed();
    let nested = rows(
        &db,
        "SELECT t.id, u.id FROM t JOIN u ON (t.flag = u.id OR 1 = 0)",
    );
    assert_eq!(nested, vec![vec![Value::Int(1), Value::Int(1)]]);
    let sql = "SELECT t.id, u.id FROM t JOIN u ON t.flag = u.id";
    assert_eq!(rows(&db, sql), nested, "hash join");
    db.execute("CREATE INDEX u_id ON u (id)").unwrap();
    assert_eq!(rows(&db, sql), nested, "index join");
    assert!(db.explain(sql).unwrap().contains("index join on u.id"));
}

/// A small forum: every table keyed, linked and indexed, or (`indexed =
/// false`) the same columns with no key, link or index at all. Both get
/// the same rows through the same statements, deletes and re-used slots
/// included, so they hold every row in the same slot.
fn forum(indexed: bool) -> Database {
    let db = Database::new();
    let schema = if indexed {
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, karma INT, inviter INT,
             FOREIGN KEY (inviter) REFERENCES users(id));
         CREATE TABLE stories (id INT PRIMARY KEY, user_id INT NOT NULL, title TEXT,
             score INT, FOREIGN KEY (user_id) REFERENCES users(id) ON DELETE CASCADE);
         CREATE TABLE comments (id INT PRIMARY KEY, story_id INT NOT NULL, user_id INT,
             score FLOAT,
             FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
             FOREIGN KEY (user_id) REFERENCES users(id));
         CREATE INDEX users_by_karma ON users (karma);
         CREATE INDEX stories_by_score ON stories (score);
         CREATE INDEX comments_by_score ON comments (score);"
    } else {
        "CREATE TABLE users (id INT, name TEXT, karma INT, inviter INT);
         CREATE TABLE stories (id INT, user_id INT NOT NULL, title TEXT, score INT);
         CREATE TABLE comments (id INT, story_id INT NOT NULL, user_id INT, score FLOAT);"
    };
    db.execute_script(schema).unwrap();
    for i in 1..=30 {
        let inviter = if i % 4 == 1 {
            "NULL".to_string()
        } else {
            (i / 2).max(1).to_string()
        };
        db.execute(&format!(
            "INSERT INTO users VALUES ({i}, 'u{i}', {}, {inviter})",
            i % 7
        ))
        .unwrap();
    }
    for i in 1..=60 {
        db.execute(&format!(
            "INSERT INTO stories VALUES ({i}, {}, 's{i}', {})",
            (i * 7) % 29 + 1,
            i % 9
        ))
        .unwrap();
    }
    for i in 1..=150 {
        let user = if i % 6 == 0 {
            "NULL".to_string()
        } else {
            ((i * 11) % 30 + 1).to_string()
        };
        db.execute(&format!(
            "INSERT INTO comments VALUES ({i}, {}, {user}, {}.0)",
            (i * 13) % 60 + 1,
            i % 5
        ))
        .unwrap();
    }
    // Free slots, re-use them for new keys, and move keys around, so slot
    // order and key order part ways.
    db.execute("DELETE FROM comments WHERE story_id IN (3, 8, 21, 40)")
        .unwrap();
    db.execute("DELETE FROM stories WHERE id IN (3, 8, 21, 40)")
        .unwrap();
    db.execute("DELETE FROM comments WHERE id IN (5, 6, 7, 90)")
        .unwrap();
    for (id, story, score) in [
        (151, 12, "0.0"),
        (152, 1, "-0.0"),
        (153, 12, "-0.0"),
        (154, 60, "0.0"),
    ] {
        db.execute(&format!(
            "INSERT INTO comments VALUES ({id}, {story}, 2, {score})"
        ))
        .unwrap();
    }
    db.execute("INSERT INTO stories VALUES (61, 2, 's61', 8), (62, 5, 's62', 0)")
        .unwrap();
    db.execute("UPDATE comments SET story_id = 12, score = 9.0 WHERE id = 4")
        .unwrap();
    db.execute("UPDATE users SET karma = 3 WHERE id = 1")
        .unwrap();
    db
}

/// Joins (a self-join, LEFT JOINs with extra ON conjuncts and with
/// `… IS NULL`, predicates on joined tables, unqualified and ambiguous
/// names), ranges and top-k queries, plus the key rule's mixed types.
const CORPUS: &[&str] = &[
    // The story page and its comment thread.
    "SELECT s.id, s.title, u.name FROM stories s JOIN users u ON s.user_id = u.id \
     WHERE s.id = 7",
    "SELECT c.id, c.score, u.name FROM comments c JOIN users u ON c.user_id = u.id \
     WHERE c.story_id = 12 ORDER BY c.id",
    "SELECT c.id, u.name FROM comments c JOIN users u ON c.user_id = u.id WHERE c.story_id = 12",
    // Three tables, and a predicate on a joined table only.
    "SELECT c.id, s.title, u.name FROM comments c JOIN stories s ON c.story_id = s.id \
     JOIN users u ON s.user_id = u.id WHERE u.karma > 3",
    "SELECT s.id FROM stories s JOIN users u ON s.user_id = u.id WHERE u.id = 5",
    "SELECT s.id, u.id FROM stories s JOIN users u ON u.id = s.user_id WHERE s.id > 50",
    // LEFT JOIN: unmatched rows, extra ON conjuncts, and `IS NULL`.
    "SELECT u.id, s.id FROM users u LEFT JOIN stories s ON s.user_id = u.id AND s.score > 4",
    "SELECT u.id FROM users u LEFT JOIN stories s ON s.user_id = u.id WHERE s.id IS NULL",
    "SELECT c.id, u.name FROM comments c LEFT JOIN users u ON c.user_id = u.id \
     WHERE c.story_id = 12",
    // Self-joins, aliased and not (unaliased, `users.inviter` is the
    // first table's column, so the ON compares one side only).
    "SELECT a.id, b.id FROM users a JOIN users b ON b.inviter = a.id",
    "SELECT a.id, b.id FROM users a LEFT JOIN users b ON b.inviter = a.id AND b.karma > 2",
    "SELECT users.id FROM users JOIN users ON users.inviter = users.id",
    // Unqualified names resolve to the FROM table first.
    "SELECT title FROM stories JOIN users ON user_id = users.id WHERE id = 4",
    // Unindexed equi-joins and non-equi joins.
    "SELECT s.id, u.id FROM stories s JOIN users u ON s.score = u.karma WHERE s.id < 6",
    "SELECT s.id, u.id FROM stories s JOIN users u ON s.user_id > u.id WHERE s.id = 9",
    // Ranges: one or two bounds, either way round, empty and inverted.
    "SELECT id FROM stories WHERE id > 50",
    "SELECT id FROM stories WHERE id >= 10 AND id < 20",
    "SELECT id, score FROM stories WHERE 30 < id AND score <= 3",
    "SELECT id FROM stories WHERE id > 1000",
    "SELECT id FROM stories WHERE id > 20 AND id < 10",
    "SELECT id FROM stories WHERE id > 5 AND id < 5",
    "SELECT id FROM stories WHERE id >= 5 AND id <= 5",
    "SELECT id FROM comments WHERE score >= 0",
    "SELECT id FROM comments WHERE score < 2.5",
    "SELECT id FROM users WHERE karma > 2.5",
    "SELECT id FROM users WHERE karma <= 3.0 AND karma > 1",
    "SELECT id FROM users WHERE karma > '3'",
    "SELECT id FROM users WHERE karma > NULL",
    // Top-k, with ties, offsets, DISTINCT and grouping.
    "SELECT id, title, score FROM stories ORDER BY score DESC, id LIMIT 5",
    "SELECT id, score FROM stories ORDER BY score LIMIT 3 OFFSET 4",
    "SELECT id FROM stories WHERE score > 2 ORDER BY score DESC LIMIT 4",
    "SELECT id FROM stories ORDER BY score LIMIT 0",
    "SELECT id FROM stories ORDER BY score LIMIT 500",
    "SELECT id FROM stories LIMIT 2 OFFSET 1",
    "SELECT DISTINCT score FROM stories ORDER BY score LIMIT 3",
    "SELECT user_id, COUNT(*) AS n FROM stories GROUP BY user_id ORDER BY n DESC, user_id \
     LIMIT 3",
    "SELECT c.id, u.name FROM comments c JOIN users u ON c.user_id = u.id \
     ORDER BY c.score DESC LIMIT 6 OFFSET 2",
    // Equality under the key rule, NULL pins and subqueries.
    "SELECT id FROM users WHERE karma = 3.0",
    "SELECT id FROM users WHERE karma = '3'",
    "SELECT id FROM comments WHERE score = 2",
    "SELECT id FROM comments WHERE score = 0",
    "SELECT id FROM comments WHERE score = -0.0 AND story_id = 12",
    "SELECT id FROM comments WHERE score <= 0.0",
    "SELECT id FROM users WHERE inviter IS NULL",
    "SELECT id FROM comments WHERE user_id = NULL",
    "SELECT id FROM stories WHERE user_id IN (SELECT id FROM users WHERE karma = 2)",
];

#[test]
fn the_corpus_returns_the_same_rows_with_and_without_indexes() {
    let (indexed, plain) = (forum(true), forum(false));
    for sql in CORPUS {
        assert_eq!(rows(&indexed, sql), rows(&plain, sql), "{sql}");
    }
    // The plain copy really scans: no index serves it.
    plain.reset_stats();
    rows(&plain, CORPUS[0]);
    assert_eq!(plain.stats().index_probes, 0);
}

/// The path `EXPLAIN` names for each table read, as the operator
/// `EXPLAIN ANALYZE` reports it.
fn explained(db: &Database, sql: &str) -> Vec<&'static str> {
    const PATHS: &[(&str, &str)] = &[
        ("index probe on", "probe"),
        ("index range on", "range"),
        ("full scan", "scan"),
        ("index join on", "index join"),
        ("hash join on", "hash join"),
        ("nested-loop join", "nested loop"),
    ];
    let plan = db.explain(sql).unwrap();
    plan.lines()
        .filter_map(|line| {
            let (_, path) = line.split_once(": ")?;
            PATHS
                .iter()
                .find(|(phrase, _)| path.starts_with(phrase))
                .map(|&(_, op)| op)
        })
        .collect()
}

/// The first operator `EXPLAIN ANALYZE` ran for each of the statement's
/// tables: the access path, then one per join.
fn analyzed(db: &Database, sql: &str, tables: usize) -> Vec<String> {
    let r = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    r.rows
        .iter()
        .take(tables)
        .map(|row| row[0].as_text().unwrap().to_string())
        .collect()
}

#[test]
fn explain_names_the_operator_analyze_runs_for_each_table() {
    let db = forum(true);
    for sql in CORPUS {
        let plan = explained(&db, sql);
        assert_eq!(
            plan.len(),
            1 + sql.matches(" JOIN ").count(),
            "one path per table: {sql}"
        );
        assert_eq!(analyzed(&db, sql, plan.len()), plan, "{sql}");
    }
    // The story page probes both tables; a predicate on the joined table
    // pins nothing on the FROM table.
    assert_eq!(explained(&db, CORPUS[0]), ["probe", "index join"]);
    assert_eq!(explained(&db, CORPUS[4]), ["scan", "index join"]);
    assert_eq!(
        explained(&db, "SELECT id FROM stories WHERE id > 50"),
        ["range"]
    );
}
