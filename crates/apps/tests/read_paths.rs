//! The Lobsters pages an application serves reach their rows through
//! indexes, as they would over MySQL: a story page, a comment thread and a
//! profile scan no table and read no more rows than they return, and the
//! front page scans its one table once, keeping only the rows it shows.
//! The statements are the page reads of the wire benchmark's Lobsters
//! workload, written out here.

use edna_apps::lobsters::{self, generate::LobstersConfig};
use edna_relational::Database;

const FRONT_PAGE: &str = "SELECT id, title, score FROM stories ORDER BY score DESC, id LIMIT 25";

fn story_page(story: i64) -> String {
    format!(
        "SELECT s.id, s.title, s.url, s.score, u.username FROM stories s \
         JOIN users u ON s.user_id = u.id WHERE s.id = {story}"
    )
}

fn thread(story: i64) -> String {
    format!(
        "SELECT c.id, c.comment, c.score, u.username FROM comments c \
         JOIN users u ON c.user_id = u.id WHERE c.story_id = {story} ORDER BY c.id"
    )
}

fn profile(user: i64) -> String {
    format!("SELECT id, username, karma, about, last_login FROM users WHERE id = {user}")
}

/// The rows a read returned and its `(statements, rows read, index
/// probes, table scans)`.
fn read(db: &Database, sql: &str) -> (usize, (u64, u64, u64, u64)) {
    let before = db.stats();
    let returned = db.execute(sql).unwrap().rows.len();
    let s = db.stats().since(&before);
    (
        returned,
        (s.statements, s.rows_read, s.index_probes, s.table_scans),
    )
}

fn generated(users: usize) -> (Database, Vec<i64>, Vec<i64>) {
    let db = lobsters::create_db().unwrap();
    let inst = lobsters::generate::generate(&db, &LobstersConfig::sized(users)).unwrap();
    (db, inst.story_ids, inst.user_ids)
}

/// The story with the longest thread.
fn busiest_story(db: &Database) -> (i64, usize) {
    let r = db
        .execute(
            "SELECT story_id, COUNT(*) AS n FROM comments GROUP BY story_id \
             ORDER BY n DESC, story_id LIMIT 1",
        )
        .unwrap();
    (
        r.rows[0][0].as_int().unwrap(),
        r.rows[0][1].as_int().unwrap() as usize,
    )
}

#[test]
fn page_reads_probe_and_read_only_what_they_return() {
    // `(users, busiest story, its comments)` of the generated instances.
    for (users, busiest, comments) in [(500, 305, 11), (2000, 740, 10)] {
        let (db, stories, user_ids) = generated(users);
        assert_eq!(busiest_story(&db), (busiest, comments), "sized({users})");
        let newest = *stories.last().unwrap();
        let user = user_ids[user_ids.len() / 2];

        // One stories row and one users row: two probes, no scan.
        assert_eq!(read(&db, &story_page(newest)), (1, (1, 1, 2, 0)));
        // One probe for the thread's comments, one users probe each.
        let c = comments as u64;
        assert_eq!(read(&db, &thread(busiest)), (comments, (1, c, 1 + c, 0)));
        assert_eq!(read(&db, &profile(user)), (1, (1, 1, 1, 0)));
        // One scan of the stories, keeping the 25 rows it shows.
        assert_eq!(read(&db, FRONT_PAGE), (25, (1, 25, 0, 1)));

        for sql in [story_page(newest), thread(busiest), profile(user)] {
            let plan = db.explain(&sql).unwrap();
            assert!(!plan.contains("full scan"), "{plan}");
        }
    }
}

#[test]
fn the_story_page_reads_one_story_and_one_user() {
    let (db, stories, _) = generated(500);
    let sql = format!("EXPLAIN ANALYZE {}", story_page(stories[7]));
    let ops: Vec<(String, i64)> = db
        .execute(&sql)
        .unwrap()
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_text().unwrap().to_string(),
                row[2].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(ops[0], ("probe".to_string(), 1), "{ops:?}");
    assert_eq!(ops[1], ("index join".to_string(), 1), "{ops:?}");
    let plan = db.explain(&story_page(stories[7])).unwrap();
    assert!(
        plan.contains("stories s: index probe on stories.id"),
        "{plan}"
    );
    assert!(plan.contains("index join on users.id"), "{plan}");
}
