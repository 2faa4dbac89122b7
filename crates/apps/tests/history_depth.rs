//! Disguise cost is independent of disguise history: applying and
//! revealing `Lobsters-GDPR` for one user does the same engine work on a
//! fresh state as after hundreds of applies to other users. Every lookup
//! on the apply path is an index probe, so no counter grows with the log.

use edna_apps::lobsters::{self, generate::LobstersConfig};
use edna_core::Disguiser;
use edna_relational::{Database, StatsSnapshot, Value};

/// Applies to other users before the measured apply in the deep state.
const DEPTH: usize = 300;

fn lobsters() -> (Database, Disguiser) {
    let db = lobsters::create_db().unwrap();
    lobsters::generate::generate(&db, &LobstersConfig::sized(1000)).unwrap();
    let edna = Disguiser::new(db.clone());
    lobsters::register_disguises(&edna).unwrap();
    (db, edna)
}

fn ids(db: &Database, sql: &str) -> Vec<i64> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect()
}

/// The engine counters one call moved.
fn counted<T>(db: &Database, f: impl FnOnce() -> T) -> (T, StatsSnapshot) {
    let before = db.stats();
    let out = f();
    (out, db.stats().since(&before))
}

/// Applies then reveals `Lobsters-GDPR` for `user`, returning the
/// counters of each.
fn apply_and_reveal(db: &Database, edna: &Disguiser, user: i64) -> (StatsSnapshot, StatsSnapshot) {
    let (report, apply) = counted(db, || {
        edna.apply("Lobsters-GDPR", Some(&Value::Int(user)))
            .unwrap()
    });
    let (_, reveal) = counted(db, || edna.reveal(report.disguise_id).unwrap());
    (apply, reveal)
}

#[test]
fn apply_and_reveal_counters_do_not_grow_with_history() {
    let (db, edna) = lobsters();
    // An uninvited user: the deep state's applies to other users leave
    // its account row as the fresh state has it, so both reveals
    // re-insert the same row.
    let target = ids(
        &db,
        "SELECT id FROM users WHERE invited_by_user_id IS NULL ORDER BY id DESC LIMIT 1",
    )[0];
    let (apply_fresh, reveal_fresh) = apply_and_reveal(&db, &edna, target);

    let (db, edna) = lobsters();
    // Other users whose disguise leaves the target's rows alone: neither
    // the target nor anyone it invited.
    let others = ids(
        &db,
        &format!(
            "SELECT id FROM users WHERE id != {target} AND \
             (invited_by_user_id IS NULL OR invited_by_user_id != {target}) ORDER BY id"
        ),
    );
    for &user in others.iter().take(DEPTH) {
        edna.apply("Lobsters-GDPR", Some(&Value::Int(user)))
            .unwrap();
    }
    assert_eq!(edna.history().events().unwrap().len(), DEPTH);
    let (apply_deep, reveal_deep) = apply_and_reveal(&db, &edna, target);

    for (what, fresh, deep) in [
        ("apply", apply_fresh, apply_deep),
        ("reveal", reveal_fresh, reveal_deep),
    ] {
        assert_eq!(
            (fresh.rows_read, fresh.statements, fresh.index_probes),
            (deep.rows_read, deep.statements, deep.index_probes),
            "{what}: counters moved with history depth {DEPTH}: fresh {fresh:?}, deep {deep:?}"
        );
        assert_eq!(fresh.table_scans, deep.table_scans, "{what}");
    }
    // The fresh state's exact work, `(statements, rows read, rows
    // written, index probes, table scans)`: a change that moves any of
    // these moves the cost of every disguise, so it re-pins them on
    // purpose.
    let work = |s: &StatsSnapshot| {
        (
            s.statements,
            s.rows_read,
            s.rows_written,
            s.index_probes,
            s.table_scans,
        )
    };
    assert_eq!(work(&apply_fresh), (40, 53, 40, 81, 0), "apply");
    assert_eq!(work(&reveal_fresh), (65, 57, 40, 250, 0), "reveal");
    assert_eq!(apply_fresh.table_scans, 0, "apply: every lookup probes");
    // `active_after`'s `id > $ID` walks a range of the primary key, which
    // holds nothing newer than the revealed disguise here.
    assert_eq!(reveal_fresh.table_scans, 0, "reveal: every lookup probes");
}
