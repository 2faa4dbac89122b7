//! Differential tests: the audit's static verdicts must match what the
//! runtime actually does. Each case runs `audit_workspace` over a spec
//! set AND executes the same specs against real data, asserting that
//! predicted-stuck reveals really never bring their rows back,
//! predicted-safe ones really succeed, and predicted-diverging decay
//! ladders really keep rewriting.

use edna_core::{
    analyze::codes, audit_workspace, DecayPolicy, DecayStage, DisguiseSpec, DisguiseSpecBuilder,
    Disguiser, Error, Modifier, Policy,
};
use edna_relational::{Database, Value};
use edna_vault::VaultEntry;

/// Users and their comments; `on_delete` is the comments' referential
/// action (empty for the default, RESTRICT).
fn forum_db(on_delete: &str) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, \
         last_login INT NOT NULL DEFAULT 0)",
    )
    .unwrap();
    db.execute(&format!(
        "CREATE TABLE comments (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
         body TEXT, created_at INT NOT NULL DEFAULT 0, \
         FOREIGN KEY (user_id) REFERENCES users(id) {on_delete})"
    ))
    .unwrap();
    db.execute("INSERT INTO users (name, last_login) VALUES ('bea', 100), ('mel', 9000)")
        .unwrap();
    db.execute(
        "INSERT INTO comments (user_id, body, created_at) VALUES \
         (1, 'first', 120), (1, 'again', 150), (2, 'hello', 9100)",
    )
    .unwrap();
    db
}

fn shelf() -> DisguiseSpec {
    DisguiseSpecBuilder::new("Shelf")
        .user_scoped()
        .remove("comments", Some("user_id = $UID"))
        .build()
        .unwrap()
}

fn purge(reversible: bool) -> DisguiseSpec {
    let b = DisguiseSpecBuilder::new("Purge")
        .user_scoped()
        .remove("comments", Some("user_id = $UID"))
        .remove("users", Some("id = $UID"));
    let b = if reversible { b } else { b.irreversible() };
    b.build().unwrap()
}

/// An irreversible purge of the account alone; its comments go by the
/// schema's `ON DELETE` action.
fn purge_account() -> DisguiseSpec {
    DisguiseSpecBuilder::new("PurgeAccount")
        .user_scoped()
        .irreversible()
        .remove("users", Some("id = $UID"))
        .build()
        .unwrap()
}

fn count(db: &Database, sql: &str) -> i64 {
    db.execute(sql).unwrap().scalar().unwrap().as_int().unwrap()
}

fn codes_of(db: &Database, specs: &[DisguiseSpec]) -> Vec<&'static str> {
    audit_workspace(db, specs, &[])
        .iter()
        .map(|d| d.code)
        .collect()
}

fn registered(db: &Database, specs: impl IntoIterator<Item = DisguiseSpec>) -> Disguiser {
    let edna = Disguiser::new(db.clone());
    for s in specs {
        edna.register(s).unwrap();
    }
    edna
}

#[test]
fn predicted_orphaning_really_strands_the_reveal() {
    let db = forum_db("");
    let specs = [shelf(), purge(false)];

    // Static verdict: after Shelf then Purge, Shelf's comments can never
    // return to `Present`.
    let found = codes_of(&db, &specs);
    assert!(found.contains(&codes::REVEAL_UNREACHABLE), "{found:?}");
    assert!(found.contains(&codes::VAULT_ORPHANED), "{found:?}");

    // Runtime confirmation: apply in the flagged order, then reveal
    // Shelf. It re-inserts the comments, and re-applying Purge's
    // `Remove comments` deletes them again, so nothing dangles at commit:
    // the reveal completes and consumes Shelf's vault entry, but user 1's
    // comments and account stay away.
    let edna = registered(&db, specs);
    let kept = edna.apply("Shelf", Some(&Value::Int(1))).unwrap();
    assert!(
        kept.rows_removed > 0,
        "Shelf really removed (and vaulted) rows"
    );
    let purged = edna.apply("Purge", Some(&Value::Int(1))).unwrap();
    let report = edna.reveal(kept.disguise_id).unwrap();
    assert_eq!(
        report.reapplied,
        [(purged.disguise_id, "Purge".to_string())]
    );
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM comments WHERE user_id = 1"),
        0
    );
    assert_eq!(count(&db, "SELECT COUNT(*) FROM users WHERE id = 1"), 0);
    let left = edna
        .vaults()
        .entries_for_disguise(&Value::Int(1), kept.disguise_id)
        .unwrap();
    assert!(left.is_empty(), "Shelf's vault entry is consumed: {left:?}");
}

/// Every vault entry of the forum's two users, and the vaults' size.
fn vault_state(edna: &Disguiser) -> (Vec<VaultEntry>, Vec<VaultEntry>, usize) {
    let vaults = edna.vaults();
    (
        vaults.entries_for(&Value::Int(1)).unwrap(),
        vaults.entries_for(&Value::Int(2)).unwrap(),
        vaults.storage_bytes().unwrap(),
    )
}

#[test]
fn predicted_orphaning_by_cascade_really_fails_the_reveal() {
    let db = forum_db("ON DELETE CASCADE");
    let specs = [shelf(), purge_account()];

    // Static verdict: the purge's cascade closure covers comments, and
    // the account it removes is never vaulted.
    let found = codes_of(&db, &specs);
    assert!(found.contains(&codes::REVEAL_UNREACHABLE), "{found:?}");

    // Runtime confirmation: nothing re-applied rewrites the re-inserted
    // comments, so their reference still dangles at commit. The reveal
    // fails and changes neither the database nor any vault entry.
    let edna = registered(&db, specs);
    let kept = edna.apply("Shelf", Some(&Value::Int(1))).unwrap();
    edna.apply("PurgeAccount", Some(&Value::Int(1))).unwrap();
    let dump = db.dump();
    let vaults = vault_state(&edna);
    match edna.reveal(kept.disguise_id).unwrap_err() {
        Error::NotReversible { reason, .. } => {
            assert!(reason.contains("missing parents"), "{reason}");
            assert!(reason.contains("comments"), "{reason}");
        }
        other => panic!("expected NotReversible, got {other:?}"),
    }
    assert_eq!(db.dump(), dump);
    assert_eq!(vault_state(&edna), vaults);
}

/// Users who invite each other, through a self-referencing key.
fn invite_db() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, invited_by INT, \
         FOREIGN KEY (invited_by) REFERENCES users(id))",
    )
    .unwrap();
    db.execute("INSERT INTO users VALUES (1, 'bea', NULL), (2, 'mel', 1)")
        .unwrap();
    db
}

/// Leaving: the user's invitees lose the back-reference, then the
/// account goes (reversibly).
fn leave() -> DisguiseSpec {
    DisguiseSpecBuilder::new("Leave")
        .user_scoped()
        .modify(
            "users",
            Some("invited_by = $UID"),
            "invited_by",
            Modifier::SetNull,
        )
        .remove("users", Some("id = $UID"))
        .build()
        .unwrap()
}

#[test]
fn two_linked_users_really_reveal_in_either_order() {
    // Static verdict: clean.
    assert!(codes_of(&invite_db(), &[leave()]).is_empty());

    // Runtime confirmation: user 2 leaves, then their inviter. Either
    // reveal order brings both back. Revealing the invitee first
    // re-inserts an account whose inviter is gone; re-applying the
    // inviter's SetNull clears that key, and revealing the inviter
    // restores it from the addendum that re-application wrote.
    for invitee_first in [true, false] {
        let db = invite_db();
        let users = db.dump()["users"].clone();
        let edna = registered(&db, [leave()]);
        let invitee = edna.apply("Leave", Some(&Value::Int(2))).unwrap();
        let inviter = edna.apply("Leave", Some(&Value::Int(1))).unwrap();
        if invitee_first {
            edna.reveal(invitee.disguise_id).unwrap();
            let back = db
                .execute("SELECT invited_by FROM users WHERE id = 2")
                .unwrap();
            assert_eq!(back.rows, [[Value::Null]], "user 2 is back, uninvited");
            edna.reveal(inviter.disguise_id).unwrap();
        } else {
            edna.reveal(inviter.disguise_id).unwrap();
            edna.reveal(invitee.disguise_id).unwrap();
        }
        assert_eq!(db.dump()["users"], users, "invitee first: {invitee_first}");
    }
}

#[test]
fn predicted_safe_pair_really_walks_back_to_present() {
    let db = forum_db("");
    let specs = [shelf(), purge(true)];

    // Static verdict: with Purge reversible, every interleaving can be
    // walked back (LIFO order).
    assert!(audit_workspace(&db, &specs, &[]).is_empty());

    // Runtime confirmation: same application order, reveal newest-first
    // (the order the audit's walk-back models) restores everything.
    let edna = Disguiser::new(db.clone());
    for s in specs {
        edna.register(s).unwrap();
    }
    let kept = edna.apply("Shelf", Some(&Value::Int(1))).unwrap();
    let purged = edna.apply("Purge", Some(&Value::Int(1))).unwrap();
    assert_eq!(db.row_count("users").unwrap(), 1);
    edna.reveal(purged.disguise_id).unwrap();
    edna.reveal(kept.disguise_id).unwrap();
    assert_eq!(db.row_count("users").unwrap(), 2, "account restored");
    assert_eq!(db.row_count("comments").unwrap(), 3, "comments restored");
}

#[test]
fn predicted_diverging_decay_really_rewrites_every_run() {
    let db = forum_db("");
    let blur = DisguiseSpecBuilder::new("Blur")
        .irreversible()
        .modify(
            "comments",
            Some("created_at < NOW() - 300"),
            "body",
            Modifier::HashText,
        )
        .build()
        .unwrap();
    let policy = DecayPolicy {
        name: "aging".to_string(),
        stages: vec![DecayStage {
            disguise: "Blur".to_string(),
        }],
        cadence: 60,
    };

    // Static verdict: diverges.
    let diags = audit_workspace(
        &db,
        std::slice::from_ref(&blur),
        &[Policy::Decay(policy.clone())],
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, codes::POLICY_DIVERGES);

    // Runtime confirmation: the second and third runs keep rewriting the
    // same aged rows (hash of a hash is a fresh digest).
    let edna = Disguiser::new(db.clone());
    edna.register(blur).unwrap();
    let first: usize = policy
        .run(&edna, 1000)
        .unwrap()
        .iter()
        .map(|r| r.rows_modified)
        .sum();
    let second: usize = policy
        .run(&edna, 1060)
        .unwrap()
        .iter()
        .map(|r| r.rows_modified)
        .sum();
    assert!(first > 0, "decay did something on run one");
    assert_eq!(second, first, "every aged row rewritten again: divergence");
}

#[test]
fn predicted_converging_decay_really_settles() {
    let db = forum_db("");
    let calm = DisguiseSpecBuilder::new("Calm")
        .irreversible()
        .modify(
            "comments",
            Some("created_at < NOW() - 300"),
            "body",
            Modifier::Redact,
        )
        .build()
        .unwrap();
    let policy = DecayPolicy {
        name: "calm-aging".to_string(),
        stages: vec![DecayStage {
            disguise: "Calm".to_string(),
        }],
        cadence: 60,
    };

    // Static verdict: converges (no diagnostics at all).
    let diags = audit_workspace(
        &db,
        std::slice::from_ref(&calm),
        &[Policy::Decay(policy.clone())],
    );
    assert!(diags.is_empty(), "{diags:?}");

    // Runtime confirmation: the second run over the same window is a
    // no-op (apply skips rows whose new value equals the current one).
    let edna = Disguiser::new(db.clone());
    edna.register(calm).unwrap();
    let first: usize = policy
        .run(&edna, 1000)
        .unwrap()
        .iter()
        .map(|r| r.rows_modified)
        .sum();
    let second: usize = policy
        .run(&edna, 1060)
        .unwrap()
        .iter()
        .map(|r| r.rows_modified)
        .sum();
    assert!(first > 0);
    assert_eq!(second, 0, "idempotent decay settles");
}
