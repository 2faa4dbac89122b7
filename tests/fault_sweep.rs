//! Fault-injection sweeps: invariant 5 ("a disguise application is atomic
//! — it either fully applies or leaves no trace") exercised by killing the
//! apply at *every* statement index, plus vault failures end to end: a
//! failed put aborts a single apply, degrades an `apply_many` user whose
//! commit already landed (and an apply run without a transaction), and a
//! torn vault tail recovers across reopen.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use edna::apps::hotcrp::{self, generate::HotCrpConfig};
use edna::core::{Disguiser, Error};
use edna::relational::{snapshot, Value};
use edna::vault::{
    Error as VaultError, FaultPlan, FaultyStore, FileStore, MemoryStore, RetryPolicy,
    ThirdPartyStore, TieredVault, Vault, VaultTier,
};

/// A freshly generated HotCRP instance, serialized so each sweep iteration
/// can rebuild an identical database cheaply.
fn hotcrp_image() -> (Vec<u8>, i64) {
    let db = hotcrp::create_db().unwrap();
    let inst = hotcrp::generate::generate(&db, &HotCrpConfig::small()).unwrap();
    (snapshot::encode(&db).unwrap(), inst.pc_contact_ids[0])
}

fn disguiser_for(image: &[u8]) -> (edna::relational::Database, Disguiser) {
    let db = snapshot::decode(image).unwrap();
    let edna = Disguiser::new(db.clone());
    hotcrp::register_disguises(&edna).unwrap();
    (db, edna)
}

fn vault_entry_total(edna: &Disguiser) -> usize {
    edna.vaults().tier(VaultTier::Global).entry_count().unwrap()
        + edna
            .vaults()
            .tier(VaultTier::PerUser)
            .entry_count()
            .unwrap()
}

#[test]
fn statement_fault_sweep_leaves_no_trace() {
    let (image, user) = hotcrp_image();

    // Clean run: count the statements one application issues.
    let total = {
        let (db, edna) = disguiser_for(&image);
        db.set_fault_hook(Some(Arc::new(|_| false)));
        edna.apply("HotCRP-GDPR+", Some(&Value::Int(user))).unwrap();
        db.fault_statement_count()
    };
    assert!(total > 20, "expected a multi-statement apply, got {total}");

    // Kill the apply at every statement index. Each time, the database
    // must come back byte-identical to its pre-apply state (history table
    // included) and the vaults must hold no orphan entry.
    for index in 0..total {
        let (db, edna) = disguiser_for(&image);
        let before: BTreeMap<String, Vec<String>> = db.dump();
        db.fail_statement(index);
        let err = edna
            .apply("HotCRP-GDPR+", Some(&Value::Int(user)))
            .err()
            .unwrap_or_else(|| panic!("statement {index} fault was swallowed"));
        assert!(
            matches!(
                err,
                Error::Relational(edna::relational::Error::FaultInjected(i)) if i == index
            ),
            "statement {index}: unexpected error {err}"
        );
        db.set_fault_hook(None);
        assert_eq!(
            db.dump(),
            before,
            "statement {index}: database differs from pre-apply snapshot"
        );
        assert_eq!(
            vault_entry_total(&edna),
            0,
            "statement {index}: orphan vault entry"
        );
    }

    // And past the end, the apply goes through untouched.
    let (db, edna) = disguiser_for(&image);
    db.fail_statement(total);
    let report = edna.apply("HotCRP-GDPR+", Some(&Value::Int(user))).unwrap();
    db.set_fault_hook(None);
    assert!(report.rows_removed + report.rows_modified > 0);
}

/// A disguiser whose per-user vault store (the tier HotCRP-GDPR+ writes)
/// fails its first write permanently.
fn disguiser_with_failing_vault(image: &[u8]) -> (edna::relational::Database, Disguiser) {
    let db = snapshot::decode(image).unwrap();
    let vaults = TieredVault::new(
        Vault::plain(MemoryStore::new()),
        Vault::plain(FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(9).fail_nth(0),
        )),
    );
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    hotcrp::register_disguises(&edna).unwrap();
    (db, edna)
}

#[test]
fn require_policy_aborts_and_rolls_back_on_vault_failure() {
    let (image, user) = hotcrp_image();
    let (db, edna) = disguiser_with_failing_vault(&image);
    let before = db.dump();
    let err = edna
        .apply("HotCRP-GDPR+", Some(&Value::Int(user)))
        .expect_err("vault failure must abort under Require");
    assert!(
        matches!(err, Error::Vault(VaultError::Injected { .. })),
        "got {err}"
    );
    assert_eq!(db.dump(), before, "Require must leave no trace");
    assert!(edna.history().events().unwrap().is_empty());
}

#[test]
fn apply_many_degrades_a_user_whose_vault_put_fails() {
    // `apply_many` puts a user's vault entries after that user's commit,
    // so a failed put cannot roll the disguise back: the history row is
    // marked irreversible and the user reported failed. Every store
    // operation fails, the batched put and the per-entry retry alike.
    let (image, user) = hotcrp_image();
    let db = snapshot::decode(&image).unwrap();
    let vaults = TieredVault::new(
        Vault::plain(MemoryStore::new()),
        Vault::plain(FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(9).error_rate(1.0),
        )),
    );
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    hotcrp::register_disguises(&edna).unwrap();
    let report = edna
        .apply_many("HotCRP-GDPR+", &[Value::Int(user)], 1)
        .unwrap();
    assert_eq!(report.degraded, 1);
    assert_eq!(report.succeeded, 0);
    assert_eq!(report.failures.len(), 1);
    let (failed, reason) = &report.failures[0];
    assert_eq!(failed, &Value::Int(user));
    assert!(reason.contains("vault write failed"), "got: {reason}");

    // The history row is marked irreversible, with the reason as its note.
    let events = edna.history().events().unwrap();
    assert_eq!(events.len(), 1);
    let event = &events[0];
    assert!(!event.reversible);
    assert!(event
        .note
        .as_deref()
        .is_some_and(|n| n.contains("vault write failed")));
    // And a reveal is refused rather than half-performed.
    assert!(matches!(
        edna.reveal(event.id).err().unwrap(),
        Error::NotReversible { .. }
    ));
    // The user's data is still disguised.
    assert_eq!(
        db.execute(&format!(
            "SELECT COUNT(*) FROM ContactInfo WHERE contactId = {user}"
        ))
        .unwrap()
        .scalar()
        .unwrap(),
        &Value::Int(0)
    );
}

#[test]
fn an_untransacted_apply_degrades_when_its_vault_put_fails() {
    // Without a transaction the row changes and the history row commit
    // statement by statement, before the vault put: a failed put cannot
    // roll them back, so the history row must stop offering a reveal.
    let (image, user) = hotcrp_image();
    let db = snapshot::decode(&image).unwrap();
    let vaults = TieredVault::new(
        Vault::plain(MemoryStore::new()),
        Vault::plain(FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(1).fail_nth(0),
        )),
    );
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    hotcrp::register_disguises(&edna).unwrap();
    let opts = edna::core::ApplyOptions {
        use_transaction: false,
        ..Default::default()
    };
    let err = edna
        .apply_with_options("HotCRP-GDPR+", Some(&Value::Int(user)), opts)
        .expect_err("the vault failure is reported");
    assert!(
        matches!(err, Error::Vault(VaultError::Injected { .. })),
        "got {err}"
    );
    let events = edna.history().events().unwrap();
    assert_eq!(events.len(), 1, "the history row committed");
    let event = &events[0];
    assert!(!event.reversible);
    assert!(
        event
            .note
            .as_deref()
            .is_some_and(|n| n.contains("vault write failed")),
        "got {:?}",
        event.note
    );
    match edna.reveal(event.id).err().unwrap() {
        Error::NotReversible { reason, .. } => {
            assert!(reason.contains("applied irreversibly"), "got: {reason}")
        }
        other => panic!("expected NotReversible, got {other}"),
    }
}

#[test]
fn transient_vault_outage_is_absorbed_with_observable_retries() {
    // A third-party store that drops the first request, wrapped in a
    // retry policy: the apply succeeds and the report shows the retry.
    let (image, user) = hotcrp_image();
    let db = snapshot::decode(&image).unwrap();
    let remote = ThirdPartyStore::with_retry(
        FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(3).fail_nth(0).transient(),
        ),
        Duration::ZERO,
        RetryPolicy {
            base_delay: Duration::from_micros(200),
            ..RetryPolicy::default()
        },
    );
    let vaults = TieredVault::new(Vault::plain(MemoryStore::new()), Vault::plain(remote));
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    hotcrp::register_disguises(&edna).unwrap();
    let report = edna.apply("HotCRP-GDPR+", Some(&Value::Int(user))).unwrap();
    assert_eq!(report.vault_retries, 1, "one retry absorbed the outage");
    assert_eq!(vault_entry_total(&edna), 1);
}

#[test]
fn permanent_vault_outage_fails_within_the_deadline() {
    // Acceptance: against a permanently-failing third-party store the
    // apply fails within the policy deadline, with the retry count
    // observable on the store.
    let (image, user) = hotcrp_image();
    let db = snapshot::decode(&image).unwrap();
    let remote = ThirdPartyStore::with_retry(
        FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(5).error_rate(1.0).transient(),
        ),
        Duration::ZERO,
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(1),
            deadline: Duration::from_secs(5),
            jitter_seed: 11,
        },
    );
    let vaults = TieredVault::new(Vault::plain(MemoryStore::new()), Vault::plain(remote));
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    hotcrp::register_disguises(&edna).unwrap();
    let before = db.dump();

    let start = std::time::Instant::now();
    let err = edna
        .apply("HotCRP-GDPR+", Some(&Value::Int(user)))
        .err()
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "retries must be bounded by the deadline"
    );
    match err {
        Error::Vault(VaultError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 4, "1 try + 3 retries")
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert_eq!(edna.vaults().store_stats().retries, 3, "retries observable");
    assert_eq!(db.dump(), before, "the abort rolled everything back");
}

#[test]
fn torn_vault_tail_is_recovered_across_reopen() {
    // Disguise into a file vault, crash mid-append on a *second* write
    // (garbage tail), reopen: the first entry must survive and reveal.
    let dir = std::env::temp_dir().join(format!("edna_fault_torn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (image, user) = hotcrp_image();
    let db = snapshot::decode(&image).unwrap();

    let disguise_id = {
        let vaults = TieredVault::new(
            Vault::plain(MemoryStore::new()),
            Vault::plain(FileStore::open(&dir).unwrap()),
        );
        let edna = Disguiser::with_vaults(db.clone(), vaults);
        hotcrp::register_disguises(&edna).unwrap();
        let report = edna.apply("HotCRP-GDPR+", Some(&Value::Int(user))).unwrap();
        report.disguise_id
    };

    // Append a torn record tail to every vault file, as a crash
    // mid-append would leave.
    let mut teared = 0;
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        if path.is_file() {
            use std::io::Write;
            let mut fh = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            fh.write_all(&[0x42, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
            teared += 1;
        }
    }
    assert!(teared > 0, "expected at least one vault file");

    // Reopen: recovery truncates the torn tails; the entry is intact.
    let store = FileStore::open(&dir).unwrap();
    let vaults = TieredVault::new(Vault::plain(MemoryStore::new()), Vault::plain(store));
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    hotcrp::register_disguises(&edna).unwrap();
    edna.reveal(disguise_id).unwrap();
    assert!(edna.vaults().store_stats().truncated_bytes > 0);
    assert_eq!(
        db.execute(&format!(
            "SELECT COUNT(*) FROM ContactInfo WHERE contactId = {user}"
        ))
        .unwrap()
        .scalar()
        .unwrap(),
        &Value::Int(1)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
