//! The reserved bookkeeping tables are indexed on the columns their
//! lookups pin: `_edna_disguise_history(userId)`, `_edna_caps(disguise_id)`
//! and `_edna_requests(idem_key)`. A state written before those indexes
//! existed gains them on its first open, exactly once; a replica
//! bootstrapped from an indexed primary inherits them and logs no DDL of
//! its own, so its WAL stays an exact copy of the primary's.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use edna_core::{Workspace, HISTORY_TABLE};
use edna_relational::Database;
use edna_server::service::REQUESTS_TABLE;
use edna_server::{caps::CAPS_TABLE, replica, server, Client, ServerConfig, Service};

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_bkix_test_{tag}_{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    for suffix in [".tmp", ".metrics", ".metrics.tmp", ".wal", ".lock"] {
        let _ = std::fs::remove_file(edna_core::workspace::sidecar(p, suffix));
    }
    let _ = std::fs::remove_dir_all(edna_core::workspace::sidecar(p, ".vault"));
}

/// The indexed columns of the three bookkeeping tables.
fn bookkeeping_indexes(db: &Database) -> Vec<Vec<String>> {
    [HISTORY_TABLE, CAPS_TABLE, REQUESTS_TABLE]
        .iter()
        .map(|t| db.index_columns(t).unwrap())
        .collect()
}

fn indexed() -> Vec<Vec<String>> {
    [["id", "userId"], ["id", "disguise_id"], ["id", "idem_key"]]
        .iter()
        .map(|cols| cols.iter().map(|c| c.to_string()).collect())
        .collect()
}

/// The reserved tables exactly as earlier versions created them: no
/// secondary indexes.
const UNINDEXED_STATE: &str = "
    CREATE TABLE _edna_spec_registry (id INT PRIMARY KEY AUTO_INCREMENT, \
        name TEXT NOT NULL UNIQUE, dsl TEXT NOT NULL);
    CREATE TABLE _edna_policy_registry (id INT PRIMARY KEY AUTO_INCREMENT, \
        name TEXT NOT NULL UNIQUE, dsl TEXT NOT NULL, last_run INT);
    CREATE TABLE _edna_disguise_history (id INT PRIMARY KEY AUTO_INCREMENT, \
        name TEXT NOT NULL, userId TEXT, appliedAt INT NOT NULL, reversible BOOL NOT NULL, \
        reverted BOOL NOT NULL DEFAULT FALSE, note TEXT);
    CREATE TABLE _edna_caps (id INT PRIMARY KEY AUTO_INCREMENT, \
        disguise_id INT NOT NULL, cap_hash TEXT NOT NULL);
    CREATE TABLE _edna_requests (id INT PRIMARY KEY AUTO_INCREMENT, \
        idem_key TEXT NOT NULL, reply TEXT NOT NULL);
    INSERT INTO _edna_disguise_history (name, userId, appliedAt, reversible) \
        VALUES ('Gdpr', '7', 1, TRUE);
    INSERT INTO _edna_caps (disguise_id, cap_hash) VALUES (1, 'ab');
    INSERT INTO _edna_requests (idem_key, reply) VALUES ('k1', 'ok');";

#[test]
fn an_unindexed_state_gains_the_bookkeeping_indexes_once() {
    let state = temp_state("upgrade");
    {
        let db = Database::new();
        db.execute_script(UNINDEXED_STATE).unwrap();
        db.save(&state).unwrap();
    }
    let lsn_after_upgrade = {
        let svc = Service::new(Workspace::open(&state, None).unwrap()).unwrap();
        let ws = svc.workspace();
        assert_eq!(bookkeeping_indexes(&ws.db), indexed());
        // The rows written before the upgrade are reachable by probe.
        let event = ws.edna.history().latest("Gdpr", &7.into()).unwrap();
        assert_eq!(event.map(|e| e.id), Some(1));
        ws.db.wal_last_lsn()
    };
    assert!(
        lsn_after_upgrade > 0,
        "the upgrade's CREATE INDEXes are logged"
    );
    // Reopened (the WAL replays the upgrade), nothing is created again.
    let svc = Service::new(Workspace::open(&state, None).unwrap()).unwrap();
    assert_eq!(bookkeeping_indexes(&svc.workspace().db), indexed());
    assert_eq!(svc.workspace().db.wal_last_lsn(), lsn_after_upgrade);
    drop(svc);
    cleanup(&state);
}

#[test]
fn a_replica_of_an_indexed_primary_logs_no_ddl_of_its_own() {
    let primary_state = temp_state("primary");
    let ws = Workspace::init(&primary_state, None).unwrap();
    ws.db
        .execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, x INT)")
        .unwrap();
    let svc = Arc::new(Service::new(ws).unwrap());
    let handle = server::start(Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.sql("INSERT INTO t (x) VALUES (1)").unwrap().ok);

    let replica_state = temp_state("replica");
    let boot = replica::bootstrap(handle.addr(), &replica_state, Duration::from_secs(10)).unwrap();
    let ws = Workspace::open(&replica_state, None).unwrap();
    assert_eq!(ws.db.wal_last_lsn(), boot.last_lsn);
    let replica = Service::new(ws).unwrap();
    assert_eq!(bookkeeping_indexes(&replica.workspace().db), indexed());
    assert_eq!(
        replica.workspace().db.wal_last_lsn(),
        boot.last_lsn,
        "the replica's WAL must hold only frames the primary shipped"
    );
    drop(boot);
    drop(replica);
    drop(client);
    handle.stop_and_wait().unwrap();
    drop(svc);
    cleanup(&primary_state);
    cleanup(&replica_state);
}
