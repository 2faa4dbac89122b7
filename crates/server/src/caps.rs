//! Per-user capability tokens gating reveal.
//!
//! When the server applies a reversible disguise it mints a random
//! 32-byte capability and returns it to the caller — once. Only the
//! SHA-256 of the capability is persisted (in the reserved `_edna_caps`
//! table, so it rides the same WAL/snapshot durability as everything
//! else); the server can *verify* a presented token but never recover
//! one. Revealing over the wire requires presenting the capability
//! minted at apply time, mirroring the decryption-capability design of
//! the paper's external encrypted vaults (§4.2): the service operator
//! alone cannot undo a user's disguise.
//!
//! The CLI, which runs with filesystem access to the state (and the
//! vault passphrase), is trusted and does not go through this gate.

use std::collections::HashMap;

use edna_core::{ensure_index, Error, Result};
use edna_relational::{Database, Value};
use edna_util::{hex, sha256::sha256};

/// Reserved table persisting capability hashes, keyed by disguise id.
pub const CAPS_TABLE: &str = "_edna_caps";

/// Creates the capability table if this state has never served, and its
/// `disguise_id` index if the state predates it.
pub fn ensure_caps_table(db: &Database) -> Result<()> {
    if !db.has_table(CAPS_TABLE) {
        db.execute(&format!(
            "CREATE TABLE {CAPS_TABLE} (id INT PRIMARY KEY AUTO_INCREMENT, \
             disguise_id INT NOT NULL, cap_hash TEXT NOT NULL)"
        ))?;
    }
    ensure_index(db, CAPS_TABLE, "disguise_id")
}

/// Mints a fresh 32-byte capability from the OS entropy pool. Fails
/// closed: a capability is a bearer security token, so on a platform or
/// in a sandbox where `/dev/urandom` is unavailable we refuse to mint
/// rather than degrade to a guessable clock-seeded value.
pub fn mint() -> Result<[u8; 32]> {
    let attempt = || -> std::io::Result<[u8; 32]> {
        use std::io::Read;
        let mut f = std::fs::File::open("/dev/urandom")?;
        let mut buf = [0u8; 32];
        f.read_exact(&mut buf)?;
        Ok(buf)
    };
    attempt().map_err(|e| {
        Error::Workspace(format!(
            "cannot mint a capability: no OS entropy source (/dev/urandom: {e})"
        ))
    })
}

/// Stores the hash of `cap` for `disguise_id` and returns the token's
/// wire form (hex).
pub fn store(db: &Database, disguise_id: u64, cap: &[u8; 32]) -> Result<String> {
    db.insert_row(
        CAPS_TABLE,
        &[
            ("disguise_id", Value::Int(disguise_id as i64)),
            ("cap_hash", Value::Text(hex::to_hex(&sha256(cap)))),
        ],
    )?;
    Ok(hex::to_hex(cap))
}

/// Checks a presented hex capability against the stored hash for
/// `disguise_id`. `Ok(())` means the caller may reveal; the error
/// message distinguishes "never minted" from "wrong token" so operators
/// can tell a CLI-applied disguise from an attack.
pub fn verify(db: &Database, disguise_id: u64, presented_hex: &str) -> Result<()> {
    let Some(presented) = hex::from_hex(presented_hex.trim()) else {
        return Err(Error::Workspace("capability is not valid hex".to_string()));
    };
    let r = db.execute_with_params(
        &format!("SELECT cap_hash FROM {CAPS_TABLE} WHERE disguise_id = $ID"),
        &HashMap::from([("ID".to_string(), Value::Int(disguise_id as i64))]),
    )?;
    let Some(row) = r.rows.first() else {
        return Err(Error::Workspace(format!(
            "no capability registered for disguise {disguise_id}; it was not applied \
             through this server — reveal it with the CLI instead"
        )));
    };
    let stored = row[0].as_text()?;
    if hex::to_hex(&sha256(&presented)) != stored {
        return Err(Error::Workspace(format!(
            "capability does not match disguise {disguise_id}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_store_verify_round_trip() {
        let db = Database::new();
        ensure_caps_table(&db).unwrap();
        let cap = mint().unwrap();
        let token = store(&db, 7, &cap).unwrap();
        assert_eq!(token.len(), 64);
        verify(&db, 7, &token).unwrap();
    }

    #[test]
    fn wrong_or_missing_capability_is_refused() {
        let db = Database::new();
        ensure_caps_table(&db).unwrap();
        let cap = mint().unwrap();
        store(&db, 7, &cap).unwrap();
        // Wrong token for a known disguise.
        let wrong = hex::to_hex(&mint().unwrap());
        let err = verify(&db, 7, &wrong).unwrap_err().to_string();
        assert!(err.contains("does not match"), "got: {err}");
        // Unknown disguise: the error points at the CLI path.
        let err = verify(&db, 8, &wrong).unwrap_err().to_string();
        assert!(err.contains("no capability registered"), "got: {err}");
        // Garbage encoding.
        let err = verify(&db, 7, "zz-not-hex").unwrap_err().to_string();
        assert!(err.contains("not valid hex"), "got: {err}");
    }

    #[test]
    fn verify_probes_the_disguise_id_index() {
        let db = Database::new();
        ensure_caps_table(&db).unwrap();
        ensure_caps_table(&db).unwrap();
        assert_eq!(db.index_columns(CAPS_TABLE).unwrap(), ["id", "disguise_id"]);
        let mut token = String::new();
        for id in 1..=20 {
            token = store(&db, id, &mint().unwrap()).unwrap();
        }
        db.reset_stats();
        verify(&db, 20, &token).unwrap();
        let s = db.stats();
        assert_eq!((s.index_probes, s.table_scans, s.rows_read), (1, 0, 1));
    }

    #[test]
    fn minted_caps_are_distinct() {
        let a = mint().unwrap();
        let b = mint().unwrap();
        assert_ne!(a, b);
    }
}
