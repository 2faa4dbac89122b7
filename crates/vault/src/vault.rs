//! The typed vault façade: reveal-function storage with optional
//! per-user encryption and threshold key escrow.

use std::collections::HashMap;

use edna_util::rng::Prng;
use edna_util::sync::{read_unpoisoned, write_unpoisoned};
use std::sync::{Mutex, RwLock};

use edna_obs::Tracer;
use edna_relational::Value;

use crate::backend::{VaultStore, GLOBAL_USER};
use crate::crypto::{open, seal, VaultKey};
use crate::entry::{StoredEntry, VaultEntry};
use crate::error::{Error, Result};
use crate::shamir::ThresholdKey;

/// How payloads are protected at rest.
enum Protection {
    /// Plaintext payloads — the paper prototype's "(currently unencrypted)
    /// per-user database tables" (§5).
    Plain,
    /// Per-user ChaCha20 + HMAC sealed payloads with 2-of-3 threshold key
    /// escrow among user / application / third party (§4.2, footnote 1).
    Encrypted {
        keys: Mutex<HashMap<String, UserKeys>>,
        rng: Mutex<Prng>,
    },
    /// Per-user keys derived from a passphrase (KDF over passphrase and
    /// user key), so the vault can be reopened across processes (used by
    /// the CLI). No escrow: the passphrase is the root secret.
    Derived {
        passphrase: String,
        rng: Mutex<Prng>,
    },
}

/// Key material tracked per user in an encrypted vault.
struct UserKeys {
    key: VaultKey,
    escrow: ThresholdKey,
}

/// A vault: typed [`VaultEntry`] storage over any [`VaultStore`] backend.
pub struct Vault {
    store: Box<dyn VaultStore>,
    protection: Protection,
    tracer: RwLock<Option<Tracer>>,
}

impl Vault {
    /// Creates an unencrypted vault over `store`.
    pub fn plain(store: impl VaultStore + 'static) -> Vault {
        Vault {
            store: Box::new(store),
            protection: Protection::Plain,
            tracer: RwLock::new(None),
        }
    }

    /// Creates an encrypted vault over `store`; per-user keys are generated
    /// on first use and 2-of-3 escrowed. `seed` makes tests and benches
    /// reproducible.
    pub fn encrypted(store: impl VaultStore + 'static, seed: u64) -> Vault {
        Vault {
            store: Box::new(store),
            protection: Protection::Encrypted {
                keys: Mutex::new(HashMap::new()),
                rng: Mutex::new(Prng::seed_from_u64(seed)),
            },
            tracer: RwLock::new(None),
        }
    }

    /// Creates an encrypted vault whose per-user keys are derived from
    /// `passphrase`, so the same vault can be reopened by a later process
    /// holding the passphrase. `seed` drives the sealing nonces.
    pub fn encrypted_derived(
        store: impl VaultStore + 'static,
        passphrase: &str,
        seed: u64,
    ) -> Vault {
        Vault {
            store: Box::new(store),
            protection: Protection::Derived {
                passphrase: passphrase.to_string(),
                rng: Mutex::new(Prng::seed_from_u64(seed)),
            },
            tracer: RwLock::new(None),
        }
    }

    /// Whether payloads are encrypted at rest.
    pub fn is_encrypted(&self) -> bool {
        matches!(
            self.protection,
            Protection::Encrypted { .. } | Protection::Derived { .. }
        )
    }

    /// Renders a user id as the store key.
    pub fn user_key(user_id: &Value) -> String {
        if user_id.is_null() {
            GLOBAL_USER.to_string()
        } else {
            user_id.to_sql_literal()
        }
    }

    /// Installs (or with `None` removes) a tracer: each stored entry emits
    /// a `vault_put` span, with backend I/O and retry spans nested inside
    /// it (the tracer is forwarded to the store).
    pub fn set_tracer(&self, tracer: Option<Tracer>) {
        self.store.set_tracer(tracer.clone());
        *write_unpoisoned(&self.tracer) = tracer;
    }

    /// Stores the reveal functions for one disguise application.
    pub fn put(&self, entry: &VaultEntry) -> Result<()> {
        let user = Self::user_key(&entry.user_id);
        let mut span = read_unpoisoned(&self.tracer).as_ref().map(|t| {
            let mut g = t.begin("vault_put");
            g.attr("user", user.as_str());
            g.attr("encrypted", self.is_encrypted().to_string());
            g
        });
        let (meta, payload) = entry.encode();
        let payload = self.seal_payload(&user, payload)?;
        let result = self.store.put(&user, StoredEntry { meta, payload });
        if let Some(g) = span.as_mut() {
            g.attr("ok", result.is_ok().to_string());
        }
        result
    }

    /// Stores a batch of entries in one backend round trip
    /// ([`VaultStore::put_many`]): payloads are sealed up front, then the
    /// store amortizes its per-call overhead across the whole batch. Not
    /// atomic — on error a prefix may already be stored (callers that
    /// retry should dedup, as `edna-core`'s `apply_many` fallback does).
    pub fn put_all(&self, entries: &[VaultEntry]) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut span = read_unpoisoned(&self.tracer).as_ref().map(|t| {
            let mut g = t.begin("vault_put_batch");
            g.attr("entries", entries.len().to_string());
            g.attr("encrypted", self.is_encrypted().to_string());
            g
        });
        let mut items = Vec::with_capacity(entries.len());
        for entry in entries {
            let user = Self::user_key(&entry.user_id);
            let (meta, payload) = entry.encode();
            let payload = self.seal_payload(&user, payload)?;
            items.push((user, StoredEntry { meta, payload }));
        }
        let result = self.store.put_many(items);
        if let Some(g) = span.as_mut() {
            g.attr("ok", result.is_ok().to_string());
        }
        result
    }

    /// Seals `payload` for `user` per the vault's protection mode.
    fn seal_payload(&self, user: &str, payload: Vec<u8>) -> Result<Vec<u8>> {
        match &self.protection {
            Protection::Plain => Ok(payload),
            Protection::Encrypted { keys, rng } => {
                let mut rng = rng.lock().unwrap();
                let mut keys = keys.lock().unwrap();
                let uk = match keys.get(user) {
                    Some(uk) => uk,
                    None => {
                        let key = VaultKey::generate(&mut *rng);
                        let escrow = ThresholdKey::split_key(key.as_bytes(), &mut *rng)?;
                        keys.insert(user.to_string(), UserKeys { key, escrow });
                        keys.get(user).expect("just inserted")
                    }
                };
                Ok(seal(&uk.key, &payload, &mut *rng))
            }
            Protection::Derived { passphrase, rng } => {
                let key = VaultKey::derive(passphrase, user.as_bytes());
                let mut rng = rng.lock().unwrap();
                Ok(seal(&key, &payload, &mut *rng))
            }
        }
    }

    /// All decoded entries for `user_id`, oldest first.
    pub fn entries_for(&self, user_id: &Value) -> Result<Vec<VaultEntry>> {
        let user = Self::user_key(user_id);
        let stored = self.store.list(&user)?;
        stored.into_iter().map(|s| self.decode(&user, s)).collect()
    }

    /// The decoded entries for one `(user, disguise_id)` application.
    pub fn entries_for_disguise(
        &self,
        user_id: &Value,
        disguise_id: u64,
    ) -> Result<Vec<VaultEntry>> {
        Ok(self
            .entries_for(user_id)?
            .into_iter()
            .filter(|e| e.disguise_id == disguise_id)
            .collect())
    }

    /// All user store-keys with entries (including [`GLOBAL_USER`]).
    pub fn users(&self) -> Result<Vec<String>> {
        self.store.users()
    }

    /// Removes all entries for `(user, disguise_id)`; returns how many.
    pub fn remove(&self, user_id: &Value, disguise_id: u64) -> Result<usize> {
        self.store.remove(&Self::user_key(user_id), disguise_id)
    }

    /// Purges expired entries; the corresponding disguises become
    /// irreversible (paper §4.2).
    pub fn purge_expired(&self, now: i64) -> Result<usize> {
        self.store.purge_expired(now)
    }

    /// Reclaims the space of removed and purged entries (see
    /// [`VaultStore::compact`]); returns whether anything was reclaimed.
    pub fn compact(&self) -> Result<bool> {
        self.store.compact()
    }

    /// Total stored entries.
    pub fn entry_count(&self) -> Result<usize> {
        self.store.entry_count()
    }

    /// Total bytes at rest (metadata + possibly-sealed payloads).
    pub fn storage_bytes(&self) -> Result<usize> {
        self.store.storage_bytes()
    }

    /// The backend's operational counters (retries, crash recovery).
    pub fn store_stats(&self) -> crate::backend::StoreStats {
        self.store.stats()
    }

    /// For encrypted vaults: the user's escrow share (handed to the user or
    /// their cloud storage; the vault forgets nothing else about it).
    pub fn user_escrow_share(&self, user_id: &Value) -> Result<crate::shamir::Share> {
        match &self.protection {
            Protection::Plain | Protection::Derived { .. } => {
                Err(Error::Crypto("vault has no escrowed keys".to_string()))
            }
            Protection::Encrypted { keys, .. } => {
                let user = Self::user_key(user_id);
                keys.lock()
                    .unwrap()
                    .get(&user)
                    .map(|uk| uk.escrow.user_share.clone())
                    .ok_or(Error::NoKey(user))
            }
        }
    }

    /// Simulates key-loss recovery: reconstructs the user's vault key from
    /// the application share and the third-party share (footnote 1's
    /// authorization flow), returning it for verification.
    pub fn recover_key_via_escrow(&self, user_id: &Value) -> Result<VaultKey> {
        match &self.protection {
            Protection::Plain | Protection::Derived { .. } => {
                Err(Error::Crypto("vault has no escrowed keys".to_string()))
            }
            Protection::Encrypted { keys, .. } => {
                let user = Self::user_key(user_id);
                let keys = keys.lock().unwrap();
                let uk = keys.get(&user).ok_or(Error::NoKey(user))?;
                let bytes =
                    ThresholdKey::recover_key(&uk.escrow.app_share, &uk.escrow.third_party_share)?;
                let arr: [u8; 32] = bytes
                    .try_into()
                    .map_err(|_| Error::Crypto("recovered key has wrong length".to_string()))?;
                Ok(VaultKey::from_bytes(arr))
            }
        }
    }

    fn decode(&self, user: &str, stored: StoredEntry) -> Result<VaultEntry> {
        let payload = match &self.protection {
            Protection::Plain => stored.payload,
            Protection::Encrypted { keys, .. } => {
                let keys = keys.lock().unwrap();
                let uk = keys
                    .get(user)
                    .ok_or_else(|| Error::NoKey(user.to_string()))?;
                open(&uk.key, &stored.payload)?
            }
            Protection::Derived { passphrase, .. } => {
                let key = VaultKey::derive(passphrase, user.as_bytes());
                open(&key, &stored.payload)?
            }
        };
        VaultEntry::decode(&stored.meta, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryStore;
    use crate::entry::RevealOp;

    fn entry(user: i64, disguise_id: u64) -> VaultEntry {
        VaultEntry {
            disguise_id,
            disguise_name: "GDPR".to_string(),
            user_id: Value::Int(user),
            ops: vec![RevealOp::ReinsertRow {
                table: "users".to_string(),
                columns: vec!["id".to_string(), "name".to_string()],
                row: vec![Value::Int(user), Value::Text("bea".into())],
            }],
            created_at: 10,
            expires_at: None,
        }
    }

    #[test]
    fn plain_round_trip() {
        let v = Vault::plain(MemoryStore::new());
        v.put(&entry(19, 1)).unwrap();
        v.put(&entry(19, 2)).unwrap();
        let got = v.entries_for(&Value::Int(19)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], entry(19, 1));
        assert_eq!(v.entries_for_disguise(&Value::Int(19), 2).unwrap().len(), 1);
    }

    #[test]
    fn encrypted_round_trip_and_at_rest_opacity() {
        let store = MemoryStore::new();
        // Keep a peek handle at the raw store via listing after the fact:
        // encode what we expect and ensure the stored payload differs.
        let v = Vault::encrypted(store, 7);
        let e = entry(19, 1);
        v.put(&e).unwrap();
        let got = v.entries_for(&Value::Int(19)).unwrap();
        assert_eq!(got, vec![e.clone()]);
        // The sealed payload at rest must not contain the plaintext name.
        let raw = v.store.list("19").unwrap();
        let (_, plain_payload) = e.encode();
        assert_ne!(raw[0].payload, plain_payload);
        assert!(raw[0].payload.len() > plain_payload.len());
    }

    #[test]
    fn put_all_round_trips_under_encryption() {
        let v = Vault::encrypted(MemoryStore::new(), 7);
        let batch = vec![entry(19, 1), entry(23, 2), entry(19, 3)];
        v.put_all(&batch).unwrap();
        assert_eq!(
            v.entries_for(&Value::Int(19)).unwrap(),
            vec![entry(19, 1), entry(19, 3)]
        );
        assert_eq!(v.entries_for(&Value::Int(23)).unwrap(), vec![entry(23, 2)]);
        // The batch path seals like the single path: payloads are opaque.
        let raw = v.store.list("23").unwrap();
        let (_, plain) = entry(23, 2).encode();
        assert_ne!(raw[0].payload, plain);
    }

    #[test]
    fn escrow_recovers_the_key() {
        let v = Vault::encrypted(MemoryStore::new(), 9);
        v.put(&entry(19, 1)).unwrap();
        let share = v.user_escrow_share(&Value::Int(19)).unwrap();
        assert!(!share.data.is_empty());
        let recovered = v.recover_key_via_escrow(&Value::Int(19)).unwrap();
        // The recovered key decrypts the stored entry.
        let raw = v.store.list("19").unwrap();
        let plain = crate::crypto::open(&recovered, &raw[0].payload).unwrap();
        let decoded = VaultEntry::decode(&raw[0].meta, &plain).unwrap();
        assert_eq!(decoded, entry(19, 1));
    }

    #[test]
    fn global_scope_uses_reserved_key() {
        let v = Vault::plain(MemoryStore::new());
        let mut e = entry(0, 5);
        e.user_id = Value::Null;
        v.put(&e).unwrap();
        assert_eq!(v.users().unwrap(), vec![GLOBAL_USER.to_string()]);
        assert_eq!(v.entries_for(&Value::Null).unwrap().len(), 1);
    }

    #[test]
    fn expiry_makes_disguise_irreversible() {
        let v = Vault::plain(MemoryStore::new());
        let mut e = entry(19, 1);
        e.expires_at = Some(100);
        v.put(&e).unwrap();
        assert_eq!(v.purge_expired(99).unwrap(), 0);
        assert_eq!(v.purge_expired(100).unwrap(), 1);
        assert!(v
            .entries_for_disguise(&Value::Int(19), 1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn derived_vault_reopens_across_instances() {
        use crate::backend::FileStore;
        let dir = std::env::temp_dir().join(format!("edna_vault_derived_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let v = Vault::encrypted_derived(FileStore::open(&dir).unwrap(), "hunter2", 1);
            v.put(&entry(19, 1)).unwrap();
        }
        // A fresh instance with the same passphrase decrypts.
        let v2 = Vault::encrypted_derived(FileStore::open(&dir).unwrap(), "hunter2", 2);
        assert_eq!(v2.entries_for(&Value::Int(19)).unwrap(), vec![entry(19, 1)]);
        // The wrong passphrase fails.
        let bad = Vault::encrypted_derived(FileStore::open(&dir).unwrap(), "wrong", 3);
        assert!(bad.entries_for(&Value::Int(19)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plain_vault_has_no_escrow() {
        let v = Vault::plain(MemoryStore::new());
        assert!(v.user_escrow_share(&Value::Int(1)).is_err());
        assert!(v.recover_key_via_escrow(&Value::Int(1)).is_err());
        assert!(!v.is_encrypted());
    }
}
