//! Vault storage backends.
//!
//! The paper (§4.2) sketches several vault deployment models: application-
//! adjacent storage, offline storage, and third-party/user-held storage.
//! Each maps to a [`VaultStore`] implementation here:
//!
//! - [`MemoryStore`] — application-adjacent tables (what the prototype uses);
//! - [`FileStore`] — offline storage: one append-only log file per
//!   store, under a filesystem path;
//! - [`ThirdPartyStore`] — a latency-injecting wrapper simulating a remote
//!   third-party vault service;
//! - [`FaultyStore`] — a fault-injecting wrapper driven by a seedable
//!   [`FaultPlan`], for robustness testing.
//!
//! Encryption is orthogonal: it is applied by [`crate::Vault`] before the
//! payload reaches a store, so every deployment model can be encrypted.

pub mod fault;
pub mod file;
pub mod memory;
pub mod thirdparty;

pub use fault::{FaultPlan, FaultyStore};
pub use file::FileStore;
pub use memory::MemoryStore;
pub use thirdparty::ThirdPartyStore;

use crate::entry::StoredEntry;
use crate::error::{Error, Result};

/// Operational counters a store accumulates over its lifetime, exposed so
/// callers can observe retries and crash recovery (tests assert on them,
/// and `edna-core` surfaces the retry count in its disguise reports).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Operations re-attempted by a retry policy (excludes first tries).
    pub retries: u64,
    /// Complete records salvaged while truncating a torn tail.
    pub recovered_records: u64,
    /// Bytes of torn tail discarded during open-time recovery.
    pub truncated_bytes: u64,
}

impl StoreStats {
    /// Element-wise sum of two counters (for aggregating across tiers).
    pub fn merge(self, other: StoreStats) -> StoreStats {
        StoreStats {
            retries: self.retries + other.retries,
            recovered_records: self.recovered_records + other.recovered_records,
            truncated_bytes: self.truncated_bytes + other.truncated_bytes,
        }
    }
}

/// Storage interface for opaque vault entries, keyed by user.
///
/// The `user` key is the SQL-literal rendering of the user id, or
/// [`GLOBAL_USER`] for global (cross-user) vault entries.
pub trait VaultStore: Send + Sync {
    /// Appends an entry to `user`'s vault.
    fn put(&self, user: &str, entry: StoredEntry) -> Result<()>;

    /// Appends a batch of entries, each to its user's vault. Stores that
    /// can amortize per-call overhead (locks, file opens) override this;
    /// the default just loops [`VaultStore::put`]. Not atomic: on error a
    /// prefix of the batch may already be stored, so callers that retry
    /// must dedup (see `edna-core`'s per-entry `apply_many` fallback).
    fn put_many(&self, items: Vec<(String, StoredEntry)>) -> Result<()> {
        for (user, entry) in items {
            self.put(&user, entry)?;
        }
        Ok(())
    }

    /// All entries in `user`'s vault, oldest first.
    fn list(&self, user: &str) -> Result<Vec<StoredEntry>>;

    /// All user keys with at least one entry.
    fn users(&self) -> Result<Vec<String>>;

    /// Removes all entries for `(user, disguise_id)`; returns how many.
    fn remove(&self, user: &str, disguise_id: u64) -> Result<usize>;

    /// Drops every entry whose expiry has passed; returns how many. Expired
    /// entries make their disguises irreversible (paper §4.2).
    fn purge_expired(&self, now: i64) -> Result<usize>;

    /// Total number of stored entries (for tests and benches).
    fn entry_count(&self) -> Result<usize>;

    /// Total bytes at rest across all entries (metadata + payload). The
    /// default sums over [`VaultStore::users`] and [`VaultStore::list`].
    fn storage_bytes(&self) -> Result<usize> {
        let mut total = 0;
        for user in self.users()? {
            for e in self.list(&user)? {
                total += e.meta.encode().len() + e.payload.len();
            }
        }
        Ok(total)
    }

    /// Reclaims the space removed and purged entries still take up;
    /// returns whether anything was reclaimed. Stores that drop entries
    /// in place (the default) have nothing to do.
    fn compact(&self) -> Result<bool> {
        Ok(false)
    }

    /// Persists only `keep` (a fraction in `0.0..1.0`) of the encoded
    /// record, then reports success — simulating a crash mid-write. Used
    /// by [`FaultyStore`] to exercise crash recovery; only durable stores
    /// can model it, so the default declines.
    fn put_torn(&self, _user: &str, _entry: StoredEntry, _keep: f64) -> Result<()> {
        Err(Error::Unavailable(
            "this backend cannot model torn writes".to_string(),
        ))
    }

    /// Operational counters (retries, crash recovery). Stores without any
    /// report zeros.
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Installs (or with `None` removes) a tracer; stores that support it
    /// emit one span per backend request. The default ignores the tracer
    /// (in-memory stores have nothing worth timing).
    fn set_tracer(&self, _tracer: Option<edna_obs::Tracer>) {}
}

/// The reserved user key for the global vault scope.
pub const GLOBAL_USER: &str = "__global__";
