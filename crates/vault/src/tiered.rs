//! Multi-tier vault manager.
//!
//! Paper §4.2: "An alternative might be to provide multi-tier security:
//! the first tier stores reveal functions of non-GDPR disguises in a global
//! vault accessible to the disguising tool and application, while the
//! second tier stores reveal functions from user-invoked disguises in
//! external, per-user encrypted vaults."

use edna_relational::Value;

use crate::entry::VaultEntry;
use crate::error::Result;
use crate::vault::Vault;

/// Which tier an entry is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VaultTier {
    /// Tier 1: application-accessible global vault (non-GDPR,
    /// bulk/automatic disguises such as `ConfAnon` or decay).
    Global,
    /// Tier 2: external per-user vault (user-invoked disguises such as
    /// GDPR account deletion — compliance requires external storage).
    PerUser,
}

/// A two-tier vault: routes entries by [`VaultTier`] and reads across both.
pub struct TieredVault {
    global: Vault,
    per_user: Vault,
}

impl TieredVault {
    /// Builds a tiered vault from a tier-1 (global) and tier-2 (per-user)
    /// vault. The per-user tier should normally be encrypted.
    pub fn new(global: Vault, per_user: Vault) -> TieredVault {
        TieredVault { global, per_user }
    }

    /// Stores `entry` in the given tier.
    pub fn put(&self, tier: VaultTier, entry: &VaultEntry) -> Result<()> {
        self.tier(tier).put(entry)
    }

    /// Stores a batch of entries in the given tier with one backend round
    /// trip (see [`Vault::put_all`]). Not atomic on error.
    pub fn put_all(&self, tier: VaultTier, entries: &[VaultEntry]) -> Result<()> {
        self.tier(tier).put_all(entries)
    }

    /// Entries for `user_id` across both tiers, oldest first.
    pub fn entries_for(&self, user_id: &Value) -> Result<Vec<VaultEntry>> {
        let mut out = self.global.entries_for(user_id)?;
        out.extend(self.per_user.entries_for(user_id)?);
        out.sort_by_key(|e| (e.created_at, e.disguise_id));
        Ok(out)
    }

    /// Entries for one `(user, disguise_id)` across both tiers.
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

    /// Removes `(user, disguise_id)` entries from both tiers.
    pub fn remove(&self, user_id: &Value, disguise_id: u64) -> Result<usize> {
        Ok(self.global.remove(user_id, disguise_id)?
            + self.per_user.remove(user_id, disguise_id)?)
    }

    /// Purges expired entries from both tiers.
    pub fn purge_expired(&self, now: i64) -> Result<usize> {
        Ok(self.global.purge_expired(now)? + self.per_user.purge_expired(now)?)
    }

    /// Compacts both tiers (see [`Vault::compact`]).
    pub fn compact(&self) -> Result<()> {
        self.global.compact()?;
        self.per_user.compact()?;
        Ok(())
    }

    /// Total bytes at rest across both tiers.
    pub fn storage_bytes(&self) -> Result<usize> {
        Ok(self.global.storage_bytes()? + self.per_user.storage_bytes()?)
    }

    /// Backend operational counters summed across both tiers.
    pub fn store_stats(&self) -> crate::backend::StoreStats {
        self.global.store_stats().merge(self.per_user.store_stats())
    }

    /// Installs (or with `None` removes) a tracer on both tiers; see
    /// [`Vault::set_tracer`].
    pub fn set_tracer(&self, tracer: Option<edna_obs::Tracer>) {
        self.global.set_tracer(tracer.clone());
        self.per_user.set_tracer(tracer);
    }

    /// Direct access to one tier.
    pub fn tier(&self, tier: VaultTier) -> &Vault {
        match tier {
            VaultTier::Global => &self.global,
            VaultTier::PerUser => &self.per_user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryStore;
    use crate::entry::RevealOp;

    fn entry(id: u64, created_at: i64) -> VaultEntry {
        VaultEntry {
            disguise_id: id,
            disguise_name: format!("d{id}"),
            user_id: Value::Int(19),
            ops: vec![RevealOp::RemovePlaceholder {
                table: "t".to_string(),
                pk_column: "id".to_string(),
                pk: Value::Int(1),
            }],
            created_at,
            expires_at: None,
        }
    }

    fn tiered() -> TieredVault {
        TieredVault::new(
            Vault::plain(MemoryStore::new()),
            Vault::encrypted(MemoryStore::new(), 3),
        )
    }

    #[test]
    fn routes_by_tier_and_merges_reads() {
        let tv = tiered();
        tv.put(VaultTier::Global, &entry(1, 100)).unwrap();
        tv.put(VaultTier::PerUser, &entry(2, 50)).unwrap();
        let all = tv.entries_for(&Value::Int(19)).unwrap();
        // Merged and sorted by creation time.
        assert_eq!(
            all.iter().map(|e| e.disguise_id).collect::<Vec<_>>(),
            vec![2, 1]
        );
        assert_eq!(tv.tier(VaultTier::Global).entry_count().unwrap(), 1);
        assert_eq!(tv.tier(VaultTier::PerUser).entry_count().unwrap(), 1);
    }

    #[test]
    fn remove_spans_tiers() {
        let tv = tiered();
        tv.put(VaultTier::Global, &entry(1, 1)).unwrap();
        tv.put(VaultTier::PerUser, &entry(1, 2)).unwrap();
        assert_eq!(tv.remove(&Value::Int(19), 1).unwrap(), 2);
        assert!(tv.entries_for(&Value::Int(19)).unwrap().is_empty());
    }

    #[test]
    fn per_user_tier_is_encrypted() {
        let tv = tiered();
        assert!(!tv.tier(VaultTier::Global).is_encrypted());
        assert!(tv.tier(VaultTier::PerUser).is_encrypted());
    }
}
