//! `edna-vault`: secure storage for reveal functions.
//!
//! Vaults (paper §4.2) are "storage locations not accessible to application
//! queries that store reveal functions for applied disguises". This crate
//! provides:
//!
//! - typed vault entries ([`VaultEntry`]) holding [`RevealOp`]s, with a
//!   compact self-contained binary codec;
//! - deployment models as pluggable stores: in-memory (application-
//!   adjacent), file-backed (offline), and a simulated third-party service
//!   with latency and approval gating;
//! - optional encryption at rest (ChaCha20 + HMAC-SHA-256, from scratch)
//!   with 2-of-3 Shamir threshold key escrow among user / application /
//!   third party (footnote 1);
//! - the multi-tier design ([`TieredVault`]): global tier for bulk
//!   disguises, external per-user encrypted tier for user-invoked ones;
//! - entry expiry, making the corresponding disguises irreversible;
//! - robustness plumbing: seedable fault injection ([`FaultPlan`]),
//!   bounded retry with deterministic jitter ([`RetryPolicy`]), and
//!   crash-consistent checksummed record framing with torn-tail recovery
//!   ([`wal`]).
//!
//! # Examples
//!
//! ```
//! use edna_vault::{backend::MemoryStore, RevealOp, Vault, VaultEntry};
//! use edna_relational::Value;
//!
//! let vault = Vault::encrypted(MemoryStore::new(), 42);
//! vault.put(&VaultEntry {
//!     disguise_id: 1,
//!     disguise_name: "GDPR".into(),
//!     user_id: Value::Int(19),
//!     ops: vec![RevealOp::ReinsertRow {
//!         table: "users".into(),
//!         columns: vec!["id".into(), "name".into()],
//!         row: vec![Value::Int(19), Value::Text("Bea".into())],
//!     }],
//!     created_at: 0,
//!     expires_at: None,
//! }).unwrap();
//! assert_eq!(vault.entries_for(&Value::Int(19)).unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod crypto;
pub mod entry;
pub mod error;
pub mod retry;
pub mod serialize;
pub mod shamir;
pub mod ship;
pub mod tiered;
pub mod vault;
pub mod wal;

pub use backend::{
    FaultPlan, FaultyStore, FileStore, MemoryStore, StoreStats, ThirdPartyStore, VaultStore,
    GLOBAL_USER,
};
pub use crypto::VaultKey;
pub use entry::{EntryMeta, RevealOp, StoredEntry, VaultEntry};
pub use error::{Error, ErrorClass, Result};
pub use retry::RetryPolicy;
pub use shamir::{recover, split, Share, ThresholdKey};
pub use ship::{ShipFn, ShipKind, ShipSlot};
pub use tiered::{TieredVault, VaultTier};
pub use vault::Vault;
