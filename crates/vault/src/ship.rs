//! Replication tap for vault-side files.
//!
//! The relational WAL replicates itself frame by frame, but the vault
//! tiers are separate append-only files outside the log. A [`ShipSlot`] is the choke point that lets a
//! replication hub observe every durable mutation of those files — as
//! raw bytes, *below* the encryption layer, so encrypted payloads ship
//! sealed and a follower needs no key material to mirror them.
//!
//! Two event shapes cover every mutation the file backends perform:
//!
//! - [`ShipKind::Append`]: `bytes` were appended to the named file
//!   (entry puts, and the tombstones of removals and expiry purges);
//! - [`ShipKind::Replace`]: the named file now contains exactly `bytes`
//!   (compaction rewrites the log via temp-file + rename; empty `bytes`
//!   means the file was removed).
//!
//! Hooks run synchronously inside the store's lock, after the mutation
//! is durable locally — they must only enqueue, never block.

use std::sync::{Arc, RwLock};

use edna_util::sync::{read_unpoisoned, write_unpoisoned};

/// How a shipped mutation changes the receiving file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipKind {
    /// The bytes are appended to the file.
    Append,
    /// The file is replaced wholesale with the bytes (empty = removed).
    Replace,
}

/// The hook signature: `(kind, file name, bytes)`. The file name is the
/// bare name within the emitting store's directory (e.g.
/// `vault.log`); the installer is expected to wrap the hook with
/// whatever tier prefix it needs.
pub type ShipFn = dyn Fn(ShipKind, &str, &[u8]) + Send + Sync;

/// A shared, late-bindable hook slot. File backends are constructed
/// before any replication hub exists and are then moved behind trait
/// objects, so they hand out a clone of this slot at construction time;
/// installing a hook later reaches the live store through it.
#[derive(Clone, Default)]
pub struct ShipSlot {
    hook: Arc<RwLock<Option<Arc<ShipFn>>>>,
}

impl ShipSlot {
    /// A slot with no hook installed.
    pub fn new() -> ShipSlot {
        ShipSlot::default()
    }

    /// Installs (or with `None` removes) the hook.
    pub fn install(&self, hook: Option<Arc<ShipFn>>) {
        *write_unpoisoned(&self.hook) = hook;
    }

    /// Whether a hook is installed, for emitters that would otherwise
    /// read bytes back only to ship them.
    pub fn is_installed(&self) -> bool {
        read_unpoisoned(&self.hook).is_some()
    }

    /// Emits one mutation to the installed hook, if any.
    pub fn emit(&self, kind: ShipKind, name: &str, bytes: &[u8]) {
        if let Some(h) = read_unpoisoned(&self.hook).as_ref() {
            h(kind, name, bytes);
        }
    }
}

impl std::fmt::Debug for ShipSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipSlot")
            .field("installed", &read_unpoisoned(&self.hook).is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    type SeenLog = Arc<Mutex<Vec<(ShipKind, String, Vec<u8>)>>>;

    #[test]
    fn emit_reaches_installed_hook_and_uninstall_stops_it() {
        let slot = ShipSlot::new();
        let seen: SeenLog = Arc::new(Mutex::new(Vec::new()));
        slot.emit(ShipKind::Append, "quiet", b"dropped"); // no hook yet
        let sink = Arc::clone(&seen);
        slot.install(Some(Arc::new(move |kind, name, bytes: &[u8]| {
            sink.lock()
                .unwrap()
                .push((kind, name.to_string(), bytes.to_vec()));
        })));
        let clone = slot.clone(); // clones share the slot
        clone.emit(ShipKind::Append, "a.bin", b"xy");
        slot.emit(ShipKind::Replace, "b.bin", b"");
        slot.install(None);
        slot.emit(ShipKind::Append, "late", b"dropped");
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            vec![
                (ShipKind::Append, "a.bin".to_string(), b"xy".to_vec()),
                (ShipKind::Replace, "b.bin".to_string(), Vec::new()),
            ]
        );
    }
}
