//! Poison-tolerant lock acquisition.
//!
//! `std::sync` locks are poisoned when a holder panics. For the
//! structures guarded across this workspace — statement/plan caches, RNG
//! state, vault files, span buffers — the guarded data stays structurally
//! valid across a panic (no multi-step invariants are held mid-panic), so
//! propagating the poison would turn one failed statement into a
//! permanently wedged engine. These helpers recover the guard instead.
//!
//! Callers that *do* hold multi-step invariants (e.g. the relational
//! engine's table state mid-write) must repair their own invariants after
//! recovery rather than use these helpers blindly.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a previous writer panicked.
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a previous holder panicked.
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_recovers_after_panic() {
        let m = Mutex::new(5);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 5);
    }

    #[test]
    fn rwlock_recovers_after_panic() {
        let l = RwLock::new(7);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = l.write().unwrap();
            panic!("poison it");
        }));
        assert!(l.is_poisoned());
        assert_eq!(*read_unpoisoned(&l), 7);
        *write_unpoisoned(&l) += 1;
        assert_eq!(*read_unpoisoned(&l), 8);
    }
}
