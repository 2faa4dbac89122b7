//! Fixed-point exploration of disguise interleavings.
//!
//! The workspace's registered disguises (plus the disguises policies
//! schedule — expiration targets and decay stages are registered specs
//! too) can be applied in any order. [`explore`] enumerates every
//! application order for one abstract user (each spec at most once —
//! re-applying a spec to already-disguised rows realizes no new effects,
//! the same reason no-op applications are pruned below) over the
//! abstract state, and for **every reachable world** checks that the
//! disguised state can be *walked back*:
//!
//! - a reversible application is revealed by consuming its vault entry,
//!   which reinserts the rows it removed — they come back only while the
//!   parent rows they reference still exist (reveal.rs checks references
//!   at commit, after re-applying later disguises: a dangling one fails
//!   the reveal, or a later `Remove` takes the rows away again);
//! - revealing is attempted newest-first (LIFO) and re-attempted to a
//!   fixed point, since one reveal can bring back the parents another
//!   needs;
//! - an application that can never be revealed in any continuation is a
//!   **stuck reveal**: its vault entries are orphaned (no reveal can
//!   bring their rows back) and the data it removed can never return to
//!   `Present`, despite the spec promising reversibility.
//!
//! With one abstract user, the search never applies one user-scoped spec
//! to two users whose rows a foreign key links (one user's account
//! referencing another's, say), nor counts self-references as reinsert
//! dependencies, so it can miss a stuck reveal between users.
//!
//! A second, stricter pass treats `expires_after` specs as irreversible
//! (their entries vanish on expiry — `purge_expired` really deletes
//! them), surfacing reveals that only work *before* some other
//! disguise's vault expires.
//!
//! The search is bounded by `world_cap`; hitting the bound sets
//! [`Exploration::truncated`] so the audit can say so out loud rather
//! than silently under-approximate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::lattice::{CellId, CellState};
use super::transfer::{ColOp, Effect, SpecTransfer};

/// A reversible application whose reveal is permanently blocked in some
/// interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckReveal {
    /// The spec whose reveal is blocked.
    pub app: String,
    /// The spec that removed the rows the reveal needs.
    pub blocker: String,
    /// The table `app` removed rows from and can no longer reinsert.
    pub table: String,
    /// The missing parent table those reinsertions reference.
    pub parent: String,
    /// The application order that produces the block (spec names).
    pub trail: Vec<String>,
    /// `false`: blocked outright. `true`: blocked only once the
    /// blocker's `expires_after` vault entries lapse.
    pub only_if_expired: bool,
}

/// The result of exploring every interleaving.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Stuck reveals, deduplicated by (app, blocker, table, parent,
    /// expiry-flag) keeping the shortest witness trail.
    pub stuck: Vec<StuckReveal>,
    /// The join over all reachable worlds of every touched cell — the
    /// lattice summary of what the disguise graph can do to each
    /// `(table, column)`.
    pub summary: BTreeMap<CellId, CellState>,
    /// How many worlds were visited.
    pub worlds: usize,
    /// Whether the search hit `world_cap` before completing.
    pub truncated: bool,
}

/// One applied spec inside a world.
#[derive(Debug, Clone)]
struct Applied {
    /// Index into the transfer list.
    t: usize,
    /// Tables whose rows this application actually removed (a `Remove`
    /// over already-removed rows realizes nothing).
    realized_removes: Vec<String>,
    /// Whether apply.rs would have written a vault entry: reversible
    /// and at least one op recorded.
    wrote_vault: bool,
}

/// One reachable abstract state.
#[derive(Debug, Clone, Default)]
struct World {
    /// table → position in `apps` of the application that removed it.
    removed: BTreeMap<String, usize>,
    /// Column cell states (row cells live in `removed`).
    cols: BTreeMap<CellId, CellState>,
    /// Applications in order.
    apps: Vec<Applied>,
}

impl World {
    /// Applies `transfers[t]`, returning the successor world and
    /// whether anything realized.
    fn apply(&self, transfers: &[SpecTransfer], t: usize) -> (World, bool) {
        let mut next = self.clone();
        let tr = &transfers[t];
        let invertible = tr.reversible && !tr.expiring;
        let pos = next.apps.len();
        let mut removes = Vec::new();
        let mut writes = 0usize;
        for effect in &tr.effects {
            match effect {
                Effect::RemoveRows { table, .. } => {
                    if !next.removed.contains_key(table) {
                        next.removed.insert(table.clone(), pos);
                        removes.push(table.clone());
                    }
                }
                Effect::WriteCol { table, column, op } => {
                    if next.removed.contains_key(table) {
                        continue; // rows gone: the predicate matches nothing
                    }
                    writes += 1;
                    let id = CellId::col(table, column);
                    let prior = next.cols.get(&id).copied().unwrap_or(CellState::Present);
                    let inv = prior.recoverable() && invertible;
                    let state = match op {
                        ColOp::Modify => CellState::Modified { invertible: inv },
                        ColOp::Decorrelate { .. } => CellState::Decorrelated { invertible: inv },
                    };
                    next.cols.insert(id, state);
                }
            }
        }
        let realized = !removes.is_empty() || writes > 0;
        next.apps.push(Applied {
            t,
            realized_removes: removes,
            wrote_vault: tr.reversible && realized,
        });
        (next, realized)
    }

    /// Joins this world's cells into `summary`.
    fn summarize(&self, transfers: &[SpecTransfer], summary: &mut BTreeMap<CellId, CellState>) {
        for (table, pos) in &self.removed {
            let tr = &transfers[self.apps[*pos].t];
            let state = CellState::Removed {
                vaulted: tr.reversible && !tr.expiring,
            };
            let id = CellId::rows(table);
            let joined = summary.get(&id).copied().unwrap_or(CellState::Bottom);
            summary.insert(id, joined.join(state));
        }
        for (id, state) in &self.cols {
            let joined = summary.get(id).copied().unwrap_or(CellState::Bottom);
            summary.insert(id.clone(), joined.join(*state));
        }
    }

    /// Attempts to reveal every vaulted application, newest-first, to a
    /// fixed point. Returns the positions that can never be revealed.
    fn walk_back(&self, transfers: &[SpecTransfer], strict_expiry: bool) -> Vec<usize> {
        let revealable = |pos: usize| {
            let app = &self.apps[pos];
            app.wrote_vault && !(strict_expiry && transfers[app.t].expiring)
        };
        let mut remaining: BTreeSet<usize> =
            (0..self.apps.len()).filter(|&p| revealable(p)).collect();
        let mut removed_now = self.removed.clone();
        loop {
            let mut progressed = false;
            for pos in remaining.clone().into_iter().rev() {
                let app = &self.apps[pos];
                let enabled = app.realized_removes.iter().all(|t| {
                    reinsert_parents(&transfers[app.t], t).iter().all(|p| {
                        match removed_now.get(p.as_str()) {
                            None => true,
                            Some(owner) => *owner == pos,
                        }
                    })
                });
                if enabled {
                    remaining.remove(&pos);
                    for t in &app.realized_removes {
                        removed_now.remove(t);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        remaining.into_iter().collect()
    }

    /// A human-readable witness for why `pos` is stuck: the first
    /// removed table whose parent is still missing, with the blocker.
    fn witness(
        &self,
        transfers: &[SpecTransfer],
        pos: usize,
        stuck: &[usize],
    ) -> Option<(String, String, usize)> {
        let still_removed = |table: &str| -> Option<usize> {
            let owner = *self.removed.get(table)?;
            let tr = &transfers[self.apps[owner].t];
            // The parent stays missing if its remover can never reveal:
            // irreversible, no vault entry, or itself stuck.
            if !self.apps[owner].wrote_vault || stuck.contains(&owner) || tr.expiring {
                Some(owner)
            } else {
                None
            }
        };
        let app = &self.apps[pos];
        for t in &app.realized_removes {
            for p in reinsert_parents(&transfers[app.t], t) {
                if let Some(owner) = still_removed(p) {
                    if owner != pos {
                        return Some((t.clone(), p.clone(), owner));
                    }
                }
            }
        }
        None
    }
}

/// The reinsert dependencies the transfer recorded for `table`.
fn reinsert_parents<'a>(tr: &'a SpecTransfer, table: &str) -> &'a [String] {
    for e in &tr.effects {
        if let Effect::RemoveRows {
            table: t,
            reinsert_parents,
        } = e
        {
            if t == table {
                return reinsert_parents;
            }
        }
    }
    &[]
}

/// Explores every interleaving of `transfers` (breadth-first, so stuck
/// witnesses are minimal), bounded by `world_cap` visited worlds.
pub fn explore(transfers: &[SpecTransfer], world_cap: usize) -> Exploration {
    let mut out = Exploration::default();
    let any_expiring = transfers.iter().any(|t| t.expiring);
    // Dedup key → whether a witness was already recorded.
    let mut seen: BTreeSet<(String, String, String, String, bool)> = BTreeSet::new();
    let mut queue: VecDeque<World> = VecDeque::new();
    queue.push_back(World::default());
    while let Some(world) = queue.pop_front() {
        out.worlds += 1;
        if out.worlds > world_cap {
            out.truncated = true;
            break;
        }
        world.summarize(transfers, &mut out.summary);
        let stuck_now = world.walk_back(transfers, false);
        let stuck_expired = if any_expiring {
            world.walk_back(transfers, true)
        } else {
            Vec::new()
        };
        for (positions, only_if_expired) in [(&stuck_now, false), (&stuck_expired, true)] {
            for &pos in positions {
                if only_if_expired {
                    // Only report the *new* casualties of expiry, and not
                    // the expiring app itself (its own mortality is the
                    // spec author's explicit choice).
                    if stuck_now.contains(&pos) || transfers[world.apps[pos].t].expiring {
                        continue;
                    }
                }
                let Some((table, parent, owner)) = world.witness(transfers, pos, positions) else {
                    continue;
                };
                let app = transfers[world.apps[pos].t].name.clone();
                let blocker = transfers[world.apps[owner].t].name.clone();
                let key = (
                    app.clone(),
                    blocker.clone(),
                    table.clone(),
                    parent.clone(),
                    only_if_expired,
                );
                if seen.insert(key) {
                    out.stuck.push(StuckReveal {
                        app,
                        blocker,
                        table,
                        parent,
                        trail: world
                            .apps
                            .iter()
                            .map(|a| transfers[a.t].name.clone())
                            .collect(),
                        only_if_expired,
                    });
                }
            }
        }
        // Successors: each not-yet-applied spec. Applications that
        // realize nothing are pruned — the successor world is
        // behaviorally identical to this one, which we already explore.
        let used: BTreeSet<usize> = world.apps.iter().map(|a| a.t).collect();
        for t in 0..transfers.len() {
            if used.contains(&t) {
                continue;
            }
            let (next, realized) = world.apply(transfers, t);
            if realized {
                queue.push_back(next);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::transfer::derive;
    use crate::spec::DisguiseSpecBuilder;
    use edna_relational::Database;

    fn db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
            .unwrap();
        db.execute(
            "CREATE TABLE comments (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id))",
        )
        .unwrap();
        db
    }

    fn transfers(db: &Database, specs: &[crate::spec::DisguiseSpec]) -> Vec<SpecTransfer> {
        specs.iter().map(|s| derive(s, db)).collect()
    }

    #[test]
    fn all_reversible_interleavings_walk_back() {
        let db = db();
        let a = DisguiseSpecBuilder::new("A")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .build()
            .unwrap();
        let b = DisguiseSpecBuilder::new("B")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .remove("users", Some("id = $UID"))
            .build()
            .unwrap();
        let r = explore(&transfers(&db, &[a, b]), 10_000);
        assert!(r.stuck.is_empty(), "{:?}", r.stuck);
        assert!(!r.truncated);
        assert_eq!(
            r.summary.get(&CellId::rows("users")),
            Some(&CellState::Removed { vaulted: true })
        );
    }

    #[test]
    fn irreversible_parent_purge_strands_a_reversible_reveal() {
        let db = db();
        let keep = DisguiseSpecBuilder::new("Shelf")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .build()
            .unwrap();
        let purge = DisguiseSpecBuilder::new("Purge")
            .user_scoped()
            .irreversible()
            .remove("comments", Some("user_id = $UID"))
            .remove("users", Some("id = $UID"))
            .build()
            .unwrap();
        let r = explore(&transfers(&db, &[keep, purge]), 10_000);
        let stuck: Vec<_> = r.stuck.iter().filter(|s| !s.only_if_expired).collect();
        assert_eq!(stuck.len(), 1, "{:?}", r.stuck);
        let s = stuck[0];
        assert_eq!(s.app, "Shelf");
        assert_eq!(s.blocker, "Purge");
        assert_eq!(s.table, "comments");
        assert_eq!(s.parent, "users");
        assert_eq!(s.trail, vec!["Shelf".to_string(), "Purge".to_string()]);
        // The summary records that users rows are unrecoverable in some
        // interleaving.
        assert_eq!(
            r.summary.get(&CellId::rows("users")),
            Some(&CellState::Removed { vaulted: false })
        );
    }

    #[test]
    fn expiring_parent_remover_is_flagged_conditionally() {
        let db = db();
        let keep = DisguiseSpecBuilder::new("Shelf")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .build()
            .unwrap();
        let fading = DisguiseSpecBuilder::new("Fading")
            .user_scoped()
            .expires_after(3600)
            .remove("comments", Some("user_id = $UID"))
            .remove("users", Some("id = $UID"))
            .build()
            .unwrap();
        let r = explore(&transfers(&db, &[keep, fading]), 10_000);
        assert!(
            r.stuck.iter().all(|s| s.only_if_expired),
            "while entries live, everything reveals: {:?}",
            r.stuck
        );
        let cond: Vec<_> = r.stuck.iter().filter(|s| s.only_if_expired).collect();
        assert_eq!(cond.len(), 1, "{:?}", r.stuck);
        assert_eq!(cond[0].app, "Shelf");
        assert_eq!(cond[0].blocker, "Fading");
    }

    #[test]
    fn reveal_order_deadlocks_are_not_invented() {
        // Both specs reversible, removing each other's parents: LIFO
        // with retry drains every order.
        let db = db();
        let a = DisguiseSpecBuilder::new("A")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .build()
            .unwrap();
        let b = DisguiseSpecBuilder::new("B")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .remove("users", Some("id = $UID"))
            .build()
            .unwrap();
        let c = DisguiseSpecBuilder::new("C")
            .modify("users", None, "name", crate::spec::Modifier::Redact)
            .build()
            .unwrap();
        let r = explore(&transfers(&db, &[a, b, c]), 10_000);
        assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    }

    #[test]
    fn world_cap_reports_truncation() {
        let db = db();
        let specs: Vec<_> = (0..5)
            .map(|i| {
                DisguiseSpecBuilder::new(format!("S{i}"))
                    .modify("users", None, "name", crate::spec::Modifier::Redact)
                    .build()
                    .unwrap()
            })
            .collect();
        let r = explore(&transfers(&db, &specs), 10);
        assert!(r.truncated);
    }
}
