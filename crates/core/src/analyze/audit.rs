//! The workspace audit: whole-graph proofs over disguises + policies.
//!
//! [`audit_workspace`] is the `edna audit` engine. It compiles every
//! registered spec to a transfer function ([`super::transfer`]), explores
//! all interleavings ([`super::interleave`]), and checks every scheduled
//! policy, producing `E05x`/`W05x` diagnostics:
//!
//! - **E050** reveal-unreachable: some interleaving leaves a reversible
//!   disguise's data unrecoverable — no reveal brings it back to
//!   `Present`.
//! - **E051** vault-orphaned: the same interleaving strands that
//!   disguise's vault entry; no reveal can ever bring its rows back.
//! - **E052** policy-diverges: a decay ladder provably rewrites some
//!   column on every run (e.g. re-hashing a hash) — the decay frontier
//!   never reaches a fixed point and vaults grow without bound.
//! - **E053** policy-bad-ref: a policy names a disguise that is missing
//!   or of the wrong scope for how the scheduler invokes it.
//! - **W050** expiry-strands-reveal: a reveal is reachable now but dies
//!   once another disguise's `expires_after` entries lapse.
//! - **W051** audit-truncated: the interleaving search hit its world
//!   bound; absence of errors is not a proof.
//! - **W052** convergence-unproven: a decay ladder could not be proved
//!   terminating (custom modifiers, decorrelating stages).
//! - **W053** irreversible-expiration: an expiration policy applies an
//!   irreversible disguise, so returning users cannot undo it.

use edna_relational::Database;

use super::diagnostics::{codes, sort_diagnostics, Diagnostic, Location};
use super::interleave::{explore, Exploration};
use super::lattice::{modifier_transfer, AbsVal, CellId, Change};
use super::transfer::derive;
use crate::policy::{DecayPolicy, Policy};
use crate::spec::{DisguiseSpec, Transformation};

/// Bound on visited worlds per exploration. Interleavings of `n` specs
/// grow as permutations of subsets; the cap keeps the audit interactive
/// and any truncation is reported as `W051` rather than silently
/// under-approximating.
pub const WORLD_CAP: usize = 20_000;

/// Rounds the convergence check iterates a decay ladder before giving
/// up with `W052`. Idempotent ladders settle in 2; the abstract value
/// domain has no chains longer than a handful of steps.
const CONVERGENCE_ROUNDS: usize = 8;

/// Audits the whole workspace: all registered `specs` under arbitrary
/// interleaving, plus every scheduled policy. Returns diagnostics in
/// deterministic order ([`sort_diagnostics`]).
pub fn audit_workspace(
    db: &Database,
    specs: &[DisguiseSpec],
    policies: &[Policy],
) -> Vec<Diagnostic> {
    let mut specs: Vec<&DisguiseSpec> = specs.iter().collect();
    specs.sort_by(|a, b| a.name.cmp(&b.name));
    let mut diags = Vec::new();

    // Interleaving exploration over registered disguises. Policies do
    // not add new transfers: expiration targets and decay stages are
    // registered specs themselves, so they are already in the set.
    let transfers: Vec<_> = specs.iter().map(|s| derive(s, db)).collect();
    let Exploration {
        stuck, truncated, ..
    } = explore(&transfers, WORLD_CAP);
    for s in &stuck {
        let loc = Location::table(&s.table)
            .with_context(format!("after applying {}", s.trail.join(", then ")));
        if s.only_if_expired {
            diags.push(
                Diagnostic::warning(
                    codes::EXPIRY_STRANDS_REVEAL,
                    &s.app,
                    loc,
                    format!(
                        "revealing `{}` works only while `{}`'s vault entries live: once they \
                         expire, the `{}` rows referenced by `{}`'s reinsertions are gone for good",
                        s.app, s.blocker, s.parent, s.app
                    ),
                )
                .with_help(format!(
                    "reveal `{}` before `{}` expires, or drop `expires_after` from `{}`",
                    s.app, s.blocker, s.blocker
                )),
            );
        } else {
            diags.push(
                Diagnostic::error(
                    codes::REVEAL_UNREACHABLE,
                    &s.app,
                    loc.clone(),
                    format!(
                        "no reveal of `{}` can reach `Present`: its reinserted `{}` rows \
                         reference `{}` rows that `{}` removed without a usable vault entry",
                        s.app, s.table, s.parent, s.blocker
                    ),
                )
                .with_help(format!(
                    "make `{}` reversible over `{}`, or have `{}` skip `{}` rows still \
                     referenced by vaulted data",
                    s.blocker, s.parent, s.blocker, s.parent
                )),
            );
            diags.push(Diagnostic::error(
                codes::VAULT_ORPHANED,
                &s.app,
                Location::table(&s.table),
                format!(
                    "`{}`'s vault entry for `{}` is orphaned in this interleaving: \
                     apply writes it, but no reveal can ever bring its rows back",
                    s.app, s.table
                ),
            ));
        }
    }
    if truncated {
        diags.push(
            Diagnostic::warning(
                codes::AUDIT_TRUNCATED,
                "workspace",
                Location::default(),
                format!(
                    "interleaving search truncated at {WORLD_CAP} worlds; \
                     the absence of errors is not a proof"
                ),
            )
            .with_help("reduce the number of registered disguises or audit subsets separately"),
        );
    }

    // Policy reference + convergence checks.
    for policy in policies {
        match policy {
            Policy::Expiration(p) => {
                let loc = Location::default().with_context(format!("policy `{}`", p.name));
                match specs.iter().find(|s| s.name == p.disguise) {
                    None => diags.push(
                        Diagnostic::error(
                            codes::POLICY_BAD_REF,
                            &p.disguise,
                            loc,
                            format!(
                                "expiration policy `{}` schedules disguise `{}`, which is \
                                 not registered",
                                p.name, p.disguise
                            ),
                        )
                        .with_help("register the disguise or fix the policy's `disguise:` name"),
                    ),
                    Some(spec) if !spec.user_scoped => diags.push(
                        Diagnostic::error(
                            codes::POLICY_BAD_REF,
                            &p.disguise,
                            loc,
                            format!(
                                "expiration policy `{}` applies `{}` per inactive user, but \
                                 the disguise is not user-scoped",
                                p.name, p.disguise
                            ),
                        )
                        .with_help("expiration targets must take `$UID` (user_scoped: true)"),
                    ),
                    Some(spec) if !spec.reversible => diags.push(
                        Diagnostic::warning(
                            codes::IRREVERSIBLE_EXPIRATION,
                            &p.disguise,
                            loc,
                            format!(
                                "expiration policy `{}` applies irreversible `{}`: users who \
                                 return cannot undo their expiration",
                                p.name, p.disguise
                            ),
                        )
                        .with_help(
                            "the paper's expiration story is reversible; drop `reversible: false`",
                        ),
                    ),
                    Some(_) => {}
                }
            }
            Policy::Decay(p) => {
                let loc = Location::default().with_context(format!("policy `{}`", p.name));
                let mut refs_ok = true;
                for stage in &p.stages {
                    match specs.iter().find(|s| s.name == stage.disguise) {
                        None => {
                            refs_ok = false;
                            diags.push(
                                Diagnostic::error(
                                    codes::POLICY_BAD_REF,
                                    &stage.disguise,
                                    loc.clone(),
                                    format!(
                                        "decay policy `{}` stages disguise `{}`, which is not \
                                         registered",
                                        p.name, stage.disguise
                                    ),
                                )
                                .with_help(
                                    "register the disguise or fix the policy's `stages:` list",
                                ),
                            );
                        }
                        Some(spec) if spec.user_scoped => {
                            refs_ok = false;
                            diags.push(
                                Diagnostic::error(
                                    codes::POLICY_BAD_REF,
                                    &stage.disguise,
                                    loc.clone(),
                                    format!(
                                        "decay policy `{}` runs `{}` globally, but the disguise \
                                         is user-scoped and would fail without a `$UID`",
                                        p.name, stage.disguise
                                    ),
                                )
                                .with_help("decay stages must be global disguises"),
                            );
                        }
                        Some(_) => {}
                    }
                }
                if refs_ok {
                    diags.extend(decay_convergence(p, &specs));
                }
            }
        }
    }

    sort_diagnostics(&mut diags);
    diags
}

/// Iterates a decay ladder over the abstract value domain. Converged
/// (all stages provably no-ops) → no diagnostic. A provable rewrite in
/// round two or later → `E052`. Neither provable within
/// [`CONVERGENCE_ROUNDS`] → `W052`.
fn decay_convergence(policy: &DecayPolicy, specs: &[&DisguiseSpec]) -> Vec<Diagnostic> {
    use std::collections::BTreeMap;
    let stages: Vec<&DisguiseSpec> = policy
        .stages
        .iter()
        .filter_map(|st| specs.iter().find(|s| s.name == st.disguise).copied())
        .collect();
    let mut vals: BTreeMap<CellId, AbsVal> = BTreeMap::new();
    let mut last_maybe: Option<(String, CellId, String)> = None;
    for round in 1..=CONVERGENCE_ROUNDS {
        // (change, stage, cell, detail) — worst change seen this round.
        let mut worst: Option<(Change, String, CellId, String)> = None;
        let mut bump = |ch: Change, stage: &str, cell: CellId, detail: String| {
            if worst.as_ref().map(|w| ch > w.0).unwrap_or(true) {
                worst = Some((ch, stage.to_string(), cell, detail));
            }
        };
        for spec in &stages {
            for section in &spec.tables {
                for pt in &section.transformations {
                    match &pt.transform {
                        Transformation::Modify { column, modifier } => {
                            let cell = CellId::col(&section.table, column);
                            let cur = vals.get(&cell).cloned().unwrap_or(AbsVal::Original);
                            let (next, ch) = modifier_transfer(modifier, &cur);
                            vals.insert(cell.clone(), next);
                            bump(
                                ch,
                                &spec.name,
                                cell,
                                format!("`{}` rewrites it again", modifier.name()),
                            );
                        }
                        Transformation::Decorrelate { fk_column, .. } => {
                            // Re-decorrelating mints fresh placeholders each
                            // run; we cannot prove it settles.
                            if round >= 2 {
                                bump(
                                    Change::Maybe,
                                    &spec.name,
                                    CellId::col(&section.table, fk_column),
                                    "decorrelation may re-point rows at fresh placeholders \
                                     every run"
                                        .to_string(),
                                );
                            }
                        }
                        // Removed rows stay removed: a repeat `Remove`
                        // matches nothing and converges trivially.
                        Transformation::Remove => {}
                    }
                }
            }
        }
        // Round one is the decay itself; divergence means *re*-writing.
        if round < 2 {
            continue;
        }
        match worst {
            Some((Change::Yes, stage, cell, detail)) => {
                return vec![Diagnostic::error(
                    codes::POLICY_DIVERGES,
                    &policy.name,
                    Location::column(
                        cell.table(),
                        match &cell {
                            CellId::Col(_, c) => c.clone(),
                            CellId::Rows(_) => "<rows>".to_string(),
                        },
                    )
                    .with_context(format!("stage `{stage}`")),
                    format!(
                        "decay policy `{}` never converges: on every run after the first, \
                         stage `{stage}` rewrites `{cell}` — {detail}",
                        policy.name
                    ),
                )
                .with_help(
                    "guard the stage with a predicate that excludes already-decayed rows, \
                     or use an idempotent modifier (SetNull, Fixed, Redact, Truncate, Bucket)",
                )];
            }
            Some((Change::Maybe, stage, cell, detail)) => {
                last_maybe = Some((stage, cell, detail));
                continue;
            }
            Some((Change::No, ..)) | None => return Vec::new(),
        }
    }
    // Maybe survived every round: unproven either way.
    let (stage, cell, detail) = last_maybe.expect("loop exits early unless a Maybe persisted");
    vec![Diagnostic::warning(
        codes::CONVERGENCE_UNPROVEN,
        &policy.name,
        Location::column(
            cell.table(),
            match &cell {
                CellId::Col(_, c) => c.clone(),
                CellId::Rows(_) => "<rows>".to_string(),
            },
        )
        .with_context(format!("stage `{stage}`")),
        format!(
            "could not prove decay policy `{}` converges within {CONVERGENCE_ROUNDS} rounds: \
             stage `{stage}` may rewrite `{cell}` on every run — {detail}",
            policy.name
        ),
    )
    .with_help("custom modifiers and decorrelating stages cannot be proved idempotent")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DecayStage, ExpirationPolicy};
    use crate::spec::{DisguiseSpecBuilder, Modifier};
    use edna_relational::Database;

    fn db() -> Database {
        let db = Database::new();
        db.execute(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, \
             last_login INT NOT NULL DEFAULT 0)",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE comments (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, created_at INT NOT NULL DEFAULT 0, \
             FOREIGN KEY (user_id) REFERENCES users(id))",
        )
        .unwrap();
        db
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn benign_workspace_audits_clean() {
        let db = db();
        let a = DisguiseSpecBuilder::new("A")
            .user_scoped()
            .remove("comments", Some("user_id = $UID"))
            .build()
            .unwrap();
        let b = DisguiseSpecBuilder::new("B")
            .modify("comments", None, "body", Modifier::Redact)
            .build()
            .unwrap();
        assert!(audit_workspace(&db, &[a, b], &[]).is_empty());
    }

    #[test]
    fn orphaning_interleaving_yields_e050_and_e051() {
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
        let diags = audit_workspace(&db, &[keep, purge], &[]);
        let codes = codes_of(&diags);
        assert!(codes.contains(&codes::REVEAL_UNREACHABLE), "{diags:?}");
        assert!(codes.contains(&codes::VAULT_ORPHANED), "{diags:?}");
        // Both findings are about Shelf, blocked by Purge.
        assert!(diags.iter().all(|d| d.disguise == "Shelf"));
        let e050 = diags
            .iter()
            .find(|d| d.code == codes::REVEAL_UNREACHABLE)
            .unwrap();
        assert!(e050.message.contains("Purge"), "{e050:?}");
    }

    #[test]
    fn diverging_decay_ladder_yields_e052() {
        let db = db();
        let blur = DisguiseSpecBuilder::new("Blur")
            .irreversible()
            .modify(
                "comments",
                Some("created_at < NOW() - 300"),
                "body",
                Modifier::HashText,
            )
            .build()
            .unwrap();
        let policy = Policy::Decay(DecayPolicy {
            name: "aging".to_string(),
            stages: vec![DecayStage {
                disguise: "Blur".to_string(),
            }],
            cadence: 60,
        });
        let diags = audit_workspace(&db, &[blur], &[policy]);
        assert_eq!(codes_of(&diags), vec![codes::POLICY_DIVERGES], "{diags:?}");
        assert!(diags[0].message.contains("comments.body"));
        assert!(diags[0].message.contains("HashText"));
    }

    #[test]
    fn idempotent_decay_ladder_converges() {
        let db = db();
        let still = DisguiseSpecBuilder::new("Still")
            .irreversible()
            .modify("comments", None, "body", Modifier::Redact)
            .modify("comments", None, "created_at", Modifier::Bucket(3600))
            .build()
            .unwrap();
        let policy = Policy::Decay(DecayPolicy {
            name: "calm".to_string(),
            stages: vec![DecayStage {
                disguise: "Still".to_string(),
            }],
            cadence: 60,
        });
        assert!(audit_workspace(&db, &[still], &[policy]).is_empty());
    }

    #[test]
    fn oscillating_fixed_pair_diverges() {
        let db = db();
        let one = DisguiseSpecBuilder::new("One")
            .irreversible()
            .modify(
                "comments",
                None,
                "body",
                Modifier::Fixed(edna_relational::Value::Text("a".into())),
            )
            .build()
            .unwrap();
        let two = DisguiseSpecBuilder::new("Two")
            .irreversible()
            .modify(
                "comments",
                None,
                "body",
                Modifier::Fixed(edna_relational::Value::Text("b".into())),
            )
            .build()
            .unwrap();
        let policy = Policy::Decay(DecayPolicy {
            name: "seesaw".to_string(),
            stages: vec![
                DecayStage {
                    disguise: "One".to_string(),
                },
                DecayStage {
                    disguise: "Two".to_string(),
                },
            ],
            cadence: 60,
        });
        let diags = audit_workspace(&db, &[one, two], &[policy]);
        assert_eq!(codes_of(&diags), vec![codes::POLICY_DIVERGES], "{diags:?}");
    }

    #[test]
    fn policy_reference_errors_are_caught() {
        let db = db();
        let global = DisguiseSpecBuilder::new("Global")
            .modify("comments", None, "body", Modifier::Redact)
            .build()
            .unwrap();
        let scoped = DisguiseSpecBuilder::new("Scoped")
            .user_scoped()
            .modify("users", Some("id = $UID"), "name", Modifier::Redact)
            .build()
            .unwrap();
        let policies = vec![
            Policy::Expiration(ExpirationPolicy {
                name: "ghost".to_string(),
                disguise: "Missing".to_string(),
                inactive_after: 100,
                user_query: "SELECT id FROM users".to_string(),
                cadence: 10,
            }),
            Policy::Expiration(ExpirationPolicy {
                name: "misscoped".to_string(),
                disguise: "Global".to_string(),
                inactive_after: 100,
                user_query: "SELECT id FROM users".to_string(),
                cadence: 10,
            }),
            Policy::Decay(DecayPolicy {
                name: "wrongway".to_string(),
                stages: vec![DecayStage {
                    disguise: "Scoped".to_string(),
                }],
                cadence: 10,
            }),
        ];
        let diags = audit_workspace(&db, &[global, scoped], &policies);
        let codes = codes_of(&diags);
        assert_eq!(
            codes
                .iter()
                .filter(|c| **c == codes::POLICY_BAD_REF)
                .count(),
            3,
            "{diags:?}"
        );
    }

    #[test]
    fn irreversible_expiration_warns() {
        let db = db();
        let hard = DisguiseSpecBuilder::new("Hard")
            .user_scoped()
            .irreversible()
            .modify("users", Some("id = $UID"), "name", Modifier::Redact)
            .build()
            .unwrap();
        let policy = Policy::Expiration(ExpirationPolicy {
            name: "perma".to_string(),
            disguise: "Hard".to_string(),
            inactive_after: 100,
            user_query: "SELECT id FROM users".to_string(),
            cadence: 10,
        });
        let diags = audit_workspace(&db, &[hard], &[policy]);
        assert_eq!(
            codes_of(&diags),
            vec![codes::IRREVERSIBLE_EXPIRATION],
            "{diags:?}"
        );
    }

    #[test]
    fn custom_modifier_stage_is_unproven_not_diverging() {
        let db = db();
        let fuzzy = DisguiseSpecBuilder::new("Fuzzy")
            .irreversible()
            .modify(
                "comments",
                None,
                "body",
                Modifier::Custom {
                    name: "opaque".to_string(),
                    f: std::sync::Arc::new(|v| v.clone()),
                },
            )
            .build()
            .unwrap();
        let policy = Policy::Decay(DecayPolicy {
            name: "mystery".to_string(),
            stages: vec![DecayStage {
                disguise: "Fuzzy".to_string(),
            }],
            cadence: 60,
        });
        let diags = audit_workspace(&db, &[fuzzy], &[policy]);
        assert_eq!(
            codes_of(&diags),
            vec![codes::CONVERGENCE_UNPROVEN],
            "{diags:?}"
        );
    }
}
