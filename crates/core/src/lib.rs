//! `edna-core`: the data disguising tool.
//!
//! This crate implements the paper's primary contribution: *data
//! disguising*, "a systematic approach to privacy transformations that
//! separates them from application code" (§4). The pieces:
//!
//! - [`spec`] — structured disguise specifications built on the three
//!   fundamental transformation operations (removal, modification,
//!   decorrelation), with a text DSL mirroring the paper's Figure 3 and a
//!   programmatic builder;
//! - [`Disguiser`] — the external disguising tool of Figure 1: it
//!   interprets a specification, applies the physical changes in one
//!   transaction while preserving referential integrity, and records
//!   reveal functions in vaults for reversible disguises;
//! - [`reveal`] — reversal with history-log re-application, so a reveal
//!   never undoes a later disguise (§4.2);
//! - [`analysis`] — static analysis of disguise interactions automating
//!   the paper's §6 composition optimization;
//! - [`analyze`] — schema-aware static analysis producing rustc-style
//!   diagnostics (typed predicates, referential/reveal safety, PII
//!   coverage), enforced at registration and exposed as `edna check`,
//!   plus the whole-workspace abstract interpreter behind `edna audit`
//!   (reveal-reachability, vault-orphaning, policy convergence);
//! - assertions over the end state (§7), checked post-apply with rollback
//!   and mechanism-retry on failure;
//! - [`policy`] — expiration and data-decay policies over a logical clock
//!   (§2).
//!
//! See the crate examples (`examples/quickstart.rs` and friends at the
//! workspace root) for end-to-end usage.

#![warn(missing_docs)]

pub mod analysis;
pub mod analyze;
pub mod apply;
pub mod error;
pub mod guard;
pub mod history;
pub mod placeholder;
pub mod policy;
pub mod reveal;
pub mod spec;
pub mod workspace;

pub use analysis::{plan_composition, CompositionPlan};
pub use analyze::{
    analyze_spec, audit_workspace, render_json_report, render_report, sort_diagnostics, Diagnostic,
    Location, Severity,
};
pub use apply::{ApplyManyReport, ApplyOptions, DisguiseReport, Disguiser, IntentResolution};
pub use edna_obs::{SpanRecord, Tracer};
pub use error::{Error, Result};
pub use guard::DisguisedRows;
pub use history::{ensure_index, DisguiseEvent, HistoryLog, HISTORY_TABLE};
pub use policy::{
    is_policy_source, parse_policy, DecayPolicy, DecayStage, ExpirationPolicy, Policy, PolicyRun,
    Scheduler, TickOutcome,
};
pub use reveal::RevealReport;
pub use spec::{
    parse_spec, spec_loc, Assertion, DisguiseSpec, DisguiseSpecBuilder, Generator, Modifier,
    PredicatedTransform, TableDisguise, Transformation,
};
pub use workspace::{parse_user, Workspace, POLICY_REGISTRY_TABLE, SPEC_REGISTRY_TABLE};
