//! Automatic privacy policies: expiration and data decay (paper §2).
//!
//! - **Expiration**: "Data expiration policies could proactively anonymize
//!   or sanitize user contributions for long-inactive users." An
//!   [`ExpirationPolicy`] finds inactive users with a developer-provided
//!   query and applies a (reversible, so returning users can undo it)
//!   user-scoped disguise to each.
//! - **Data decay**: "Gradual data decay policies could apply increasingly
//!   strict privacy transformations over time, aging out sensitive but
//!   outdated user data." A [`DecayPolicy`] is a ladder of global disguises
//!   whose predicates reference `NOW()`; re-running them advances the decay
//!   frontier as the (logical) clock moves.
//!
//! The [`Scheduler`] drives policies from the database's logical clock, so
//! tests and benchmarks can fast-forward time deterministically — and,
//! under `edna serve`, the decay daemon drives the same scheduler from the
//! wall clock while foreground traffic flows. Three properties make that
//! safe:
//!
//! - **Scoped clock**: a run evaluates its `NOW()` predicates under a
//!   thread-local [`edna_relational::clock::scoped`] override instead of
//!   mutating the engine's global clock, so concurrent statements on other
//!   threads never observe the daemon's timestamp.
//! - **Interior mutability**: `tick` takes `&self` (`last_run` sits behind
//!   a mutex), so one `Scheduler` can be shared by a `Send + Sync`
//!   service.
//! - **Durable progress**: each run is bracketed in WAL
//!   policy-start/policy-end markers, and a policy's last-run stamp is
//!   persisted to `_edna_policy_registry` only when its run *completes* —
//!   a crash (or an exhausted row budget) leaves the policy due, so it
//!   re-fires and resumes on the next tick instead of being silently
//!   skipped (or, before this existed, re-fired from scratch on every
//!   restart).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use edna_relational::parser::Projection;
use edna_relational::{Expr, Statement, Value};
use edna_util::sync::lock_unpoisoned;

use crate::apply::{ApplyOptions, DisguiseReport, Disguiser};
use crate::error::{Error, Result};

/// Applies a user-scoped disguise to users inactive for too long.
#[derive(Debug, Clone)]
pub struct ExpirationPolicy {
    /// Policy name (for scheduling and reports).
    pub name: String,
    /// The user-scoped disguise to apply (must be registered).
    pub disguise: String,
    /// Inactivity threshold in logical seconds.
    pub inactive_after: i64,
    /// Query returning the ids of users inactive since `$CUTOFF`, e.g.
    /// `SELECT id FROM users WHERE last_login < $CUTOFF`.
    pub user_query: String,
    /// How often (logical seconds) the policy runs.
    pub cadence: i64,
}

impl ExpirationPolicy {
    /// Runs the policy at logical time `now`: disguises every inactive user
    /// without an active application of the disguise. Returns one report
    /// per newly disguised user.
    pub fn run(&self, edna: &Disguiser, now: i64) -> Result<Vec<DisguiseReport>> {
        self.run_budgeted(edna, now, None)
            .map(|(reports, _)| reports)
    }

    /// Like [`ExpirationPolicy::run`], but stops once roughly `budget`
    /// rows have been transformed. Each user is disguised atomically (a
    /// user is never left half-expired), so the bound is on *users whose
    /// rows fit the remaining budget*, charging at least one row per
    /// user. Returns the reports and whether the run completed; skipped
    /// users stay eligible (the history idempotence check is what makes
    /// the resume correct) and are picked up by the next run.
    pub fn run_budgeted(
        &self,
        edna: &Disguiser,
        now: i64,
        budget: Option<usize>,
    ) -> Result<(Vec<DisguiseReport>, bool)> {
        // Evaluate this run's statements at the tick's timestamp without
        // touching the engine's global clock (other threads keep their
        // own view of NOW()).
        let _clock = edna_relational::clock::scoped(now);
        let mut params = HashMap::new();
        params.insert("CUTOFF".to_string(), Value::Int(now - self.inactive_after));
        let mut reports = Vec::new();
        let mut remaining = budget;
        let mut complete = true;
        for user in self.inactive_users(edna, &params)? {
            // Idempotence: skip users already under this disguise.
            if edna.history().latest(&self.disguise, &user)?.is_some() {
                continue;
            }
            if remaining == Some(0) {
                complete = false;
                break;
            }
            // Both checks again, inside the apply's transaction: a
            // concurrent apply of this disguise, or the user's return,
            // may have landed since the query.
            let due = |edna: &Disguiser| -> Result<bool> {
                Ok(edna.history().latest(&self.disguise, &user)?.is_none()
                    && self.still_inactive(edna, &params, &user)?)
            };
            let Some(report) = edna.apply_if(&self.disguise, Some(&user), due)? else {
                continue;
            };
            if let Some(b) = remaining.as_mut() {
                *b = b.saturating_sub(rows_touched(&report).max(1));
            }
            reports.push(report);
        }
        Ok((reports, complete))
    }

    /// The non-NULL ids `user_query` returns.
    fn inactive_users(
        &self,
        edna: &Disguiser,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<Value>> {
        let result = edna
            .database()
            .execute_with_params(&self.user_query, params)
            .map_err(Error::Relational)?;
        Ok(result
            .rows
            .into_iter()
            .filter_map(|row| row.into_iter().next())
            .filter(|user| !user.is_null())
            .collect())
    }

    /// Whether `user` is still in `user_query`'s result. A query without
    /// grouping or a row limit whose first column is a plain column runs
    /// narrowed to `... AND <column> = $EDNA_USER`, an index probe when
    /// that column is the key; any other query reruns in full.
    fn still_inactive(
        &self,
        edna: &Disguiser,
        params: &HashMap<String, Value>,
        user: &Value,
    ) -> Result<bool> {
        let db = edna.database();
        if let Statement::Select(sel) = &*db.cached_statement(&self.user_query)? {
            let plain = sel.group_by.is_empty()
                && sel.having.is_none()
                && sel.limit.is_none()
                && sel.offset.is_none();
            if let Some(Projection::Expr {
                expr: column @ Expr::Column { .. },
                ..
            }) = sel.projections.first().filter(|_| plain)
            {
                let probe = Expr::eq(column.clone(), Expr::Param("EDNA_USER".to_string()));
                let mut sel = sel.clone();
                sel.where_ = Some(match sel.where_.take() {
                    Some(pred) => Expr::and(pred, probe),
                    None => probe,
                });
                let mut params = params.clone();
                params.insert("EDNA_USER".to_string(), user.clone());
                let found = db.execute_stmt(&Statement::Select(sel), &params)?;
                return Ok(!found.rows.is_empty());
            }
        }
        Ok(self.inactive_users(edna, params)?.contains(user))
    }
}

/// One rung of a decay ladder.
#[derive(Debug, Clone)]
pub struct DecayStage {
    /// The global disguise to apply (its predicates should reference
    /// `NOW()` so the affected window advances with the clock).
    pub disguise: String,
}

/// Applies increasingly strict global disguises as data ages.
#[derive(Debug, Clone)]
pub struct DecayPolicy {
    /// Policy name.
    pub name: String,
    /// Stages, applied in order on every run.
    pub stages: Vec<DecayStage>,
    /// How often (logical seconds) the policy runs.
    pub cadence: i64,
}

impl DecayPolicy {
    /// Runs every stage at logical time `now`. `NOW()` predicates see
    /// `now` through a thread-scoped clock override — the engine's global
    /// clock (and every other thread's view of it) is untouched.
    pub fn run(&self, edna: &Disguiser, now: i64) -> Result<Vec<DisguiseReport>> {
        self.run_budgeted(edna, now, None)
            .map(|(reports, _)| reports)
    }

    /// Like [`DecayPolicy::run`], but transforms at most roughly `budget`
    /// rows, pausing mid-ladder when it runs out (later stages — and the
    /// paused stage's untouched rows — are picked up when the policy
    /// re-fires). Returns the reports and whether the run completed.
    pub fn run_budgeted(
        &self,
        edna: &Disguiser,
        now: i64,
        budget: Option<usize>,
    ) -> Result<(Vec<DisguiseReport>, bool)> {
        let _clock = edna_relational::clock::scoped(now);
        let mut reports = Vec::new();
        let mut remaining = budget;
        for stage in &self.stages {
            if remaining == Some(0) {
                return Ok((reports, false));
            }
            let opts = ApplyOptions {
                row_budget: remaining,
                ..ApplyOptions::default()
            };
            let report = edna.apply_with_options(&stage.disguise, None, opts)?;
            let exhausted = report.budget_exhausted;
            if let Some(b) = remaining.as_mut() {
                *b = b.saturating_sub(rows_touched(&report));
            }
            reports.push(report);
            if exhausted {
                return Ok((reports, false));
            }
        }
        Ok((reports, true))
    }
}

/// Database rows a report says the application transformed (the unit the
/// scheduler's row budget is charged in).
fn rows_touched(report: &DisguiseReport) -> usize {
    report.rows_removed + report.rows_decorrelated + report.rows_modified
}

/// A scheduled privacy policy.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Expiration of inactive users.
    Expiration(ExpirationPolicy),
    /// Data decay ladder.
    Decay(DecayPolicy),
}

impl Policy {
    /// The policy's name.
    pub fn name(&self) -> &str {
        match self {
            Policy::Expiration(p) => &p.name,
            Policy::Decay(p) => &p.name,
        }
    }

    /// The policy's cadence in logical seconds.
    pub fn cadence(&self) -> i64 {
        match self {
            Policy::Expiration(p) => p.cadence,
            Policy::Decay(p) => p.cadence,
        }
    }
}

/// What one policy run inside a tick did.
#[derive(Debug)]
pub struct PolicyRun {
    /// The policy's name.
    pub policy: String,
    /// Reports of the disguises the run applied.
    pub reports: Vec<DisguiseReport>,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Whether the run completed. An incomplete (budget-paused) run does
    /// *not* advance the policy's last-run stamp: the policy stays due
    /// and resumes on the next tick.
    pub complete: bool,
}

/// What one [`Scheduler::tick_budgeted`] call did.
#[derive(Debug, Default)]
pub struct TickOutcome {
    /// One entry per policy that fired, in registration order.
    pub runs: Vec<PolicyRun>,
    /// Expired vault entries purged at the tick's timestamp.
    pub purged: usize,
}

impl TickOutcome {
    /// Flattens the tick into the disguise reports it produced.
    pub fn into_reports(self) -> Vec<DisguiseReport> {
        self.runs.into_iter().flat_map(|r| r.reports).collect()
    }
}

/// Drives policies from the logical clock. Shareable across threads
/// (`tick` takes `&self`), so the decay daemon and wire handlers can hold
/// the same scheduler; one thread ticks at a time (`edna serve` has one
/// decay thread). Each disguise a tick applies, and its vault purge, is
/// one engine transaction, so other threads' work interleaves between
/// them and never inside.
pub struct Scheduler {
    policies: Vec<Policy>,
    last_run: Mutex<HashMap<String, i64>>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler {
            policies: Vec::new(),
            last_run: Mutex::new(HashMap::new()),
        }
    }

    /// Adds a policy.
    pub fn add(&mut self, policy: Policy) {
        self.policies.push(policy);
    }

    /// The scheduled policies, in registration order (the audit walks
    /// these).
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Seeds a policy's last-run stamp (from the persisted registry
    /// column) without running anything — how a restarted server avoids
    /// re-firing every policy immediately.
    pub fn seed_last_run(&self, policy: &str, last: i64) {
        lock_unpoisoned(&self.last_run).insert(policy.to_string(), last);
    }

    /// A snapshot of the per-policy last-run stamps (policies that never
    /// completed a run are absent).
    pub fn last_runs(&self) -> HashMap<String, i64> {
        lock_unpoisoned(&self.last_run).clone()
    }

    /// Runs every policy whose cadence has elapsed at logical time `now`
    /// and purges expired vault entries. Returns the reports of all
    /// disguises applied. Equivalent to [`Scheduler::tick_budgeted`] with
    /// no row budget.
    pub fn tick(&self, edna: &Disguiser, now: i64) -> Result<Vec<DisguiseReport>> {
        self.tick_budgeted(edna, now, None)
            .map(TickOutcome::into_reports)
    }

    /// Runs every due policy at logical time `now`, transforming at most
    /// roughly `budget` rows across the whole tick, then purges expired
    /// vault entries.
    ///
    /// Each policy run is bracketed in WAL policy-start/policy-end
    /// markers, so a crash mid-run is visible to `recover --verify` (and
    /// benign: the disguises inside the run carry their own intent/commit
    /// brackets). A policy's last-run stamp — in memory and, when the
    /// workspace registry table exists, persisted in
    /// `_edna_policy_registry` — advances only when its run completes, so
    /// both budget-paused and crash-interrupted runs re-fire and resume
    /// on the next tick.
    pub fn tick_budgeted(
        &self,
        edna: &Disguiser,
        now: i64,
        budget: Option<usize>,
    ) -> Result<TickOutcome> {
        let mut outcome = TickOutcome::default();
        let mut remaining = budget;
        let db = edna.database();
        for policy in &self.policies {
            let due = match lock_unpoisoned(&self.last_run).get(policy.name()) {
                Some(last) => now - last >= policy.cadence(),
                None => true,
            };
            if !due {
                continue;
            }
            if remaining == Some(0) {
                // Tick budget spent: later due policies wait for the next
                // tick (their last-run stamps are untouched, so they stay
                // due).
                break;
            }
            db.wal_policy_start(policy.name(), now)
                .map_err(Error::Relational)?;
            let started = Instant::now();
            let (reports, complete) = match policy {
                Policy::Expiration(p) => p.run_budgeted(edna, now, remaining)?,
                Policy::Decay(p) => p.run_budgeted(edna, now, remaining)?,
            };
            db.wal_policy_end(policy.name())
                .map_err(Error::Relational)?;
            if let Some(b) = remaining.as_mut() {
                let used: usize = reports.iter().map(rows_touched).sum();
                *b = b.saturating_sub(used);
            }
            if complete {
                lock_unpoisoned(&self.last_run).insert(policy.name().to_string(), now);
                self.persist_last_run(edna, policy.name(), now)?;
            }
            outcome.runs.push(PolicyRun {
                policy: policy.name().to_string(),
                reports,
                duration: started.elapsed(),
                complete,
            });
        }
        outcome.purged = edna.purge_expired(now)?;
        Ok(outcome)
    }

    /// Writes a completed run's stamp to the workspace's policy registry
    /// (no-op outside a workspace: ad-hoc schedulers in tests and library
    /// use have no registry table, and a registered name that does not
    /// match any row updates nothing).
    fn persist_last_run(&self, edna: &Disguiser, policy: &str, now: i64) -> Result<()> {
        let db = edna.database();
        if !db.has_table(crate::workspace::POLICY_REGISTRY_TABLE) {
            return Ok(());
        }
        let mut params = HashMap::new();
        params.insert("LAST".to_string(), Value::Int(now));
        params.insert("NAME".to_string(), Value::Text(policy.to_string()));
        db.execute_with_params(
            &format!(
                "UPDATE {} SET last_run = $LAST WHERE name = $NAME",
                crate::workspace::POLICY_REGISTRY_TABLE
            ),
            &params,
        )
        .map_err(Error::Relational)?;
        Ok(())
    }
}

/// Parses the policy text DSL, the scheduling counterpart of the spec
/// DSL (same `key: value` surface; `#` starts a line comment):
///
/// ```text
/// policy_name: "aging"
/// kind: decay
/// cadence: 60
/// stages: [ "CommentBlur", "CommentScrub" ]
/// ```
///
/// ```text
/// policy_name: "expire-idle"
/// kind: expiration
/// cadence: 120
/// disguise: "Expire"
/// inactive_after: 500
/// user_query: "SELECT id FROM users WHERE last_login < $CUTOFF"
/// ```
///
/// Syntax problems report [`Error::SpecParse`] with the line; semantic
/// problems (missing keys, bad kind) report [`Error::SpecInvalid`].
/// Whether the referenced disguises exist and have the right scope is
/// *not* checked here — that is the audit's `E053`.
pub fn parse_policy(src: &str) -> Result<Policy> {
    let mut name = None;
    let mut kind = None;
    let mut cadence = None;
    let mut stages: Option<Vec<DecayStage>> = None;
    let mut disguise = None;
    let mut inactive_after = None;
    let mut user_query = None;
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_policy_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once(':').ok_or(Error::SpecParse {
            line: line_no,
            message: format!("expected `key: value`, got `{line}`"),
        })?;
        let key = key.trim();
        let value = value.trim().trim_end_matches(',');
        let parse_err = |message: String| Error::SpecParse {
            line: line_no,
            message,
        };
        match key {
            "policy_name" => {
                name = Some(unquote(value).ok_or_else(|| {
                    parse_err(format!(
                        "policy_name must be a quoted string, got `{value}`"
                    ))
                })?)
            }
            "kind" => kind = Some(value.to_string()),
            "cadence" => {
                cadence =
                    Some(value.parse::<i64>().map_err(|_| {
                        parse_err(format!("cadence must be an integer, got `{value}`"))
                    })?)
            }
            "stages" => {
                let inner = value
                    .strip_prefix('[')
                    .and_then(|v| v.strip_suffix(']'))
                    .ok_or_else(|| {
                        parse_err(format!("stages must be `[ \"A\", \"B\" ]`, got `{value}`"))
                    })?;
                let mut list = Vec::new();
                for part in inner.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let disguise = unquote(part).ok_or_else(|| {
                        parse_err(format!("stage names must be quoted, got `{part}`"))
                    })?;
                    list.push(DecayStage { disguise });
                }
                stages = Some(list);
            }
            "disguise" => {
                disguise = Some(unquote(value).ok_or_else(|| {
                    parse_err(format!("disguise must be a quoted string, got `{value}`"))
                })?)
            }
            "inactive_after" => {
                inactive_after = Some(value.parse::<i64>().map_err(|_| {
                    parse_err(format!("inactive_after must be an integer, got `{value}`"))
                })?)
            }
            "user_query" => {
                user_query = Some(unquote(value).ok_or_else(|| {
                    parse_err(format!("user_query must be a quoted string, got `{value}`"))
                })?)
            }
            other => {
                return Err(parse_err(format!("unknown policy key `{other}`")));
            }
        }
    }
    let name = name.ok_or_else(|| invalid("<policy>", "missing `policy_name:`"))?;
    let invalid_here = |message: &str| invalid(&name, message);
    let cadence = cadence.ok_or_else(|| invalid_here("missing `cadence:`"))?;
    if cadence <= 0 {
        return Err(invalid_here("cadence must be positive"));
    }
    match kind.as_deref() {
        Some("decay") => {
            let stages = stages.ok_or_else(|| invalid_here("decay policies need `stages:`"))?;
            if stages.is_empty() {
                return Err(invalid_here("decay policies need at least one stage"));
            }
            Ok(Policy::Decay(DecayPolicy {
                name,
                stages,
                cadence,
            }))
        }
        Some("expiration") => {
            let disguise =
                disguise.ok_or_else(|| invalid_here("expiration policies need `disguise:`"))?;
            let inactive_after = inactive_after
                .ok_or_else(|| invalid_here("expiration policies need `inactive_after:`"))?;
            let user_query =
                user_query.ok_or_else(|| invalid_here("expiration policies need `user_query:`"))?;
            if !user_query.contains("$CUTOFF") {
                return Err(invalid_here("user_query must reference $CUTOFF"));
            }
            Ok(Policy::Expiration(ExpirationPolicy {
                name,
                disguise,
                inactive_after,
                user_query,
                cadence,
            }))
        }
        Some(other) => Err(invalid_here(&format!(
            "kind must be `decay` or `expiration`, got `{other}`"
        ))),
        None => Err(invalid_here("missing `kind:`")),
    }
}

/// Whether `src` looks like the policy DSL rather than the spec DSL
/// (used by `edna register` to route a file to the right parser).
pub fn is_policy_source(src: &str) -> bool {
    src.lines()
        .map(strip_policy_comment)
        .find(|l| !l.trim().is_empty())
        .map(|l| l.trim_start().starts_with("policy_name"))
        .unwrap_or(false)
}

fn invalid(name: &str, message: &str) -> Error {
    Error::SpecInvalid {
        disguise: name.to_string(),
        message: message.to_string(),
    }
}

/// Strips a `#` comment, respecting double- and single-quoted strings.
fn strip_policy_comment(line: &str) -> String {
    let mut out = String::new();
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match (c, quote) {
            ('#', None) => break,
            ('"', None) | ('\'', None) => quote = Some(c),
            (c, Some(q)) if c == q => quote = None,
            _ => {}
        }
        out.push(c);
    }
    out
}

/// Removes matching surrounding quotes, if any.
fn unquote(s: &str) -> Option<String> {
    let s = s.trim();
    for q in ['"', '\''] {
        if let Some(inner) = s.strip_prefix(q).and_then(|v| v.strip_suffix(q)) {
            return Some(inner.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DisguiseSpecBuilder, Modifier};
    use edna_relational::Database;

    fn setup() -> (Database, Disguiser) {
        let db = Database::new();
        db.execute(
            "CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, body TEXT, \
             created_at INT NOT NULL DEFAULT 0)",
        )
        .unwrap();
        db.execute("INSERT INTO notes (body, created_at) VALUES ('old', 0), ('new', 900)")
            .unwrap();
        let edna = Disguiser::new(db.clone());
        edna.register(
            DisguiseSpecBuilder::new("TruncOld")
                .irreversible()
                .modify(
                    "notes",
                    Some("created_at < NOW() - 500"),
                    "body",
                    Modifier::Truncate(1),
                )
                .build()
                .unwrap(),
        )
        .unwrap();
        (db, edna)
    }

    #[test]
    fn policy_dsl_parses_decay() {
        let p = parse_policy(
            "# age out comment bodies\n\
             policy_name: \"aging\"\n\
             kind: decay\n\
             cadence: 60\n\
             stages: [ \"CommentBlur\", \"CommentScrub\" ]\n",
        )
        .unwrap();
        match p {
            Policy::Decay(d) => {
                assert_eq!(d.name, "aging");
                assert_eq!(d.cadence, 60);
                let names: Vec<_> = d.stages.iter().map(|s| s.disguise.as_str()).collect();
                assert_eq!(names, vec!["CommentBlur", "CommentScrub"]);
            }
            other => panic!("not decay: {other:?}"),
        }
    }

    #[test]
    fn policy_dsl_parses_expiration() {
        let p = parse_policy(
            "policy_name: \"expire-idle\"\n\
             kind: expiration\n\
             cadence: 120\n\
             disguise: \"Expire\"\n\
             inactive_after: 500\n\
             user_query: \"SELECT id FROM users WHERE last_login < $CUTOFF\"\n",
        )
        .unwrap();
        match p {
            Policy::Expiration(e) => {
                assert_eq!(e.disguise, "Expire");
                assert_eq!(e.inactive_after, 500);
                assert!(e.user_query.contains("$CUTOFF"));
            }
            other => panic!("not expiration: {other:?}"),
        }
    }

    #[test]
    fn policy_dsl_rejects_malformed_input() {
        // Syntax: line numbers on parse errors.
        let err = parse_policy("policy_name: aging\n").unwrap_err();
        assert!(matches!(err, Error::SpecParse { line: 1, .. }), "{err:?}");
        // Semantics: missing keys, bad kind, dead cadence.
        for (src, needle) in [
            ("kind: decay\ncadence: 1\nstages: [\"A\"]", "policy_name"),
            ("policy_name: \"p\"\ncadence: 1", "kind"),
            ("policy_name: \"p\"\nkind: decay\ncadence: 1", "stages"),
            (
                "policy_name: \"p\"\nkind: decay\ncadence: 0\nstages: [\"A\"]",
                "positive",
            ),
            (
                "policy_name: \"p\"\nkind: expiration\ncadence: 1\ndisguise: \"D\"\n\
                 inactive_after: 5\nuser_query: \"SELECT id FROM users\"",
                "$CUTOFF",
            ),
            ("policy_name: \"p\"\nkind: seesaw\ncadence: 1", "decay"),
        ] {
            let err = parse_policy(src).unwrap_err();
            assert!(err.to_string().contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn policy_sources_are_recognized() {
        assert!(is_policy_source("# c\npolicy_name: \"p\"\n"));
        assert!(!is_policy_source("disguise_name: \"d\"\n"));
        assert!(!is_policy_source(""));
    }

    #[test]
    fn scheduler_respects_cadence() {
        let (_db, edna) = setup();
        let mut sched = Scheduler::new();
        sched.add(Policy::Decay(DecayPolicy {
            name: "d".to_string(),
            stages: vec![DecayStage {
                disguise: "TruncOld".to_string(),
            }],
            cadence: 100,
        }));
        // First tick always fires.
        assert_eq!(sched.tick(&edna, 1000).unwrap().len(), 1);
        // Within the cadence window: nothing.
        assert!(sched.tick(&edna, 1050).unwrap().is_empty());
        // Past it: fires again.
        assert_eq!(sched.tick(&edna, 1101).unwrap().len(), 1);
    }

    #[test]
    fn decay_window_advances_with_the_clock() {
        let (db, edna) = setup();
        let policy = DecayPolicy {
            name: "d".to_string(),
            stages: vec![DecayStage {
                disguise: "TruncOld".to_string(),
            }],
            cadence: 1,
        };
        // At t=600 only the t=0 note is older than 500.
        policy.run(&edna, 600).unwrap();
        let rows = db
            .execute("SELECT body FROM notes ORDER BY id")
            .unwrap()
            .rows;
        assert_eq!(rows[0][0].to_string(), "o");
        assert_eq!(rows[1][0].to_string(), "new");
        // At t=1500 the second note ages into the window.
        policy.run(&edna, 1500).unwrap();
        let rows = db
            .execute("SELECT body FROM notes ORDER BY id")
            .unwrap()
            .rows;
        assert_eq!(rows[1][0].to_string(), "n");
    }

    #[test]
    fn budgeted_tick_pauses_and_resumes_without_advancing_the_stamp() {
        let (db, edna) = setup();
        // Four decayable notes; a budget of 2 rows per tick needs two
        // ticks to drain them.
        db.execute(
            "INSERT INTO notes (body, created_at) VALUES ('oldc', 0), ('oldd', 0), ('olde', 0)",
        )
        .unwrap();
        let mut sched = Scheduler::new();
        sched.add(Policy::Decay(DecayPolicy {
            name: "d".to_string(),
            stages: vec![DecayStage {
                disguise: "TruncOld".to_string(),
            }],
            cadence: 100,
        }));
        let out = sched.tick_budgeted(&edna, 1000, Some(2)).unwrap();
        assert_eq!(out.runs.len(), 1);
        assert!(!out.runs[0].complete, "budget of 2 cannot finish 4 rows");
        // An incomplete run does not advance the stamp: the policy is
        // still due at the very next tick, which finishes the backlog.
        assert!(sched.last_runs().is_empty());
        let out = sched.tick_budgeted(&edna, 1001, Some(10)).unwrap();
        assert_eq!(out.runs.len(), 1);
        assert!(out.runs[0].complete);
        assert_eq!(sched.last_runs().get("d"), Some(&1001));
        let decayed = db
            .execute("SELECT COUNT(*) FROM notes WHERE body = 'o'")
            .unwrap()
            .rows[0][0]
            .to_string();
        assert_eq!(decayed, "4", "both ticks together drain the backlog");
        // Within the cadence window nothing fires, budget or not.
        assert!(sched
            .tick_budgeted(&edna, 1050, Some(10))
            .unwrap()
            .runs
            .is_empty());
    }

    #[test]
    fn policy_run_does_not_disturb_the_global_clock() {
        let (db, edna) = setup();
        db.set_now(42);
        let policy = DecayPolicy {
            name: "d".to_string(),
            stages: vec![DecayStage {
                disguise: "TruncOld".to_string(),
            }],
            cadence: 1,
        };
        // The run evaluates NOW() = 600 under its scoped clock...
        policy.run(&edna, 600).unwrap();
        let rows = db
            .execute("SELECT body FROM notes ORDER BY id")
            .unwrap()
            .rows;
        assert_eq!(rows[0][0].to_string(), "o", "cutoff saw the scoped now");
        // ...but a foreground session still sees the global clock.
        assert_eq!(db.global_now(), 42);
        assert_eq!(
            db.execute("SELECT NOW() FROM notes").unwrap().rows[0][0],
            Value::Int(42)
        );
    }

    #[test]
    fn expiration_skips_already_disguised_users() {
        let db = Database::new();
        db.execute(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, \
             last_login INT NOT NULL DEFAULT 0)",
        )
        .unwrap();
        db.execute("INSERT INTO users (name, last_login) VALUES ('a', 0), ('b', 950)")
            .unwrap();
        let edna = Disguiser::new(db.clone());
        edna.register(
            DisguiseSpecBuilder::new("Expire")
                .user_scoped()
                .modify("users", Some("id = $UID"), "name", Modifier::Redact)
                .build()
                .unwrap(),
        )
        .unwrap();
        let policy = ExpirationPolicy {
            name: "e".to_string(),
            disguise: "Expire".to_string(),
            inactive_after: 500,
            user_query: "SELECT id FROM users WHERE last_login < $CUTOFF".to_string(),
            cadence: 1,
        };
        let first = policy.run(&edna, 1000).unwrap();
        assert_eq!(first.len(), 1, "only user 1 is inactive");
        // Running again must not re-disguise user 1.
        let second = policy.run(&edna, 1001).unwrap();
        assert!(second.is_empty());
        // Once user 1 is revealed (returns), they become eligible again.
        edna.reveal(first[0].disguise_id).unwrap();
        let third = policy.run(&edna, 1002).unwrap();
        assert_eq!(third.len(), 1);
    }

    #[test]
    fn apply_if_applies_only_when_still_due() {
        let db = Database::new();
        db.execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
            .unwrap();
        db.execute("INSERT INTO users (name) VALUES ('a')").unwrap();
        let edna = Disguiser::new(db.clone());
        edna.register(
            DisguiseSpecBuilder::new("Expire")
                .user_scoped()
                .modify("users", Some("id = $UID"), "name", Modifier::Redact)
                .build()
                .unwrap(),
        )
        .unwrap();
        let user = Value::Int(1);
        let skipped = edna.apply_if("Expire", Some(&user), |_| Ok(false)).unwrap();
        assert!(skipped.is_none());
        let failed = edna.apply_if("Expire", Some(&user), |_| {
            Err(Error::Workspace("check failed".to_string()))
        });
        assert!(failed.is_err());
        assert!(edna.history().latest("Expire", &user).unwrap().is_none());
        assert_eq!(
            db.execute("SELECT name FROM users").unwrap().rows[0][0],
            Value::Text("a".into())
        );
        let applied = edna.apply_if("Expire", Some(&user), |_| Ok(true)).unwrap();
        assert!(applied.is_some());
        assert!(edna.history().latest("Expire", &user).unwrap().is_some());
    }

    #[test]
    fn inactivity_recheck_narrows_plain_queries_and_reruns_others() {
        let db = Database::new();
        db.execute(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, \
             last_login INT NOT NULL DEFAULT 0)",
        )
        .unwrap();
        db.execute("INSERT INTO users (name, last_login) VALUES ('a', 0), ('b', 950)")
            .unwrap();
        let edna = Disguiser::new(db.clone());
        let mut params = HashMap::new();
        params.insert("CUTOFF".to_string(), Value::Int(500));
        for (user_query, narrowed) in [
            ("SELECT id FROM users WHERE last_login < $CUTOFF", true),
            (
                "SELECT u.id FROM users u WHERE u.last_login < $CUTOFF ORDER BY u.id",
                true,
            ),
            (
                "SELECT id FROM users WHERE last_login < $CUTOFF LIMIT 5",
                false,
            ),
            ("SELECT id + 0 FROM users WHERE last_login < $CUTOFF", false),
        ] {
            let policy = ExpirationPolicy {
                name: "e".to_string(),
                disguise: "Expire".to_string(),
                inactive_after: 500,
                user_query: user_query.to_string(),
                cadence: 1,
            };
            let stats = db.stats();
            assert!(policy
                .still_inactive(&edna, &params, &Value::Int(1))
                .unwrap());
            let scans = db.stats().since(&stats).table_scans;
            assert_eq!(scans == 0, narrowed, "{user_query}: {scans} table scans");
            assert!(!policy
                .still_inactive(&edna, &params, &Value::Int(2))
                .unwrap());
        }
    }
}
