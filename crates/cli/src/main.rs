//! The `edna` command-line tool.
//!
//! ```text
//! edna init <state> [--schema <file.sql>] [--passphrase <p>]
//! edna sql <state> "<statement>" [--passphrase <p>] [--trace-out <f.jsonl>]
//!          [--slow-ms <n>]
//! edna explain <state> "<statement>"
//! edna load-sql <state> <file.sql> [--passphrase <p>]
//! edna register <state> <spec.edna | policy.edna> [--passphrase <p>]
//! edna check <state> [<disguise> | <spec.edna> | --all] [--deny-warnings]
//!          [--format text|json]
//! edna audit <state> [--deny-warnings] [--format text|json]
//! edna specs <state>
//! edna apply <state> <disguise> [--user <id>] [--no-compose] [--no-optimize]
//!          [--trace-out <f.jsonl>]
//! edna apply <state> <disguise> --users-file <ids.txt> [--shards <n>]
//!          [--trace-out <f.jsonl>]
//! edna reveal <state> (--id <n> | --latest <disguise> [--user <id>])
//!          [--trace-out <f.jsonl>]
//! edna history <state>
//! edna disguised <state>
//! edna stats <state>
//! edna recover <state> [--verify] [--passphrase <p>] [--trace-out <f.jsonl>]
//! edna serve <state> [--addr <ip:port>] [--max-conns <n>] [--conn-timeout-ms <n>]
//!          [--max-frame-bytes <n>] [--checkpoint-secs <n>] [--passphrase <p>]
//!          [--skip-audit] [--policy-tick-ms <n>] [--decay-rows <n>] [--no-decay]
//!          [--sync-replicas <n>] [--repl-gate-ms <n>] [--replica-of <ip:port>]
//! edna promote <state>
//! edna trace <trace.jsonl>
//! edna demo <state> (hotcrp | lobsters) [--scale <f>]
//! ```
//!
//! `edna register` routes on content: files starting with `policy_name:`
//! register as scheduled policies (expiration / decay), everything else
//! as disguise specs. `edna audit` abstractly interprets the whole
//! workspace — every registered disguise under arbitrary application
//! order, plus every registered policy — and proves or refutes
//! reveal-reachability, vault-orphaning, and policy convergence
//! (diagnostics `E050`–`E053`, `W050`–`W053`). `edna serve` runs the
//! same audit at startup and refuses to serve a workspace with audit
//! errors unless `--skip-audit` is given. While serving, a background
//! decay daemon ticks registered policies every `--policy-tick-ms`
//! (default 1000), transforming at most `--decay-rows` rows per tick
//! (default 512) before yielding to foreground traffic; `--no-decay`
//! disables it. The wire op `policy status` lists each policy's kind,
//! cadence, and last completed run.
//!
//! High availability: `edna serve <standby> --replica-of <primary>`
//! bootstraps a fresh copy of the primary's state over the wire and
//! then serves it read-only while continuously applying the primary's
//! WAL and vault stream. With `--sync-replicas N` on the primary, a
//! commit is not acknowledged until `N` followers have durably applied
//! it. `edna promote <standby>` (run on a stopped standby) bumps the
//! replication epoch so the node can serve as the new primary — and so
//! the deposed primary is fenced off (`stale-epoch`) if it comes back.
//!
//! `--trace-out` records structured spans (statements, disguise phases,
//! vault/storage operations) and exports them as JSON Lines;
//! `edna trace` pretty-prints such a file as an indented tree. `edna
//! stats` prints the Prometheus-text metrics the last state-mutating
//! command left in the `<state>.metrics` sidecar. `EXPLAIN ANALYZE
//! <select>` (via `edna sql`) profiles per-operator row counts and
//! timings from a real execution.

use std::process::ExitCode;

use edna_cli::{
    format_history, format_result, format_trace_tree, parse_user, CliError, CliResult, Workspace,
};
use edna_core::{ApplyOptions, SpanRecord, Tracer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // Distinct exit codes so wrappers (the serve supervisor, ci.sh,
        // operator scripts) can react to the failure class: usage=2,
        // runtime=1, recovery-needed=3.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.kind.code())
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn usage() -> CliError {
    CliError::usage(
        "usage: edna <init|sql|explain|load-sql|register|check|audit|specs|apply|reveal|\
         history|disguised|stats|recover|serve|promote|trace|demo> <state> [args...] \
         (see crate docs)"
            .to_string(),
    )
}

/// Parses `--format text|json` (defaulting to text). Returns whether
/// JSON output was requested.
fn json_format(args: &[String]) -> CliResult<bool> {
    match flag_value(args, "--format") {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(CliError::usage(format!(
            "bad --format {other} (expected text or json)"
        ))),
    }
}

/// Prints check/audit reports (text or JSON) and maps findings to the
/// exit class: errors — or warnings under `--deny-warnings` — are
/// runtime failures (exit 1), matching the serve supervisor's classing.
fn finish_diagnostics(
    tool: &str,
    reports: &[(String, Vec<edna_core::Diagnostic>)],
    json: bool,
    deny_warnings: bool,
) -> CliResult<()> {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (_, diags) in reports {
        errors += diags
            .iter()
            .filter(|d| d.severity == edna_core::Severity::Error)
            .count();
        warnings += diags
            .iter()
            .filter(|d| d.severity == edna_core::Severity::Warning)
            .count();
    }
    if json {
        println!(
            "{}",
            edna_core::render_json_report(&format!("edna {tool}"), reports)
        );
    } else {
        for (name, diags) in reports {
            if diags.is_empty() {
                println!("{name}: ok");
                continue;
            }
            println!("{name}:");
            print!("{}", edna_core::render_report(diags));
        }
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        return Err(CliError::runtime(format!(
            "{tool} failed: {errors} error(s), {warnings} warning(s){}",
            if deny_warnings && errors == 0 {
                " (--deny-warnings)"
            } else {
                ""
            }
        )));
    }
    Ok(())
}

/// Builds a tracer when `--trace-out <file>` was given; the returned
/// closure writes the collected spans there.
fn trace_sink(args: &[String]) -> Option<(Tracer, impl FnOnce(&Tracer) -> CliResult<()>)> {
    let path = flag_value(args, "--trace-out")?.to_string();
    let tracer = Tracer::default();
    Some((tracer, move |t: &Tracer| {
        t.write_jsonl(std::path::Path::new(&path))
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {} span(s) to {path}", t.len());
        Ok(())
    }))
}

fn run(args: &[String]) -> CliResult<()> {
    let command = args.first().ok_or_else(usage)?.as_str();
    let state = args.get(1).ok_or_else(usage)?.clone();
    let passphrase = flag_value(args, "--passphrase");

    match command {
        "init" => {
            let ws = Workspace::init(&state, passphrase)?;
            if let Some(schema) = flag_value(args, "--schema") {
                let sql = std::fs::read_to_string(schema)
                    .map_err(|e| CliError::runtime(format!("cannot read {schema}: {e}")))?;
                ws.db.execute_script(&sql)?;
                ws.save()?;
            }
            println!("initialized {state}");
        }
        "sql" => {
            let stmt = args.get(2).ok_or_else(usage)?;
            let ws = Workspace::open(&state, passphrase)?;
            let sink = trace_sink(args);
            if let Some((tracer, _)) = &sink {
                ws.edna.set_tracer(Some(tracer.clone()));
            }
            let slow_ms: Option<u64> = flag_value(args, "--slow-ms")
                .map(|s| {
                    s.parse()
                        .map_err(|_| CliError::usage(format!("bad --slow-ms {s}")))
                })
                .transpose()?;
            if let Some(ms) = slow_ms {
                ws.db
                    .set_slow_statement_threshold(Some(std::time::Duration::from_millis(ms)));
            }
            let r = ws.db.execute(stmt)?;
            print!("{}", format_result(&r));
            if slow_ms.is_some() {
                for s in ws.db.slow_statements() {
                    eprintln!("slow ({}us): {}", s.micros, s.sql);
                }
            }
            ws.save()?;
            if let Some((tracer, flush)) = sink {
                flush(&tracer)?;
            }
        }
        "explain" => {
            let stmt = args.get(2).ok_or_else(usage)?;
            let ws = Workspace::open(&state, passphrase)?;
            print!("{}", ws.db.explain(stmt)?);
        }
        "load-sql" => {
            let file = args.get(2).ok_or_else(usage)?;
            let sql = std::fs::read_to_string(file)
                .map_err(|e| CliError::runtime(format!("cannot read {file}: {e}")))?;
            let ws = Workspace::open(&state, passphrase)?;
            let results = ws.db.execute_script(&sql)?;
            println!("executed {} statement(s)", results.len());
            ws.save()?;
        }
        "register" => {
            let file = args.get(2).ok_or_else(usage)?;
            let dsl = std::fs::read_to_string(file)
                .map_err(|e| CliError::runtime(format!("cannot read {file}: {e}")))?;
            let ws = Workspace::open(&state, passphrase)?;
            // Route on content: `policy_name:` files are scheduled
            // policies, everything else is a disguise spec.
            if edna_core::is_policy_source(&dsl) {
                let name = ws.register_policy(&dsl)?;
                println!("registered policy {name}");
            } else {
                let name = ws.register_spec(&dsl)?;
                println!("registered disguise {name}");
            }
        }
        "check" => {
            let ws = Workspace::open(&state, passphrase)?;
            let deny_warnings = has_flag(args, "--deny-warnings");
            // A positional target names a registered disguise or a spec
            // file; absent (or `--all`) every registered spec is checked.
            let target = args
                .get(2)
                .map(String::as_str)
                .filter(|a| !a.starts_with("--"));
            let reports: Vec<(String, Vec<edna_core::Diagnostic>)> = match target {
                None => ws.edna.check_all(),
                Some(t) if ws.edna.spec(t).is_ok() => vec![(t.to_string(), ws.edna.check(t)?)],
                Some(t) if std::path::Path::new(t).exists() => {
                    // A spec file is analyzed without registering it,
                    // with the registered specs as composition priors.
                    let dsl = std::fs::read_to_string(t)
                        .map_err(|e| CliError::runtime(format!("cannot read {t}: {e}")))?;
                    let spec = edna_core::parse_spec(&dsl)?;
                    let names = ws.spec_names()?;
                    let priors = names
                        .iter()
                        .filter(|n| **n != spec.name)
                        .map(|n| ws.edna.spec(n))
                        .collect::<Result<Vec<_>, _>>()?;
                    let prior_refs: Vec<&edna_core::DisguiseSpec> = priors.iter().collect();
                    let diags = edna_core::analyze_spec(&spec, ws.edna.database(), &prior_refs);
                    vec![(spec.name.clone(), diags)]
                }
                Some(t) => {
                    return Err(CliError::runtime(format!(
                        "{t} is neither a registered disguise nor a spec file"
                    )))
                }
            };
            finish_diagnostics("check", &reports, json_format(args)?, deny_warnings)?;
        }
        "audit" => {
            let deny_warnings = has_flag(args, "--deny-warnings");
            let json = json_format(args)?;
            let ws = Workspace::open(&state, passphrase)?;
            let diags = ws.audit()?;
            let reports = vec![("workspace".to_string(), diags)];
            finish_diagnostics("audit", &reports, json, deny_warnings)?;
        }
        "specs" => {
            let ws = Workspace::open(&state, passphrase)?;
            for name in ws.spec_names()? {
                let spec = ws.edna.spec(&name)?;
                println!(
                    "{name}  (user_scoped: {}, reversible: {}, {} table section(s))",
                    spec.user_scoped,
                    spec.reversible,
                    spec.tables.len()
                );
            }
        }
        "apply" => {
            let disguise = args.get(2).ok_or_else(usage)?;
            // Mass disguise: one user id per line (blank lines and `#`
            // comments skipped), owner-hash-sharded across threads.
            if let Some(path) = flag_value(args, "--users-file") {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
                let users: Vec<edna_relational::Value> = text
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .map(parse_user)
                    .collect();
                if users.is_empty() {
                    return Err(CliError::usage(format!("{path} lists no users")));
                }
                let shards: usize = match flag_value(args, "--shards") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| CliError::usage(format!("bad shard count {s}")))?,
                    None => 0, // 0 = one shard per available core
                };
                let ws = Workspace::open(&state, passphrase)?;
                let sink = trace_sink(args);
                if let Some((tracer, _)) = &sink {
                    ws.edna.set_tracer(Some(tracer.clone()));
                }
                let report = ws.edna.apply_many(disguise, &users, shards)?;
                println!(
                    "applied {} to {} user(s) in {} shard(s): {} succeeded, {} failed, \
                     removed {}, decorrelated {}, modified {}, vault entries {}, \
                     degraded {}, {:.1?}",
                    report.name,
                    report.users,
                    report.shards,
                    report.succeeded,
                    report.failures.len(),
                    report.rows_removed,
                    report.rows_decorrelated,
                    report.rows_modified,
                    report.vault_entries,
                    report.degraded,
                    report.duration
                );
                for (user, reason) in &report.failures {
                    eprintln!("  failed {}: {reason}", user.to_sql_literal());
                }
                ws.save()?;
                if let Some((tracer, flush)) = sink {
                    flush(&tracer)?;
                }
                if !report.failures.is_empty() {
                    return Err(CliError::runtime(format!(
                        "{} of {} user(s) failed to disguise",
                        report.failures.len(),
                        report.users
                    )));
                }
                return Ok(());
            }
            let user = flag_value(args, "--user").map(parse_user);
            let ws = Workspace::open(&state, passphrase)?;
            let sink = trace_sink(args);
            if let Some((tracer, _)) = &sink {
                ws.edna.set_tracer(Some(tracer.clone()));
            }
            let opts = ApplyOptions {
                compose: !has_flag(args, "--no-compose"),
                optimize: !has_flag(args, "--no-optimize"),
                use_transaction: true,
                ..ApplyOptions::default()
            };
            let report = ws.edna.apply_with_options(disguise, user.as_ref(), opts)?;
            println!(
                "applied {} (id {}): removed {}, decorrelated {}, modified {}, \
                 placeholders {}, recorrelated {}, statements {}",
                report.name,
                report.disguise_id,
                report.rows_removed,
                report.rows_decorrelated,
                report.rows_modified,
                report.placeholders_created,
                report.rows_recorrelated,
                report.stats.statements
            );
            ws.save()?;
            if let Some((tracer, flush)) = sink {
                flush(&tracer)?;
            }
        }
        "reveal" => {
            // Validate the target flags before touching the state, so a
            // typo is a usage error even when the state is unopenable.
            enum Target {
                Id(u64),
                Latest(String, Option<edna_relational::Value>),
            }
            let target = if let Some(id) = flag_value(args, "--id") {
                let id: u64 = id
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad id {id}")))?;
                Target::Id(id)
            } else if let Some(name) = flag_value(args, "--latest") {
                let user = flag_value(args, "--user").map(parse_user);
                Target::Latest(name.to_string(), user)
            } else {
                return Err(CliError::usage(
                    "reveal needs --id <n> or --latest <disguise> [--user <id>]".to_string(),
                ));
            };
            let ws = Workspace::open(&state, passphrase)?;
            let sink = trace_sink(args);
            if let Some((tracer, _)) = &sink {
                ws.edna.set_tracer(Some(tracer.clone()));
            }
            let report = match target {
                Target::Id(id) => ws.edna.reveal(id)?,
                Target::Latest(name, user) => ws.edna.reveal_latest(&name, user.as_ref())?,
            };
            println!(
                "revealed {} (id {}): reinserted {}, restored {}, placeholders removed {}, \
                 re-applied {:?}",
                report.name,
                report.disguise_id,
                report.rows_reinserted,
                report.rows_restored,
                report.placeholders_removed,
                report.reapplied
            );
            ws.save()?;
            if let Some((tracer, flush)) = sink {
                flush(&tracer)?;
            }
        }
        "stats" => {
            // The sidecar holds the registry snapshot the last
            // state-mutating command saved; a fresh open would read all
            // zeroes, so print the sidecar instead.
            let ws = Workspace::open(&state, passphrase)?;
            let path = ws.metrics_path();
            let text = std::fs::read_to_string(&path).map_err(|e| {
                CliError::runtime(format!(
                    "no metrics sidecar at {} (run any state-mutating command, e.g. \
                     `edna sql`, to generate it): {e}",
                    path.display()
                ))
            })?;
            // A truncated sidecar (torn write on a pre-atomic-rename
            // build) or one from a pre-observability edna would print as
            // garbage; surface what to do instead.
            if let Err(why) = edna_cli::validate_metrics_sidecar(&text) {
                return Err(CliError::runtime(format!(
                    "metrics sidecar at {} is not a readable Prometheus exposition \
                     ({why}); it may be truncated or written by an older edna — re-run \
                     any state-mutating command (e.g. `edna sql`) to regenerate it",
                    path.display()
                )));
            }
            print!("{text}");
        }
        "recover" => {
            // Recovery happens inside every open; this surfaces what it
            // did. `--verify` additionally self-checks structural
            // integrity (FKs, unique indexes, auto-increment cursors).
            let ws = Workspace::open(&state, passphrase)?;
            let r = &ws.last_recovery;
            println!(
                "scanned {} WAL frame(s), replayed {}, truncated {} torn byte(s)",
                r.frames_scanned, r.frames_replayed, r.torn_bytes
            );
            println!(
                "snapshot watermark {}, last LSN {}{}",
                r.snapshot_watermark,
                r.last_lsn,
                if r.snapshot_promoted {
                    ", promoted interrupted snapshot"
                } else {
                    ""
                }
            );
            for id in &ws.last_resolution.completed {
                println!("disguise {id}: intent resolved as completed");
            }
            for id in &ws.last_resolution.undone {
                println!("disguise {id}: half-applied, rolled back");
            }
            // A policy run interrupted mid-tick is benign: incomplete
            // runs never advance the last-run stamp, so the next tick
            // resumes exactly where the crash cut it off.
            for run in &r.open_policy_runs {
                println!(
                    "policy run {:?} interrupted mid-tick; it resumes on the next tick",
                    run.policy
                );
            }
            if r.acted() || !ws.last_resolution.is_empty() {
                println!("recovered state checkpointed");
            } else {
                println!("nothing to recover");
            }
            if let Some((tracer, flush)) = trace_sink(args) {
                ws.record_recovery_span(&tracer);
                flush(&tracer)?;
            }
            if has_flag(args, "--verify") {
                let problems = ws.db.verify_integrity();
                if problems.is_empty() {
                    println!("integrity: ok");
                } else {
                    for p in &problems {
                        eprintln!("integrity: {p}");
                    }
                    return Err(CliError::recovery(format!(
                        "integrity check failed: {} problem(s)",
                        problems.len()
                    )));
                }
            }
        }
        "promote" => {
            // Failover step 2 (after draining the standby): durably bump
            // the replication epoch so this node serves as the new
            // primary and the deposed one is fenced (`stale-epoch`) if
            // it tries to feed or rejoin with stale history.
            let ws = Workspace::open(&state, passphrase)?;
            let epoch = ws.bump_epoch()?;
            ws.save()?;
            println!("promoted {state} to epoch {epoch}");
        }
        "serve" => {
            fn num_flag<T: std::str::FromStr>(
                args: &[String],
                name: &str,
                default: T,
            ) -> CliResult<T> {
                match flag_value(args, name) {
                    None => Ok(default),
                    Some(s) => s
                        .parse()
                        .map_err(|_| CliError::usage(format!("bad {name} {s}"))),
                }
            }
            let addr = flag_value(args, "--addr")
                .unwrap_or("127.0.0.1:0")
                .to_string();
            let max_conns: usize = num_flag(args, "--max-conns", 8)?;
            let conn_timeout_ms: u64 = num_flag(args, "--conn-timeout-ms", 10_000)?;
            let max_frame_bytes: usize = num_flag(args, "--max-frame-bytes", 1 << 20)?;
            let checkpoint_secs: u64 = num_flag(args, "--checkpoint-secs", 30)?;
            let policy_tick_ms: u64 = num_flag(args, "--policy-tick-ms", 1_000)?;
            let decay_rows: usize = num_flag(args, "--decay-rows", 512)?;
            // `--no-decay` (or a zero tick) disables the decay daemon;
            // registered policies then only run via an explicit
            // foreground path, never in the background.
            let policy_tick = (!has_flag(args, "--no-decay") && policy_tick_ms > 0)
                .then(|| std::time::Duration::from_millis(policy_tick_ms));
            let sync_replicas: usize = num_flag(args, "--sync-replicas", 0)?;
            let repl_gate_ms: u64 = num_flag(args, "--repl-gate-ms", 2_000)?;
            let replica_of = flag_value(args, "--replica-of").map(str::to_string);

            // A standby bootstraps a fresh copy of the primary's state
            // over the wire *before* opening the workspace, then applies
            // the live tail while serving read-only.
            let bootstrapped = match &replica_of {
                Some(primary) => {
                    let addr: std::net::SocketAddr = primary.parse().map_err(|_| {
                        CliError::usage(format!("bad --replica-of address {primary}"))
                    })?;
                    let boot = edna_server::replica::bootstrap(
                        addr,
                        std::path::Path::new(&state),
                        std::time::Duration::from_secs(30),
                    )
                    .map_err(|e| CliError::runtime(format!("replica bootstrap failed: {e}")))?;
                    Some(boot)
                }
                None => None,
            };
            let is_replica = bootstrapped.is_some();
            let config = edna_server::ServerConfig {
                addr,
                max_conns,
                queue_depth: max_conns,
                conn_timeout: std::time::Duration::from_millis(conn_timeout_ms.max(1)),
                max_frame_bytes,
                // A replica must never checkpoint while streaming: a
                // local WAL truncation would burn LSNs the primary is
                // about to ship. The final drain checkpoint still runs
                // (the stream is torn down first; re-serving as a
                // replica re-bootstraps from scratch).
                checkpoint_every: (checkpoint_secs > 0 && !is_replica)
                    .then(|| std::time::Duration::from_secs(checkpoint_secs)),
                // Policy runs are the primary's job; their effects
                // arrive through the WAL stream.
                policy_tick: policy_tick.filter(|_| !is_replica),
                decay_rows: decay_rows.max(1),
                sync_replicas,
                repl_gate_timeout: std::time::Duration::from_millis(repl_gate_ms.max(1)),
            };
            let ws = if is_replica {
                Workspace::open_replica(&state, passphrase)?
            } else {
                Workspace::open(&state, passphrase)?
            };
            if let Some(boot) = &bootstrapped {
                // The freshly opened workspace must land exactly where
                // the primary said the shipped state ends.
                if ws.db.wal_last_lsn() != boot.last_lsn || ws.epoch() != boot.epoch {
                    return Err(CliError::runtime(format!(
                        "bootstrap mismatch: local lsn {} epoch {} vs shipped lsn {} epoch {}",
                        ws.db.wal_last_lsn(),
                        ws.epoch(),
                        boot.last_lsn,
                        boot.epoch
                    )));
                }
            }
            // Refuse to serve a workspace whose disguise graph has audit
            // errors (orphanable vaults, unreachable reveals, diverging
            // policies): clients would be offered disguises whose
            // reversibility promise can be broken by another tenant's
            // apply. `--skip-audit` is the operator escape hatch. A
            // replica serves the primary's state verbatim and read-only,
            // so the primary's own audit gate already covered it.
            if !has_flag(args, "--skip-audit") && !is_replica {
                let diags = ws.audit()?;
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == edna_core::Severity::Error)
                    .count();
                if errors > 0 {
                    eprint!("{}", edna_core::render_report(&diags));
                    return Err(CliError::runtime(format!(
                        "refusing to serve: audit found {errors} error(s) \
                         (run `edna audit {state}` for details, or pass --skip-audit)"
                    )));
                }
            }
            let svc = std::sync::Arc::new(edna_server::Service::new(ws)?);
            let replica_shared = bootstrapped.as_ref().map(|boot| {
                let shared = edna_server::ReplicaShared::new(
                    replica_of.clone().unwrap_or_default(),
                    boot.epoch,
                    boot.last_lsn,
                );
                svc.attach_replica(shared.clone());
                shared
            });
            let handle = edna_server::start(svc.clone(), config)
                .map_err(|e| CliError::runtime(format!("cannot bind server: {e}")))?;
            // The apply loop: reads the primary's live tail, applies each
            // frame in an engine transaction, and acks. Exits on stream
            // death or drain; the node keeps serving reads either way.
            let applier = bootstrapped.map(|boot| {
                let svc = svc.clone();
                let shared = replica_shared.clone().expect("replica has shared state");
                std::thread::Builder::new()
                    .name("edna-replica-apply".to_string())
                    .spawn(move || {
                        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                        edna_server::replica::run(boot.stream, &svc, &shared, &stop);
                    })
                    .expect("spawn replica applier")
            });
            // The soak harness and supervisors parse this line to learn
            // the picked port; stdout is line-buffered, so it flushes.
            // A supervisor may close stdout after parsing it — status
            // prints must not crash the drain, so write errors are
            // swallowed.
            use std::io::Write as _;
            let mut out = std::io::stdout();
            let _ = writeln!(out, "listening on {}", handle.addr());
            // The wire `shutdown` op must present this token; only the
            // operator reading this stdout (or the supervisor capturing
            // it) can drain the server remotely.
            let _ = writeln!(out, "shutdown token {}", handle.shutdown_token());
            let _ = match &replica_shared {
                Some(shared) => writeln!(
                    out,
                    "role: replica of {} (epoch {})",
                    shared.source,
                    shared.epoch()
                ),
                None => writeln!(out, "role: primary (epoch {})", svc.workspace().epoch()),
            };
            handle
                .wait()
                .map_err(|_| CliError::runtime("server thread panicked".to_string()))?;
            if let Some(t) = applier {
                let _ = t.join();
            }
            let _ = writeln!(std::io::stdout(), "drained and checkpointed");
        }
        "trace" => {
            // Here the positional argument is the JSONL file itself.
            let text = std::fs::read_to_string(&state)
                .map_err(|e| CliError::runtime(format!("cannot read {state}: {e}")))?;
            let mut spans = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let span = SpanRecord::from_json(line).ok_or_else(|| {
                    CliError::runtime(format!("{state}:{}: not a span line", i + 1))
                })?;
                spans.push(span);
            }
            print!("{}", format_trace_tree(&spans));
            eprintln!("({} span(s))", spans.len());
        }
        "history" => {
            let ws = Workspace::open(&state, passphrase)?;
            print!("{}", format_history(&ws.edna)?);
        }
        "disguised" => {
            let ws = Workspace::open(&state, passphrase)?;
            let rows = ws.edna.disguised_rows()?;
            let mut tables: Vec<_> = rows.iter().collect();
            tables.sort_by_key(|(t, _)| t.as_str());
            for (table, pks) in tables {
                let mut pks: Vec<_> = pks.iter().cloned().collect();
                pks.sort();
                println!("{table}: {}", pks.join(", "));
            }
        }
        "demo" => {
            let which = args.get(2).ok_or_else(usage)?.as_str();
            let scale: f64 = flag_value(args, "--scale")
                .map(|s| {
                    s.parse()
                        .map_err(|_| CliError::usage(format!("bad scale {s}")))
                })
                .transpose()?
                .unwrap_or(0.1);
            let ws = Workspace::init(&state, passphrase)?;
            match which {
                "hotcrp" => {
                    ws.db.execute_script(edna_apps::hotcrp::SCHEMA_SQL)?;
                    let config = edna_apps::hotcrp::generate::HotCrpConfig::scaled(scale);
                    edna_apps::hotcrp::generate::generate(&ws.db, &config)?;
                    for dsl in [
                        edna_apps::hotcrp::GDPR_DSL,
                        edna_apps::hotcrp::GDPR_PLUS_DSL,
                        edna_apps::hotcrp::CONFANON_DSL,
                    ] {
                        ws.register_spec(dsl)?;
                    }
                    println!(
                        "created HotCRP demo at {state} ({} users, {} papers, {} reviews)",
                        config.users, config.papers, config.reviews
                    );
                }
                "lobsters" => {
                    ws.db.execute_script(edna_apps::lobsters::SCHEMA_SQL)?;
                    let config = edna_apps::lobsters::generate::LobstersConfig::medium();
                    edna_apps::lobsters::generate::generate(&ws.db, &config)?;
                    ws.register_spec(edna_apps::lobsters::GDPR_DSL)?;
                    println!(
                        "created Lobsters demo at {state} ({} users, {} stories)",
                        config.users, config.stories
                    );
                }
                other => {
                    return Err(CliError::runtime(format!(
                        "unknown demo {other} (expected hotcrp or lobsters)"
                    )))
                }
            }
            ws.save()?;
            println!("try: edna specs {state}");
        }
        // A user id as first flag is easy to mistype; give a hint.
        other => {
            return Err(CliError::usage(format!(
                "unknown command {other}; {}",
                usage()
            )))
        }
    }
    Ok(())
}
