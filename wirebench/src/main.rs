//! `wirebench`: the wire-level benchmark of `edna serve`.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload <browse|gdpr-churn|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run is a few rounds; each generates
//! a Lobsters workspace, starts the server in-process through
//! `edna_server::server::start` (the code `edna serve` runs) and drives
//! it over loopback TCP with `edna_server::Client` from two generator
//! threads, open-loop at fixed rates. Every reply is checked; each round
//! ends with wire-versus-in-process read comparisons, a wire
//! `recover --verify`, and checks of every disguised and revealed user.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of the traced replays (see [`trace`]) and writes
//! their spans as JSONL that `edna trace` renders. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Everything else the run writes goes under `.wirebench/`.
//!
//! The flush policy is the workspace default — WAL group commit with a
//! real fsync, no `fsync_floor`, no `LatencyModel` — and the background
//! checkpointer and decay daemon are off.

#![forbid(unsafe_code)]

mod check;
mod drive;
mod exec;
mod setup;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use edna_obs::Tracer;
use edna_server::Client;

use drive::Phase;
use stats::{classify_overlap, mean, median, percentile, ratio, self_times, Interval};
use trace::{Depth, Replay};
use workload::{Class, Planner, Population, ReadKind, Workload};

/// Where runs keep their state and traces, relative to the working
/// directory.
const OUT_DIR: &str = ".wirebench";

/// The longest open loop a run accepts. Every apply takes a user nobody
/// disguised yet, and each round's set-up leaves a finite number of
/// them; a round whose schedule needs more fails before it drives
/// anything.
const MAX_SECONDS: f64 = 60.0;

/// The flush policy every run uses, as the output states it.
const FLUSH_POLICY: &str = "WAL group commit with real fsync (default WalGroupConfig, \
                            fsync_floor 0), no LatencyModel, background checkpointer \
                            and decay daemon off";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!("unknown workload {workload:?}; expected browse, gdpr-churn or mixed")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(1.0..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be between 1 and {MAX_SECONDS}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A named metric with its unit, printed in the final JSON line.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Counts toward `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn phase(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len();
        self.failures.extend(phase.failures.iter().cloned());
    }

    fn replay(&mut self, replay: &Replay) {
        self.attempted += replay.call_us.len();
        self.failures.extend(replay.failures.iter().cloned());
    }

    /// The `pct`th percentile of `xs`; a run too short to support it
    /// fails rather than reporting another statistic.
    fn percentile(&mut self, name: &str, xs: &[f64], pct: f64) -> f64 {
        percentile(xs, pct).unwrap_or_else(|| {
            self.failures.push(format!(
                "{name}: {} samples cannot support a p{pct}; run longer",
                xs.len()
            ));
            0.0
        })
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!(
                "usage: wirebench --workload <browse|gdpr-churn|mixed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok((tally, metrics)) => {
            let failed = tally.failures.len();
            for f in tally.failures.iter().take(20) {
                println!("FAILED: {f}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
                failed == 0,
                tally.attempted.max(1),
                metrics.json()
            );
            if failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<(Tally, Metrics), String> {
    let w = args.workload;
    let spec = w.spec();
    std::fs::create_dir_all(run_dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    println!(
        "wirebench workload={} seed={} seconds={} trace={} nproc={} commit={} source={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_commit(),
        source_digest(),
    );
    println!("flush policy: {FLUSH_POLICY}");
    let slice = args.seconds / spec.rounds as f64;
    println!(
        "open loop: {:.0} + {:.0} requests/s on the two generator connections \
         (primary = {}, secondary = {}), in {} rounds of {slice:.2} s, each on a set-up \
         of its own",
        spec.rates[0],
        spec.rates[1],
        w.classes().0,
        w.classes().1,
        spec.rounds
    );

    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    for round in 0..spec.rounds {
        let traced = args.trace && round + 1 == spec.rounds;
        let dir = run_dir.join(format!("round-{round}"));
        rounds.push(run_round(args, round, slice, &dir, traced, &mut tally)?);
    }
    let setup_s = median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<f64>>());
    println!(
        "set-up: {} user(s), {} disguised through Service::handle, {} left to disguise; \
         {} set-ups, median {setup_s:.3} s",
        spec.users, spec.predisguised, rounds[0].fresh, spec.rounds
    );
    println!(
        "end-of-run checks: {} made",
        rounds.iter().map(|r| r.checks).sum::<usize>()
    );

    let open = Phase {
        samples: rounds
            .iter()
            .flat_map(|r| r.open.samples.iter().cloned())
            .collect(),
        ..Phase::default()
    };
    let mut metrics = Metrics(Vec::new());
    report_open_loop(w, &open, rounds[0].vault_bytes_per_disguise, &tally);
    if args.trace {
        let open_stats = OpenStats {
            pooled: &open,
            phases: rounds.iter().map(|r| &r.open).collect(),
            frames: rounds.iter().map(|r| r.frames).sum(),
            fsyncs: rounds.iter().map(|r| r.fsyncs).sum(),
            busy: rounds.iter().map(|r| r.busy).sum(),
        };
        let last = rounds.last().expect("a run has rounds");
        let (pristine, pop) = last
            .pristine
            .as_ref()
            .ok_or("the traced round keeps a pristine copy")?;
        traced(
            args,
            pristine,
            pop.clone(),
            run_dir,
            &open_stats,
            &mut tally,
            &mut metrics,
        )?;
    } else {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.closed.as_ref())
            .map(|c| c.samples.len() as f64 / c.wall_s)
            .collect();
        let ops_s = median(&per_round);
        println!(
            "ops_s = {ops_s:.2} ops/s (closed loop, 2 connections, median of {} rounds of {} \
             ops: {per_round:.1?})",
            per_round.len(),
            spec.closed_ops[0] + spec.closed_ops[1]
        );
        // The first round's open loop: each later round starts in a
        // process still holding the heap the rounds before it freed, and
        // the closed loop's two concurrent table copies peak for
        // milliseconds. Over five `mixed` seeds on a shared 2-core host
        // the first open loops' peaks lay within 0.6 MB of each other,
        // the peaks over every phase of the run 156–213 MB.
        let rss = rounds[0].open.rss_peak_mb;
        println!("rss_peak_mb = {rss:.1} MB (resident set while the first round's open loop ran)");
        end_to_end(w, &open, setup_s, rss, &mut tally, &mut metrics);
    }
    Ok((tally, metrics))
}

/// One round of a run: a set-up of its own, served and driven.
struct Round {
    setup_s: f64,
    /// Users the set-up left for the round's applies.
    fresh: usize,
    vault_bytes_per_disguise: Option<f64>,
    open: Phase,
    closed: Option<Phase>,
    checks: usize,
    frames: u64,
    fsyncs: u64,
    busy: u64,
    /// The traced round's copy of its set-up state, with the population
    /// drawn from it.
    pristine: Option<(PathBuf, Population)>,
}

/// Sets up in `dir`, then drives an untimed warm-up, `seconds` of the
/// open loop and (untraced) one closed-loop capacity round, checks the
/// state and stops the server. The traced round keeps its directory for
/// the replays.
fn run_round(
    args: &Args,
    round: usize,
    seconds: f64,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<Round, String> {
    let w = args.workload;
    let spec = w.spec();
    let setup = setup::setup(w, args.seed, dir, traced)?;
    let addr = setup.served.server.addr();
    let svc = Arc::clone(&setup.served.svc);
    let mut planner = Planner::new(w, args.seed, round as u64, setup.pop.clone());
    let warm_ops = planner.batch([spec.warmup_ops; 2])?;
    let open_ops = planner.open_loop(seconds)?;
    let closed_ops = planner.batch(spec.closed_ops)?;

    tally.phase(&drive::drive(addr, &svc, w, &warm_ops, false));
    let db = &svc.workspace().db;
    let counter = |name: &str| db.metrics().counter(name, "").get();
    let frames0 = counter("edna_wal_frames_total");
    let fsyncs0 = counter("edna_wal_fsyncs_total");
    let busy0 = counter("edna_server_busy_rejections_total");
    let open = drive::drive(addr, &svc, w, &open_ops, true);
    let frames = counter("edna_wal_frames_total") - frames0;
    let fsyncs = counter("edna_wal_fsyncs_total") - fsyncs0;
    let busy = counter("edna_server_busy_rejections_total") - busy0;
    tally.phase(&open);
    let closed = (!traced).then(|| drive::drive(addr, &svc, w, &closed_ops, false));
    if let Some(c) = &closed {
        tally.phase(c);
    }

    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let checks = check::run(&mut client, &svc, &open_ops, &setup.usernames);
    drop(client);
    tally.attempted += checks.made;
    tally.failures.extend(checks.failures);
    drop(svc);
    setup.served.stop()?;
    if !traced {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    Ok(Round {
        setup_s: setup.setup_s,
        fresh: setup.pop.fresh.len(),
        vault_bytes_per_disguise: setup.vault_bytes_per_disguise,
        open,
        closed,
        checks: checks.made,
        frames,
        fsyncs,
        busy,
        pristine: setup.pristine.map(|p| (p, setup.pop)),
    })
}

/// The untraced open-loop phases' counters the per-layer report uses.
struct OpenStats<'a> {
    /// Every round's samples together.
    pooled: &'a Phase,
    /// Each round's phase, on its own clock.
    phases: Vec<&'a Phase>,
    frames: u64,
    fsyncs: u64,
    busy: u64,
}

fn is_read(c: Class) -> bool {
    matches!(c, Class::Read(_))
}

/// Selects the latency classes a metric pools.
type Pick = fn(Class) -> bool;

/// The classes `primary_*` and `secondary_*` pool, per workload. The
/// read workloads gate on their point lookups: the join reads copy whole
/// tables, and their p50 follows the host's memory bandwidth — over
/// twenty seeds on a shared 2-core host it spread 20–28% where profile
/// lookups spread 7–10%. Every read kind is still printed.
fn primary(w: Workload) -> Pick {
    match w {
        Workload::GdprChurn => |c| c == Class::Apply,
        _ => |c| c == Class::Read(ReadKind::Profile),
    }
}

/// `mixed` gates its writer on reveals alone. An apply's p50 follows the
/// host's two speeds (about 6 ms and 8.5 ms on a shared 2-core host,
/// switching every few seconds), and over apply+reveal the pooled p50
/// fell between the two, moving 21% over five seeds where the reveal
/// p50 moved 7%. Apply latency is still printed here, and gated on
/// `gdpr-churn`.
fn secondary(w: Workload) -> Pick {
    match w {
        Workload::Browse => |c| c == Class::Write,
        Workload::GdprChurn | Workload::Mixed => |c| c == Class::Reveal,
    }
}

fn end_to_end(
    w: Workload,
    open: &Phase,
    setup_s: f64,
    rss_mb: f64,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let prim = open.latencies(primary(w));
    let sec = open.latencies(secondary(w));
    m.put("setup_s", setup_s, "s");
    m.put(
        "primary_p50_us",
        tally.percentile("primary", &prim, 50.0),
        "us",
    );
    m.put(
        "secondary_p50_us",
        tally.percentile("secondary", &sec, 50.0),
        "us",
    );
    m.put("rss_peak_mb", rss_mb, "MB");
}

/// Prints every latency the open-loop phase supports, by the names the
/// per-operation metrics use, with sample counts.
fn report_open_loop(w: Workload, open: &Phase, vault_bytes: Option<f64>, tally: &Tally) {
    let show = |name: &str, xs: &[f64], pct: f64| match percentile(xs, pct) {
        Some(v) => println!("{name} = {v:.1} us (n={})", xs.len()),
        None => println!("{name} = n/a (n={}, too few samples)", xs.len()),
    };
    let groups: [(&str, Pick); 6] = [
        ("read", is_read),
        ("write", |c| c == Class::Write),
        ("apply", |c| c == Class::Apply),
        ("reveal", |c| c == Class::Reveal),
        ("tick", |c| c == Class::Tick),
        ("checkpoint", |c| c == Class::Checkpoint),
    ];
    for (name, pick) in groups {
        let xs = open.latencies(pick);
        if xs.is_empty() {
            continue;
        }
        for pct in [50.0, 90.0, 99.0] {
            show(&format!("{name}_p{pct}_us"), &xs, pct);
        }
    }
    for kind in ReadKind::ALL {
        let xs = open.latencies(|c| c == Class::Read(kind));
        if !xs.is_empty() {
            show(&format!("read_p50_us.{}", kind.name()), &xs, 50.0);
        }
    }
    let lags: Vec<f64> = open.samples.iter().map(|s| s.lag_us()).collect();
    show("gen.lag_p90_us", &lags, 90.0);
    println!(
        "error_ratio = {} ({} failed of {} attempted)",
        ratio(tally.failures.len() as f64, tally.attempted.max(1) as f64),
        tally.failures.len(),
        tally.attempted
    );
    match vault_bytes {
        Some(b) => println!("vault_bytes_per_disguise = {b:.1} bytes (storage_bytes after set-up)"),
        None => println!(
            "vault_bytes_per_disguise = n/a ({} applies nothing)",
            w.name()
        ),
    }
}

/// The traced run: replays at every depth, then the per-layer metrics.
fn traced(
    args: &Args,
    pristine: &Path,
    pop: Population,
    run_dir: &Path,
    open: &OpenStats<'_>,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let w = args.workload;
    // The replays start from the traced round's set-up state and take a
    // schedule of their own, drawn from it.
    let rounds = w.spec().rounds as u64;
    let mut ops = Planner::new(w, args.seed, rounds, pop).open_loop(args.seconds)?;
    ops.truncate(w.spec().trace_ops);
    let tracer = Tracer::new(1 << 20);
    let lane = |depth: Depth, traced: bool, tag: &str| {
        trace::Lane::open(depth, traced, pristine, run_dir.join(tag))
    };
    let mut lanes = vec![
        lane(Depth::Wire, true, "replay-wire")?,
        lane(Depth::Service, true, "replay-service")?,
        lane(Depth::Engine, true, "replay-engine")?,
        lane(Depth::Engine, false, "replay-engine-untraced")?,
    ];
    // The counts a change may claim must repeat exactly: gdpr-churn
    // replays the engine depth twice, on two identical copies.
    let self_check = w == Workload::GdprChurn;
    if self_check {
        lanes.push(lane(Depth::Engine, true, "replay-engine-again")?);
    }
    let mut replays = trace::replay(w, lanes, &ops, &tracer)?.into_iter();
    let mut next = || replays.next().expect("one replay per lane");
    let (wire, service, engine, untraced_engine) = (next(), next(), next(), next());
    for r in [&wire, &service, &engine, &untraced_engine] {
        tally.replay(r);
    }
    if self_check {
        let again = next();
        tally.replay(&again);
        let per_apply = |r: &Replay| -> Vec<trace::Counts> {
            r.steps
                .iter()
                .filter(|s| s.class == Class::Apply)
                .map(|s| s.counts)
                .collect()
        };
        tally.attempted += 1;
        if per_apply(&engine) == per_apply(&again) {
            println!(
                "self-check: per-apply rows read, statements, rows written, WAL frames and \
                 vault bytes repeat exactly across two engine replays ({} applies)",
                per_apply(&engine).len()
            );
        } else {
            tally
                .failures
                .push("self-check: per-apply counts differ between two identical replays".into());
        }
    }

    let trace_path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "trace: {} spans in {} (render with `edna trace`)",
        tracer.len(),
        trace_path.display()
    );
    layers(&wire, &service, &engine, &untraced_engine, open, tally, m);
    for (name, value, unit) in &m.0 {
        println!("{name} = {value} {unit}");
    }
    Ok(())
}

/// Per-layer metrics from the replays and the untraced open-loop phase.
fn layers(
    wire: &Replay,
    service: &Replay,
    engine: &Replay,
    untraced_engine: &Replay,
    open: &OpenStats<'_>,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let calls = |r: &Replay, pick: &dyn Fn(Class) -> bool| -> Vec<f64> {
        r.call_us
            .iter()
            .filter(|(id, _)| pick(r.class[id]))
            .map(|(_, us)| *us)
            .collect()
    };
    let steps = |pick: &dyn Fn(Class) -> bool| -> Vec<&trace::Step> {
        engine.steps.iter().filter(|s| pick(s.class)).collect()
    };
    let mean_of = |pick: &dyn Fn(Class) -> bool, f: &dyn Fn(&trace::Counts) -> f64| -> f64 {
        let xs: Vec<f64> = steps(pick).iter().map(|s| f(&s.counts)).collect();
        mean(&xs)
    };
    let sum_of = |f: &dyn Fn(&trace::Counts) -> u64| -> f64 {
        engine.steps.iter().map(|s| f(&s.counts)).sum::<u64>() as f64
    };
    let ops = engine.steps.len() as f64;
    let apply = |c: Class| c == Class::Apply;
    let reveal = |c: Class| c == Class::Reveal;

    // server. Self times are medians over requests: a difference of two
    // noisy spans, its mean is swamped by the slow requests' jitter.
    // Engine call times come from the untraced engine lane, whose calls
    // no probe runs just before.
    m.put(
        "server.wire_us",
        median(&self_times(&wire.call_us, &service.call_us)),
        "us",
    );
    m.put(
        "server.service_us",
        median(&self_times(&service.call_us, &untraced_engine.call_us)),
        "us",
    );
    m.put("server.door_stall_p50_us", door_stall(&open.phases), "us");
    m.put("server.busy_rejections", open.busy as f64, "count");

    // core
    m.put("core.apply_us", mean(&calls(untraced_engine, &apply)), "us");
    m.put(
        "core.apply_rows_read",
        mean_of(&apply, &|c| c.rows_read as f64),
        "rows",
    );
    m.put(
        "core.apply_statements",
        mean_of(&apply, &|c| c.statements as f64),
        "count",
    );
    m.put(
        "core.apply_rows_written",
        mean_of(&apply, &|c| c.rows_written as f64),
        "rows",
    );
    m.put(
        "core.apply_wal_frames",
        mean_of(&apply, &|c| c.wal_frames as f64),
        "count",
    );
    let rows_read: Vec<f64> = steps(&apply)
        .iter()
        .map(|s| s.counts.rows_read as f64)
        .collect();
    let tenth = rows_read.len() / 10;
    let growth = if tenth == 0 {
        0.0
    } else {
        ratio(
            mean(&rows_read[rows_read.len() - tenth..]),
            mean(&rows_read[..tenth]),
        )
    };
    m.put("core.apply_rows_read_growth", growth, "ratio");
    m.put(
        "core.reveal_us",
        mean(&calls(untraced_engine, &reveal)),
        "us",
    );
    m.put(
        "core.reveal_rows_read",
        mean_of(&reveal, &|c| c.rows_read as f64),
        "rows",
    );
    m.put(
        "core.history_events_us",
        mean(&engine.history_events_us),
        "us",
    );
    m.put(
        "core.policy_tick_us",
        mean(&calls(untraced_engine, &|c| c == Class::Tick)),
        "us",
    );
    let tick_users: Vec<f64> = steps(&|c| c == Class::Tick)
        .iter()
        .map(|s| s.tick_users as f64)
        .collect();
    m.put("core.policy_users_per_tick", mean(&tick_users), "users");

    // vault
    m.put("vault.entries_for_us", mean(&engine.entries_for_us), "us");
    m.put("vault.retries", engine.vault_retries as f64, "count");
    m.put(
        "vault.bytes_per_apply",
        mean_of(&apply, &|c| c.vault_bytes as f64),
        "bytes",
    );

    // relational
    for kind in ReadKind::ALL {
        m.put(
            &format!("relational.select_us.{}", kind.name()),
            mean(&calls(untraced_engine, &|c| c == Class::Read(kind))),
            "us",
        );
    }
    let reads = steps(&is_read);
    m.put(
        "relational.rows_read_per_select",
        ratio(
            reads.iter().map(|s| s.counts.rows_read).sum::<u64>() as f64,
            reads.len() as f64,
        ),
        "rows",
    );
    m.put(
        "relational.stmt_cache_hit_ratio",
        ratio(sum_of(&|c| c.stmt_cache_hits), sum_of(&|c| c.statements)),
        "ratio",
    );
    let probes = sum_of(&|c| c.index_probes);
    m.put(
        "relational.index_probe_ratio",
        ratio(probes, probes + sum_of(&|c| c.table_scans)),
        "ratio",
    );
    m.put(
        "relational.statements_per_op",
        ratio(sum_of(&|c| c.statements), ops),
        "count",
    );
    m.put(
        "relational.wal_fsyncs_per_op",
        ratio(sum_of(&|c| c.wal_fsyncs), ops),
        "count",
    );
    m.put(
        "relational.wal_bytes_per_op",
        ratio(sum_of(&|c| c.wal_bytes), ops),
        "bytes",
    );
    m.put(
        "relational.wal_frames_per_fsync",
        ratio(open.frames as f64, open.fsyncs as f64),
        "ratio",
    );
    m.put(
        "relational.checkpoint_us",
        mean(&calls(untraced_engine, &|c| c == Class::Checkpoint)),
        "us",
    );

    // the benchmark itself
    let lags: Vec<f64> = open.pooled.samples.iter().map(|s| s.lag_us()).collect();
    m.put(
        "gen.lag_p90_us",
        tally.percentile("gen.lag", &lags, 90.0),
        "us",
    );
    // What the traced engine lane adds to each request (probes, counter
    // snapshots, span records) over the same call made bare.
    let traced_us: f64 = engine.lane_us.values().sum();
    let bare_us: f64 = untraced_engine.lane_us.values().sum();
    println!(
        "trace overhead: traced engine lane {:.0} ms, untraced {:.0} ms over {} requests",
        traced_us / 1e3,
        bare_us / 1e3,
        engine.lane_us.len()
    );
    m.put(
        "trace.overhead_pct",
        100.0 * ratio(traced_us - bare_us, bare_us),
        "%",
    );
}

/// The median of reads that overlapped an in-flight apply, reveal, tick
/// or checkpoint minus the median of reads that overlapped none; 0 when
/// either group is too small for a median (no writers, or no reads).
/// A tail percentile would need more overlapped reads than a run at
/// `mixed`'s rates collects (about 30 in 15 s, nearly all behind a tick
/// or checkpoint). Each round's phase is classified on its own clock.
fn door_stall(phases: &[&Phase]) -> f64 {
    let (mut overlapped, mut clean) = (Vec::new(), Vec::new());
    for open in phases {
        let reads: Vec<(Interval, f64)> = open
            .samples
            .iter()
            .filter(|s| is_read(s.class))
            .map(|s| {
                let window = Interval {
                    start: s.due_us,
                    end: s.done_us,
                };
                (window, s.latency_us())
            })
            .collect();
        let writers: Vec<Interval> = open
            .samples
            .iter()
            .filter(|s| {
                matches!(
                    s.class,
                    Class::Apply | Class::Reveal | Class::Tick | Class::Checkpoint
                )
            })
            .map(|s| Interval {
                start: s.sent_us,
                end: s.done_us,
            })
            .collect();
        let (o, c) = classify_overlap(&reads, &writers);
        overlapped.extend(o);
        clean.extend(c);
    }
    println!(
        "door overlap: {} read(s) overlapped a writer, {} did not",
        overlapped.len(),
        clean.len()
    );
    match (percentile(&overlapped, 50.0), percentile(&clean, 50.0)) {
        (Some(a), Some(b)) => a - b,
        _ => 0.0,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
/// The checked-out commit, read from `.git` without running git; a
/// checkout exported without history has none.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

/// SHA-256 over the program's sources (the crates, the workspace
/// manifests and this benchmark), so a run names the code it measured
/// even where no commit is recorded.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "wirebench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.push(PathBuf::from("wirebench/Cargo.toml"));
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            buf.extend_from_slice(f.to_string_lossy().as_bytes());
            buf.push(0);
            buf.extend_from_slice(&bytes);
        }
    }
    let digest = edna_util::sha256::sha256(&buf);
    edna_util::hex::to_hex(&digest[..8])
}
