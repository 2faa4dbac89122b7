//! Write-scaling bench WS: the commit pipeline under concurrency.
//!
//! Two sections, both against a WAL-attached database whose group-commit
//! pipeline is configured with an **fsync floor** — a lower bound on the
//! wall-clock cost of one batch flush — so the relative price of
//! durability is pinned even on hosts (tmpfs, fast NVMe) where a real
//! fsync is too cheap to measure:
//!
//! 1. **Commit sweep**: N committer threads each run a mixed write
//!    workload (INSERT + UPDATE auto-commit transactions) against one
//!    Lobsters database. Reported per thread count: throughput (txn/s),
//!    p50/p99 per-commit latency, and fsyncs per transaction read from
//!    the `edna_wal_fsyncs_total` counter. With group commit working,
//!    throughput scales with threads while fsyncs/txn falls well below 1
//!    — co-committers share flushes.
//! 2. **apply_many**: disguising a departing cohort (`Lobsters-GDPR`
//!    over `WRITE_SCALING_USERS` users) sequentially vs. through the
//!    owner-sharded `Disguiser::apply_many` pipeline, same latency knob.
//!
//! Results land in `BENCH_write_scaling.json` (override with
//! `WRITE_SCALING_OUT`). Knobs: `WRITE_SCALING_THREADS` (default
//! `1,2,4,8`), `WRITE_SCALING_TXNS` (per-thread transactions, default
//! 200), `WRITE_SCALING_USERS` (cohort size, default 1000),
//! `WRITE_SCALING_SHARDS` (default 16 — oversharding helps single-core
//! hosts keep staging while a flush sleeps),
//! `WRITE_SCALING_FSYNC_FLOOR_US` (default 1000, a conservative
//! barrier-write SSD), and `WRITE_SCALING_GROUP_DELAY_US` (adaptive
//! leader linger, default from `WalGroupConfig`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use edna_apps::lobsters::{self, generate::LobstersConfig};
use edna_bench::harness::percentile;
use edna_core::{ApplyOptions, Disguiser};
use edna_relational::wal::WalGroupConfig;
use edna_relational::{Database, Value, Wal};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn counter(db: &Database, name: &str) -> u64 {
    db.metrics().counter(name, "").get()
}

/// A unique throwaway WAL path; the file is removed before open and
/// after the measurement so reruns start cold.
fn wal_path(tag: &str) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("edna_write_scaling_{pid}_{tag}.wal"))
}

/// Opens a fresh WAL at `path` and attaches it to `db` with the group
/// commit pipeline configured for the sweep.
fn attach_fresh_wal(db: &Database, path: &PathBuf, fsync_floor: Duration) {
    let _ = std::fs::remove_file(path);
    let (wal, _scan) = Wal::open(path).expect("wal opens");
    let defaults = WalGroupConfig::default();
    let max_delay = Duration::from_micros(env_usize(
        "WRITE_SCALING_GROUP_DELAY_US",
        defaults.max_delay.as_micros() as usize,
    ) as u64);
    wal.set_group_commit(WalGroupConfig {
        fsync_floor,
        max_delay,
        ..defaults
    });
    db.attach_wal(Arc::new(wal));
}

/// One measured point of the commit sweep.
struct SweepPoint {
    threads: usize,
    txns: usize,
    wall: Duration,
    throughput: f64,
    p50: Duration,
    p99: Duration,
    fsyncs: u64,
    group_commits: u64,
    frames: u64,
}

/// Runs `threads` committers, each issuing `txns_per_thread` mixed
/// auto-commit write transactions (alternating INSERT and UPDATE) against
/// a fresh WAL-attached Lobsters database.
fn commit_sweep_point(threads: usize, txns_per_thread: usize, fsync_floor: Duration) -> SweepPoint {
    let db = lobsters::create_db().expect("schema installs");
    let inst =
        lobsters::generate::generate(&db, &LobstersConfig::sized(64)).expect("generation succeeds");
    db.execute(
        "CREATE TABLE wal_bench_log (id INT PRIMARY KEY AUTO_INCREMENT, \
         actor INT NOT NULL, note TEXT NOT NULL)",
    )
    .expect("bench table installs");
    let path = wal_path(&format!("sweep{threads}"));
    attach_fresh_wal(&db, &path, fsync_floor);

    // Warm the statement cache and page the WAL path in before the timed
    // section; counters are snapshotted after, so warmup fsyncs don't
    // count.
    for i in 0..32 {
        db.execute(&format!(
            "INSERT INTO wal_bench_log (actor, note) VALUES (0, 'warm-{i}')"
        ))
        .expect("warmup insert");
    }
    db.execute("UPDATE users SET karma = karma + 0 WHERE id = 1")
        .expect("warmup update");

    let fsyncs0 = counter(&db, "edna_wal_fsyncs_total");
    let groups0 = counter(&db, "edna_wal_group_commits_total");
    let frames0 = counter(&db, "edna_wal_frames_total");

    let t0 = Instant::now();
    let per_thread: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = &db;
                let actor = inst.user_ids[t % inst.user_ids.len()];
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(txns_per_thread);
                    for i in 0..txns_per_thread {
                        let c0 = Instant::now();
                        if i % 2 == 0 {
                            db.execute(&format!(
                                "INSERT INTO wal_bench_log (actor, note) \
                                 VALUES ({actor}, 'ws-{t}-{i}')"
                            ))
                            .expect("insert commits");
                        } else {
                            db.execute(&format!(
                                "UPDATE users SET karma = karma + 1 WHERE id = {actor}"
                            ))
                            .expect("update commits");
                        }
                        lat.push(c0.elapsed());
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("committer thread"))
            .collect()
    });
    let wall = t0.elapsed();

    let fsyncs = counter(&db, "edna_wal_fsyncs_total") - fsyncs0;
    let group_commits = counter(&db, "edna_wal_group_commits_total") - groups0;
    let frames = counter(&db, "edna_wal_frames_total") - frames0;
    let _ = std::fs::remove_file(&path);

    let mut all: Vec<Duration> = per_thread.into_iter().flatten().collect();
    all.sort();
    let txns = all.len();
    SweepPoint {
        threads,
        txns,
        wall,
        throughput: txns as f64 / wall.as_secs_f64().max(1e-9),
        p50: percentile(&all, 50.0),
        p99: percentile(&all, 99.0),
        fsyncs,
        group_commits,
        frames,
    }
}

/// One measured variant of the cohort-disguise section.
struct CohortRun {
    wall: Duration,
    fsyncs: u64,
    succeeded: usize,
}

/// Builds a WAL-attached Lobsters environment with `users` users. The
/// WAL attaches *after* generation so population writes don't pay the
/// fsync floor.
fn cohort_env(users: usize, tag: &str, fsync_floor: Duration) -> (Database, Disguiser, Vec<i64>) {
    let db = lobsters::create_db().expect("schema installs");
    let inst = lobsters::generate::generate(&db, &LobstersConfig::sized(users))
        .expect("generation succeeds");
    attach_fresh_wal(&db, &wal_path(tag), fsync_floor);
    let edna = Disguiser::new(db.clone());
    lobsters::register_disguises(&edna).expect("disguise validates");
    (db, edna, inst.user_ids)
}

/// Disguises the whole cohort one user at a time (one transaction per
/// user, the same transaction mode `apply_many` shards use).
fn cohort_sequential(users: usize, fsync_floor: Duration) -> CohortRun {
    let (db, edna, ids) = cohort_env(users, "seq", fsync_floor);
    let opts = ApplyOptions::default();
    let fsyncs0 = counter(&db, "edna_wal_fsyncs_total");
    let t0 = Instant::now();
    let mut succeeded = 0;
    for id in &ids {
        edna.apply_with_options("Lobsters-GDPR", Some(&Value::Int(*id)), opts)
            .expect("sequential apply");
        succeeded += 1;
    }
    let wall = t0.elapsed();
    let fsyncs = counter(&db, "edna_wal_fsyncs_total") - fsyncs0;
    let _ = std::fs::remove_file(wal_path("seq"));
    CohortRun {
        wall,
        fsyncs,
        succeeded,
    }
}

/// Disguises the whole cohort through the owner-sharded pipeline.
fn cohort_sharded(users: usize, shards: usize, fsync_floor: Duration) -> CohortRun {
    let (db, edna, ids) = cohort_env(users, "shard", fsync_floor);
    let cohort: Vec<Value> = ids.iter().map(|id| Value::Int(*id)).collect();
    let fsyncs0 = counter(&db, "edna_wal_fsyncs_total");
    let t0 = Instant::now();
    let report = edna
        .apply_many("Lobsters-GDPR", &cohort, shards)
        .expect("apply_many");
    let wall = t0.elapsed();
    assert!(
        report.failures.is_empty(),
        "apply_many failures: {:?}",
        report.failures
    );
    let fsyncs = counter(&db, "edna_wal_fsyncs_total") - fsyncs0;
    let _ = std::fs::remove_file(wal_path("shard"));
    CohortRun {
        wall,
        fsyncs,
        succeeded: report.succeeded,
    }
}

fn json_point(p: &SweepPoint) -> String {
    format!(
        "    {{\"threads\": {}, \"txns\": {}, \"wall_ms\": {:.3}, \
         \"throughput_txn_per_s\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
         \"fsyncs\": {}, \"fsyncs_per_txn\": {:.4}, \"group_commits\": {}, \
         \"frames\": {}, \"frames_per_fsync\": {:.2}}}",
        p.threads,
        p.txns,
        p.wall.as_secs_f64() * 1e3,
        p.throughput,
        p.p50.as_secs_f64() * 1e6,
        p.p99.as_secs_f64() * 1e6,
        p.fsyncs,
        p.fsyncs as f64 / p.txns.max(1) as f64,
        p.group_commits,
        p.frames,
        p.frames as f64 / p.fsyncs.max(1) as f64,
    )
}

fn main() {
    let threads = env_usize_list("WRITE_SCALING_THREADS", &[1, 2, 4, 8]);
    let txns_per_thread = env_usize("WRITE_SCALING_TXNS", 200);
    let cohort_users = env_usize("WRITE_SCALING_USERS", 1000);
    let shards = env_usize("WRITE_SCALING_SHARDS", 16);
    let fsync_floor = Duration::from_micros(env_usize("WRITE_SCALING_FSYNC_FLOOR_US", 1000) as u64);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("group write_scaling");
    println!(
        "  threads {threads:?}  txns/thread {txns_per_thread}  cohort {cohort_users}  \
         shards {shards}  fsync_floor {}us  host_parallelism {host_parallelism}",
        fsync_floor.as_micros()
    );

    // Section 1: commit sweep.
    let mut points: Vec<SweepPoint> = Vec::new();
    for &t in &threads {
        let p = commit_sweep_point(t, txns_per_thread, fsync_floor);
        println!(
            "  commit_sweep/threads={:<2} {:>9.0} txn/s  p50 {:>8.1} us  p99 {:>8.1} us  \
             fsyncs/txn {:.3}  frames/fsync {:.2}",
            p.threads,
            p.throughput,
            p.p50.as_secs_f64() * 1e6,
            p.p99.as_secs_f64() * 1e6,
            p.fsyncs as f64 / p.txns.max(1) as f64,
            p.frames as f64 / p.fsyncs.max(1) as f64,
        );
        points.push(p);
    }
    let first = &points[0];
    let last = &points[points.len() - 1];
    let scaling = last.throughput / first.throughput.max(1e-9);
    let fsyncs_per_txn_last = last.fsyncs as f64 / last.txns.max(1) as f64;
    println!(
        "  scaling ({}t over {}t): {scaling:.2}x  fsyncs/txn at {}t: {fsyncs_per_txn_last:.3}",
        last.threads, first.threads, last.threads
    );

    // Section 2: cohort disguising, sequential vs owner-sharded.
    let seq = cohort_sequential(cohort_users, fsync_floor);
    let sh = cohort_sharded(cohort_users, shards, fsync_floor);
    assert_eq!(seq.succeeded, cohort_users);
    assert_eq!(sh.succeeded, cohort_users);
    let apply_speedup = seq.wall.as_secs_f64() / sh.wall.as_secs_f64().max(1e-9);
    println!(
        "  apply_many/{cohort_users} users: sequential {:.2}s ({} fsyncs)  \
         sharded({shards}) {:.2}s ({} fsyncs)  speedup {apply_speedup:.2}x",
        seq.wall.as_secs_f64(),
        seq.fsyncs,
        sh.wall.as_secs_f64(),
        sh.fsyncs,
    );

    let out_path = std::env::var("WRITE_SCALING_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_write_scaling.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    let json = format!(
        "{{\n  \"bench\": \"write_scaling\",\n  \"threads\": {threads:?},\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"txns_per_thread\": {txns_per_thread},\n  \
         \"samples_per_point\": {},\n  \
         \"fsync_floor_us\": {},\n  \
         \"commit_sweep\": [\n{}\n  ],\n  \
         \"scaling_max_over_min_threads\": {scaling:.3},\n  \
         \"meets_scaling_target\": {},\n  \
         \"fsyncs_per_txn_at_max_threads\": {fsyncs_per_txn_last:.4},\n  \
         \"meets_fsync_target\": {},\n  \
         \"apply_many\": {{\"users\": {cohort_users}, \"shards\": {shards}, \
         \"sequential_s\": {:.3}, \"sharded_s\": {:.3}, \"speedup\": {apply_speedup:.3}, \
         \"sequential_fsyncs\": {}, \"sharded_fsyncs\": {}, \
         \"meets_apply_target\": {}}}\n}}\n",
        first.txns,
        fsync_floor.as_micros(),
        points
            .iter()
            .map(json_point)
            .collect::<Vec<_>>()
            .join(",\n"),
        scaling >= 2.5,
        fsyncs_per_txn_last < 0.5,
        seq.wall.as_secs_f64(),
        sh.wall.as_secs_f64(),
        seq.fsyncs,
        sh.fsyncs,
        apply_speedup >= 2.0,
    );
    std::fs::write(&out_path, json).expect("write BENCH_write_scaling.json");
    println!("  wrote {out_path}");
}
