#!/usr/bin/env bash
# The repository's offline CI gate: formatting, lints, build, tests.
# Everything runs without network access (the workspace has no external
# dependencies), so this is exactly what a checkout needs to pass.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> wirebench (build + unit tests)"
# The wire-level benchmark is a package of its own, outside the
# workspace, built from these sources through path dependencies; build
# and test it here so an engine API change cannot break it unnoticed.
cargo build --release --offline --manifest-path wirebench/Cargo.toml
cargo test --offline --manifest-path wirebench/Cargo.toml --quiet

echo "==> wirebench mixed (reads beside applies, reveals, ticks, checkpoints)"
# One run of the benchmark's `mixed` workload through the real server.
# wirebench exits 1 on any wrong reply or failed end-of-run check (wire
# `recover --verify`, disguised users own no stories, comments or votes,
# revealed users get their names back), so every concurrency change is
# exercised against reads beside applies, reveals, policy ticks and
# checkpoints. 15 s is about the shortest run whose samples support a
# p50.
#
# The run's resident-set peak is gated as well. This seed reads about
# 31.4 MB now that a checkpoint streams its image through a 64 KiB
# buffer, an open decodes the file the same way, and an index key held
# by one row keeps its id inline; it read about 44 MB when a checkpoint
# built the whole image in one buffer and an open read the whole file.
# 36 MB is about 15% above the current figure, so a whole-image or
# whole-file buffer coming back fails here. The run's report is kept in
# target/ (ignored by git), whose last line is its JSON summary.
RSS_CEILING_MB=36
MIXED_OUT=target/wirebench_mixed_seed1.txt
cargo run --release --offline --quiet --manifest-path wirebench/Cargo.toml -- \
    --workload mixed --seed 1 --seconds 15 --trace 0 | tee "$MIXED_OUT"
RSS_MB=$(tail -n 1 "$MIXED_OUT" \
    | sed -n 's/.*"rss_peak_mb": {"value": \([0-9.]*\).*/\1/p')
if ! awk -v rss="$RSS_MB" -v cap="$RSS_CEILING_MB" \
    'BEGIN { exit !(rss != "" && rss + 0 <= cap + 0) }'; then
    echo "wirebench mixed: rss_peak_mb ${RSS_MB:-missing} MB exceeds the ${RSS_CEILING_MB} MB ceiling" >&2
    exit 1
fi
echo "wirebench mixed: rss_peak_mb ${RSS_MB} MB (ceiling ${RSS_CEILING_MB} MB)"

echo "==> edna check (static analysis over every bundled spec)"
CHECK_DIR=$(mktemp -d)
trap 'rm -rf "$CHECK_DIR"' EXIT
target/release/edna demo "$CHECK_DIR/hotcrp" hotcrp --scale 0.02
target/release/edna check "$CHECK_DIR/hotcrp" --all --deny-warnings
target/release/edna demo "$CHECK_DIR/lobsters" lobsters
# A comment thread reaches every table it reads through an index: its
# comments by the story's key, each author by a primary-key probe.
target/release/edna explain "$CHECK_DIR/lobsters" \
    "SELECT c.id, c.comment, c.score, u.username FROM comments c \
     JOIN users u ON c.user_id = u.id WHERE c.story_id = 1 ORDER BY c.id" \
    | tee "$CHECK_DIR/thread.plan"
if grep -q "full scan" "$CHECK_DIR/thread.plan"; then
    echo "the comment thread's plan scans a table" >&2
    exit 1
fi
target/release/edna check "$CHECK_DIR/lobsters" --all --deny-warnings
# The intentionally flawed example spec must be rejected.
if target/release/edna check "$CHECK_DIR/hotcrp" examples/flawed_scrub.edna; then
    echo "examples/flawed_scrub.edna unexpectedly passed edna check" >&2
    exit 1
fi
echo "edna check OK"

echo "==> edna audit (interleaving proofs over the demo workspaces)"
# The bundled demos must audit clean — reveal-reachability proven for
# every disguise pair, warnings denied.
target/release/edna audit "$CHECK_DIR/hotcrp" --deny-warnings
target/release/edna audit "$CHECK_DIR/lobsters" --deny-warnings
# The audit models one abstract user, so replay a cross-user order it
# cannot see: user 3 was invited by user 1, and revealing 3 after 1 was
# disguised re-inserts an account whose inviter is gone until the
# re-applied disguise of 1 sets that key to NULL.
target/release/edna apply "$CHECK_DIR/lobsters" Lobsters-GDPR --user 3
target/release/edna apply "$CHECK_DIR/lobsters" Lobsters-GDPR --user 1
target/release/edna reveal "$CHECK_DIR/lobsters" --id 1
target/release/edna reveal "$CHECK_DIR/lobsters" --id 2
target/release/edna recover "$CHECK_DIR/lobsters" --verify | grep -q "integrity: ok"
# Both counterexamples must be rejected with their documented codes.
target/release/edna init "$CHECK_DIR/trap"
target/release/edna load-sql "$CHECK_DIR/trap" examples/audit_demo.sql
target/release/edna register "$CHECK_DIR/trap" examples/vault_trap_keep.edna
target/release/edna register "$CHECK_DIR/trap" examples/vault_trap_purge.edna
if target/release/edna audit "$CHECK_DIR/trap" > "$CHECK_DIR/trap.out"; then
    echo "vault-trap counterexample unexpectedly passed edna audit" >&2
    exit 1
fi
grep -q 'error\[E050\]' "$CHECK_DIR/trap.out"
grep -q 'error\[E051\]' "$CHECK_DIR/trap.out"
target/release/edna init "$CHECK_DIR/decay"
target/release/edna load-sql "$CHECK_DIR/decay" examples/audit_demo.sql
target/release/edna register "$CHECK_DIR/decay" examples/endless_decay.edna
target/release/edna register "$CHECK_DIR/decay" examples/endless_decay_policy.edna
if target/release/edna audit "$CHECK_DIR/decay" > "$CHECK_DIR/decay.out"; then
    echo "endless-decay counterexample unexpectedly passed edna audit" >&2
    exit 1
fi
grep -q 'error\[E052\]' "$CHECK_DIR/decay.out"
# The JSON format is a valid document with the expected shape.
target/release/edna audit "$CHECK_DIR/trap" --format json \
    > "$CHECK_DIR/trap.json" || true
if command -v python3 >/dev/null 2>&1; then
    python3 - "$CHECK_DIR/trap.json" <<'EOF'
import json
import sys

d = json.load(open(sys.argv[1]))
assert d["tool"] == "edna audit", d
assert d["summary"]["errors"] >= 2, d
diags = d["reports"][0]["diagnostics"]
codes = {x["code"] for x in diags}
assert {"E050", "E051"} <= codes, codes
for x in diags:
    for key in ("severity", "code", "disguise", "table",
                "column", "context", "message", "help"):
        assert key in x, f"diagnostic missing {key!r}: {x}"
EOF
else
    grep -q '"code":"E051"' "$CHECK_DIR/trap.json"
fi
echo "edna audit OK"

echo "==> trace smoke (apply with --trace-out, stats sidecar, trace tree)"
target/release/edna apply "$CHECK_DIR/hotcrp" HotCRP-GDPR --user 1 \
    --trace-out "$CHECK_DIR/trace.jsonl"
if command -v python3 >/dev/null 2>&1; then
    # Every line must be valid JSON.
    python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$CHECK_DIR/trace.jsonl"
fi
for span in disguise_apply transform vault_write vault_put statement; do
    grep -q "\"label\":\"$span\"" "$CHECK_DIR/trace.jsonl" || {
        echo "trace.jsonl missing $span span" >&2
        exit 1
    }
done
target/release/edna trace "$CHECK_DIR/trace.jsonl" | grep -q "disguise_apply"
target/release/edna stats "$CHECK_DIR/hotcrp" | grep -q "edna_statements_total"
echo "trace smoke OK"

echo "==> crash-sweep (WAL kill sweep + recover --verify smoke)"
# The kill sweeps crash disguise application (and an idempotent wire
# apply) at every WAL frame in every crash style and assert recovery
# lands on a consistent state, applied exactly once; release mode so the
# sweeps exercise the same codegen users run.
cargo test --release -p edna-relational --test durability --quiet
cargo test --release --test fault_sweep --quiet
cargo test --release -p edna-cli --test recovery --quiet
cargo test --release -p edna-server --test idem_crash --quiet
# A disguise was applied to the hotcrp demo above; recover must find a
# quiescent, structurally intact state.
target/release/edna recover "$CHECK_DIR/hotcrp" --verify | grep -q "integrity: ok"
echo "crash-sweep OK"

echo "==> serve soak (SIGKILL sweep over the network layer, 20 iterations)"
# Serve a workspace under concurrent mixed sql/apply/reveal traffic,
# SIGKILL the server at a random instant, then require
# `edna recover --verify` to pass and the state to re-serve cleanly.
# 20 iterations in CI; plain `cargo test` runs a fast 4-iteration smoke.
EDNA_SOAK_ITERS=20 cargo test --release -p edna-cli --test serve_soak --quiet
echo "serve soak OK"

echo "==> failover chaos (replication kill sweep, 6 iterations)"
# A primary with one synchronous standby takes mixed traffic and is
# SIGKILLed at a random instant; the standby is drained, promoted, and
# re-served. The gate asserts zero acknowledged loss in
# --sync-replicas 1 mode — every acked commit, vault entry, capability
# token, and idempotency-ledger row survives on the new primary —
# plus green `recover --verify` on both sides and stale-epoch fencing
# of the deposed primary. The hostile-replica suite rides along: torn,
# oversized, corrupt, and stale-epoch stream input must drop that
# follower without wedging group commit.
EDNA_CHAOS_ITERS=6 cargo test --release -p edna-cli --test failover --quiet
cargo test --release -p edna-server --test repl_hostile --quiet
echo "failover chaos OK"

echo "==> decay soak (SIGKILL sweep with ticking policies, 10 iterations)"
# Serve with the decay daemon ticking a registered policy every 50ms
# under mixed traffic, SIGKILL at a random instant, require
# `recover --verify` to pass, and — restart regression — require a
# re-serve NOT to re-fire policies whose last run is inside the cadence.
EDNA_SOAK_ITERS=10 cargo test --release -p edna-cli --test decay_soak --quiet
# The daemon's observability surface: the policy metrics must appear in
# the Prometheus exposition a served-then-drained workspace leaves in
# its stats sidecar.
DECAY_DIR="$CHECK_DIR/decay_metrics"
target/release/edna init "$DECAY_DIR"
target/release/edna sql "$DECAY_DIR" \
    "CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, body TEXT, created_at INT NOT NULL DEFAULT 0)"
target/release/edna sql "$DECAY_DIR" \
    "INSERT INTO notes (body, created_at) VALUES ('old-a', 0), ('old-b', 0)"
cat > "$CHECK_DIR/age_notes.edna" <<'EOF'
disguise_name: "AgeNotes"
reversible: false
tables: {
  notes: { transformations: [ Modify(pred: "created_at < 100", column: body, modifier: Truncate(1)) ] },
}
EOF
cat > "$CHECK_DIR/aging.edna" <<'EOF'
policy_name: "aging"
kind: decay
cadence: 1
stages: [ "AgeNotes" ]
EOF
target/release/edna register "$DECAY_DIR" "$CHECK_DIR/age_notes.edna"
target/release/edna register "$DECAY_DIR" "$CHECK_DIR/aging.edna"
target/release/edna serve "$DECAY_DIR" --policy-tick-ms 50 --checkpoint-secs 1 \
    > "$CHECK_DIR/decay_serve.out" &
SERVE_PID=$!
# The background checkpointer rewrites the Prometheus sidecar from the
# serving process's registry every second; once the daemon has ticked,
# the policy metrics (including the per-policy duration histogram) must
# appear in that exposition. Grep the sidecar while the server is alive:
# a later `edna` open rewrites it from a registry without them.
DECAY_SIDECAR="$DECAY_DIR.metrics"
METRICS_OK=0
for _ in $(seq 1 100); do
    if grep -q "edna_policy_runs_total" "$DECAY_SIDECAR" 2>/dev/null \
        && grep -q "edna_decay_rows_total" "$DECAY_SIDECAR" \
        && grep -q "edna_policy_tick_us_aging" "$DECAY_SIDECAR"; then
        METRICS_OK=1
        break
    fi
    sleep 0.1
done
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
if [ "$METRICS_OK" != 1 ]; then
    echo "policy metrics never appeared in $DECAY_SIDECAR" >&2
    cat "$DECAY_SIDECAR" 2>/dev/null >&2 || true
    exit 1
fi
target/release/edna recover "$DECAY_DIR" --verify | grep -q "integrity: ok"
echo "decay soak OK"

echo "==> bench smoke (ABL-BATCH at tiny scale)"
BATCHING_SCALE=0.02 BATCHING_USERS=2 BATCHING_SAMPLES=10 \
    cargo bench -p edna-bench --bench batching
if [ ! -s BENCH_batching.json ]; then
    echo "BENCH_batching.json missing or empty" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool BENCH_batching.json >/dev/null
else
    grep -q '"parallel_beats_sequential"' BENCH_batching.json
fi
echo "BENCH_batching.json OK"

echo "==> write-scaling smoke (group-commit WAL + sharded apply_many)"
# Reduced sweep: two thread counts, a small cohort, and a 500us fsync
# floor so group-commit effects are visible on any host. The gate is
# shape + direction: concurrent committers must out-run a solo one.
WRITE_SCALING_THREADS=1,8 WRITE_SCALING_TXNS=60 WRITE_SCALING_USERS=60 \
WRITE_SCALING_SHARDS=8 WRITE_SCALING_FSYNC_FLOOR_US=500 \
    cargo bench -p edna-bench --bench write_scaling
if [ ! -s BENCH_write_scaling.json ]; then
    echo "BENCH_write_scaling.json missing or empty" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json

d = json.load(open("BENCH_write_scaling.json"))
for key in ("threads", "host_parallelism", "fsync_floor_us",
            "commit_sweep", "apply_many"):
    assert key in d, f"BENCH_write_scaling.json missing {key!r}"
pts = d["commit_sweep"]
assert len(pts) >= 2, "commit sweep needs at least two thread counts"
for p in pts:
    for key in ("threads", "throughput_txn_per_s", "p50_us", "p99_us",
                "fsyncs_per_txn", "frames_per_fsync"):
        assert key in p, f"sweep point missing {key!r}"
lo, hi = pts[0], pts[-1]
assert hi["throughput_txn_per_s"] > lo["throughput_txn_per_s"], (
    f"group commit not scaling: {hi['threads']} threads at "
    f"{hi['throughput_txn_per_s']} txn/s <= {lo['threads']} thread(s) at "
    f"{lo['throughput_txn_per_s']} txn/s")
assert hi["fsyncs_per_txn"] < 1.0, "concurrent committers must share fsyncs"
assert d["apply_many"]["speedup"] > 1.0, "sharded apply_many slower than sequential"
print("write-scaling smoke: "
      f"{hi['throughput_txn_per_s']:.0f} txn/s at {hi['threads']} threads vs "
      f"{lo['throughput_txn_per_s']:.0f} at {lo['threads']}, "
      f"apply_many speedup {d['apply_many']['speedup']:.2f}x")
EOF
else
    grep -q '"commit_sweep"' BENCH_write_scaling.json
    grep -q '"apply_many"' BENCH_write_scaling.json
fi
echo "BENCH_write_scaling.json OK"

echo "CI green."
