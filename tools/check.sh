#!/usr/bin/env sh
# Tier-1 check: configure, build, run the full test suite.
#
#   tools/check.sh                      # plain RelWithDebInfo build
#   DBPS_SANITIZE=thread tools/check.sh # TSan build (covers src/server/)
#   DBPS_SANITIZE=address tools/check.sh
#   DBPS_TIER=chaos tools/check.sh      # fault-injection tier: runs only the
#                                       # failpoint/fault/chaos suites, then a
#                                       # fixed-seed chaos smoke of dbps_run
#                                       # (combine with DBPS_SANITIZE=thread
#                                       # for the full robustness gate)
#   DBPS_TIER=bench tools/check.sh      # bench smoke tier: runs the
#                                       # JSON-emitting benches at 2 threads,
#                                       # fails if BENCH_*.json is missing or
#                                       # malformed or if the uncontended
#                                       # lock sweep lost a grant or had one
#                                       # block, then refreshes
#                                       # bench/results/ (canonical) and the
#                                       # repo-root copies from it in one place
#   DBPS_TIER=net tools/check.sh        # network tier: wire/server/group-
#                                       # commit/net-chaos suites, then a
#                                       # loopback smoke (server + 64
#                                       # pipelined connections, replay-
#                                       # validated) gating open-loop
#                                       # p99 < 50ms at the smoke rate
#   DBPS_TIER=recovery tools/check.sh   # crash-recovery tier: WAL framing,
#                                       # recovery, journal-feed and fuzz
#                                       # suites, the 32-trial seeded
#                                       # kill-and-recover chaos matrix plus
#                                       # the real fork/kill -9 suite, a
#                                       # dbps_run crash/--recover smoke
#                                       # whose journal is then consistency-
#                                       # audited offline, and bench_recovery
#                                       # --smoke with its
#                                       # BENCH_recovery.json validated
#   DBPS_TIER=matcher tools/check.sh    # matcher-equivalence tier: the
#                                       # serial-matcher suites (Rete =
#                                       # TREAT = naive property tests,
#                                       # Rete stress/structure, the alpha-
#                                       # memory index), the partitioned-
#                                       # matcher suites (inline partitions,
#                                       # value-hash splitting, concurrent-
#                                       # reader stress) plus the
#                                       # differential suite that replays
#                                       # every chaos/workload family with
#                                       # hot-partition splitting armed,
#                                       # byte-comparing journals against
#                                       # the serial engine
#   DBPS_TIER=audit tools/check.sh      # consistency-audit tier: the
#                                       # auditor unit suite, the mutation
#                                       # harness (every injected violation
#                                       # class must be flagged at the exact
#                                       # offending seq), the adversarial
#                                       # workload families, and an
#                                       # end-to-end journaled run audited
#                                       # via dbps_run --audit + dbps_audit
#
# DBPS_CHAOS_TRIALS=N scales every chaos/audit suite's trial counts N-fold
# (soak runs use 10-100); DBPS_CHAOS_SEED shifts the seed space so each
# soak explores fresh schedules.
#
# The build directory is build/ for plain runs and build-<sanitizer>/
# for sanitizer runs, so they never poison each other's caches.
set -eu

cd "$(dirname "$0")/.."

SANITIZE="${DBPS_SANITIZE:-}"
TIER="${DBPS_TIER:-}"
if [ -n "$SANITIZE" ]; then
  BUILD_DIR="build-$SANITIZE"
else
  BUILD_DIR="build"
fi

cmake -B "$BUILD_DIR" -S . -DDBPS_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"

if [ "$TIER" = "chaos" ]; then
  # Robustness tier: the failpoint unit tests, the engine fault-injection
  # suite, and the seeded chaos trials (see docs/ROBUSTNESS.md).
  ctest --test-dir "$BUILD_DIR" -j 4 --output-on-failure \
    -R 'Failpoint|FaultInjection|Chaos|chaos|WorkloadFamilies'
  # Deterministic end-to-end smoke: a multi-session server run with the
  # chaos profile armed must still replay-validate AND consistency-audit
  # its commit log.
  for seed in 11 23 47; do
    "$BUILD_DIR/tools/dbps_run" --engine=parallel --workers=4 \
      --sessions=3 --client-ops=6 --chaos-seed="$seed" --fail-rate=0.05 \
      --validate --audit --quiet examples/programs/server_inbox.dbps
  done
  echo "chaos tier passed"
elif [ "$TIER" = "bench" ]; then
  # Bench smoke tier: the JSON-emitting benches at 2 threads. The point
  # is not performance numbers but that the binaries run end-to-end and
  # emit well-formed BENCH_*.json artifacts (see bench/report.h).
  JSON_DIR="$BUILD_DIR/bench-json"
  rm -rf "$JSON_DIR"
  mkdir -p "$JSON_DIR"
  DBPS_BENCH_THREADS=2 DBPS_BENCH_JSON_DIR="$JSON_DIR" \
    "$BUILD_DIR/bench/bench_multi_user"
  DBPS_BENCH_THREADS=2 DBPS_BENCH_JSON_DIR="$JSON_DIR" \
    "$BUILD_DIR/bench/bench_lock_protocols" --benchmark_filter='^$'
  DBPS_BENCH_THREADS=2 DBPS_BENCH_JSON_DIR="$JSON_DIR" \
    "$BUILD_DIR/bench/bench_net" --smoke
  for name in multi_user lock_protocols net; do
    python3 - "$JSON_DIR/BENCH_$name.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc["bench"], path
assert doc["rows"], f"{path}: no rows"
keys = ("workload", "threads", "protocol", "wall_ms", "aborts",
        "committed", "batched_commits", "p50_ms", "p95_ms", "p99_ms")
sweep_rows = 0
for row in doc["rows"]:
    for key in keys:
        assert key in row, f"{path}: row missing {key}"
    if row["workload"] == "uncontended_sweep":
        sweep_rows += 1
        # The uncontended sweep measures what an Acquire costs: every one
        # of its 20000 transactions is counted (three grants each) and,
        # with nobody else holding anything, none blocks or is aborted.
        assert row["committed"] == 20000, (
            f"{path}: uncontended sweep counted {row['committed']} "
            f"transactions, not 20000 ({row['protocol']})")
        assert row["aborts"] == 0, (
            f"{path}: uncontended sweep blocked or aborted "
            f"{row['aborts']} times ({row['protocol']})")
if doc["bench"] == "lock_protocols":
    assert sweep_rows > 0, f"{path}: uncontended sweep rows missing"
if doc["bench"] == "multi_user":
    # The skew sweep is the acceptance gate for value-hash splitting:
    # all three configurations must report, the dumps already byte-
    # compared inside the bench, and the split matcher must be at least
    # as fast as the serial reference on the single-hot-relation
    # workload (the bench itself enforces the stricter >= 1.3x bar
    # against the unsplit partitioned matcher).
    skew = {r["protocol"]: r for r in doc["rows"]
            if r["workload"] == "match_skew"}
    for proto in ("serial", "partitioned", "split"):
        assert proto in skew, f"{path}: match_skew row '{proto}' missing"
    assert skew["split"]["wall_ms"] <= skew["serial"]["wall_ms"], (
        f"{path}: split matcher ({skew['split']['wall_ms']}ms) slower "
        f"than serial ({skew['serial']['wall_ms']}ms) on skew workload")
if doc["bench"] in ("multi_user", "net"):
    # These benches record per-transaction latencies; percentiles must
    # be populated and ordered.
    for row in doc["rows"]:
        assert row["p50_ms"] > 0, f"{path}: p50 missing"
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"], (
            f"{path}: percentiles out of order")
print(f"{path}: OK ({len(doc['rows'])} rows)")
EOF
  done
  # Refresh the checked-in snapshots: bench/results/ is canonical; the
  # repo-root copies are derived from it HERE and nowhere else (keeping
  # the two locations from drifting apart).
  mkdir -p bench/results
  cp "$JSON_DIR"/BENCH_*.json bench/results/
  for f in bench/results/BENCH_*.json; do
    cp "$f" "$(basename "$f")"
  done
  echo "bench tier passed (bench/results/ refreshed; root copies derived)"
elif [ "$TIER" = "net" ]; then
  # Network tier: the wire-protocol, socket-server, group-commit, and
  # network-chaos suites, then a loopback smoke — epoll server + 64
  # pipelined connections whose journal is replay-validated, with the
  # open-loop p99 < 50ms gate enforced inside bench_net --smoke.
  ctest --test-dir "$BUILD_DIR" -j 4 --output-on-failure \
    -R 'Wire|NetServer|GroupCommit|NetChaos'
  DBPS_BENCH_THREADS=2 "$BUILD_DIR/bench/bench_net" --smoke
  echo "net tier passed"
elif [ "$TIER" = "recovery" ]; then
  # Crash-recovery tier: WAL framing + recovery + durability-edge suites,
  # the seeded kill-and-recover chaos matrix (32 trials, both fsync modes
  # and crash shapes) and the real fork/kill -9 suite.
  ctest --test-dir "$BUILD_DIR" -j 4 --output-on-failure \
    -R 'Wal|JournalFuzz|JournalFeed|Recovery|KillRecover|GroupCommit'
  # End-to-end restart smoke: run with a WAL + checkpoints, then restart
  # from the same journal directory with --recover; both runs must
  # replay-validate.
  JDIR="$BUILD_DIR/recovery-smoke"
  rm -rf "$JDIR"
  mkdir -p "$JDIR"
  "$BUILD_DIR/tools/dbps_run" --engine=parallel --workers=4 --sessions=3 \
    --client-ops=6 --journal-dir="$JDIR" --group-commit \
    --checkpoint-every=8 --validate --quiet \
    examples/programs/server_inbox.dbps
  "$BUILD_DIR/tools/dbps_run" --engine=parallel --workers=4 \
    --journal-dir="$JDIR" --recover --validate --quiet \
    examples/programs/server_inbox.dbps
  # The surviving journal — checkpoints, both runs' commits — must pass
  # the offline consistency audit with none of the engine's apply code.
  "$BUILD_DIR/tools/dbps_audit" "$JDIR"
  # Recovery-time bench smoke; its JSON artifact is validated and then
  # snapshotted (bench/results/ canonical, root copy derived) — this
  # bench is owned by the recovery tier, not the bench tier.
  JSON_DIR="$BUILD_DIR/bench-json"
  mkdir -p "$JSON_DIR"
  DBPS_BENCH_JSON_DIR="$JSON_DIR" "$BUILD_DIR/bench/bench_recovery" --smoke
  python3 - "$JSON_DIR/BENCH_recovery.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc["bench"] == "recovery", path
assert doc["rows"], f"{path}: no rows"
keys = ("workload", "threads", "protocol", "wall_ms", "aborts",
        "committed", "batched_commits", "p50_ms", "p95_ms", "p99_ms")
protocols = set()
for row in doc["rows"]:
    for key in keys:
        assert key in row, f"{path}: row missing {key}"
    assert row["committed"] > 0, f"{path}: empty journal row"
    protocols.add(row["protocol"])
    if row["protocol"] == "checkpointed":
        assert row["batched_commits"] > 0, (
            f"{path}: checkpointed row wrote no checkpoints")
assert {"replay_only", "checkpointed"} <= protocols, (
    f"{path}: need both replay_only and checkpointed rows")
print(f"{path}: OK ({len(doc['rows'])} rows)")
EOF
  mkdir -p bench/results
  cp "$JSON_DIR/BENCH_recovery.json" bench/results/
  cp bench/results/BENCH_recovery.json BENCH_recovery.json
  echo "recovery tier passed"
elif [ "$TIER" = "matcher" ]; then
  # Matcher-equivalence tier: the serial matchers' suites (3-way
  # property tests over random programs, Rete stress and structure, the
  # alpha-memory hash index), partitioned-matcher unit + stress suites
  # and the engine-level differential suite (serial vs partitioned with
  # skew adaptation armed, byte-identical journals). Seed-shifted via
  # DBPS_CHAOS_SEED like the other soakable tiers.
  ctest --test-dir "$BUILD_DIR" -j 4 --output-on-failure \
    -R 'ReteVsNaive|ReteStress|MatcherTest|Rete\.|AlphaIndex|Partitioned|MatcherDifferential|SkewAdaptive'
  echo "matcher tier passed"
elif [ "$TIER" = "audit" ]; then
  # Consistency-audit tier: the auditor's own suites (unit, mutation
  # harness, adversarial workload families) plus the cli_audit smoke.
  ctest --test-dir "$BUILD_DIR" -j 4 --output-on-failure \
    -R 'Auditor|Mutation|WorkloadFamilies|cli_audit'
  # End-to-end: a journaled multi-user run must audit clean both from the
  # engine's in-memory log (dbps_run --audit audits log + WAL) and via
  # the standalone tool over the durable journal directory.
  JDIR="$BUILD_DIR/audit-smoke"
  rm -rf "$JDIR"
  mkdir -p "$JDIR"
  "$BUILD_DIR/tools/dbps_run" --engine=parallel --workers=4 --sessions=3 \
    --client-ops=6 --journal-dir="$JDIR" --audit --validate --quiet \
    examples/programs/server_inbox.dbps
  "$BUILD_DIR/tools/dbps_audit" "$JDIR"
  echo "audit tier passed"
else
  ctest --test-dir "$BUILD_DIR" -j 4 --output-on-failure
fi
