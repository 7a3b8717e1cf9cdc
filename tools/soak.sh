#!/usr/bin/env sh
# Seed-sweeping soak harness: runs the chaos, recovery, audit, and
# matcher tiers repeatedly at DBPS_CHAOS_TRIALS=100, shifting
# DBPS_CHAOS_SEED each
# round so every round explores fresh schedules, fault points, and
# mutation sites. Per-seed failure artifacts (the full tier log) land in
# $DBPS_SOAK_DIR so a red seed can be replayed exactly:
#
#   DBPS_CHAOS_SEED=<seed> DBPS_CHAOS_TRIALS=100 DBPS_TIER=<tier> tools/check.sh
#
# Usage:
#   tools/soak.sh                 # 10 rounds from seed 1000, stride 1000
#   tools/soak.sh 25              # 25 rounds
#   tools/soak.sh 25 77           # 25 rounds starting at seed 77
#
# Environment:
#   DBPS_SOAK_DIR      artifact directory (default build/soak)
#   DBPS_SOAK_TIERS    tiers to sweep (default "chaos recovery audit
#                      matcher" — matcher covers the differential suite
#                      with splitting + pipelining armed)
#   DBPS_CHAOS_TRIALS  trial multiplier per tier run (default 100)
#   DBPS_SANITIZE      forwarded to check.sh (e.g. thread for TSan soaks)
#
# Exits nonzero if any (tier, seed) cell failed; the summary names each
# failing cell and its saved log.
set -u

cd "$(dirname "$0")/.."

ROUNDS="${1:-10}"
SEED_BASE="${2:-1000}"
STRIDE=1000
TRIALS="${DBPS_CHAOS_TRIALS:-100}"
TIERS="${DBPS_SOAK_TIERS:-chaos recovery audit matcher}"
SOAK_DIR="${DBPS_SOAK_DIR:-build/soak}"
mkdir -p "$SOAK_DIR"

# Build once up front (check.sh would rebuild per cell otherwise; this
# makes per-cell failures attributable to the seed, not the build).
cmake -B build -S . -DDBPS_SANITIZE="${DBPS_SANITIZE:-}" >/dev/null
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"

failures=""
cells=0
round=0
seed="$SEED_BASE"
while [ "$round" -lt "$ROUNDS" ]; do
  seed=$((SEED_BASE + round * STRIDE))
  for tier in $TIERS; do
    cells=$((cells + 1))
    log="$SOAK_DIR/${tier}_seed${seed}.log"
    echo "[soak] tier=$tier seed=$seed trials=$TRIALS -> $log"
    if DBPS_TIER="$tier" DBPS_CHAOS_SEED="$seed" DBPS_CHAOS_TRIALS="$TRIALS" \
        tools/check.sh >"$log" 2>&1; then
      # Keep the artifact directory to failures only.
      rm -f "$log"
    else
      failures="$failures $tier:$seed"
      echo "[soak] FAILED tier=$tier seed=$seed (log kept: $log)"
    fi
  done
  round=$((round + 1))
done

echo ""
if [ -n "$failures" ]; then
  echo "[soak] $cells cells, FAILURES:$failures"
  echo "[soak] replay one with:"
  for cell in $failures; do
    tier="${cell%%:*}"
    seed="${cell##*:}"
    echo "  DBPS_TIER=$tier DBPS_CHAOS_SEED=$seed DBPS_CHAOS_TRIALS=$TRIALS tools/check.sh"
  done
  exit 1
fi
echo "[soak] all $cells cells green (tiers: $TIERS; seeds $SEED_BASE..$seed)"
