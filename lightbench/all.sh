#!/usr/bin/env bash
# Runs every workload once and prints its end-to-end metrics by name and
# unit, with the failed/attempted tally.
#
#   bash lightbench/all.sh [seed] [seconds] [trace]
#
# trace=1 prints the per-layer metrics instead. Run from the repository
# root; the first call builds the benchmark in release mode.
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-10}
trace=${3:-0}
for w in bfs-1m slt-32k slt-32k-t2 spanner-er-8k; do
    cargo run --release --offline --locked --quiet --manifest-path lightbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null |
        tail -n 1 |
        python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("== %s: correct=%s failed=%d/%d" % (sys.argv[1], r["correct"], r["failed"], r["attempted"]))
for name, m in r["metrics"].items():
    print("  %-40s %18.6f %s" % (name, m["value"], m["unit"]))
' "$w"
done
