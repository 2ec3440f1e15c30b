#!/usr/bin/env bash
# Builds the bench in release mode and runs every workload untraced, then
# traced, with --seed 1; prints every metric and the total wall time, and
# writes bench/out/result.json and bench/out/trace_<workload>.json.
#
#   bench/run.sh            full run (run_seconds per workload and mode)
#   bench/run.sh --quick    ~1 s per workload, one set-up: a smoke test of
#                           the output checks, not a measurement
set -euo pipefail
cd "$(dirname "$0")"
start=$(date +%s)
cargo build --release --offline --quiet
cargo run --release --offline --quiet -- run --seed 1 "$@"
echo "# run.sh wall time: $(( $(date +%s) - start )) s (build included)"
