#!/usr/bin/env bash
# Every check CI runs once the package and its test extra are installed
# (pip install -e ".[test]"). It takes no options and runs from any directory:
#
#     bash scripts/ci_checks.sh
#
# Python imports the package from this checkout's src/, as the tier-1 command
# does. Outputs go to a temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The console script prints help for every command; the names come from
# cli._COMMANDS, and importing cli loads no numpy.
lhn --help
commands=$(python3 -c 'from latenthypernet import cli; print(*cli._COMMANDS)')
for c in $commands; do
    lhn "$c" --help
done

# Dev mode turns on extra runtime warnings; the benchmark runs go without it.
python3 -X dev -m pytest -q --continue-on-collection-errors
python3 -m pytest perfbench

# run.py exits 0 even when a check fails (say a single-window prediction
# that differs from the batched one), so read "correct" from its result
# line. A traced run also exits with an error when a per-layer span it
# reports is never recorded, and its probe runs conv2d_forward on the
# stored kernels.
for w in cv online latent-fit; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 1 | tail -n 1 \
        | python3 -c 'import json, sys
r = json.load(sys.stdin)
print(sys.argv[1], "traced, correct:", r["correct"], "failed:", r["failed"])
sys.exit(r["correct"] is not True)' "$w"
done

# The untraced runs, at the same seed 1 and length, as one pair of this
# checkout against itself per workload. bench_pairs exits 1 when any run
# reads correct: false, and stops when run.py exits non-zero, which it does
# when its metrics disagree with BENCHMARK.json.
python3 scripts/bench_pairs.py . . --workload cv --workload online --workload latent-fit \
    --pairs 1 --seconds 2 --out "$tmp/bench.json"

# The quick demo runs every CLI command. With a fixed seed every output is
# the same, except the two timing files, which hold wall-clock measurements.
for run in a b; do
    python3 scripts/run_synthetic_experiment.py --quick --seed 0 --out-dir "$tmp/seed0-$run"
done
diff -r -x timing.csv -x timing_summary.csv "$tmp/seed0-a" "$tmp/seed0-b"
