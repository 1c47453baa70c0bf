#!/usr/bin/env python3
"""Compare two checkouts on perfbench workloads with alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cv --pairs 10 --seconds 25

`--workload` may be given more than once (`--workload cv --workload online`);
the workloads run in turn, each with its own pairs and its own table. Each
pair runs `perfbench/run.py --trace 0` once from each checkout with the same
seed (`--first-seed` + the pair's index). Even pairs run the parent first
and odd pairs the change first, because the second run of a back-to-back
pair tends to read slower. For every end-to-end metric listed
in PARENT_DIR/BENCHMARK.json the script prints each side's median and
quartiles, the change's wins out of the pairs (ties count for neither),
whether that is a gain (wins in at least 9 of 10 pairs and medians apart by
more than the parent's interquartile range), whether the change's median
is worse than the parent's by more than the metric's bound, and whether the
metric is unresolved: no gain, a parent spread too wide to tell a change
within the bound, and a change that does not win every pair. The last line of
standard output is a JSON list with one such summary per workload, holding
every run's values.

`--out PATH` also writes that list to PATH as `{"summaries": [...],
"environment": {...}}`; the environment holds each checkout's `git rev-parse
HEAD` (null outside a git checkout), the usable cores, `LHN_THREADS` and the
Python and numpy versions. A perf change commits its file as `BENCH_<n>.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    """Median and first and third quartiles (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Summary of one metric over (parent, change) pairs.

    A win is a pair where the change reads better than the parent. `gain`
    holds when the change wins at least nine tenths of the pairs and the
    medians differ, in the better direction, by more than the parent's
    interquartile range. `worse_beyond_bound` holds when the change's median
    is worse than the parent's by more than `bound`, relative to the parent.
    `unresolved` holds when there is no gain, the parent's interquartile
    range is wider than `bound` relative to its median, so the runs cannot
    tell a change within the bound from none, and the change does not win
    every pair.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = sign * (change["median"] - parent["median"])
    base = abs(parent["median"])
    spread = parent["q3"] - parent["q1"]
    gain = wins >= 0.9 * len(pairs) and gap > spread
    return {
        "parent": parent,
        "change": change,
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "gain": gain,
        "worse_beyond_bound": -gap > bound * base,
        "unresolved": not gain and spread > bound * base and wins < len(pairs),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from a checkout; returns its result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side imports its own src/
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def compare(dirs: dict, benchmark: dict, workload: str, pairs: int, seconds: float,
            first_seed: int) -> dict:
    """Run one workload's alternating pairs and summarize every end-to-end metric."""
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        seed = first_seed + k
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = run_once(dirs[side], workload, seed, seconds)
            runs[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"# {workload} pair {k + 1}/{pairs} seed {seed} {side}: "
                  f"correct={result['correct']} wall_s={wall}", flush=True)

    summary = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in zip(runs["parent"], runs["change"])]
        summary[name] = summarize(values, metric["better"], metric["bound"]) | {"values": values}
    correct = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
    return {"workload": workload, "pairs": pairs, "seconds": seconds, "first_seed": first_seed,
            "correct": correct, "metrics": summary}


def environment(dirs: dict) -> dict:
    """Where the pairs ran: each checkout's commit, the cores, the thread setting and versions."""
    def commit(checkout: Path):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "commits": {side: commit(d) for side, d in dirs.items()},
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "LHN_THREADS": os.environ.get("LHN_THREADS"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def print_table(result: dict) -> None:
    """One workload's summary as a table of medians, quartiles, wins and every verdict that holds."""
    first, last = result["first_seed"], result["first_seed"] + result["pairs"] - 1
    print(f"# workload {result['workload']}, {result['pairs']} pairs, "
          f"{result['seconds']:g} s per run, seeds {first}-{last}")
    print(f"# {'metric':24s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}  wins  verdict")
    for name, s in result["metrics"].items():
        cells = [f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]" for q in (s["parent"], s["change"])]
        flags = ("gain", "worse_beyond_bound", "unresolved")
        verdict = "; ".join(f.replace("_", " ") for f in flags if s[f]) or "-"
        print(f"  {name:24s} {cells[0]:>30s} {cells[1]:>30s} {s['wins']:>2d}/{s['pairs']:<3d} {verdict}")
    print(f"# correct on every run: {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; give it once per workload to compare")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="also write the summaries and the run environment to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = json.loads((args.parent_dir / "BENCHMARK.json").read_text())
    dirs = dict(zip(SIDES, (args.parent_dir.resolve(), args.change_dir.resolve())))
    results = []
    for workload in args.workload:
        results.append(compare(dirs, benchmark, workload, args.pairs, args.seconds, args.first_seed))
        print_table(results[-1])
    print(json.dumps(results))
    if args.out is not None:
        record = {"summaries": results, "environment": environment(dirs)}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(all(r["correct"].values()) for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
