#!/usr/bin/env python3
"""Benchmark of the latent hypernet pipeline.

    python3 perfbench/run.py --workload cv --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
`--trace 0` measures the end-to-end metrics; `--trace 1` runs the traced mode,
which reports the per-layer metrics, a span table and the tracing overhead.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
The line before it is the run record (environment, details), which is also
written under `perfbench-results/` in the checkout, with the spans of a
traced run. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench-results"
WORKLOAD_NAMES = ("cv", "online", "latent-fit")


def pin_threads() -> int:
    """Cap the BLAS pool before numpy loads: LHN_THREADS (default 1), at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(nproc, int(os.environ.get("LHN_THREADS") or 1)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": git_commit(),
        "seed": seed,
    }


def print_tables(tables: dict, accounting: dict, overhead: dict) -> None:
    for phase, table in tables.items():
        print(f"# {phase}: span, count, total_s, self_s")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:38s} {row['count']:8d} {row['total_s']:12.6f} {row['self_s']:12.6f}")
    print(f"# traced loop accounting: {json.dumps(accounting)}")
    print(f"# tracing overhead (traced / untraced): {json.dumps(overhead)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "latenthypernet" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import latenthypernet

    if Path(latenthypernet.__file__).resolve().parent.parent != SRC:
        print(f"error: latenthypernet was imported from {latenthypernet.__file__}", file=sys.stderr)
        return 2
    import workloads

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[kind]}

    spans = None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as workdir:
        if args.trace:
            metrics, tally, detail, spans = workloads.run_traced(
                args.workload, args.seed, args.seconds, workdir
            )
        else:
            metrics, tally, detail = workloads.run_untraced(
                args.workload, args.seed, args.seconds, workdir
            )
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed, threads),
        "error_rate": tally.failed / tally.attempted,
        "detail": {k: v for k, v in detail.items() if k != "spans"},
        "result": result,
    }
    if args.trace:
        print_tables(detail["spans"], detail["loop_accounting"], detail["overhead"])
        record["span_tables"] = detail["spans"]
        record["spans"] = [[s.name, s.start, s.end, s.parent] for s in spans]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({k: v for k, v in record.items() if k not in ("spans", "span_tables", "result")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
