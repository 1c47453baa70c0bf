"""Every committed perf record, BENCH_<n>.json, against the benchmark it measured.

scripts/bench_pairs.py --out writes these files; this checks that each one
still reads as a summary of BENCHMARK.json's workloads and end-to-end metrics.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.fixture(params=RECORDS, ids=lambda path: path.name)
def record(request):
    return json.loads(request.param.read_text(encoding="utf-8"))


def test_summaries_hold_the_benchmarks_metrics(record):
    assert record["summaries"]
    for summary in record["summaries"]:
        workload = summary["workload"]
        assert workload in WORKLOADS
        assert set(summary["metrics"]) == END_TO_END, workload
        pairs = summary["pairs"]
        for name, metric in summary["metrics"].items():
            assert metric["pairs"] == pairs, (workload, name)
            values = metric["values"]
            assert len(values) == pairs, (workload, name)
            for pair in values:
                assert len(pair) == 2, (workload, name)
                assert all(isinstance(v, (int, float)) for v in pair), (workload, name)


def test_both_sides_were_correct(record):
    for summary in record["summaries"]:
        assert summary["correct"] == {"parent": True, "change": True}, summary["workload"]


def test_environment_names_both_commits(record):
    commits = record["environment"]["commits"]
    assert {"parent", "change"} <= set(commits)
