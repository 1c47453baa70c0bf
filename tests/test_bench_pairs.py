import importlib.util
import json
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_lower_is_better_gain():
    # parent 1.50 +- small spread, change about 0.3 s faster in 9 of 10 pairs
    parent = [1.50, 1.52, 1.48, 1.55, 1.47, 1.51, 1.49, 1.53, 1.50, 1.20]
    change = [1.20, 1.22, 1.19, 1.25, 1.18, 1.21, 1.20, 1.23, 1.19, 1.21]
    s = bench_pairs.summarize(list(zip(parent, change)), "lower", 0.2)
    assert (s["pairs"], s["wins"], s["losses"]) == (10, 9, 1)
    assert s["parent"] == {"q1": 1.4825, "median": 1.50, "q3": 1.5175}
    assert s["change"]["median"] == pytest.approx(1.205)
    assert s["gain"] and not s["worse_beyond_bound"]


def test_too_few_wins_is_no_gain():
    parent = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    change = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 1.5]  # 8 wins, 1 tie, 1 loss
    s = bench_pairs.summarize(list(zip(parent, change)), "lower", 0.2)
    assert (s["wins"], s["losses"]) == (8, 1)
    assert not s["gain"]


def test_gap_inside_parent_spread_is_no_gain():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # interquartile range 2.0
    change = [p - 1.5 for p in parent]  # wins every pair, medians 1.5 apart
    s = bench_pairs.summarize(list(zip(parent, change)), "lower", 0.2)
    assert s["wins"] == 5 and not s["gain"]


def test_higher_is_better_and_bound():
    # a recall falls from 0.9 to 0.7: worse by 22%, beyond a 0.2 bound
    s = bench_pairs.summarize([(0.9, 0.7), (0.9, 0.7), (0.9, 0.7)], "higher", 0.2)
    assert (s["wins"], s["losses"]) == (0, 3)
    assert s["worse_beyond_bound"] and not s["gain"]
    s = bench_pairs.summarize([(0.9, 0.75)], "higher", 0.2)  # worse by 17%
    assert not s["worse_beyond_bound"]


def test_wide_spread_is_unresolved(capsys):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # interquartile range 2.0, wider than 0.2 x median 3.0
    change = [1.5, 1.8, 3.2, 3.9, 5.1]  # wins 2, loses 3
    s = bench_pairs.summarize(list(zip(parent, change)), "lower", 0.2)
    assert (s["wins"], s["losses"]) == (2, 3)
    assert s["unresolved"] and not s["gain"] and not s["worse_beyond_bound"]
    bench_pairs.print_table({"workload": "cv", "pairs": 5, "seconds": 1, "first_seed": 1,
                             "correct": {}, "metrics": {"wall_s": s}})
    (row,) = [line for line in capsys.readouterr().out.splitlines() if "wall_s" in line]
    assert row.endswith(" unresolved")


def test_wide_spread_the_change_wins_every_pair_of_is_resolved():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [p - 1.5 for p in parent]  # no gain: the gap is inside the spread
    s = bench_pairs.summarize(list(zip(parent, change)), "lower", 0.2)
    assert s["wins"] == 5 and not s["gain"]
    assert not s["unresolved"]


def test_narrow_spread_is_resolved():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]  # interquartile range 0.01, under 0.2 x median 1.0
    change = [1.01, 1.00, 1.00, 1.02, 1.00]
    s = bench_pairs.summarize(list(zip(parent, change)), "lower", 0.2)
    assert s["losses"] > 0 and not s["gain"] and not s["worse_beyond_bound"]
    assert not s["unresolved"]


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize([(1.0, 1.0)], "sideways", 0.2)


def test_each_workload_gets_its_pairs_and_table(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    benchmark = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}
    (parent / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        wall = {"cv": 1.0, "online": 2.0}[workload] * (0.5 if checkout == change else 1.0)
        return {"correct": True, "metrics": {"wall_s": {"value": wall}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    rc = bench_pairs.main([str(parent), str(change), "--workload", "cv", "--workload", "online",
                           "--pairs", "2", "--seconds", "1", "--first-seed", "5"])
    assert rc == 0
    # workloads in turn; within one, the even pair runs the parent first, the odd pair the change
    assert calls == [
        ("parent", "cv", 5), ("change", "cv", 5), ("change", "cv", 6), ("parent", "cv", 6),
        ("parent", "online", 5), ("change", "online", 5),
        ("change", "online", 6), ("parent", "online", 6),
    ]
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("# workload")] == [
        "# workload cv, 2 pairs, 1 s per run, seeds 5-6",
        "# workload online, 2 pairs, 1 s per run, seeds 5-6",
    ]
    summaries = json.loads(lines[-1])
    assert [s["workload"] for s in summaries] == ["cv", "online"]
    assert summaries[1]["metrics"]["wall_s"]["values"] == [[2.0, 1.0], [2.0, 1.0]]
    assert summaries[0]["correct"] == {"parent": True, "change": True}


def test_a_wrong_run_on_any_workload_fails(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def fake_run_once(checkout, workload, seed, seconds):
        return {"correct": workload != "online", "metrics": {}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    argv = [str(tmp_path), str(tmp_path), "--pairs", "1", "--seconds", "1"]
    assert bench_pairs.main(argv + ["--workload", "cv"]) == 0
    assert bench_pairs.main(argv + ["--workload", "cv", "--workload", "online"]) == 1


def test_out_file_is_the_printed_summaries_plus_the_environment(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    benchmark = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}
    (parent / "BENCHMARK.json").write_text(json.dumps(benchmark))
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for cmd in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "benchmark"]):
        subprocess.run(git + cmd, cwd=parent, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=parent, check=True,
                          capture_output=True, text=True).stdout.strip()

    def fake_run_once(checkout, workload, seed, seconds):
        wall = 1.0 if checkout == parent else 0.5
        return {"correct": True, "metrics": {"wall_s": {"value": wall}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setenv("LHN_THREADS", "1")
    out = tmp_path / "BENCH_0.json"
    rc = bench_pairs.main([str(parent), str(change), "--workload", "latent-fit", "--pairs", "2",
                           "--seconds", "1", "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    record = json.loads(out.read_text())
    assert record == {"summaries": printed, "environment": record["environment"]}
    env = record["environment"]
    assert env["commits"] == {"parent": head, "change": None}  # the change is no git checkout
    assert env["LHN_THREADS"] == "1" and env["nproc"] >= 1
    assert (env["python"], env["numpy"]) == (platform.python_version(), np.__version__)
