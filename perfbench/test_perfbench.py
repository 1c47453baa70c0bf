"""Tests of the benchmark itself, at a tiny size (a few seconds in all).

    python3 -m pytest perfbench
"""
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument, self_times  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = "0.2"


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Make the command run every workload at its tiny shape, writing into tmp_path."""
    for name, shape in workloads.TINY.items():
        monkeypatch.setitem(workloads.FULL, name, shape)
    monkeypatch.setattr(run, "RESULTS", tmp_path)


def result_line(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace, kind):
    result = result_line(
        capsys, "--workload", workload, "--seed", "3", "--seconds", SECONDS, "--trace", trace
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name


def test_self_times_under_run_cv_sum_to_its_duration(tmp_path):
    _, _, _, spans = workloads.run_traced(
        "cv", 5, 0.2, str(tmp_path), shape=workloads.TINY["cv"]
    )
    selfs = self_times(spans)
    runs = [i for i, s in enumerate(spans) if s.name == "evaluation.run_cv"]
    assert runs
    for top in runs:
        inside = {top}
        for i in range(top + 1, len(spans)):
            if spans[i].parent in inside:
                inside.add(i)
        assert len(inside) > 1
        assert sum(selfs[i] for i in inside) == pytest.approx(spans[top].duration, abs=1e-9)


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    names, windows = [], []
    for seed in (1, 2):
        metrics, _, _ = workloads.run_untraced(
            "online", seed, 0.1, str(tmp_path), shape=workloads.TINY["online"]
        )
        names.append(set(metrics))
        workload = workloads.Online(workloads.TINY["online"], seed, str(tmp_path), workloads.Tally())
        workload.setup()
        windows.append(workload.windows)
    assert names[0] == names[1]
    assert len(windows[0]) == len(windows[1])
    assert any((a != b).any() for a, b in zip(windows[0], windows[1]))


def test_instrument_traces_calls_inside_a_module_and_restores_it():
    from latenthypernet import convnet, lhn

    original = lhn.collect_pool_features
    tracer = Tracer()
    with instrument(tracer, (lhn, convnet)):
        assert lhn.collect_pool_features is not original
        dataset = workloads.synthetic.make_synthetic_dataset(16, 64, seed=1)
        config = convnet.preset("convnet1", 64, 2, 4)
        lhn.lhn_fit(convnet.init_params(config), config, dataset, components=2)
    assert lhn.collect_pool_features is original
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    fit = by_name["lhn.lhn_fit"]
    assert tracer.spans[by_name["lhn.collect_pool_features"]].parent == fit
    assert tracer.spans[by_name["convnet.train_arrays"]].parent == fit
    assert tracer.spans[by_name["lhn.collect_pool_features"]].counts == {"windows": 16}


def test_command_refuses_to_run_without_the_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cv", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
