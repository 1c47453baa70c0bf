"""Acceptance suite: one test per numbered criterion, run with pytest -v.

Each test prints a [acceptance] PASS/FAIL line via the conftest hook. The
end-to-end criteria share one 600-window synthetic dataset and one 10-fold
cross-validation run through module-scoped fixtures.
"""
import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from latenthypernet import cli, convnet, evaluation, ingest, lhn, pls, synthetic
from latenthypernet.convnet import TrainingConfig

SEED = 0
CV_HYPER = TrainingConfig(epochs=30, seed=SEED)


@pytest.fixture(scope="module")
def synthetic_dataset():
    return synthetic.make_synthetic_dataset(n_windows=600, window_len=64, seed=SEED, noise=0.6)


@pytest.fixture(scope="module")
def cv_run(synthetic_dataset):
    ds = synthetic_dataset
    config = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
    start = time.perf_counter()
    result = evaluation.run_cv(
        ds, config, hyper=CV_HYPER, components=19, seed=SEED, folds=10
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_pls_first_weight_closed_form():
    """Univariate centered response: first weight equals X^T y / ||X^T y||."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(10, 50))
        m = int(rng.integers(3, 12))
        x = rng.normal(size=(n, m))
        y = rng.normal(size=(n, 1))
        y -= y.mean()
        model = pls.nipals_fit(x, y, 1)
        xs = pls.standardize_apply(model.x_standardizer, x)
        closed = xs.T @ y[:, 0]
        closed /= np.linalg.norm(closed)
        w = model.weights[:, 0]
        if w @ closed < 0:
            closed = -closed
        assert np.abs(w - closed).max() <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_pls_score_orthogonality_and_unit_weights():
    rng = np.random.default_rng(102)
    x = rng.normal(size=(50, 30))
    y = pls.one_hot(rng.integers(0, 4, size=50), 4)
    model, trace = pls.nipals_fit_trace(x, y, 5)
    t = trace.x_scores
    for a in range(5):
        for b in range(a + 1, 5):
            bound = 1e-6 * np.linalg.norm(t[:, a]) * np.linalg.norm(t[:, b])
            assert abs(float(t[:, a] @ t[:, b])) <= bound
    assert np.abs(np.linalg.norm(model.weights, axis=0) - 1.0).max() <= 1e-8


def test_criterion_03_first_component_maximizes_label_covariance():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(20, 40))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        x = rng.normal(size=(n, m))
        y = pls.one_hot(labels, k)
        model, trace = pls.nipals_fit_trace(x, y, 1)
        xs = pls.standardize_apply(model.x_standardizer, x)
        yc = y - y.mean(axis=0)
        direction = xs.T @ (yc @ trace.y_weights[:, 0])
        best = float(model.weights[:, 0] @ direction)
        v = rng.normal(size=(1000, m))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert float((v @ direction).max()) <= best + 1e-8


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    conv_net = convnet.NetworkConfig(
        name="toy-conv",
        layers=(
            convnet.conv(2, 3, 2),
            convnet.maxpool(),
            convnet.flatten(),
            convnet.dense(3),
            convnet.softmax(),
        ),
        input_h=10,
        input_w=2,
    )
    assert convnet.grad_check(conv_net, rng.normal(size=(10, 2)), label=1, seed=1) <= 1e-4

    deep_net = convnet.NetworkConfig(
        name="toy-deep",
        layers=(
            convnet.conv(2, 3, 2),
            convnet.maxpool(),
            convnet.conv(3, 2, 1),
            convnet.maxpool(),
            convnet.flatten(),
            convnet.dense(4),
            convnet.softmax(),
        ),
        input_h=14,
        input_w=2,
    )
    assert convnet.grad_check(deep_net, rng.normal(size=(14, 2)), label=3, seed=2) <= 1e-4

    dense_net = convnet.NetworkConfig(
        name="toy-dense",
        layers=(convnet.flatten(), convnet.dense(3), convnet.softmax()),
        input_h=6,
        input_w=2,
    )
    assert convnet.grad_check(dense_net, rng.normal(size=(6, 2)), label=0, seed=3) <= 1e-4
    assert time.perf_counter() - start < 30.0


def test_criterion_05_shape_arithmetic():
    # independent oracle: out = in - kernel + 1 per conv, floor(h/2) per pool
    oracle_h = (500 - 12 + 1) // 2
    oracle_w = 2 - 2 + 1
    assert (oracle_h, oracle_w) == (244, 1)
    assert 24 * oracle_h * oracle_w == 5856

    config = convnet.preset("convnet1", 500, 2, 12)
    shapes = convnet.propagate_shapes(config)
    assert shapes[1] == (24, 244, 1)
    params = convnet.init_params(config, 0)
    trace = convnet.forward_with_taps(
        params, config, np.random.default_rng(105).normal(size=(500, 2))
    )
    assert trace.pool_taps[0].size == 5856

    deep = convnet.preset("convnet3", 500, 2, 12)
    assert len(deep.tap_widths()) == 4
    deep_trace = convnet.forward_with_taps(
        convnet.init_params(deep, 0), deep, np.zeros((500, 2))
    )
    assert len(deep_trace.pool_taps) == 4


def test_criterion_06_latent_width_for_deep_preset():
    ds = synthetic.make_synthetic_dataset(n_windows=60, window_len=100, seed=106)
    config = convnet.preset("convnet3", ds.window_len, ds.channels, ds.n_classes)
    params = convnet.train(config, ds, TrainingConfig(epochs=2, seed=0))
    model = lhn.lhn_fit(params, config, ds, components=19, classifier=TrainingConfig(epochs=1))
    assert len(model.layer_components) == 4
    assert model.layer_components == [19, 19, 19, 19]
    assert model.latent_width == 76
    z = lhn.lhn_transform(model, params, config, ds.windows[0].values)
    assert z.shape == (76,)


def test_criterion_07_window_counts_match_scan_oracle():
    rng = np.random.default_rng(107)
    for _ in range(10_000):
        n = int(rng.integers(1, 1001))
        t = int(rng.integers(1, 1001))
        stride = int(rng.integers(1, 1001))
        rec = ingest.SensorRecording(
            samples=np.empty((n, 1)), sampling_rate_hz=1.0, label="x"
        )
        got = len(ingest.segment(rec, window_seconds=float(t), stride_samples=stride))
        expected = 0
        start = 0
        while start + t <= n:
            expected += 1
            start += stride
        assert got == expected

    assert ingest.window_samples(5.0, 100.0) == 500  # 5 s at 100 Hz
    assert ingest.window_samples(1.0, 50.0) == 50  # 1 s at 50 Hz


def test_criterion_08_end_to_end_synthetic_run(synthetic_dataset, cv_run):
    ds = synthetic_dataset
    result, elapsed = cv_run
    assert len(ds) >= 600
    assert ds.n_classes == 4 and ds.channels == 2
    assert result.folds == 10
    assert result.mean_baseline >= 0.80
    assert result.mean_lhn >= result.mean_baseline - 0.01
    print(
        f"\n  baseline recall {result.mean_baseline:.4f}, latent hypernet "
        f"{result.mean_lhn:.4f}, improvement {result.improvement_pp:+.2f} p.p., "
        f"{elapsed:.0f} s"
    )
    assert elapsed < 300.0


def test_criterion_09_params_file_untouched_by_lhn_fit(tmp_path):
    csv_path = tmp_path / "data.csv"
    synthetic.write_synthetic_csv(csv_path, n_windows=60, window_len=40, sampling_rate_hz=8.0)
    args = ["--data", str(csv_path), "--rate", "8", "--window-seconds", "5"]
    assert cli.main(["train", *args, "--epochs", "2", "--out-dir", str(tmp_path)]) == 0
    params_path = tmp_path / "convnet1.params.json"
    before = hashlib.sha256(params_path.read_bytes()).hexdigest()
    assert (
        cli.main(
            [
                "lhn-fit", *args,
                "--params", str(params_path),
                "--components", "5",
                "--epochs", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    after = hashlib.sha256(params_path.read_bytes()).hexdigest()
    assert after == before


def _t_critical_oracle(dof, alpha=0.05):
    """Bisection on a Simpson-rule CDF of the t density."""
    log_norm = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )

    def pdf(x):
        return math.exp(log_norm - (dof + 1) / 2.0 * math.log1p(x * x / dof))

    def cdf(x):
        n = 2000
        h = x / n
        acc = pdf(0.0) + pdf(x)
        for i in range(1, n):
            acc += pdf(i * h) * (4 if i % 2 else 2)
        return 0.5 + acc * h / 3.0

    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if cdf(mid) < 1.0 - alpha / 2.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_criterion_10_timing_harness():
    samples = np.full(30, 1.5e-3)
    report = evaluation.timing_stats(samples, samples.copy())
    assert report.t_statistic == 0.0
    assert report.verdict == "equivalent"

    critical = evaluation.student_t_critical(29)
    assert abs(critical - _t_critical_oracle(29)) <= 1e-3
    assert abs(critical - 2.045) <= 1e-3


def test_criterion_11_fold_properties():
    rng = np.random.default_rng(111)
    folds = 10
    for _ in range(200):
        n = int(rng.integers(folds, 400))
        seed = int(rng.integers(0, 2**31))
        k = int(rng.integers(2, 7))
        labels = rng.integers(0, k, size=n)
        fa = evaluation.kfold_split(labels, folds=folds, seed=seed)
        assert fa.fold_of_window.shape == (n,)
        assert fa.fold_of_window.min() >= 0 and fa.fold_of_window.max() < folds
        # covering and disjoint: every index lands in exactly one fold
        seen = np.concatenate([fa.test_indices(f) for f in range(folds)])
        assert sorted(seen.tolist()) == list(range(n))
        sizes = np.bincount(fa.fold_of_window, minlength=folds)
        assert sizes.max() - sizes.min() <= 1
        again = evaluation.kfold_split(labels, folds=folds, seed=seed)
        assert np.array_equal(fa.fold_of_window, again.fold_of_window)


def test_criterion_12_reduction_ablation_not_better(synthetic_dataset):
    ds = synthetic_dataset
    config = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
    assignment = evaluation.kfold_split(ds.labels(), folds=10, seed=SEED)
    reduced_scores = []
    raw_scores = []
    for fold in range(3):
        fold_seed = SEED * 1000 + fold
        train_set = ds.take(assignment.train_indices(fold))
        test_set = ds.take(assignment.test_indices(fold))
        y_true = test_set.labels()
        params = convnet.train(config, train_set, replace(CV_HYPER, seed=fold_seed))
        for reduce_flag, scores in ((True, reduced_scores), (False, raw_scores)):
            model = lhn.lhn_fit(
                params,
                config,
                train_set,
                components=19,
                classifier=replace(CV_HYPER, seed=fold_seed + 1),
                reduce=reduce_flag,
            )
            pred = lhn.lhn_predict_dataset(model, params, config, test_set)
            scores.append(
                evaluation.recall_macro(
                    evaluation.confusion_matrix(y_true, pred, ds.n_classes)
                )
            )
    reduced_mean = float(np.mean(reduced_scores))
    raw_mean = float(np.mean(raw_scores))
    print(f"\n  reduced {reduced_mean:.4f} vs raw-concatenation {raw_mean:.4f}")
    assert raw_mean <= reduced_mean + 0.01
