import dataclasses
import math

import numpy as np
import pytest

from latenthypernet import convnet, evaluation, synthetic
from latenthypernet.convnet import TrainingConfig
from latenthypernet.errors import DegenerateClassError, InputError, ParameterError


def t_critical_oracle(dof, alpha=0.05):
    """Invert a quadrature CDF of the t density; no scipy involved.

    Density integrated with Simpson's rule from 0; bisection solves
    CDF(x) = 1 - alpha/2.
    """
    log_norm = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )

    def pdf(x):
        return math.exp(log_norm - (dof + 1) / 2.0 * math.log1p(x * x / dof))

    def cdf(x):
        n = 2000  # even number of Simpson panels over [0, x]
        h = x / n
        acc = pdf(0.0) + pdf(x)
        for i in range(1, n):
            acc += pdf(i * h) * (4 if i % 2 else 2)
        return 0.5 + acc * h / 3.0

    target = 1.0 - alpha / 2.0
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestRecall:
    def test_diagonal_is_perfect(self):
        cm = evaluation.confusion_matrix([0, 1, 2, 2], [0, 1, 2, 2], 3)
        assert evaluation.recall_macro(cm) == 1.0

    def test_hand_computed(self):
        assert evaluation.recall_macro(np.array([[2, 0], [1, 1]])) == 0.75

    def test_uniform_predictions_approach_chance(self):
        k = 4
        per_class = 5000
        rng = np.random.default_rng(0)
        y_true = np.repeat(np.arange(k), per_class)
        y_pred = rng.integers(0, k, size=y_true.size)
        recall = evaluation.recall_macro(evaluation.confusion_matrix(y_true, y_pred, k))
        p = 1.0 / k
        sigma = math.sqrt(p * (1 - p) / per_class / k)  # macro mean of k binomials
        assert abs(recall - p) <= 3 * sigma

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 20, size=(4, 4))
        perm = rng.permutation(4)
        a = evaluation.recall_macro(counts)
        b = evaluation.recall_macro(counts[np.ix_(perm, perm)])
        assert abs(a - b) <= 1e-15

    def test_empty_row_rejected(self):
        with pytest.raises(DegenerateClassError):
            evaluation.recall_macro(np.array([[3, 0], [0, 0]]))

    def test_total(self):
        cm = evaluation.confusion_matrix([0, 0, 1], [1, 0, 1], 2)
        assert np.array_equal(cm, [[1, 1], [0, 1]])
        assert cm.sum() == 3

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("argument", ["y_true", "y_pred"])
    def test_class_index_outside_range(self, argument, bad):
        labels = {"y_true": [0, 1, 2], "y_pred": [0, 1, 2]}
        labels[argument] = [0, 1, bad]
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 3\)"):
            evaluation.confusion_matrix(labels["y_true"], labels["y_pred"], 3)

    def test_fractional_class_index_refused(self):
        with pytest.raises(ParameterError, match="whole class indices, got 1.7"):
            evaluation.confusion_matrix([0, 1.7, 2], [0.2, 1, 2.9], 3)
        with pytest.raises(ParameterError, match="whole class indices, got 0.2"):
            evaluation.confusion_matrix([0, 1, 2], [0.2, 1, 2.9], 3)
        with pytest.raises(ParameterError, match="whole class indices, got nan"):
            evaluation.confusion_matrix([0, np.nan, 2], [0, 1, 2], 3)
        whole = evaluation.confusion_matrix([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], 3)
        assert whole.tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 0]]


class TestKfold:
    def test_even_split(self):
        labels = np.repeat(np.arange(4), 25)
        fa = evaluation.kfold_split(labels, folds=10, seed=0)
        sizes = np.bincount(fa.fold_of_window, minlength=10)
        assert (sizes == 10).all()

    def test_near_even_split(self):
        labels = np.zeros(103, dtype=int)
        labels[:52] = 1
        fa = evaluation.kfold_split(labels, folds=10, seed=1)
        sizes = np.bincount(fa.fold_of_window, minlength=10)
        assert set(sizes.tolist()) <= {10, 11}

    def test_partition(self):
        labels = np.random.default_rng(2).integers(0, 3, size=57)
        fa = evaluation.kfold_split(labels, folds=10, seed=3)
        seen = np.concatenate([fa.test_indices(f) for f in range(10)])
        assert sorted(seen.tolist()) == list(range(57))

    def test_stratified_training_splits_cover_classes(self):
        labels = np.repeat(np.arange(5), 12)
        fa = evaluation.kfold_split(labels, folds=10, seed=4)
        for f in range(10):
            train_labels = labels[fa.train_indices(f)]
            assert set(train_labels.tolist()) == set(range(5))

    def test_deterministic(self):
        labels = np.random.default_rng(5).integers(0, 4, size=80)
        a = evaluation.kfold_split(labels, folds=10, seed=9)
        b = evaluation.kfold_split(labels, folds=10, seed=9)
        assert np.array_equal(a.fold_of_window, b.fold_of_window)

    def test_too_few_windows(self):
        with pytest.raises(InputError):
            evaluation.kfold_split(np.zeros(5, dtype=int), folds=10)

    def test_matches_per_window_dealing_oracle(self):
        rng = np.random.default_rng(12)
        for case in range(40):
            folds = int(rng.integers(2, 12))
            labels = rng.integers(0, int(rng.integers(1, 7)), size=int(rng.integers(folds, 300)))
            seed = int(rng.integers(0, 2**31))
            assert np.array_equal(
                evaluation.kfold_split(labels, folds=folds, seed=seed).fold_of_window,
                dealing_oracle(labels, folds, seed),
            ), f"case {case}: {folds} folds, seed {seed}"


def dealing_oracle(labels, folds, seed):
    """Deal each class's shuffled windows one at a time, the cursor carried across classes."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.size, dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for i in idx:
            assignment[i] = cursor % folds
            cursor += 1
    return assignment


@pytest.fixture(scope="module")
def tiny_cv():
    ds = synthetic.make_synthetic_dataset(n_windows=90, window_len=48, seed=7)
    cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
    hyper = TrainingConfig(epochs=4, seed=0)
    result = evaluation.run_cv(ds, cfg, hyper=hyper, components=4, seed=0, folds=3)
    return ds, cfg, hyper, result


class TestRunCv:
    def test_fold_counts(self, tiny_cv):
        _, _, _, result = tiny_cv
        assert len(result.baseline_recalls) == 3
        assert len(result.lhn_recalls) == 3

    def test_improvement_is_exact_difference(self, tiny_cv):
        _, _, _, result = tiny_cv
        assert result.improvement_pp == pytest.approx(
            (result.mean_lhn - result.mean_baseline) * 100.0, abs=1e-12
        )

    def test_deterministic(self, tiny_cv):
        ds, cfg, hyper, result = tiny_cv
        again = evaluation.run_cv(ds, cfg, hyper=hyper, components=4, seed=0, folds=3)
        assert again.baseline_recalls == result.baseline_recalls
        assert again.lhn_recalls == result.lhn_recalls

    def test_class_smaller_than_folds_refused_before_training(self, monkeypatch):
        ds = synthetic.make_synthetic_dataset(n_windows=40, window_len=48, seed=7)
        keep = [w for w in ds.windows if w.label != 2] + [w for w in ds.windows if w.label == 2][:2]
        ds = dataclasses.replace(ds, windows=keep)
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)

        def no_training(*args, **kwargs):
            raise AssertionError("a network was trained")

        monkeypatch.setattr(convnet, "train", no_training)
        with pytest.raises(InputError, match=r"5 folds.*\{'slow_burst': 2\}"):
            evaluation.run_cv(ds, cfg, folds=5)


class TestTimingStats:
    def test_identical_samples_are_equivalent(self):
        samples = np.full(30, 0.002)
        report = evaluation.timing_stats(samples, samples.copy())
        assert report.t_statistic == 0.0
        assert report.verdict == "equivalent"

    def test_clear_separation(self):
        rng = np.random.default_rng(0)
        a = 0.001 + rng.normal(0, 1e-6, size=30)
        b = a + 0.5
        report = evaluation.timing_stats(a, b)
        assert report.verdict == "not-equivalent"

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(1.0, 0.1, size=30)
        b = rng.normal(1.05, 0.1, size=30)
        fwd = evaluation.timing_stats(a, b)
        rev = evaluation.timing_stats(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.equivalent == rev.equivalent

    def test_critical_value_against_quadrature(self):
        impl = evaluation.student_t_critical(29)
        oracle = t_critical_oracle(29)
        assert abs(impl - oracle) <= 1e-3
        assert impl == pytest.approx(2.045, abs=1e-3)

    def test_ci_half_width_formula(self):
        rng = np.random.default_rng(2)
        a = rng.normal(1.0, 0.2, size=30)
        report = evaluation.timing_stats(a, a + rng.normal(0, 0.1, size=30))
        expected = evaluation.student_t_critical(29) * a.std(ddof=1) / math.sqrt(30)
        assert report.ci_half_a == pytest.approx(expected, rel=1e-12)

    def test_welch_variant(self):
        rng = np.random.default_rng(3)
        a = rng.normal(1.0, 0.01, size=30)
        b = rng.normal(1.0, 0.5, size=30)
        report = evaluation.timing_stats(a, b, welch=True)
        assert report.degrees_of_freedom < 58  # pooled dof would be exactly 58

    def test_too_few_runs(self):
        with pytest.raises(InputError):
            evaluation.timing_stats([1.0], [1.0, 2.0])

    def test_bad_dof(self):
        with pytest.raises(ParameterError):
            evaluation.student_t_critical(0)


class TestTimingBenchmark:
    def test_collects_runs(self):
        ds = synthetic.make_synthetic_dataset(n_windows=8, window_len=16, seed=0)
        calls = {"a": 0, "b": 0}

        def fa(w):
            calls["a"] += 1

        def fb(w):
            calls["b"] += 1

        report = evaluation.timing_benchmark(fa, fb, ds, runs=3)
        assert report.runs == 3
        assert report.samples_a.shape == (3,)
        # warmup (1 window each) + 3 full passes over 8 windows
        assert calls["a"] == 1 + 3 * 8
        assert calls["b"] == 1 + 3 * 8
        assert (report.samples_a >= 0).all()

    def test_runs_floor(self):
        ds = synthetic.make_synthetic_dataset(n_windows=8, window_len=16, seed=0)
        with pytest.raises(InputError):
            evaluation.timing_benchmark(lambda w: 0, lambda w: 0, ds, runs=1)
