"""Cross-validation, recall metrics, and prediction-time statistics.

Recall is macro-averaged: the unweighted mean of per-class true-positive
rates, so rare classes count as much as common ones. The timing harness
reports per-system means with 95% confidence intervals and decides
equivalence with a pooled equal-variance two-sample t-test. Its Student-t
quantiles are exact for whole degrees of freedom: they invert the finite
trigonometric sums of the t distribution (Abramowitz & Stegun 26.7.3-4).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import convnet, lhn
from .convnet import NetworkConfig, TrainingConfig
from .errors import DegenerateClassError, InputError, ParameterError
from .ingest import Dataset, check_count, class_indices

ALPHA = 0.05  # two-sided level of the timing intervals and the t-test


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts [k, k]: rows are the true class, columns the predicted one; both in [0, k)."""
    y_true = class_indices(y_true, n_classes)
    y_pred = class_indices(y_pred, n_classes)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def recall_macro(counts: np.ndarray) -> float:
    """Unweighted mean over classes of diagonal / row sum of a confusion matrix."""
    row_sums = counts.sum(axis=1)
    if (row_sums == 0).any():
        empty = np.flatnonzero(row_sums == 0).tolist()
        raise DegenerateClassError(f"class(es) {empty} have no true samples")
    return float((np.diag(counts) / row_sums).mean())


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_window: np.ndarray  # [n] fold index per window
    folds: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_window == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_window != fold)


def kfold_split(labels, folds: int = 10, seed: int = 0) -> FoldAssignment:
    """Stratified shuffled fold assignment, deterministic per seed.

    Within each class the (shuffled) windows are dealt cyclically onto the
    folds, with the dealing cursor carried across classes so overall fold
    sizes differ by at most one.
    """
    labels = class_indices(labels, np.inf)  # no class count here: any whole label >= 0
    n = labels.size
    check_count(folds, 2, "folds")
    if n < folds:
        raise InputError(f"cannot split {n} windows into {folds} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        assignment[idx] = (cursor + np.arange(idx.size)) % folds
        cursor += idx.size
    return FoldAssignment(fold_of_window=assignment, folds=folds)


@dataclass(frozen=True)
class CvResult:
    baseline_recalls: tuple[float, ...]
    lhn_recalls: tuple[float, ...]
    mean_baseline: float
    mean_lhn: float
    improvement_pp: float  # (lhn - baseline) in percentage points
    folds: int


def run_cv(
    dataset: Dataset,
    config: NetworkConfig,
    hyper: TrainingConfig = TrainingConfig(),
    components: int = lhn.DEFAULT_COMPONENTS,
    seed: int = 0,
    folds: int = 10,
    reduce: bool = True,
) -> CvResult:
    """Paired k-fold evaluation of the plain network and its latent hypernet.

    Per fold: train the network on the other folds, score it on the held-out
    fold, fit the latent hypernet on the same training folds with the frozen
    network, and score it on the identical held-out windows. Per-fold seeds
    are derived from the master seed as seed * 1000 + fold; the latent
    classifier trains with `hyper` and seed fold_seed + 1. A bad count, or a
    class with fewer windows than folds (missing from a test fold), is refused up front.
    """
    check_count(components, 1, "components")
    labels = dataset.labels()
    assignment = kfold_split(labels, folds=folds, seed=seed)
    counts = np.bincount(labels, minlength=dataset.n_classes)
    short = {dataset.class_names[c]: int(counts[c]) for c in np.flatnonzero(counts < folds)}
    if short:
        raise InputError(f"class(es) with fewer windows than the {folds} folds: {short}")
    k = dataset.n_classes
    baseline_recalls = []
    lhn_recalls = []
    for fold in range(folds):
        fold_seed = seed * 1000 + fold
        train_set = dataset.take(assignment.train_indices(fold))
        test_set = dataset.take(assignment.test_indices(fold))
        y_true = test_set.labels()

        params = convnet.train(config, train_set, replace(hyper, seed=fold_seed))
        baseline_pred = convnet.predict_dataset(params, config, test_set)
        baseline_recalls.append(recall_macro(confusion_matrix(y_true, baseline_pred, k)))

        model = lhn.lhn_fit(
            params,
            config,
            train_set,
            components=components,
            classifier=replace(hyper, seed=fold_seed + 1),
            reduce=reduce,
        )
        lhn_pred = lhn.lhn_predict_dataset(model, params, config, test_set)
        lhn_recalls.append(recall_macro(confusion_matrix(y_true, lhn_pred, k)))

    mean_baseline = float(np.mean(baseline_recalls))
    mean_lhn = float(np.mean(lhn_recalls))
    return CvResult(
        baseline_recalls=tuple(baseline_recalls),
        lhn_recalls=tuple(lhn_recalls),
        mean_baseline=mean_baseline,
        mean_lhn=mean_lhn,
        improvement_pp=(mean_lhn - mean_baseline) * 100.0,
        folds=folds,
    )


# ---------------------------------------------------------------------------
# prediction-time statistics
# ---------------------------------------------------------------------------


def _t_central_mass(theta: float, dof: int) -> float:
    """P(|T| <= sqrt(dof) tan(theta)) for Student's t with whole dof (A&S 26.7.3-4)."""
    sin, cos = math.sin(theta), math.cos(theta)
    cos2 = cos * cos
    term = total = 1.0
    for j in range(1 + dof % 2, dof - 1, 2):  # term ratios 1/2, 3/4, ... (even dof), 2/3, 4/5, ... (odd)
        term *= cos2 * j / (j + 1)
        total += term
    if dof % 2 == 0:
        return sin * total
    if dof == 1:
        return 2.0 * theta / math.pi
    return 2.0 / math.pi * (theta + sin * cos * total)


def student_t_critical(dof: int, alpha: float = ALPHA) -> float:
    """Two-sided critical value of Student's t for whole degrees of freedom.

    Bisects theta = atan(t / sqrt(dof)) on (0, pi/2) until the midpoint stops
    moving, so the value is exact to rounding.
    """
    dof = check_count(dof, 1, "degrees of freedom")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha!r}")
    target = 1.0 - alpha
    lo, hi = 0.0, math.pi / 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.sqrt(dof) * math.tan(mid)
        if _t_central_mass(mid, dof) < target:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class TimingReport:
    """Two systems' per-run timings and a pooled equal-variance t-test of their means."""

    samples_a: np.ndarray  # per-run mean prediction seconds, system a
    samples_b: np.ndarray
    mean_a: float
    mean_b: float
    ci_half_a: float  # 95% CI half-widths of the per-system means
    ci_half_b: float
    t_statistic: float
    critical_value: float
    degrees_of_freedom: float
    equivalent: bool  # |t| below the critical value
    runs: int

    @property
    def verdict(self) -> str:
        return "equivalent" if self.equivalent else "not-equivalent"


def timing_stats(samples_a, samples_b) -> TimingReport:
    """Mean/CI per system plus a pooled equal-variance two-sample t-test.

    The test has na + nb - 2 degrees of freedom. When both sample sets are
    constant and equal the statistic is defined as 0.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise InputError("need at least 2 runs per system")
    na, nb = a.size, b.size
    mean_a, mean_b = float(a.mean()), float(b.mean())
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))

    ci_half_a = student_t_critical(na - 1) * math.sqrt(var_a / na)
    ci_half_b = student_t_critical(nb - 1) * math.sqrt(var_b / nb)

    pooled = ((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2)
    se2 = pooled * (1.0 / na + 1.0 / nb)
    dof = na + nb - 2

    diff = mean_a - mean_b
    if se2 == 0.0:
        t_stat = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        t_stat = diff / math.sqrt(se2)
    critical = student_t_critical(dof)
    return TimingReport(
        samples_a=a,
        samples_b=b,
        mean_a=mean_a,
        mean_b=mean_b,
        ci_half_a=float(ci_half_a),
        ci_half_b=float(ci_half_b),
        t_statistic=float(t_stat),
        critical_value=critical,
        degrees_of_freedom=float(dof),
        equivalent=abs(t_stat) < critical,
        runs=int(na),
    )


def timing_benchmark(
    predict_a,
    predict_b,
    dataset: Dataset,
    runs: int = 30,
) -> TimingReport:
    """Wall-clock per-window prediction time of two predictors.

    Each run times one full pass over the dataset and records the mean
    seconds per window; systems alternate within a run so slow drift hits
    both equally. One untimed warmup pass runs first. Must be executed
    serially (no concurrent load) for the intervals to mean anything.
    """
    check_count(runs, 2, "runs")
    if len(dataset) == 0:
        raise InputError("dataset is empty")
    windows = dataset.stacked()
    for fn in (predict_a, predict_b):
        fn(windows[0])
    samples_a = np.empty(runs)
    samples_b = np.empty(runs)
    for r in range(runs):
        for fn, out in ((predict_a, samples_a), (predict_b, samples_b)):
            start = time.perf_counter()
            for values in windows:
                fn(values)
            out[r] = (time.perf_counter() - start) / len(windows)
    return timing_stats(samples_a, samples_b)
