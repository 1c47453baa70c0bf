"""Supervised dimensionality reduction by partial least squares.

Weight columns are extracted one at a time. Features are z-scored and the
class-indicator block is centered first, so projections of differently
scaled feature blocks live on a common scale. Each feature weight is the
NIPALS fixed point in closed form: the top left singular vector of the
small [features x classes] cross-product C = Xd^T Yd (Hoskuldsson 1988),
signed the way NIPALS converges from its usual start, the first indicator
column.

Only C is deflated (Dayal & MacGregor 1997, as in de Jong's SIMPLS). The
score of component a is t = Xd r with the rotation
r = w - R_{<a} (P_{<a}^T w), which equals the deflated block times w; its
loading p = Xd^T t / (t^T t) keeps successive scores orthogonal, and the
update is C -= p (Yd^T t)^T. A component costs two matrix-vector products,
and Xd is never formed: with d = 1 / stds, Xd r = X (d r) - (means d) . r
and Xd^T t = d (X^T t - means sum(t)), so both products read the caller's X
in place and the fit holds no array as large as X. A clamped column's
1 / epsilon would magnify its mean's rounding in those differences, so the
clamped columns with a non-zero mean are centered explicitly instead; an
all-zero column is exactly zero either way. The block's Frobenius norm is
n sum((raw stds d)^2), and the deflated block's follows in closed form,
||X_{a+1}||^2 = ||X_a||^2 - (t^T t) ||p||^2.
Models project with the weights W, not the rotations R: in cross-validation
on convnet1 taps, R lowered the mean LHN recall from 0.915 to 0.845.

A fitted model folds its standardizer into the map when it is built
(Standardizer.fold, the one z-score fold), so a projection is one matrix
product plus an offset, whether the model was just fitted or loaded from its
payload. A model's and a standardizer's arrays are read-only and shared
with no writable array, so a built model cannot change.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from .errors import FormatError, InputError, NumericError, ShapeError
from .ingest import check_count, class_indices

MODEL_FORMAT = "pls-model"
MODEL_VERSION = 1

DEFAULT_EPSILON = 1e-8
STD_BLOCK = 256  # columns whose deviations _column_moments holds at once


def sealed(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only: for a fresh array that nothing else holds."""
    a.flags.writeable = False
    return a


def read_only(values) -> np.ndarray:
    """values as a float64 array that nothing can write through, so a built model never changes.

    A sealed float64 array that owns its memory is taken as it is; anything
    else is copied. So a fit hands its fresh arrays over uncopied, which
    matters for memory, not time: on the latent-fit workload, copying them
    scattered small long-lived blocks among the large freed ones, and the
    peak RSS grew back by a tap's size in 3 to 6 runs of 10, against 2 of 20.
    """
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable and values.base is None):
        return values
    return sealed(np.array(values, dtype=np.float64))


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score parameters, read-only (see read_only); stds are clamped from below."""

    means: np.ndarray
    stds: np.ndarray
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "means", read_only(self.means))
        object.__setattr__(self, "stds", read_only(self.stds))

    def fold(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This z-score folded into the map behind it, as (scaled weights, offset):
        X @ scaled + offset is standardize_apply(self, X) @ weights up to rounding."""
        return weights / self.stds[:, None], -(self.means / self.stds) @ weights


@dataclass(frozen=True)
class PlsModel:
    """Projection weights plus the standardizer they were fitted behind.

    weights has unit-norm columns. The standardizer is folded into one
    affine map when the model is built: transforming computes
    ``X @ scaled_weights + offset``, which equals standardizing X and
    multiplying by weights. Every array is read-only (see read_only).
    """

    weights: np.ndarray  # [n_features, components]
    x_standardizer: Standardizer
    n_classes: int
    scaled_weights: np.ndarray = field(init=False, repr=False)  # x_standardizer.fold(weights)
    offset: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", read_only(self.weights))
        scaled, offset = self.x_standardizer.fold(self.weights)
        object.__setattr__(self, "scaled_weights", sealed(scaled))
        object.__setattr__(self, "offset", sealed(offset))

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def components(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class NipalsTrace:
    """Per-component quantities captured while fitting.

    x_residual_norms holds the Frobenius norm the feature block would have
    with the first a components deflated out, for a = 0..components. No
    deflated block is formed: each entry is the previous squared norm less
    (t^T t) ||p||^2, clamped at 0 before the square root, so a fully
    deflated block reads 0 or rounding noise just above it.
    """

    x_scores: np.ndarray  # [n_samples, components]
    y_weights: np.ndarray  # [n_classes, components]
    x_residual_norms: np.ndarray  # [components + 1]


def one_hot(labels, n_classes: int) -> np.ndarray:
    """Indicator matrix: row i is 1 at column labels[i], 0 elsewhere."""
    labels = class_indices(labels, n_classes)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _column_moments(X) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and unclamped population std of a finite matrix of 2+ rows.

    X.std(axis=0) builds a deviation array as large as X. Taken a block of
    at most STD_BLOCK columns at a time, each std holds one block's
    deviations and has the same bits, and each block is checked finite as
    its std is taken, so no n x m mask is built either. No block is one
    column wide unless X is: numpy sums a lone column pairwise, not row by row.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a matrix, got rank {X.ndim}")
    n, m = X.shape
    if n < 2:
        raise InputError("standardization needs at least 2 rows")
    stds = np.empty(m)
    edges = [0, *range(STD_BLOCK, m - 1, STD_BLOCK), m]
    for start, stop in zip(edges[:-1], edges[1:]):
        block = X[:, start:stop]
        if not np.isfinite(block).all():
            raise NumericError(f"X must be finite: columns {start}-{stop - 1} hold a nan or inf")
        stds[start:stop] = block.std(axis=0)
    return X.mean(axis=0), stds


def _clamped_standardizer(means: np.ndarray, stds: np.ndarray) -> Standardizer:
    """A Standardizer over fresh _column_moments, stds clamped up to DEFAULT_EPSILON."""
    stds = np.where(stds < DEFAULT_EPSILON, DEFAULT_EPSILON, stds)
    return Standardizer(means=sealed(means), stds=sealed(stds), epsilon=DEFAULT_EPSILON)


def standardize_fit(X) -> Standardizer:
    """Fit per-column mean and population standard deviation (_column_moments).

    A non-finite X raises NumericError. Columns with standard deviation
    below DEFAULT_EPSILON are clamped to it so constant features map to zero
    instead of NaN.
    """
    return _clamped_standardizer(*_column_moments(X))


def standardize_apply(s: Standardizer, X) -> np.ndarray:
    """(X - means) / stds as a new array; X is left as it is."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != s.means.shape[0]:
        raise ShapeError(
            f"expected [n x {s.means.shape[0]}] input, got {X.shape}"
        )
    out = X - s.means  # the one n x m array; dividing it in place gives the same bits
    out /= s.stds
    return out


def nipals_fit_trace(X, Y, components: int) -> tuple[PlsModel, NipalsTrace]:
    """Fit a projection and also return the per-component fitting trace.

    Parameters
    ----------
    X : [n, m] raw feature matrix (standardized internally).
    Y : [n, k] class-indicator (or response) matrix, centered internally.
    components : requested number of weight columns; clamped to
        min(m, n - 1) with a warning when too large.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ShapeError("X and Y must be matrices")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"row counts disagree: X has {X.shape[0]}, Y has {Y.shape[0]}")
    if not np.isfinite(Y).all():  # X is checked by _column_moments, a block at a time
        raise NumericError("Y must be finite")
    check_count(components, 1, "components")

    n, m = X.shape
    k = Y.shape[1]
    limit = min(m, n - 1)
    if components > limit:
        warnings.warn(
            f"requested {components} components but only {limit} are "
            f"extractable from a {n} x {m} block; clamping",
            stacklevel=2,
        )
        components = limit

    means, raw_stds = _column_moments(X)
    standardizer = _clamped_standardizer(means, raw_stds)
    d = 1.0 / standardizer.stds
    norm_sq = n * float(np.sum(np.square(raw_stds * d)))  # ||Xd||^2
    # Xd's clamped columns with a non-zero mean, centered explicitly; they
    # take no part in the folded products (d = 0 there).
    exact = np.flatnonzero((raw_stds < DEFAULT_EPSILON) & (means != 0.0))
    Z = (X[:, exact] - means[exact]) * d[exact]
    d[exact] = 0.0
    Yd = Y - Y.mean(axis=0)

    W = np.empty((m, components))
    T = np.empty((n, components))
    Q = np.empty((k, components))
    R = np.empty((m, components))  # rotations: t = Xd @ r
    P = np.empty((m, components))
    residual_norms = [float(np.sqrt(norm_sq))]
    C = d[:, None] * (X.T @ Yd - np.outer(means, Yd.sum(axis=0)))  # Xd^T Yd
    C[exact] = Z.T @ Yd

    for a in range(components):
        U, s, _ = np.linalg.svd(C, full_matrices=False)
        if s[0] == 0.0:
            raise NumericError(
                f"component {a + 1}: feature block carries no signal left"
            )
        w = U[:, 0]
        # NIPALS started from u = Yd[:, 0] converges to the sign with
        # w . C[:, 0] > 0; when that start is orthogonal (an absent class),
        # pin the sign on the largest entry so the fit stays deterministic.
        lead = w @ C[:, 0]
        if lead < 0.0 or (lead == 0.0 and w[np.argmax(np.abs(w))] < 0.0):
            w = -w
        r = w - R[:, :a] @ (P[:, :a].T @ w)
        t = X @ (d * r) - (means * d) @ r + Z @ r[exact]  # Xd @ r
        # t is orthogonal to the earlier scores, so the undeflated Yd gives
        # the deflated block's cross-product with it.
        yt = Yd.T @ t
        yt_norm = np.linalg.norm(yt)
        if yt_norm == 0.0:
            raise NumericError(
                f"component {a + 1}: indicator block carries no signal left"
            )
        q = yt / yt_norm

        tt = float(t @ t)
        if tt == 0.0:
            raise NumericError(f"component {a + 1}: zero score vector")
        p = d * (X.T @ t - means * t.sum()) / tt  # Xd^T t / tt
        p[exact] = Z.T @ t / tt
        C -= np.outer(p, yt)

        W[:, a] = w
        T[:, a] = t
        Q[:, a] = q
        R[:, a] = r
        P[:, a] = p
        # Rounding can push the closed form for a fully deflated block a
        # hair below zero.
        norm_sq = max(norm_sq - tt * float(p @ p), 0.0)
        residual_norms.append(float(np.sqrt(norm_sq)))

    model = PlsModel(weights=sealed(W), x_standardizer=standardizer, n_classes=k)
    trace = NipalsTrace(x_scores=T, y_weights=Q, x_residual_norms=np.array(residual_norms))
    return model, trace


def nipals_fit(X, Y, components: int) -> PlsModel:
    """Fit a projection; see nipals_fit_trace for parameters."""
    model, _ = nipals_fit_trace(X, Y, components)
    return model


def pls_transform(model: PlsModel, X) -> np.ndarray:
    """Project raw features through the folded map: one GEMM plus the offset."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ShapeError(
            f"expected [n x {model.n_features}] input, got {X.shape}"
        )
    return X @ model.scaled_weights + model.offset


def model_payload(model: PlsModel) -> dict:
    """JSON-ready representation; floats round-trip bit-exactly via repr."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_features": model.n_features,
        "n_classes": model.n_classes,
        "components": model.components,
        "epsilon": model.x_standardizer.epsilon,
        "means": model.x_standardizer.means.tolist(),
        "stds": model.x_standardizer.stds.tolist(),
        "weights": model.weights.reshape(-1).tolist(),  # row-major
    }


def standardizer_payload(s: Standardizer) -> dict:
    """JSON-ready means, stds and epsilon; standardizer_from_payload reads it back."""
    return {"means": s.means.tolist(), "stds": s.stds.tolist(), "epsilon": s.epsilon}


def standardizer_from_payload(entry: dict, width: int, source) -> Standardizer:
    """Decode stored means, stds (`width` each) and epsilon: finite JSON numbers, stds > 0."""
    with fileio.decoding(source):
        means = fileio.float_array(entry["means"], (width,), "means", source)
        stds = fileio.float_array(entry["stds"], (width,), "stds", source)
        [epsilon] = fileio.float_array([entry["epsilon"]], (1,), "epsilon", source).tolist()
    if not (stds > 0.0).all():
        raise FormatError(f"{source}: stds holds a value <= 0")
    return Standardizer(means=means, stds=stds, epsilon=epsilon)


def model_from_payload(payload: dict, source: str = "<payload>") -> PlsModel:
    """Decode a model_payload dict; its counts are check_count integers >= 1 that fit the arrays."""
    fileio.check_header(payload, MODEL_FORMAT, MODEL_VERSION, source)
    with fileio.decoding(source):
        m, c, k = (check_count(payload[f], 1, f) for f in ("n_features", "components", "n_classes"))
        return PlsModel(
            weights=fileio.float_array(payload["weights"], (m, c), "weights", source),
            x_standardizer=standardizer_from_payload(payload, m, source),
            n_classes=k,
        )
