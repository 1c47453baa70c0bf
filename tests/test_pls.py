import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latenthypernet import pls
from latenthypernet.errors import (
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedVersionError,
)


def power_iteration_top_eigvec(m, iters=500, seed=0):
    """Dominant eigenvector of a symmetric PSD matrix, no linalg.eig."""
    v = np.random.default_rng(seed).normal(size=m.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return v


def nipals_oracle(x, y, components, tol=1e-13, max_iters=100_000):
    """Plain NIPALS loop run to convergence; the reference for the closed form.

    Returns the weights and the Frobenius norms of the explicitly deflated
    feature block, starting with the undeflated one.
    """
    xd = pls.standardize_apply(pls.standardize_fit(x), x)
    yd = y - y.mean(axis=0)
    weights = []
    norms = [np.linalg.norm(xd)]
    for _ in range(components):
        u = yd[:, 0].copy()
        w_prev = None
        for _ in range(max_iters):
            w = xd.T @ u
            w /= np.linalg.norm(w)
            t = xd @ w
            q = yd.T @ t
            u = yd @ (q / np.linalg.norm(q))
            if w_prev is not None and np.max(np.abs(w - w_prev)) < tol:
                break
            w_prev = w
        else:
            raise AssertionError("oracle NIPALS did not converge")
        tt = t @ t
        xd = xd - np.outer(t, xd.T @ t / tt)
        yd = yd - np.outer(t, yd.T @ t / tt)
        weights.append(w)
        norms.append(np.linalg.norm(xd))
    return np.column_stack(weights), np.array(norms)


class TestOneHot:
    def test_two_classes(self):
        assert np.array_equal(pls.one_hot([0, 1], 2), [[1, 0], [0, 1]])

    def test_single_row(self):
        assert np.array_equal(pls.one_hot([2], 3), [[0, 0, 1]])

    def test_row_sums(self):
        out = pls.one_hot([3, 0, 11, 7, 5], 12)
        assert out.shape == (5, 12)
        assert np.array_equal(out.sum(axis=1), np.ones(5))

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            pls.one_hot([0, 2], 2)


class TestStandardizer:
    def test_mean_and_std(self):
        s = pls.standardize_fit(np.array([[1.0], [3.0]]))
        assert s.means[0] == 2.0
        assert s.stds[0] == 1.0  # population std

    def test_constant_column_clamped(self):
        s = pls.standardize_fit(np.array([[5.0], [5.0], [5.0]]))
        assert s.stds[0] == pls.DEFAULT_EPSILON

    def test_needs_two_rows(self):
        with pytest.raises(InputError):
            pls.standardize_fit(np.ones((1, 3)))

    def test_refit_moments(self):
        x = np.random.default_rng(3).normal(2.0, 4.0, size=(20, 4))
        z = pls.standardize_apply(pls.standardize_fit(x), x)
        assert np.abs(z.mean(axis=0)).max() <= 1e-10
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-10

    def test_apply_at_means_gives_zeros(self):
        x = np.random.default_rng(4).normal(size=(10, 3))
        s = pls.standardize_fit(x)
        z = pls.standardize_apply(s, np.tile(s.means, (5, 1)))
        assert np.abs(z).max() == 0.0

    def test_identity_standardizer(self):
        s = pls.Standardizer(means=np.zeros(3), stds=np.ones(3))
        x = np.random.default_rng(5).normal(size=(4, 3))
        assert np.array_equal(pls.standardize_apply(s, x), x)

    def test_apply_keeps_its_input_and_the_plain_expression_bits(self):
        x = np.random.default_rng(8).normal(3.0, 2.0, size=(50, 7))
        s = pls.standardize_fit(x)
        kept = x.copy()
        z = pls.standardize_apply(s, x)
        assert np.array_equal(x, kept)
        assert np.array_equal(z, (x - s.means) / s.stds)

    @pytest.mark.parametrize("fit", ["standardize_fit", "nipals_fit", "nipals_fit_trace"])
    def test_fit_reads_a_read_only_block_and_leaves_it_as_it_is(self, fit):
        # no fit z-scores its block in place, so a caller's array (or a tap) stays as it was
        rng = np.random.default_rng(9)
        x = rng.normal(5.0, 2.0, size=(30, 12))
        x[:, 3] = 2.5  # a clamped column with a non-zero mean, which the fit centers explicitly
        x.flags.writeable = False
        kept = x.tobytes()
        y = pls.one_hot(rng.integers(0, 3, size=30), 3)
        getattr(pls, fit)(*((x,) if fit == "standardize_fit" else (x, y, 4)))
        assert x.tobytes() == kept

    @pytest.mark.parametrize(
        "width", [pls.STD_BLOCK + 1, 2 * pls.STD_BLOCK + 2, 3 * pls.STD_BLOCK]
    )
    def test_stds_are_the_clamped_whole_block_std_bit_for_bit(self, width):
        # taken STD_BLOCK columns at a time; width STD_BLOCK + 1 would leave a
        # lone last column, which numpy sums in another order
        rng = np.random.default_rng(16)
        x = rng.normal(3.0, 2.0, size=(40, width)) * rng.uniform(0.1, 100.0, size=width)
        x[:, :2] = [0.0, 7.3]  # clamped
        s = pls.standardize_fit(x)
        stds = x.std(axis=0)
        assert np.array_equal(s.means, x.mean(axis=0))
        assert np.array_equal(s.stds, np.where(stds < pls.DEFAULT_EPSILON, pls.DEFAULT_EPSILON, stds))
        # each block is checked finite as its std is taken, the last one too
        x[5, -1] = np.inf
        last = max(range(0, width - 1, pls.STD_BLOCK))  # the last block's first column
        with pytest.raises(NumericError, match=f"^X must be finite: columns {last}-{width - 1} "):
            pls.standardize_fit(x)

    def test_arrays_are_read_only_copies(self):
        means = np.zeros(3)
        s = pls.Standardizer(means=means, stds=[1.0, 2.0, 4.0])
        means[0] = 5.0
        assert s.means[0] == 0.0 and s.stds.dtype == np.float64
        for a in (s.means, s.stds):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        # a sealed array is taken as it is; a read-only view of a writable one is copied
        assert pls.read_only(s.stds) is s.stds
        stds = np.ones(3)
        view = stds[:]
        view.flags.writeable = False
        s = pls.Standardizer(means=np.zeros(3), stds=view)
        stds[0] = 2.0
        assert s.stds[0] == 1.0

    def test_fold_is_standardize_then_multiply(self):
        rng = np.random.default_rng(18)
        x = rng.normal(4.0, 3.0, size=(30, 9)) * rng.uniform(0.01, 50.0, size=9)
        s = pls.standardize_fit(x)
        w = rng.normal(size=(9, 4))
        scaled, offset = s.fold(w)
        expected = pls.standardize_apply(s, x) @ w
        assert np.abs(x @ scaled + offset - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_round_trip(self):
        x = np.random.default_rng(6).normal(size=(12, 5))
        s = pls.standardize_fit(x)
        z = pls.standardize_apply(s, x)
        back = z * s.stds + s.means
        assert np.abs(back - x).max() <= 1e-12

    def test_dimension_mismatch(self):
        s = pls.standardize_fit(np.random.default_rng(7).normal(size=(5, 3)))
        with pytest.raises(ShapeError):
            pls.standardize_apply(s, np.zeros((2, 4)))


class TestNipals:
    def test_univariate_closed_form_and_power_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 8))
        y = rng.normal(size=(30, 1))
        y -= y.mean()
        model = pls.nipals_fit(x, y, 1)
        xs = pls.standardize_apply(model.x_standardizer, x)

        closed = xs.T @ y[:, 0]
        closed /= np.linalg.norm(closed)
        w = model.weights[:, 0]
        if w @ closed < 0:
            closed = -closed
        assert np.abs(w - closed).max() <= 1e-10

        # same direction as the dominant eigenvector of X^T y y^T X
        eig = power_iteration_top_eigvec(xs.T @ y @ y.T @ xs)
        assert abs(abs(w @ eig) - 1.0) <= 1e-8

    def test_component_count(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 25))
        y = pls.one_hot(rng.integers(0, 3, size=40), 3)
        model = pls.nipals_fit(x, y, 19)
        assert model.weights.shape == (25, 19)
        assert model.components == 19

    def test_score_orthogonality(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 8))
        y = pls.one_hot(rng.integers(0, 3, size=30), 3)
        _, trace = pls.nipals_fit_trace(x, y, 4)
        t = trace.x_scores
        for a in range(4):
            for b in range(a + 1, 4):
                bound = 1e-6 * np.linalg.norm(t[:, a]) * np.linalg.norm(t[:, b])
                assert abs(t[:, a] @ t[:, b]) <= bound

    def test_weight_columns_unit_norm(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 10))
        y = pls.one_hot(rng.integers(0, 4, size=25), 4)
        model = pls.nipals_fit(x, y, 5)
        assert np.abs(np.linalg.norm(model.weights, axis=0) - 1.0).max() <= 1e-8

    def test_clamps_excess_components_with_warning(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 4))
        y = pls.one_hot(rng.integers(0, 2, size=10), 2)
        with pytest.warns(UserWarning, match="clamping"):
            model = pls.nipals_fit(x, y, 50)
        assert model.components == 4

    def test_zero_variance_column_is_tolerated(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 4))
        x[:, 2] = 7.7
        y = pls.one_hot(rng.integers(0, 2, size=20), 2)
        model = pls.nipals_fit(x, y, 2)
        out = pls.pls_transform(model, x)
        assert np.isfinite(out).all()

    def test_transform_reproduces_first_score(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 6))
        y = rng.normal(size=(15, 1))
        y -= y.mean()
        model, trace = pls.nipals_fit_trace(x, y, 1)
        projected = pls.pls_transform(model, x)[:, 0]
        assert np.abs(projected - trace.x_scores[:, 0]).max() <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 9))
        y = pls.one_hot(rng.integers(0, 3, size=20), 3)
        a = pls.nipals_fit(x, y, 4)
        b = pls.nipals_fit(x, y, 4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.x_standardizer.means, b.x_standardizer.means)

    def test_first_component_maximizes_covariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 5))
        y = pls.one_hot(rng.integers(0, 3, size=30), 3)
        model, trace = pls.nipals_fit_trace(x, y, 1)
        xs = pls.standardize_apply(model.x_standardizer, x)
        yc = y - y.mean(axis=0)
        u = yc @ trace.y_weights[:, 0]
        best = model.weights[:, 0] @ (xs.T @ u)
        for _ in range(1000):
            v = rng.normal(size=5)
            v /= np.linalg.norm(v)
            assert v @ (xs.T @ u) <= best + 1e-8

    def test_deflation_monotone(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(25, 12))
        y = pls.one_hot(rng.integers(0, 4, size=25), 4)
        _, trace = pls.nipals_fit_trace(x, y, 6)
        assert np.all(np.diff(trace.x_residual_norms) <= 1e-9)

    def test_matches_converged_nipals(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 40))
        y = pls.one_hot(rng.integers(0, 4, size=60), 4)
        model = pls.nipals_fit(x, y, 10)
        weights, _ = nipals_oracle(x, y, 10)
        assert np.abs(model.weights - weights).max() <= 1e-8

    @pytest.mark.parametrize("tap_like", [False, True], ids=["normal", "tap-like"])
    def test_wide_block_matches_deflating_nipals(self, tap_like):
        # shaped like a pool tap: more features than windows
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 300))
        if tap_like:
            # an offset of 100 spreads, as post-ReLU pool taps have one, and two
            # clamped columns: one all zero, one constant and non-zero, whose
            # folded products would cancel
            x += 100.0
            x[:, :2] = [0.0, 7.3]
        y = pls.one_hot(rng.integers(0, 6, size=40), 6)
        model, trace = pls.nipals_fit_trace(x, y, 19)
        weights, norms = nipals_oracle(x, y, 19)
        assert np.abs(model.weights - weights).max() <= 1e-8
        np.testing.assert_allclose(trace.x_residual_norms, norms, rtol=1e-9, atol=0.0)

    @staticmethod
    def fit_peak(n, m, seed):
        """nipals_fit's tracemalloc peak, in bytes above what it started with, on an n x m block."""
        rng = np.random.default_rng(seed)
        x = rng.normal(2.0, 3.0, size=(n, m))
        y = pls.one_hot(rng.integers(0, 4, size=n), 4)
        pls.nipals_fit(x, y, 5)  # once untraced, so lazy imports are not counted
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            pls.nipals_fit(x, y, 5)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_fit_holds_no_array_a_quarter_as_large_as_its_block(self):
        # the fit reads X in place: no standardized copy, no deviation array
        assert self.fit_peak(200, 2048, 15) < 200 * 2048 * 8 / 4

    def test_fit_builds_no_mask_as_large_as_its_block(self):
        # the finite check goes a column block at a time, so no n x m bool array
        # (n * m bytes) is built; the largest temporary is one block's deviations
        n, m = 800, 4096
        assert self.fit_peak(n, m, 17) < 0.75 * n * m

    def test_residual_norm_at_component_limit(self):
        # n - 1 components exhaust a centered n-row block; the closed-form
        # norm of the last residual cancels to rounding noise around zero
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 50))
        y = pls.one_hot(rng.integers(0, 4, size=30), 4)
        model, trace = pls.nipals_fit_trace(x, y, 29)
        weights, norms = nipals_oracle(x, y, 29)
        assert np.abs(model.weights - weights).max() <= 1e-8
        np.testing.assert_allclose(trace.x_residual_norms[:-1], norms[:-1], rtol=1e-9, atol=0.0)
        last = trace.x_residual_norms[-1]
        assert np.isfinite(last) and last >= 0.0
        assert last <= 1e-6 * trace.x_residual_norms[0]

    def test_absent_first_class_is_deterministic(self):
        # class 0 never occurs, so the first centered indicator column is zero
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 8))
        y = pls.one_hot(rng.integers(1, 4, size=30), 4)
        a = pls.nipals_fit(x, y, 3)
        b = pls.nipals_fit(x, y, 3)
        assert np.isfinite(a.weights).all()
        assert np.abs(np.linalg.norm(a.weights, axis=0) - 1.0).max() <= 1e-8
        assert np.array_equal(a.weights, b.weights)

    def test_input_validation(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(10, 3))
        y = pls.one_hot(rng.integers(0, 2, size=10), 2)
        with pytest.raises(ParameterError):
            pls.nipals_fit(x, y, 0)
        with pytest.raises(ParameterError, match="an integer >= 1, got 2.5"):
            pls.nipals_fit(x, y, 2.5)
        with pytest.raises(ShapeError):
            pls.nipals_fit(x, y[:5], 1)
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            pls.nipals_fit(bad, y, 1)
        bad = y.copy()
        bad[0, 0] = np.inf
        with pytest.raises(NumericError, match="^Y must be finite$"):
            pls.nipals_fit(x, bad, 1)

    def test_transform_shape_error(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 3))
        y = pls.one_hot(rng.integers(0, 2, size=10), 2)
        model = pls.nipals_fit(x, y, 2)
        with pytest.raises(ShapeError):
            pls.pls_transform(model, np.zeros((4, 5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(3, 10))
def test_weights_unit_norm_property(seed, k, m):
    rng = np.random.default_rng(seed)
    n = 20
    x = rng.normal(size=(n, m))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every class present
    y = pls.one_hot(labels, k)
    c = min(3, m)
    model = pls.nipals_fit(x, y, c)
    assert np.abs(np.linalg.norm(model.weights, axis=0) - 1.0).max() <= 1e-8


class TestPersistence:
    """The payload embedded in LHN files, round-tripped through JSON text."""

    def make_model(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 7))
        y = pls.one_hot(rng.integers(0, 3, size=20), 3)
        return pls.nipals_fit(x, y, 4)

    def round_trip(self, payload):
        return pls.model_from_payload(json.loads(json.dumps(payload)))

    def test_folded_map_is_the_standardizer_fold(self):
        model = self.make_model()
        scaled, offset = model.x_standardizer.fold(model.weights)
        assert np.array_equal(model.scaled_weights, scaled)
        assert np.array_equal(model.offset, offset)

    @pytest.mark.parametrize(
        "field, index, value",
        [("weights", 3, True), ("weights", 0, "0.5"), ("means", 1, False), ("stds", 2, "1e3"),
         ("stds", 0, None), ("means", 0, 10**400), ("epsilon", None, True),
         ("epsilon", None, "1e-8")],
        ids=["bool-weight", "string-weight", "bool-mean", "string-std", "null-std", "huge-int-mean",
             "bool-epsilon", "string-epsilon"],
    )
    def test_value_that_is_not_a_json_number_rejected(self, field, index, value):
        # numpy would read true as 1.0 and "1e3" as 1000.0
        payload = pls.model_payload(self.make_model())
        if index is None:
            payload[field] = value
        else:
            payload[field][index] = value
        with pytest.raises(FormatError, match=f"<payload>: {field}"):
            self.round_trip(payload)

    def test_round_trip_bit_exact(self):
        model = self.make_model()
        loaded = self.round_trip(pls.model_payload(model))
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.x_standardizer.means, model.x_standardizer.means)
        assert np.array_equal(loaded.x_standardizer.stds, model.x_standardizer.stds)
        assert loaded.components == model.components
        assert loaded.n_classes == model.n_classes
        # the folded map is rebuilt on load and still equals standardize-then-project
        x = np.random.default_rng(1).normal(size=(6, 7))
        expected = pls.standardize_apply(model.x_standardizer, x) @ model.weights
        assert np.abs(pls.pls_transform(loaded, x) - expected).max() <= 1e-10

    def test_truncated_file(self):
        payload = pls.model_payload(self.make_model())
        payload["weights"] = payload["weights"][:5]
        with pytest.raises(FormatError, match="lengths"):
            self.round_trip(payload)

    def test_version_mismatch(self):
        payload = pls.model_payload(self.make_model())
        payload["version"] = 99
        with pytest.raises(UnsupportedVersionError):
            self.round_trip(payload)

    def test_wrong_format_marker(self):
        with pytest.raises(FormatError):
            self.round_trip({"format": "something-else", "version": 1})
