import collections
import dataclasses
import functools
import inspect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from latenthypernet import convnet, lhn, pls, synthetic
from latenthypernet.convnet import TrainingConfig
from latenthypernet.errors import (
    DegenerateClassError,
    FormatError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedVersionError,
)


@pytest.fixture(scope="module")
def trained():
    """Small trained net on synthetic data, shared by the module's tests."""
    ds = synthetic.make_synthetic_dataset(n_windows=160, window_len=48, seed=3)
    cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
    params = convnet.train(cfg, ds, TrainingConfig(epochs=10, seed=0))
    return ds, cfg, params


@pytest.fixture(scope="module")
def saved_files(trained, tmp_path_factory):
    """Text of a saved model file with two pool layers, keyed by reduce."""
    ds, cfg, params = trained
    out = {}
    for reduce in (True, False):
        model = lhn.lhn_fit(
            params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1), reduce=reduce
        )
        path = tmp_path_factory.mktemp("saved") / "model.lhn.json"
        lhn.save_lhn(model, path)
        out[reduce] = path.read_text(encoding="utf-8")
    return out


NAN, INF = float("nan"), float("inf")

# name: (reduce, path to the tampered value, value, field the error must name)
TAMPERINGS = {
    "zero-pls-std": (True, ("pls_models", 1, "stds", 2), 0.0, r"pls_models\[1\]: stds"),
    "negative-pls-std": (True, ("pls_models", 1, "stds", 2), -1.0, r"pls_models\[1\]: stds"),
    "nan-pls-weight": (True, ("pls_models", 1, "weights", 0), NAN, r"pls_models\[1\]: weights"),
    "inf-pls-mean": (True, ("pls_models", 1, "means", 0), INF, r"pls_models\[1\]: means"),
    "nan-classifier-weight": (True, ("classifier_weights", "data", 3), NAN, ": classifier_weights"),
    "inf-classifier-bias": (True, ("classifier_bias", 1), INF, ": classifier_bias"),
    "zero-tap-std": (False, ("tap_standardizers", 1, "stds", 0), 0.0, r"tap_standardizers\[1\]: stds"),
    "nan-tap-mean": (False, ("tap_standardizers", 1, "means", 0), NAN, r"tap_standardizers\[1\]: means"),
    # a value that is not a JSON number: numpy would read true as 1.0 and "1e3" as 1000.0
    "bool-pls-weight": (True, ("pls_models", 1, "weights", 0), True, r"pls_models\[1\]: weights"),
    "string-pls-std": (True, ("pls_models", 0, "stds", 1), "1e3", r"pls_models\[0\]: stds"),
    "bool-pls-epsilon": (True, ("pls_models", 1, "epsilon"), True, r"pls_models\[1\]: epsilon"),
    "string-classifier-weight": (True, ("classifier_weights", "data", 3), "0.5", ": classifier_weights"),
    "bool-classifier-bias": (True, ("classifier_bias", 0), False, ": classifier_bias"),
    "bool-tap-mean": (False, ("tap_standardizers", 0, "means", 2), True, r"standardizers\[0\]: means"),
    "string-tap-epsilon":
        (False, ("tap_standardizers", 1, "epsilon"), "1e-8", r"standardizers\[1\]: epsilon"),
}


def test_collect_pool_features_shapes(trained):
    ds, cfg, params = trained
    taps = list(lhn._pool_taps(params, cfg, ds))
    assert len(taps) == 2
    shapes = convnet.propagate_shapes(cfg)
    pool_shapes = [s for s, spec in zip(shapes, cfg.layers) if spec.kind == "maxpool"]
    for tap, shape in zip(taps, pool_shapes):
        assert tap.shape == (len(ds), int(np.prod(shape)))


def test_collect_pool_features_refuses_a_layer_it_cannot_build(trained):
    ds, cfg, params = trained
    first = lhn.collect_pool_features(params, cfg, ds, 0)
    with pytest.raises(ParameterError, match="^layer 2 is past convnet1's 2 pool layers$"):
        lhn.collect_pool_features(params, cfg, ds, 2, first)
    with pytest.raises(ParameterError, match="^layer must be an integer >= 0, got -1$"):
        lhn.collect_pool_features(params, cfg, ds, -1)
    want = re.escape(f"layer 1 is built from layer 0's {first.shape} taps, got")
    with pytest.raises(ShapeError, match=f"^{want} none$"):
        lhn.collect_pool_features(params, cfg, ds, 1)
    short = re.escape(str((len(ds) - 1, first.shape[1])))
    with pytest.raises(ShapeError, match=f"^{want} shape {short}$"):
        lhn.collect_pool_features(params, cfg, ds, 1, first[1:])


def test_tap_flattening_is_map_row_column(trained):
    ds, cfg, params = trained
    trace = convnet.forward_with_taps(params, cfg, ds.windows[0].values)
    pooled = None
    cur = ds.windows[0].values[None, None, :, :]
    ci = 0
    for spec in cfg.layers:
        if spec.kind == "conv":
            cur = np.maximum(
                convnet._conv_forward_batch(cur, params.conv_kernels[ci], params.conv_biases[ci]),
                0.0,
            )
            ci += 1
        elif spec.kind == "maxpool":
            cur = convnet._maxpool_forward_batch(cur)
            pooled = cur[0]
            break
    assert np.array_equal(trace.pool_taps[0], pooled.reshape(-1))


def test_single_window_is_a_batch_of_one(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1))
    assert_single_window_is_a_batch_of_one(ds, cfg, params, model)


@pytest.mark.parametrize("name", ["convnet2", "convnet3"])
def test_single_window_is_a_batch_of_one_on_deeper_presets(name):
    # on 2-channel windows these presets' kernels are one column wide, so the
    # windows slide along the columns too; 12 epochs make every class predicted
    ds = synthetic.make_synthetic_dataset(n_windows=120, window_len=96, seed=6)
    cfg = convnet.preset(name, ds.window_len, ds.channels, ds.n_classes)
    assert convnet.propagate_shapes(cfg)[0][2] == 2
    params = convnet.train(cfg, ds, TrainingConfig(epochs=12, seed=0))
    model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1))
    assert_single_window_is_a_batch_of_one(ds, cfg, params, model)


def assert_single_window_is_a_batch_of_one(ds, cfg, params, model):
    """Each window's single-window predictions and taps equal its batched rows."""
    convnet_rows = convnet.predict_dataset(params, cfg, ds)
    assert len(np.unique(convnet_rows)) == ds.n_classes
    lhn_rows = lhn.lhn_predict_dataset(model, params, cfg, ds)
    taps = list(lhn._pool_taps(params, cfg, ds))
    for j, window in enumerate(ds.windows):
        assert convnet.predict(params, cfg, window.values) == convnet_rows[j]
        assert lhn.lhn_predict(model, params, cfg, window.values) == lhn_rows[j]
        trace = convnet.forward_with_taps(params, cfg, window.values)
        for tap, rows in zip(trace.pool_taps, taps, strict=True):
            assert np.allclose(tap, rows[j], rtol=1e-12, atol=1e-12)


def test_predict_dataset_projects_in_chunks(trained, monkeypatch):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1))
    big = synthetic.make_synthetic_dataset(
        n_windows=2 * convnet._CHUNK + 8, window_len=ds.window_len, seed=5
    )
    expected = [lhn.lhn_predict(model, params, cfg, w.values) for w in big.windows]
    rows = []
    trunk = convnet._trunk

    def recording(p, x):
        rows.append(x.shape[0])
        return trunk(p, x)

    monkeypatch.setattr(convnet, "_trunk", recording)
    labels = lhn.lhn_predict_dataset(model, params, cfg, big)
    assert max(rows) <= convnet._CHUNK
    assert sum(rows) == len(big)
    assert labels.tolist() == expected


@pytest.mark.parametrize("name, window_len", [("convnet1", 64), ("convnet3", 128)])
def test_chunked_taps_equal_one_unchunked_forward(name, window_len):
    """Every row block of the preallocated taps is written, with the whole batch's bits."""
    ds = synthetic.make_synthetic_dataset(
        n_windows=2 * convnet._CHUNK + 3, window_len=window_len, seed=8
    )
    cfg = convnet.preset(name, ds.window_len, ds.channels, ds.n_classes)
    params = convnet.init_params(cfg, 3)
    taps = list(lhn._pool_taps(params, cfg, ds))
    whole = convnet._forward_taps(params, convnet._dataset_batch(cfg, ds))
    assert [t.shape for t in taps] == [(len(ds), w) for w in cfg.tap_widths()]
    for tap, expected in zip(taps, whole, strict=True):
        assert np.array_equal(tap, expected)


def test_latent_width_small(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=1, classifier=TrainingConfig(epochs=1))
    assert model.latent_width == 2
    assert model.layer_components == [1, 1]
    assert model.classifier_weights.shape == (2, ds.n_classes)


def test_freezing_contract(trained):
    ds, cfg, params = trained
    before = convnet.params_digest(params)
    lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=2))
    assert convnet.params_digest(params) == before


def test_idempotent_fit(trained):
    ds, cfg, params = trained
    a = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=2))
    b = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=2))
    assert np.array_equal(a.classifier_weights, b.classifier_weights)
    for ma, mb in zip(a.pls_models, b.pls_models):
        assert np.array_equal(ma.weights, mb.weights)


def test_per_layer_fit_matches_direct_fit(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1))
    taps = list(lhn._pool_taps(params, cfg, ds))
    indicators = pls.one_hot(ds.labels(), ds.n_classes)
    for tap, fitted in zip(taps, model.pls_models):
        direct = pls.nipals_fit(tap, indicators, 3)
        assert np.array_equal(direct.weights, fitted.weights)


@pytest.fixture(scope="module")
def wide_taps():
    """An untrained convnet3 on 256 windows of 128x2: four taps, the first 2784 of 5360 columns."""
    ds = synthetic.make_synthetic_dataset(n_windows=256, window_len=128, seed=5)
    cfg = convnet.preset("convnet3", ds.window_len, ds.channels, ds.n_classes)
    return ds, cfg, convnet.init_params(cfg, 0)


def tap_bytes(ds, cfg):
    """Bytes of all of a dataset's taps."""
    return 8 * len(ds) * sum(cfg.tap_widths())


def pair_bytes(ds, cfg):
    """Bytes of the widest two adjacent layers' taps."""
    widths = cfg.tap_widths()
    return 8 * len(ds) * max(a + b for a, b in zip(widths, widths[1:]))


def chunk_bytes(cfg):
    """Bytes of the largest stage's buffers on one convnet._CHUNK-window chunk.

    A stage's buffers are its maps-last input, its window rows, its conv
    output and its pool output.
    """
    inputs = [(1, cfg.input_h, cfg.input_w), *cfg.shapes[1:-3:2]]
    stages = zip(cfg.layers[:-3:2], inputs, cfg.shapes[0:-3:2], cfg.shapes[1:-3:2])
    return 8 * convnet._CHUNK * max(
        math.prod(x) + spec.kernel_h * spec.kernel_w * x[0] * out[1] * out[2]
        + math.prod(out) + math.prod(pooled)
        for spec, x, out, pooled in stages
    )


def traced_peak(run):
    """Bytes traced at run()'s peak, its taps' building included, above those traced at its start.

    run() goes once untraced first, so lazy imports are not counted.
    """
    run()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("reduce", [True, False])
def test_fit_holds_one_standardized_copy_of_a_tap(wide_taps, reduce):
    ds, cfg, params = wide_taps
    peak = traced_peak(
        lambda: lhn.lhn_fit(params, cfg, ds, 3, TrainingConfig(epochs=1), reduce=reduce)
    )
    # Reduced, each layer is built from the one below and fitted in place, so
    # the fit holds two adjacent layers and one chunk's stage buffers at most.
    # Unreduced, the latent matrix is as wide as all the taps, and
    # concatenating it holds both.
    if reduce:
        assert peak <= 1.1 * pair_bytes(ds, cfg) + chunk_bytes(cfg)
    else:
        assert peak <= 1.1 * 2 * tap_bytes(ds, cfg)


def test_export_last_holds_two_adjacent_layers(wide_taps):
    ds, cfg, params = wide_taps
    model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
    peak = traced_peak(lambda: lhn.export_projection(model, params, cfg, ds, "last"))
    assert peak <= 1.1 * pair_bytes(ds, cfg) + chunk_bytes(cfg)


def test_export_all_holds_the_combined_taps_and_one_standardized_copy(wide_taps):
    ds, cfg, params = wide_taps
    model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
    peak = traced_peak(lambda: lhn.export_projection(model, params, cfg, ds, "all"))
    assert peak <= 1.1 * 2 * tap_bytes(ds, cfg)


@pytest.mark.parametrize("reduce", [True, False])
def test_layer_maps_equal_direct_fits_on_each_tap(wide_taps, reduce):
    ds, cfg, params = wide_taps
    model = lhn.lhn_fit(
        params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1), reduce=reduce
    )
    assert_layer_maps_are_direct_fits(model, list(lhn._pool_taps(params, cfg, ds)), ds, 3)


def assert_layer_maps_are_direct_fits(model, taps, ds, components):
    """Each layer's map in a fitted model equals a direct fit on that layer's taps, bit for bit."""
    if model.reduced:
        indicators = pls.one_hot(ds.labels(), ds.n_classes)
        direct = [pls.nipals_fit(tap, indicators, components) for tap in taps]
        for d, fitted in zip(direct, model.pls_models, strict=True):
            assert np.array_equal(d.weights, fitted.weights)
        pairs = [(d.x_standardizer, f.x_standardizer) for d, f in zip(direct, model.pls_models)]
    else:
        pairs = list(zip(map(pls.standardize_fit, taps), model.tap_standardizers, strict=True))
    for d, fitted in pairs:
        assert np.array_equal(d.means, fitted.means)
        assert np.array_equal(d.stds, fitted.stds)


@pytest.mark.parametrize("name", ["convnet1", "convnet2", "convnet3"])
def test_layer_by_layer_taps_equal_per_window_forwards(name):
    """Each layer, built from the one below in chunks, has the bits of each window's own forward."""
    ds = synthetic.make_synthetic_dataset(
        n_windows=2 * convnet._CHUNK + 5, window_len=128, seed=9
    )
    cfg = convnet.preset(name, ds.window_len, ds.channels, ds.n_classes)
    params = convnet.init_params(cfg, 2)
    x = convnet._dataset_batch(cfg, ds)
    per_window = [convnet._forward_taps(params, x[j : j + 1]) for j in range(len(ds))]
    taps = [np.concatenate(rows) for rows in zip(*per_window)]
    built = list(lhn._pool_taps(params, cfg, ds))
    assert [t.shape for t in built] == [(len(ds), w) for w in cfg.tap_widths()]
    for tap, expected in zip(built, taps, strict=True):
        assert np.array_equal(tap, expected)
    for reduce in (True, False):
        model = lhn.lhn_fit(
            params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1), reduce=reduce
        )
        assert_layer_maps_are_direct_fits(model, taps, ds, 3)


def record_calls(monkeypatch, modules):
    """Log every call to the public functions of `modules`, as the benchmark's tracer does.

    Each function is replaced in its module by a wrapper, so a call made
    inside a module is logged only when it looks the name up there. An
    entry is (name, index of the logged call it was made in or -1, bound
    arguments).
    """
    calls, open_calls = [], []

    def logged(name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            parent = open_calls[-1] if open_calls else -1
            calls.append((name, parent, signature.bind(*args, **kwargs).arguments))
            open_calls.append(len(calls) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()

        return call

    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_":
                monkeypatch.setattr(module, name, logged(f"{short}.{name}", fn))
    return calls


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("name, window_len", [("convnet1", 64), ("convnet3", 128)])
def test_fit_makes_the_calls_the_benchmark_tracer_reads(monkeypatch, name, window_len, reduce):
    """perfbench counts tap windows from collect_pool_features' `dataset`
    argument and groups nipals_fit calls by the lhn_fit they were made in."""
    ds = synthetic.make_synthetic_dataset(n_windows=40, window_len=window_len, seed=4)
    cfg = convnet.preset(name, window_len, ds.channels, ds.n_classes)
    params = convnet.init_params(cfg, 0)
    calls = record_calls(monkeypatch, (convnet, lhn, pls))
    lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1), reduce=reduce)
    (fit,) = [i for i, (called, _, _) in enumerate(calls) if called == "lhn.lhn_fit"]
    collects = [(p, args) for called, p, args in calls if called == "lhn.collect_pool_features"]
    assert len(collects) == len(cfg.tap_widths())
    for parent, arguments in collects:
        assert parent == fit
        assert len(arguments["dataset"]) == len(ds)
    nipals = [p for called, p, _ in calls if called == "pls.nipals_fit"]
    assert nipals == ([fit] * len(cfg.tap_widths()) if reduce else [])


@pytest.mark.parametrize("reduce", [True, False])
def test_transform_matches_training_latent_row(trained, reduce, monkeypatch):
    ds, cfg, params = trained
    head_inputs = []
    train_arrays = convnet.train_arrays

    def recording(head_config, x, labels, hyper):
        head_inputs.append(x)
        return train_arrays(head_config, x, labels, hyper)

    monkeypatch.setattr(convnet, "train_arrays", recording)
    model = lhn.lhn_fit(
        params, cfg, ds, components=4, classifier=TrainingConfig(epochs=1), reduce=reduce
    )
    taps = list(lhn._pool_taps(params, cfg, ds))
    latent = lhn._latent(model.pls_models, model.tap_standardizers, taps)
    (x,) = head_inputs
    assert x.shape == (len(ds), 1, model.latent_width, 1)
    assert np.array_equal(x[:, 0, :, 0], latent)
    for j in (0, 17, len(ds) - 1):
        z = lhn.lhn_transform(model, params, cfg, ds.windows[j].values)
        assert np.abs(z - latent[j]).max() <= 1e-10


def test_layer_order_in_latent_vector(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
    trace = convnet.forward_with_taps(params, cfg, ds.windows[5].values)
    z = lhn.lhn_transform(model, params, cfg, ds.windows[5].values)
    first = pls.pls_transform(model.pls_models[0], trace.pool_taps[0][None, :])[0]
    assert np.array_equal(z[:2], first)


def test_predict_deterministic_and_shift_invariant(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=3))
    w = ds.windows[9].values
    first = lhn.lhn_predict(model, params, cfg, w)
    assert all(lhn.lhn_predict(model, params, cfg, w) == first for _ in range(3))
    model = dataclasses.replace(model, classifier_bias=model.classifier_bias + 7.5)  # uniform shift
    assert lhn.lhn_predict(model, params, cfg, w) == first


@pytest.fixture(scope="module")
def built_models(trained, saved_files, tmp_path_factory):
    """A fitted and a loaded model of each kind, keyed by (source, reduce)."""
    ds, cfg, params = trained
    out = {}
    for reduce in (True, False):
        out["fitted", reduce] = lhn.lhn_fit(
            params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1), reduce=reduce
        )
        path = tmp_path_factory.mktemp("loaded") / "model.lhn.json"
        path.write_text(saved_files[reduce], encoding="utf-8")
        out["loaded", reduce] = lhn.load_lhn(path)
    return out


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("source", ["fitted", "loaded"])
def test_model_fields_cannot_be_reassigned(built_models, source, reduce):
    model = built_models[source, reduce]
    for f in dataclasses.fields(model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, f.name, getattr(model, f.name))


def model_arrays(model):
    """Every array a model holds, its layer maps' included, by name."""
    out = {"classifier_weights": model.classifier_weights, "classifier_bias": model.classifier_bias,
           "head_bias": model.head_bias}
    out |= {f"head_weights[{i}]": h for i, h in enumerate(model.head_weights)}
    for i, m in enumerate(model.pls_models):
        names = ("weights", "scaled_weights", "offset")
        out |= {f"pls_models[{i}].{n}": getattr(m, n) for n in names}
        out |= {f"pls_models[{i}].{n}": getattr(m.x_standardizer, n) for n in ("means", "stds")}
    for i, s in enumerate(model.tap_standardizers):
        out |= {f"tap_standardizers[{i}].{n}": getattr(s, n) for n in ("means", "stds")}
    return out


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("source", ["fitted", "loaded"])
def test_model_arrays_cannot_be_written(built_models, source, reduce):
    arrays = model_arrays(built_models[source, reduce])
    assert len(arrays) == (15 if reduce else 9)  # two pool layers
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] += 50.0  # would leave the folded head stale
        assert a.dtype == np.float64, name


@pytest.mark.parametrize("reduce", [True, False])
def test_replaced_bias_may_be_a_list_and_is_copied(trained, built_models, reduce):
    ds, cfg, params = trained
    model = built_models["fitted", reduce]
    flat = dataclasses.replace(model, classifier_bias=[0.0] * ds.n_classes)
    rows = lhn.lhn_predict_dataset(flat, params, cfg, ds)
    assert [lhn.lhn_predict(flat, params, cfg, w.values) for w in ds.windows] == rows.tolist()
    bias = np.arange(ds.n_classes, dtype=np.float64)
    shifted = dataclasses.replace(model, classifier_bias=bias)
    bias[0] += 50.0  # the caller's array, not the model's
    assert shifted.classifier_bias[0] == 0.0


@pytest.mark.parametrize("reduce", [True, False])
def test_replaced_bias_is_folded_again(trained, built_models, reduce):
    ds, cfg, params = trained
    model = built_models["fitted", reduce]
    bias = model.classifier_bias + np.arange(ds.n_classes) * 2.0  # favours the last classes
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.classifier_bias = bias  # would leave the folded head stale
    shifted = dataclasses.replace(model, classifier_bias=bias)
    rows = lhn.lhn_predict_dataset(shifted, params, cfg, ds)
    assert not np.array_equal(rows, lhn.lhn_predict_dataset(model, params, cfg, ds))
    assert [lhn.lhn_predict(shifted, params, cfg, w.values) for w in ds.windows] == rows.tolist()


def hand_built(model, **changes):
    """An LhnModel built from a fitted model's fields, with some of them changed."""
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
    return lhn.LhnModel(**{**fields, **changes})


def broken_rules(model):
    """(changes that break one rule, the message it raises), for a reduced model."""
    (first, *rest), k = model.pls_models, model.classifier_bias.size
    w = model.classifier_weights
    return {
        "both-maps": (
            {"tap_standardizers": [m.x_standardizer for m in model.pls_models]},
            "exactly one of pls_models and tap_standardizers must be set",
        ),
        "no-maps": ({"pls_models": []}, "exactly one of pls_models and tap_standardizers"),
        "one-class": (
            {"classifier_bias": model.classifier_bias[:1], "classifier_weights": w[:, :1]},
            "classifier_bias holds 1 classes, fewer than 2",
        ),
        "pls-classes": (
            {"pls_models": [first, *(dataclasses.replace(m, n_classes=k + 1) for m in rest)]},
            rf"pls_models\[1\]\.n_classes is {k + 1}, not {k}",
        ),
        "weight-rows": (
            {"classifier_weights": w[:-1]},
            rf"classifier_weights has shape \({len(w) - 1}, {k}\), not \({len(w)}, {k}\)",
        ),
    }


@pytest.mark.parametrize("rule", ["both-maps", "no-maps", "one-class", "pls-classes", "weight-rows"])
def test_hand_built_model_breaking_a_rule_refused(built_models, rule):
    model = built_models["fitted", True]
    hand_built(model)  # the unchanged fields build
    changes, message = broken_rules(model)[rule]
    with pytest.raises(ParameterError, match=message):
        hand_built(model, **changes)


def test_component_clamp_propagates(trained):
    ds, cfg, params = trained
    small = synthetic.make_synthetic_dataset(n_windows=12, window_len=48, seed=4)
    with pytest.warns(UserWarning, match="clamping"):
        model = lhn.lhn_fit(params, cfg, small, components=19, classifier=TrainingConfig(epochs=1))
    assert model.layer_components == [11, 11]  # n - 1
    assert model.latent_width == 22


def test_requires_two_classes(trained):
    ds, cfg, params = trained
    only = [w for w in ds.windows if w.label == 0]
    single = type(ds)(windows=tuple(only), class_names=ds.class_names, channels=ds.channels)
    with pytest.raises(DegenerateClassError):
        lhn.lhn_fit(params, cfg, single, components=2)


@pytest.mark.parametrize("reduce", [True, False])
def test_class_count_other_than_the_networks_is_refused_first(trained, monkeypatch, reduce):
    ds, cfg, params = trained
    k = cfg.n_classes
    kept = [w for w in ds.windows if w.label < k - 1]  # a fitted model would fail check_pair
    fewer = type(ds)(windows=kept, class_names=ds.class_names[:-1], channels=ds.channels)

    def no_taps(*args, **kwargs):
        raise AssertionError("taps collected before the class count was checked")

    monkeypatch.setattr(lhn, "collect_pool_features", no_taps)
    message = f"the dataset has {k - 1} classes but network 'convnet1' classifies {k}"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        lhn.lhn_fit(params, cfg, fewer, components=2, reduce=reduce)


@pytest.mark.parametrize("components", [0, 2.5])
def test_component_count_below_one_or_fractional_is_refused_first(trained, monkeypatch, components):
    ds, cfg, params = trained
    forbid_forward_pass(monkeypatch)
    message = f"components must be an integer >= 1, got {components}"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        lhn.lhn_fit(params, cfg, ds, components=components)


def test_no_reduction_ablation(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(
        params, cfg, ds, components=19, classifier=TrainingConfig(epochs=2), reduce=False
    )
    taps = list(lhn._pool_taps(params, cfg, ds))
    assert not model.reduced
    assert model.latent_width == sum(t.shape[1] for t in taps)
    pred = lhn.lhn_predict(model, params, cfg, ds.windows[0].values)
    assert 0 <= pred < ds.n_classes


def test_window_shape_mismatch(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
    with pytest.raises(ShapeError):
        lhn.lhn_transform(model, params, cfg, np.zeros((10, 2)))


@pytest.mark.parametrize("reduce", [True, False])
def test_latent_refuses_a_tap_list_one_layer_short(trained, reduce):
    ds, cfg, params = trained
    model = lhn.lhn_fit(
        params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1), reduce=reduce
    )
    taps = list(lhn._pool_taps(params, cfg, ds))[:-1]
    with pytest.raises(ShapeError, match="network exposes 1 pool layers, model was fitted on 2"):
        lhn._latent(model.pls_models, model.tap_standardizers, taps)


def test_predict_dataset_refuses_a_network_with_other_taps(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
    layers = (convnet.conv(24, 12, 2), convnet.maxpool())
    layers += (convnet.flatten(), convnet.dense(ds.n_classes), convnet.softmax())
    other = convnet.NetworkConfig("one-stage", layers, ds.window_len, ds.channels)
    with pytest.raises(ShapeError, match=r"heads take pool taps \[.*\] wide, but one-stage's are"):
        lhn.lhn_predict_dataset(model, convnet.init_params(other, 0), other, ds)


def test_non_finite_window_refused(trained):
    ds, cfg, params = trained
    model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
    # the last row only reaches conv1's odd trailing row, which the pool drops
    values = ds.windows[4].values.copy()
    values[-1, 1] = np.nan
    with pytest.raises(NumericError, match="window 0 holds non-finite values"):
        lhn.lhn_predict(model, params, cfg, values)
    windows = list(ds.windows)
    windows[4] = dataclasses.replace(windows[4], values=values)
    with pytest.raises(NumericError, match="window 4 holds non-finite values"):
        lhn.lhn_predict_dataset(model, params, cfg, dataclasses.replace(ds, windows=tuple(windows)))


# every entry point that takes windows, as a run on (model, params, config, window, dataset)
GATED = {
    "predict": lambda m, p, c, w, d: convnet.predict(p, c, w),
    "forward_with_taps": lambda m, p, c, w, d: convnet.forward_with_taps(p, c, w),
    "grad_check": lambda m, p, c, w, d: convnet.grad_check(c, w),
    "lhn_transform": lambda m, p, c, w, d: lhn.lhn_transform(m, p, c, w),
    "lhn_predict": lambda m, p, c, w, d: lhn.lhn_predict(m, p, c, w),
    "predict_dataset": lambda m, p, c, w, d: convnet.predict_dataset(p, c, d),
    "train": lambda m, p, c, w, d: convnet.train(c, d, TrainingConfig(epochs=1)),
    "lhn_fit": lambda m, p, c, w, d: lhn.lhn_fit(
        p, c, d, components=2, classifier=TrainingConfig(epochs=1)
    ),
    "lhn_predict_dataset": lambda m, p, c, w, d: lhn.lhn_predict_dataset(m, p, c, d),
}


@pytest.fixture(scope="module")
def gate_model(trained):
    ds, cfg, params = trained
    return lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))


@pytest.mark.parametrize("bad", ["wrong-shape", "non-finite"])
@pytest.mark.parametrize("entry", sorted(GATED))
def test_one_input_gate(trained, gate_model, entry, bad):
    """A single window and a dataset's first window are refused in the same words."""
    ds, cfg, params = trained
    if bad == "wrong-shape":
        bad_ds = synthetic.make_synthetic_dataset(n_windows=160, window_len=56, seed=3)
        error, message = ShapeError, "windows are 56x2 but the network expects 48x2"
    else:
        values = ds.windows[0].values.copy()
        values[5, 0] = np.inf
        windows = (dataclasses.replace(ds.windows[0], values=values), *ds.windows[1:])
        bad_ds = dataclasses.replace(ds, windows=windows)
        error, message = NumericError, "window 0 holds non-finite values"
    with pytest.raises(error, match=f"^{message}$"):
        GATED[entry](gate_model, params, cfg, bad_ds.windows[0].values, bad_ds)


@pytest.mark.parametrize("setting", [{"epochs": 0}, {"batch_size": 0}, {"epochs": 2.5}])
def test_head_settings_training_cannot_run(trained, setting):
    ds, cfg, params = trained
    [(name, value)] = setting.items()
    with pytest.raises(ParameterError, match=f"^{name} must be an integer >= 1, got {value}$"):
        lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(**setting))


def centroid_spread(rows):
    by_label = collections.defaultdict(list)
    for c1, c2, name in rows:
        by_label[name].append((c1, c2))
    centroids = {k: np.mean(v, axis=0) for k, v in by_label.items()}
    names = sorted(centroids)
    dists = [
        np.linalg.norm(centroids[a] - centroids[b])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    return float(np.mean(dists))


def forbid_forward_pass(monkeypatch):
    """Make tap collection fail, so a check that runs after it cannot pass."""

    def refuse(*args, **kwargs):
        raise AssertionError("collect_pool_features ran before the export checks")

    monkeypatch.setattr(lhn, "collect_pool_features", refuse)


class TestExportProjection:
    def test_row_count_and_labels(self, trained, tmp_path):
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1))
        out = tmp_path / "proj.csv"
        rows = lhn.export_projection(model, params, cfg, ds, "last", out)
        assert len(rows) == len(ds)
        text = out.read_text().splitlines()
        assert text[0] == "comp1,comp2,label"
        assert len(text) == len(ds) + 1
        labels_seen = {line.rsplit(",", 1)[1] for line in text[1:]}
        assert labels_seen == set(ds.class_names)

    def test_combined_separates_at_least_as_well(self, trained):
        # multi-scale claim: a projection over all taps should separate the
        # class centroids at least as far apart as the last layer alone
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=1))
        last = lhn.export_projection(model, params, cfg, ds, "last")
        both = lhn.export_projection(model, params, cfg, ds, "all")
        assert centroid_spread(both) >= centroid_spread(last)

    def test_needs_two_components(self, trained, monkeypatch):
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=1, classifier=TrainingConfig(epochs=1))
        forbid_forward_pass(monkeypatch)
        with pytest.raises(ParameterError):
            lhn.export_projection(model, params, cfg, ds, "last")

    def test_all_fits_its_own_two_components(self, trained):
        ds, cfg, params = trained
        for reduce in (True, False):
            model = lhn.lhn_fit(
                params, cfg, ds, components=1, classifier=TrainingConfig(epochs=1), reduce=reduce
            )
            rows = lhn.export_projection(model, params, cfg, ds, "all")
            assert len(rows) == len(ds)

    def test_unreduced_model_cannot_export_last(self, trained, monkeypatch):
        ds, cfg, params = trained
        model = lhn.lhn_fit(
            params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1), reduce=False
        )
        forbid_forward_pass(monkeypatch)
        with pytest.raises(ParameterError):
            lhn.export_projection(model, params, cfg, ds, "last")

    def test_bad_selector(self, trained):
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
        with pytest.raises(ParameterError):
            lhn.export_projection(model, params, cfg, ds, "first")


class TestPersistence:
    def test_round_trip(self, trained, tmp_path):
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=3, classifier=TrainingConfig(epochs=2))
        path = tmp_path / "model.lhn.json"
        lhn.save_lhn(model, path)
        loaded = lhn.load_lhn(path)
        assert np.array_equal(loaded.classifier_weights, model.classifier_weights)
        assert np.array_equal(loaded.classifier_bias, model.classifier_bias)
        assert loaded.layer_components == model.layer_components
        assert loaded.config_digest == model.config_digest
        assert loaded.params_digest == model.params_digest == convnet.params_digest(params)
        for ma, mb in zip(loaded.pls_models, model.pls_models):
            assert np.array_equal(ma.weights, mb.weights)
        w = ds.windows[3].values
        assert lhn.lhn_predict(loaded, params, cfg, w) == lhn.lhn_predict(model, params, cfg, w)

    def test_version_mismatch(self, trained, tmp_path):
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
        path = tmp_path / "model.lhn.json"
        lhn.save_lhn(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 12
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UnsupportedVersionError):
            lhn.load_lhn(path)

    def test_version_1_file_refused(self, trained, tmp_path):
        # version 1 files carry no params_digest, so they cannot be paired
        ds, cfg, params = trained
        model = lhn.lhn_fit(params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1))
        path = tmp_path / "model.lhn.json"
        lhn.save_lhn(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 1
        del payload["params_digest"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UnsupportedVersionError):
            lhn.load_lhn(path)

    @pytest.mark.parametrize("reduce", [True, False])
    @pytest.mark.parametrize("tamper", ["classifier_row", "layer_width", "layer_count"])
    def test_inconsistent_file_rejected(self, trained, tmp_path, reduce, tamper):
        ds, cfg, params = trained
        model = lhn.lhn_fit(
            params, cfg, ds, components=2, classifier=TrainingConfig(epochs=1), reduce=reduce
        )
        path = tmp_path / "model.lhn.json"
        lhn.save_lhn(model, path)
        payload = json.loads(path.read_text())
        if tamper == "classifier_row":
            cw = payload["classifier_weights"]
            cw["shape"][0] -= 1
            cw["data"] = cw["data"][: -cw["shape"][1]]
        elif tamper == "layer_width":
            payload["layer_components"][0] += 1
        else:
            parts = "pls_models" if reduce else "tap_standardizers"
            payload[parts] = payload[parts][:-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError):
            lhn.load_lhn(path)

    @pytest.mark.parametrize("case", list(TAMPERINGS))
    def test_bad_value_rejected_at_load(self, saved_files, tmp_path, case):
        reduce, keys, value, field = TAMPERINGS[case]
        payload = json.loads(saved_files[reduce])
        entry = payload
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        path = tmp_path / "model.lhn.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=field):
            lhn.load_lhn(path)

    def test_corrupt(self, tmp_path):
        path = tmp_path / "model.lhn.json"
        path.write_text("][", encoding="utf-8")
        with pytest.raises(FormatError, match="offset"):
            lhn.load_lhn(path)
