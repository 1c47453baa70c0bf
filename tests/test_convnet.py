import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from latenthypernet import convnet, synthetic
from latenthypernet.convnet import TrainingConfig
from latenthypernet.errors import (
    ArchitectureError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    ShapeError,
    TrainingDivergedError,
    UnsupportedVersionError,
)


def conv_oracle(x, kernels, biases):
    """Quadruple loop over output positions and kernel taps."""
    c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((f, oh, ow))
    for fi in range(f):
        for i in range(oh):
            for j in range(ow):
                acc = biases[fi]
                for ci in range(c):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += kernels[fi, ci, ki, kj] * x[ci, i + ki, j + kj]
                out[fi, i, j] = acc
    return out


def conv_backward_oracle(x, kernels, grad_out):
    """Loop over every output position and kernel tap, accumulating both gradients."""
    b, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    _, _, oh, ow = grad_out.shape
    grad_k = np.zeros_like(kernels)
    grad_x = np.zeros_like(x)
    for n in range(b):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    g = grad_out[n, fi, i, j]
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                grad_k[fi, ci, ki, kj] += g * x[n, ci, i + ki, j + kj]
                                grad_x[n, ci, i + ki, j + kj] += g * kernels[fi, ci, ki, kj]
    return grad_k, grad_x


def maps_last(x):
    """x with the maps innermost in memory, as every conv after the first receives it."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -3, -1)), -1, -3)


def column_slice(x):
    """x as every other column of a twice-wider array: strided along the columns."""
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    return wide[..., ::2]


def row_slice(x):
    """x as the inner rows of an array with one extra row on each side."""
    tall = np.zeros(x.shape[:-2] + (x.shape[-2] + 2, x.shape[-1]))
    tall[..., 1:-1, :] = x
    return tall[..., 1:-1, :]


LAYOUTS = {"maps-last": maps_last, "column-slice": column_slice, "row-slice": row_slice}


def toy_config(input_h=10, input_w=2, k=3):
    return convnet.NetworkConfig(
        name="toy",
        layers=(
            convnet.conv(2, 3, 2),
            convnet.maxpool(),
            convnet.flatten(),
            convnet.dense(k),
            convnet.softmax(),
        ),
        input_h=input_h,
        input_w=input_w,
    )

def toy_wide_config():
    """Two stages; the second conv has kw = 2 and 2 input maps."""
    return convnet.NetworkConfig(
        name="toy-wide",
        layers=(
            convnet.conv(2, 3, 2),
            convnet.maxpool(),
            convnet.conv(3, 2, 2),
            convnet.maxpool(),
            convnet.flatten(),
            convnet.dense(3),
            convnet.softmax(),
        ),
        input_h=12,
        input_w=3,
    )


def backward_oracle(params, x, outputs, grad_logits):
    """The backward as route-then-mask stages over loop convolutions.

    Each stage routes the pool gradient to the full conv size, multiplies it
    by conv_out > 0, and takes both conv gradients from conv_backward_oracle.
    """
    n = len(params.conv_kernels)
    grad_kernels, grad_biases = [None] * n, [None] * n
    g = grad_logits @ params.dense_weights.T
    for s in reversed(range(n)):
        conv_out = outputs[2 * s]
        g = convnet._maxpool_backward_batch(g.reshape(outputs[2 * s + 1].shape), conv_out)
        g = g * (conv_out > 0.0)
        grad_biases[s] = g.sum(axis=(0, 2, 3))
        x_in = x if s == 0 else outputs[2 * s - 1]
        grad_kernels[s], g = conv_backward_oracle(x_in, params.conv_kernels[s], g)
    return grad_kernels + grad_biases + [outputs[-3].T @ grad_logits, grad_logits.sum(axis=0)]


def batch_gradients(params, x, labels):
    outputs = convnet._forward_batch(params, x)
    _, grad_logits = convnet._cross_entropy(outputs, labels)
    return outputs, grad_logits, convnet._backward_batch(params, x, outputs, grad_logits)


DENSE_HEAD = (convnet.flatten(), convnet.dense(3), convnet.softmax())
CONV_COUNT = "bad: layer 1 (conv): {} must be an integer >= 1, got {}"


class TestPresets:
    def test_convnet1_pool1_shape(self):
        cfg = convnet.preset("convnet1", 500, 2, 12)
        shapes = convnet.propagate_shapes(cfg)
        assert shapes[0] == (24, 489, 1)
        assert shapes[1] == (24, 244, 1)

    def test_convnet3_exposes_four_taps(self):
        cfg = convnet.preset("convnet3", 500, 2, 12)
        assert len(cfg.tap_widths()) == 4

    @pytest.mark.parametrize("name", ["convnet1", "convnet2", "convnet3"])
    def test_tap_widths_are_the_forward_taps(self, name):
        cfg = convnet.preset(name, 128, 2, 4)
        params = convnet.init_params(cfg, 0)
        window = np.random.default_rng(1).normal(size=(128, 2))
        taps = convnet.forward_with_taps(params, cfg, window).pool_taps
        assert cfg.tap_widths() == [t.size for t in taps]

    def test_one_second_window_rejected_for_convnet3(self):
        with pytest.raises(ArchitectureError, match="conv"):
            convnet.preset("convnet3", 50, 2, 21)

    def test_kernel_width_clamps_to_map_width(self):
        cfg = convnet.preset("convnet1", 64, 2, 4)
        convs = [s for s in cfg.layers if s.kind == "conv"]
        assert convs[0].kernel_w == 2
        assert convs[1].kernel_w == 1  # maps are 1 wide after the first conv

    def test_pool_other_than_two_by_one_rejected(self):
        with pytest.raises(ArchitectureError, match=r"layer 2 \(maxpool\).*got 3x1"):
            cfg = convnet.NetworkConfig(
                name="pool3",
                layers=(
                    convnet.conv(2, 3, 2),
                    convnet.LayerSpec("maxpool", pool_h=3),
                    convnet.flatten(),
                    convnet.dense(3),
                    convnet.softmax(),
                ),
                input_h=12,
                input_w=2,
            )
            convnet.init_params(cfg, 0)

    @pytest.mark.parametrize(
        "tail, first_wrong",
        [
            ((convnet.dense(3), convnet.dense(3), convnet.softmax()), 3),
            ((convnet.dense(3), convnet.softmax(), convnet.dense(3), convnet.softmax()), 4),
        ],
    )
    def test_head_other_than_one_dense_then_softmax_rejected(self, tail, first_wrong):
        with pytest.raises(ArchitectureError, match=rf"layer {first_wrong} \(dense\)"):
            cfg = convnet.NetworkConfig(
                name="tail", layers=(convnet.flatten(), *tail), input_h=4, input_w=2
            )
            convnet.init_params(cfg, 0)

    @pytest.mark.parametrize(
        "layers, message",
        [
            (
                (convnet.conv(2, 3, 2), convnet.LayerSpec("maxpool", pool_h=3), convnet.flatten(),
                 convnet.dense(3), convnet.softmax()),
                "bad: layer 2 (maxpool): only 2x1 pooling is supported, got 3x1",
            ),
            (
                (convnet.flatten(), convnet.dense(3), convnet.dense(3), convnet.softmax()),
                "bad: layer 3 (dense) breaks the layer order, expected softmax: "
                "a network is (conv, maxpool) * k, then flatten, dense, softmax",
            ),
            (  # would build a 13-row map
                (convnet.conv(4, 0, 1), convnet.maxpool(), *DENSE_HEAD),
                CONV_COUNT.format("kernel_h", 0),
            ),
            (  # would build 0 maps
                (convnet.conv(0, 3, 1), convnet.maxpool(), *DENSE_HEAD),
                CONV_COUNT.format("filters", 0),
            ),
            (  # would build a 4-column map
                (convnet.conv(2, 3, -1), convnet.maxpool(), *DENSE_HEAD),
                CONV_COUNT.format("kernel_w", -1),
            ),
            (  # would build a 2.5-map stage
                (convnet.conv(2.5, 3, 1), convnet.maxpool(), *DENSE_HEAD),
                CONV_COUNT.format("filters", 2.5),
            ),
            (  # the same shapes as a 3-row kernel, but another config_digest
                (convnet.conv(2, 3.0, 1), convnet.maxpool(), *DENSE_HEAD),
                CONV_COUNT.format("kernel_h", 3.0),
            ),
            (  # would build 10 maps of 2.5 rows
                (convnet.conv(2, 3, 1), convnet.LayerSpec("maxpool", pool_h=2.0), *DENSE_HEAD),
                "bad: layer 2 (maxpool): only 2x1 pooling is supported, got 2.0x1",
            ),
            (  # would classify 2.5 classes
                (convnet.flatten(), convnet.dense(2.5), convnet.softmax()),
                "bad: layer 2 (dense): units must be an integer >= 1, got 2.5",
            ),
        ],
        ids=["pool-3x1", "second-dense", "kernel-h-0", "filters-0", "kernel-w-negative",
             "filters-fractional", "kernel-h-float", "pool-float", "units-fractional"],
    )
    def test_config_that_breaks_the_rule_cannot_be_built(self, layers, message):
        # so predict and forward_with_taps never receive one
        with pytest.raises(ArchitectureError, match=f"^{re.escape(message)}$"):
            convnet.NetworkConfig(name="bad", layers=layers, input_h=12, input_w=2)

    @pytest.mark.parametrize("input_h, input_w", [(64, 0), (0, 2), (-1, 2)])
    def test_input_extent_below_one_cannot_be_built(self, input_h, input_w):
        name, value = ("input_h", input_h) if input_h < 1 else ("input_w", input_w)
        message = f"convnet1: input: {name} must be an integer >= 1, got {value!r}"
        with pytest.raises(ArchitectureError, match=f"^{re.escape(message)}$"):
            convnet.preset("convnet1", input_h, input_w, 4)

    @pytest.mark.parametrize(
        "input_h, input_w",
        [(64.5, 2), (64.0, 2), (64, 2.0), ("64", 2), (64, True)],
        ids=["h-fractional", "h-float", "w-float", "h-string", "w-bool"],
    )
    def test_input_extent_that_is_not_an_integer_cannot_be_built(self, input_h, input_w):
        name, value = ("input_w", input_w) if type(input_h) is int else ("input_h", input_h)
        message = f"convnet1: input: {name} must be an integer >= 1, got {value!r}"
        with pytest.raises(ArchitectureError, match=f"^{re.escape(message)}$"):
            convnet.preset("convnet1", input_h, input_w, 4)

    def test_a_layer_extent_and_a_training_setting_read_one_count_rule(self):
        with pytest.raises(ParameterError) as setting:
            TrainingConfig(epochs=2.5)
        layers = (convnet.flatten(), convnet.dense(2.5), convnet.softmax())
        with pytest.raises(ArchitectureError) as layer:
            convnet.NetworkConfig("bad", layers, 12, 2)
        assert str(setting.value) == "epochs must be an integer >= 1, got 2.5"
        assert str(layer.value) == "bad: layer 2 (dense): units must be an integer >= 1, got 2.5"

    def test_numpy_integer_extents_build(self):
        cfg = convnet.preset("convnet1", np.int64(64), np.int32(2), np.int64(4))
        assert cfg.shapes == convnet.preset("convnet1", 64, 2, 4).shapes

    def test_numpy_integer_extents_pair_and_save_as_python_ints(self, tmp_path):
        numpy_cfg = convnet.preset("convnet1", np.int64(64), np.int32(2), np.int64(4))
        cfg = convnet.preset("convnet1", 64, 2, 4)
        assert convnet.config_digest(numpy_cfg) == convnet.config_digest(cfg)
        params = convnet.init_params(cfg, 0)
        for name, config in (("numpy", numpy_cfg), ("python", cfg)):
            convnet.save_params(params, config, tmp_path / f"{name}.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()

    def test_shapes_are_kept_and_take_no_part_in_equality(self):
        cfg = convnet.preset("convnet3", 128, 2, 4)
        assert cfg.shapes == tuple(convnet.propagate_shapes(cfg))
        same = convnet.NetworkConfig(cfg.name, list(cfg.layers), cfg.input_h, cfg.input_w)
        assert same == cfg and hash(same) == hash(cfg)
        assert "shapes" not in repr(cfg)

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            convnet.preset("convnet9", 100, 2, 4)

    def test_shape_propagation_against_arithmetic_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            name = ("convnet1", "convnet2", "convnet3")[rng.integers(0, 3)]
            h = int(rng.integers(10, 400))
            w = int(rng.integers(1, 8))
            k = int(rng.integers(2, 13))
            try:
                cfg = convnet.preset(name, h, w, k)
            except ArchitectureError:
                continue
            shapes = convnet.propagate_shapes(cfg)
            # independent recompute: conv shrinks by kernel-1, pool halves rows
            mh, mw = h, w
            i = 0
            for spec in cfg.layers:
                if spec.kind == "conv":
                    mh, mw = mh - spec.kernel_h + 1, mw - spec.kernel_w + 1
                    assert shapes[i][1:] == (mh, mw)
                elif spec.kind == "maxpool":
                    mh = mh // 2
                    assert shapes[i][1:] == (mh, mw)
                    assert mh >= 1 and mw >= 1
                i += 1
            # a real forward pass agrees with the symbolic shapes
            params = convnet.init_params(cfg, 0)
            trace = convnet.forward_with_taps(params, cfg, rng.normal(size=(h, w)))
            pool_shapes = [s for s, spec in zip(shapes, cfg.layers) if spec.kind == "maxpool"]
            for tap, shape in zip(trace.pool_taps, pool_shapes):
                assert tap.size == np.prod(shape)


class TestConvForward:
    def test_identity_kernel(self):
        x = np.random.default_rng(1).normal(size=(1, 5, 3))
        kernels = np.ones((1, 1, 1, 1))
        out = convnet.conv2d_forward(x, kernels, np.zeros(1))
        assert np.array_equal(out, x)

    def test_by_hand(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        kernels = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = convnet.conv2d_forward(x, kernels, np.zeros(1))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 5.0

    @pytest.mark.parametrize(
        "x_shape, kernel_shape, out_shape",
        [
            ((3, 20, 2), (4, 3, 5, 1), (4, 16, 2)),
            # a kernel narrower than the map, so windows slide along both axes
            ((2, 9, 3), (4, 2, 4, 2), (4, 6, 2)),
        ],
        ids=["one-wide-kernel", "two-wide-kernel"],
    )
    def test_against_loop_oracle(self, x_shape, kernel_shape, out_shape):
        rng = np.random.default_rng(2)
        x = rng.normal(size=x_shape)
        kernels = rng.normal(size=kernel_shape)
        biases = rng.normal(size=kernel_shape[0])
        out = convnet.conv2d_forward(x, kernels, biases)
        assert out.shape == out_shape
        assert np.abs(out - conv_oracle(x, kernels, biases)).max() <= 1e-12

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "x_shape, kernel_shape",
        [((3, 20, 2), (4, 3, 5, 1)), ((2, 9, 3), (4, 2, 4, 2))],
        ids=["one-wide-kernel", "two-wide-kernel"],
    )
    def test_loop_oracle_on_other_memory_layouts(self, x_shape, kernel_shape, layout):
        rng = np.random.default_rng(2)
        x = rng.normal(size=x_shape)
        kernels = rng.normal(size=kernel_shape)
        biases = rng.normal(size=kernel_shape[0])
        strided = LAYOUTS[layout](x)
        assert np.array_equal(strided, x) and not strided.flags.c_contiguous
        out = convnet.conv2d_forward(strided, kernels, biases)
        assert np.abs(out - conv_oracle(x, kernels, biases)).max() <= 1e-12

    def test_on_a_traced_pool_output(self):
        # convnet2 on 2-channel windows keeps both columns, so the second conv
        # slides along them, over a maps-last view out of forward_with_taps
        cfg = convnet.preset("convnet2", 64, 2, 3)
        params = convnet.init_params(cfg, 4)
        window = np.random.default_rng(4).normal(size=(64, 2))
        trace = convnet.forward_with_taps(params, cfg, window)
        pooled, conv2 = trace.layer_outputs[1], trace.layer_outputs[2]
        kernels, biases = params.conv_kernels[1], params.conv_biases[1]
        assert pooled.shape == (24, 29, 2) and not pooled.flags.c_contiguous
        out = convnet.conv2d_forward(pooled, kernels, biases)
        assert np.abs(out - conv_oracle(pooled, kernels, biases)).max() <= 1e-12
        assert np.array_equal(np.maximum(out, 0.0), conv2)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            convnet.conv2d_forward(np.zeros((1, 4, 2)), np.zeros((1, 1, 5, 1)), np.zeros(1))


class TestConvBackward:
    def test_against_loop_oracle(self):
        # batch > 1, two input maps and a kernel narrower than the map, so the
        # input gradient pads both rows and columns
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 9, 3))
        kernels = rng.normal(size=(4, 2, 4, 2))
        grad_out = rng.normal(size=(3, 4, 6, 2))
        grad_k, grad_b = convnet._conv_kernel_grads(x, kernels, grad_out)
        grad_x = convnet._conv_input_grad(kernels, grad_out, x.shape)
        oracle_k, oracle_x = conv_backward_oracle(x, kernels, grad_out)
        assert np.abs(grad_k - oracle_k).max() <= 1e-12
        assert np.abs(grad_x - oracle_x).max() <= 1e-12
        assert np.abs(grad_b - grad_out.sum(axis=(0, 2, 3))).max() <= 1e-12

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_loop_oracle_on_other_memory_layouts(self, layout):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 9, 3))
        kernels = rng.normal(size=(4, 2, 4, 2))
        grad_out = rng.normal(size=(3, 4, 6, 2))
        strided_x, strided_g = LAYOUTS[layout](x), LAYOUTS[layout](grad_out)
        assert not (strided_x.flags.c_contiguous or strided_g.flags.c_contiguous)
        grad_k, grad_b = convnet._conv_kernel_grads(strided_x, kernels, strided_g)
        grad_x = convnet._conv_input_grad(kernels, strided_g, x.shape)
        oracle_k, oracle_x = conv_backward_oracle(x, kernels, grad_out)
        assert np.abs(grad_k - oracle_k).max() <= 1e-12
        assert np.abs(grad_x - oracle_x).max() <= 1e-12
        assert np.abs(grad_b - grad_out.sum(axis=(0, 2, 3))).max() <= 1e-12


class TestBackwardBatch:
    @pytest.mark.parametrize(
        "cfg",
        [toy_wide_config(), convnet.preset("convnet1", 64, 2, 4)],
        ids=["toy-wide", "convnet1-64x2"],
    )
    def test_batch_is_the_sum_of_its_windows(self, cfg):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 1, cfg.input_h, cfg.input_w))
        labels = np.array([0, 2, 1])
        params = convnet.init_params(cfg, 4)
        batch = batch_gradients(params, x, labels)[2]
        singles = [batch_gradients(params, x[i : i + 1], labels[i : i + 1])[2] for i in range(3)]
        for i, grad in enumerate(batch):
            assert np.abs(grad - sum(single[i] for single in singles)).max() <= 1e-12

    def test_dead_relu_units(self):
        # a large negative bias zeroes both rows of every pair of those
        # filters after the ReLU; a small one zeroes only some pairs
        cfg = toy_wide_config()
        params = convnet.init_params(cfg, 2)
        params.conv_biases[0][1] = -100.0
        params.conv_biases[1][0] = -100.0
        params.conv_biases[1][2] = -0.3
        x = np.random.default_rng(13).normal(size=(3, 1, 12, 3))
        outputs, grad_logits, grads = batch_gradients(params, x, np.array([1, 0, 2]))
        for s in range(2):
            upper, lower = convnet._row_pairs(outputs[2 * s])
            assert ((upper == 0.0) & (lower == 0.0)).any()
        for got, want in zip(grads, backward_oracle(params, x, outputs, grad_logits)):
            assert np.abs(got - want).max() <= 1e-12
        n = len(params.conv_kernels)
        assert np.all(grads[0][1] == 0.0) and grads[n][1] == 0.0
        assert np.all(grads[1][0] == 0.0) and grads[n + 1][0] == 0.0


def forward_matrix_is_the_kernel(k):
    """The forward's kernel matrix is a view of k, so building it copies nothing."""
    return np.shares_memory(k.transpose(2, 3, 1, 0).reshape(-1, k.shape[0]), k)


class TestKernelLayout:
    @pytest.mark.parametrize(
        "cfg",
        [toy_wide_config(), convnet.preset("convnet1", 64, 2, 4), convnet.preset("convnet3", 128, 2, 4)],
        ids=["toy-wide", "convnet1-64x2", "convnet3-128x2"],
    )
    def test_initialized_and_trained_kernels(self, cfg):
        params = convnet.init_params(cfg, 0)
        assert all(forward_matrix_is_the_kernel(k) for k in params.conv_kernels)
        x = np.random.default_rng(21).normal(size=(8, 1, cfg.input_h, cfg.input_w))
        labels = np.arange(8) % cfg.n_classes
        grads = batch_gradients(params, x, labels)[2][: len(params.conv_kernels)]
        assert all(g.transpose(2, 3, 1, 0).flags.c_contiguous for g in grads)
        trained = convnet.train_arrays(cfg, x, labels, TrainingConfig(epochs=2, batch_size=4))
        assert all(forward_matrix_is_the_kernel(k) for k in trained.conv_kernels)

    def test_loaded_kernels(self):
        params, _ = convnet.load_params(Path(__file__).parent / "data" / "golden.params.json")
        assert all(forward_matrix_is_the_kernel(k) for k in params.conv_kernels)

    def test_kernel_assigned_in_logical_layout(self):
        cfg = toy_wide_config()
        params = convnet.init_params(cfg, 3)
        logical = dataclasses.replace(
            params, conv_kernels=[np.ascontiguousarray(k) for k in params.conv_kernels]
        )
        assert not forward_matrix_is_the_kernel(logical.conv_kernels[1])  # 2 input maps: a copy
        x = np.random.default_rng(22).normal(size=(5, 1, cfg.input_h, cfg.input_w))
        labels = np.array([0, 1, 2, 1, 0])
        for got, want in zip(batch_gradients(logical, x, labels), batch_gradients(params, x, labels)):
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12
        for window in x[:, 0]:
            assert convnet.predict(logical, cfg, window) == convnet.predict(params, cfg, window)


class TestMaxPool:
    def test_column(self):
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        out = convnet.maxpool_forward(x)
        assert np.array_equal(out, [[[3.0], [5.0]]])

    def test_tie_takes_first(self):
        x = np.array([[[7.0], [7.0]]])
        out = convnet.maxpool_forward(x)
        assert out[0, 0, 0] == 7.0
        grad_x = convnet._maxpool_backward_batch(np.array([[[[1.0]]]]), x[None])[0]
        assert np.array_equal(grad_x, [[[1.0], [0.0]]])

    def test_odd_row_dropped(self):
        x = np.arange(5.0).reshape(1, 5, 1)
        out = convnet.maxpool_forward(x)
        assert out.shape == (1, 2, 1)
        assert np.array_equal(out[0, :, 0], [1.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ShapeError):
            convnet.maxpool_forward(np.zeros((1, 1, 3)))

    def test_backward_routes_ties_to_upper_row(self):
        # pair 1 ties in both columns; pair 2 has the lower row larger in
        # column 0 and a tie in column 1; pair 3 has the upper row larger
        x = np.array([[[4.0, -1.0], [4.0, -1.0], [1.0, 0.0], [2.0, 0.0], [3.0, 5.0], [1.0, 2.0]]])
        grad_out = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
        grad_x = convnet._maxpool_backward_batch(grad_out[None], x[None])[0]
        expected = [[[1.0, 2.0], [0.0, 0.0], [0.0, 4.0], [3.0, 0.0], [5.0, 6.0], [0.0, 0.0]]]
        assert np.array_equal(grad_x, expected)

    def test_backward_odd_row_gets_no_gradient(self):
        x = np.array([[[1.0], [2.0], [9.0]]])
        grad_x = convnet._maxpool_backward_batch(np.array([[[[7.0]]]]), x[None])[0]
        assert np.array_equal(grad_x, [[[0.0], [7.0], [0.0]]])

    def test_shift_within_pair_keeps_value(self):
        a = np.array([[[9.0], [0.0], [1.0], [2.0]]])
        b = np.array([[[0.0], [9.0], [1.0], [2.0]]])
        assert np.array_equal(convnet.maxpool_forward(a), convnet.maxpool_forward(b))


class TestForwardWithTaps:
    def test_convnet1_has_two_taps(self):
        cfg = convnet.preset("convnet1", 64, 2, 4)
        params = convnet.init_params(cfg, 0)
        trace = convnet.forward_with_taps(params, cfg, np.zeros((64, 2)))
        assert len(trace.pool_taps) == 2

    def test_tap_sizes_and_logits(self):
        cfg = toy_config()
        params = convnet.init_params(cfg, 0)
        trace = convnet.forward_with_taps(params, cfg, np.random.default_rng(3).normal(size=(10, 2)))
        # conv(3x2) on 10x2 -> 2 maps of 8x1; pool -> 2 maps of 4x1
        assert trace.pool_taps[0].size == 2 * 4 * 1
        assert trace.logits.shape == (3,)

    def test_softmax_output_sums_to_one(self):
        cfg = toy_config()
        params = convnet.init_params(cfg, 1)
        trace = convnet.forward_with_taps(params, cfg, np.random.default_rng(4).normal(size=(10, 2)))
        probs = trace.layer_outputs[-1]
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert (probs > 0).all()

    def test_shape_mismatch(self):
        cfg = toy_config()
        params = convnet.init_params(cfg, 0)
        with pytest.raises(ShapeError):
            convnet.forward_with_taps(params, cfg, np.zeros((9, 2)))


class TestPredict:
    def dense_only(self, k=2):
        return convnet.NetworkConfig(
            name="d",
            layers=(convnet.flatten(), convnet.dense(k), convnet.softmax()),
            input_h=1,
            input_w=1,
        )

    def params_with_bias(self, bias):
        cfg = self.dense_only(len(bias))
        params = convnet.init_params(cfg, 0)
        params.dense_weights = np.zeros_like(params.dense_weights)
        params.dense_bias = np.array(bias)
        return params, cfg

    def test_argmax(self):
        params, cfg = self.params_with_bias([0.1, 0.9])
        assert convnet.predict(params, cfg, np.zeros((1, 1))) == 1

    def test_dataset_of_other_window_shape(self):
        cfg = convnet.preset("convnet1", 64, 2, 4)
        params = convnet.init_params(cfg, 0)
        ds = synthetic.make_synthetic_dataset(n_windows=8, window_len=80, seed=0)
        with pytest.raises(ShapeError, match="80x2"):
            convnet.predict_dataset(params, cfg, ds)

    def test_dataset_larger_than_one_chunk(self):
        cfg = toy_config()
        params = convnet.init_params(cfg, 4)
        n = 2 * convnet._CHUNK + 8
        ds = synthetic.make_synthetic_dataset(n_windows=n, window_len=10, seed=2)
        labels = convnet.predict_dataset(params, cfg, ds)
        assert labels.tolist() == [convnet.predict(params, cfg, w.values) for w in ds.windows]

    def test_tie_goes_low(self):
        params, cfg = self.params_with_bias([0.5, 0.5])
        assert convnet.predict(params, cfg, np.zeros((1, 1))) == 0

    def test_softmax_argmax_invariance(self):
        cfg = toy_config()
        params = convnet.init_params(cfg, 2)
        w = np.random.default_rng(5).normal(size=(10, 2))
        trace = convnet.forward_with_taps(params, cfg, w)
        assert int(np.argmax(trace.logits)) == int(np.argmax(trace.layer_outputs[-1]))
        assert convnet.predict(params, cfg, w) == int(np.argmax(trace.logits))


def with_value(ds, j, value, row=0):
    """The dataset with the first channel of window j's given row set to value."""
    values = ds.windows[j].values.copy()
    values[row, 0] = value
    windows = list(ds.windows)
    windows[j] = dataclasses.replace(windows[j], values=values)
    return dataclasses.replace(ds, windows=tuple(windows))


class TestNonFiniteWindow:
    """A non-finite input value is refused, not predicted or trained on."""

    @pytest.fixture(scope="class")
    def net(self):
        ds = synthetic.make_synthetic_dataset(n_windows=12, window_len=64, seed=0)
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        return ds, cfg, convnet.init_params(cfg, 0)

    # the last row only reaches conv1's odd trailing row, which the pool drops
    @pytest.mark.parametrize("value, row", [(float("nan"), 0), (float("inf"), 0), (float("nan"), -1)])
    def test_predict_and_forward_with_taps(self, net, value, row):
        ds, cfg, params = net
        window = with_value(ds, 0, value, row).windows[0].values
        for run in (convnet.predict, convnet.forward_with_taps):
            with pytest.raises(NumericError, match="window 0 holds non-finite values"):
                run(params, cfg, window)

    def test_predict_dataset_names_the_window(self, net):
        ds, cfg, params = net
        with pytest.raises(NumericError, match="window 7 holds non-finite values"):
            convnet.predict_dataset(params, cfg, with_value(ds, 7, float("nan"), -1))

    def test_train_names_the_window(self, net):
        ds, cfg, _ = net
        with pytest.raises(NumericError, match="window 3 holds non-finite values"):
            convnet.train(cfg, with_value(ds, 3, float("-inf")), TrainingConfig(epochs=1))


class TestGradCheck:
    def test_conv_pool_dense_softmax(self):
        cfg = toy_config()
        w = np.random.default_rng(6).normal(size=(10, 2))
        assert convnet.grad_check(cfg, w, label=1, seed=3) <= 1e-4

    def test_second_conv_two_wide(self):
        # the first conv's input gradient is skipped, so only a later conv
        # with kw > 1 exercises the col2im column shifts end to end
        cfg = toy_wide_config()
        w = np.random.default_rng(9).normal(size=(12, 3))
        assert convnet.grad_check(cfg, w, label=2, seed=5) <= 1e-4

    def test_dense_only(self):
        cfg = convnet.NetworkConfig(
            name="d",
            layers=(convnet.flatten(), convnet.dense(3), convnet.softmax()),
            input_h=6,
            input_w=2,
        )
        w = np.random.default_rng(7).normal(size=(6, 2))
        assert convnet.grad_check(cfg, w, label=2, seed=4) <= 1e-6

    def test_zero_net_bias_gradient_is_softmax_residual(self):
        cfg = toy_config(k=4)
        params = convnet.init_params(cfg, 0)
        for i in range(len(params.conv_kernels)):
            params.conv_kernels[i] = np.zeros_like(params.conv_kernels[i])
        params.dense_weights = np.zeros_like(params.dense_weights)
        x = np.zeros((1, 1, 10, 2))
        label = 2
        outputs = convnet._forward_batch(params, x)
        grad_logits = outputs[-1].copy()
        grad_logits[0, label] -= 1.0
        gb = convnet._backward_batch(params, x, outputs, grad_logits)[-1]
        expected = np.full(4, 0.25)
        expected[label] -= 1.0
        assert np.array_equal(gb, expected)


class TestTrain:
    def small_dataset(self, n=96, noise=0.3, seed=0):
        return synthetic.make_synthetic_dataset(
            n_windows=n, window_len=48, seed=seed, noise=noise
        )

    def test_separable_data_reaches_high_recall(self):
        ds = self.small_dataset(n=160)
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        log = io.StringIO()
        params = convnet.train(cfg, ds, TrainingConfig(epochs=40, seed=0), log_stream=log)
        lines = log.getvalue().strip().splitlines()
        assert len(lines) == 40
        final_recall = float(lines[-1].split(",")[2])
        assert final_recall >= 0.95

    def test_deterministic(self):
        ds = self.small_dataset()
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        logs = []
        digests = []
        for _ in range(2):
            log = io.StringIO()
            params = convnet.train(cfg, ds, TrainingConfig(epochs=3, seed=5), log_stream=log)
            logs.append(log.getvalue())
            digests.append(convnet.params_digest(params))
        assert logs[0] == logs[1]
        assert digests[0] == digests[1]

    def test_zero_learning_rate_leaves_params_at_init(self):
        ds = self.small_dataset()
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        params = convnet.train(cfg, ds, TrainingConfig(epochs=2, learning_rate=0.0, seed=9))
        assert convnet.params_digest(params) == convnet.params_digest(convnet.init_params(cfg, 9))

    @pytest.mark.parametrize("name", ["learning_rate", "momentum"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_refused(self, name, value):
        with pytest.raises(ParameterError, match=f"training needs a finite {name}, got {value}"):
            TrainingConfig(**{name: value})

    def test_divergence_detected(self):
        ds = self.small_dataset(n=48)
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            convnet.train(cfg, ds, TrainingConfig(epochs=10, learning_rate=1e9, seed=0))

    def test_empty_dataset(self):
        cfg = toy_config()
        with pytest.raises(InputError):
            convnet.train_arrays(cfg, np.zeros((0, 1, 10, 2)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 3])  # toy_config has 3 classes
    def test_class_index_outside_range(self, bad):
        cfg = toy_config()
        x = np.random.default_rng(2).normal(size=(4, 1, 10, 2))
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 3\)"):
            convnet.train_arrays(cfg, x, np.array([0, 1, bad, 2]), TrainingConfig(epochs=1))

    # unchecked, 50 labels trained on the first 40, 30 raised a bare IndexError
    # mid-epoch, and 50 with a log raised one from the recall's boolean index
    @pytest.mark.parametrize("count, log", [(50, False), (30, False), (50, True)])
    def test_label_count_other_than_the_windows_refused_first(self, monkeypatch, count, log):
        ds = self.small_dataset(n=40)
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        x = convnet._dataset_batch(cfg, ds)
        labels = np.resize(ds.labels(), count)

        def no_params(*args):
            raise AssertionError("weights were built before the labels were counted")

        monkeypatch.setattr(convnet, "init_params", no_params)
        with pytest.raises(ShapeError, match=f"^{count} labels for 40 windows$"):
            convnet.train_arrays(
                cfg, x, labels, TrainingConfig(epochs=1), log_stream=io.StringIO() if log else None
            )

    @pytest.mark.parametrize(
        "setting",
        [{"epochs": 0}, {"batch_size": 0}, {"batch_size": -4},
         {"epochs": 2.5}, {"batch_size": 4.5}, {"batch_size": 32.0}, {"seed": 1.5}, {"seed": -1},
         {"epochs": True}],
    )
    def test_settings_training_cannot_run(self, setting):
        ds = self.small_dataset(n=8)
        cfg = convnet.preset("convnet1", ds.window_len, ds.channels, ds.n_classes)
        [(name, value)] = setting.items()
        message = f"{name} must be an integer >= {0 if name == 'seed' else 1}, got {value}"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            convnet.train(cfg, ds, TrainingConfig(**setting))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = synthetic.make_synthetic_dataset(n_windows=24, window_len=48, seed=1)
        cfg = convnet.preset("convnet1", 48, 2, 4)
        params = convnet.train(cfg, ds, TrainingConfig(epochs=1, seed=0))
        path = tmp_path / "net.json"
        convnet.save_params(params, cfg, path)
        loaded, loaded_cfg = convnet.load_params(path)
        assert loaded_cfg == cfg
        assert convnet.params_digest(loaded) == convnet.params_digest(params)

    def test_version_mismatch(self, tmp_path):
        cfg = toy_config()
        params = convnet.init_params(cfg, 0)
        path = tmp_path / "net.json"
        convnet.save_params(params, cfg, path)
        payload = json.loads(path.read_text())
        payload["version"] = 42
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UnsupportedVersionError):
            convnet.load_params(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            convnet.load_params(path)

    def saved_payload(self, tmp_path):
        cfg = convnet.preset("convnet1", 48, 2, 4)
        path = tmp_path / "net.json"
        convnet.save_params(convnet.init_params(cfg, 0), cfg, path)
        return path, json.loads(path.read_text())

    def test_kernel_shape_checked_against_config(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        f, c, kh, kw = payload["conv_kernels"][0]["shape"]
        payload["conv_kernels"][0]["shape"] = [f, c, kh * kw, 1]  # same size
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=r"conv_kernels\[0\]"):
            convnet.load_params(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["dense_bias"][0] = float("nan")
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match="dense_bias"):
            convnet.load_params(path)

    @pytest.mark.parametrize(
        "entry, value, name",
        [(("dense_bias", 0), True, "dense_bias"),
         (("conv_biases", 1, 2), "0.5", "conv_biases[1]"),
         (("dense_weights", "data", 7), False, "dense_weights"),
         (("conv_kernels", 0, "data", 3), "1e3", "conv_kernels[0]"),
         (("dense_bias", 1), 10**400, "dense_bias")],  # an int no float can hold
        ids=["bool", "string", "bool-in-shaped", "string-in-shaped", "huge-int"],
    )
    def test_weight_that_is_not_a_json_number_rejected(self, tmp_path, entry, value, name):
        # numpy would read true as 1.0 and "1e3" as 1000.0
        path, payload = self.saved_payload(tmp_path)
        where = payload
        for key in entry[:-1]:
            where = where[key]
        where[entry[-1]] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=f"json: {re.escape(name)}"):
            convnet.load_params(path)

    def test_unsupported_pool_spec_rejected(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["config"]["layers"][1]["pool_w"] = 2
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=": config: .*got 2x2"):
            convnet.load_params(path)

    @pytest.mark.parametrize("tail", ["dense dense softmax", "dense softmax dense softmax"])
    def test_stored_head_with_a_second_dense_rejected(self, tmp_path, tail):
        path, payload = self.saved_payload(tmp_path)
        layers = payload["config"]["layers"]
        by_kind = {"dense": layers[-2], "softmax": layers[-1]}  # dense(4), softmax
        layers[-2:] = [by_kind[kind] for kind in tail.split()]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=": config: .*dense"):
            convnet.load_params(path)

    def test_kernel_without_rows_rejected_at_load(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        # a self-consistent file: the first kernel is 0 rows tall, so its map is 49 rows
        # and the dense layer takes 32 maps of 6x1
        payload["config"]["layers"][0]["kernel_h"] = 0
        payload["conv_kernels"][0] = {"shape": [24, 1, 0, 2], "data": []}
        payload["dense_weights"] = {"shape": [192, 4], "data": [0.0] * 192 * 4}
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = "layer 1 (conv): kernel_h must be an integer >= 1, got 0"
        with pytest.raises(FormatError, match=f": config: .*{re.escape(message)}$"):
            convnet.load_params(path)

    @pytest.mark.parametrize(
        "entry, value, shown",
        [("input_h", 48.9, "input: input_h must be an integer >= 1, got 48.9"),
         ("input_h", 48.0, "input: input_h must be an integer >= 1, got 48.0"),
         ("input_w", "2", "input: input_w must be an integer >= 1, got '2'"),
         ("filters", 24.5, "layer 1 (conv): filters must be an integer >= 1, got 24.5")],
    )
    def test_extent_that_is_not_an_integer_rejected_at_load(self, tmp_path, entry, value, shown):
        # such a file used to load truncated by int(), or build a fractional network
        path, payload = self.saved_payload(tmp_path)
        where = payload["config"] if entry.startswith("input") else payload["config"]["layers"][0]
        where[entry] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=f": config: .*{re.escape(shown)}"):
            convnet.load_params(path)

    def test_infeasible_config_rejected(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["config"]["layers"][0]["kernel_h"] = 200
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=": config: "):
            convnet.load_params(path)
