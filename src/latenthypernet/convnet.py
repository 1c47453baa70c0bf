"""Small trainable 2D convolutional networks over (time x channel) windows.

A network is k >= 0 stages of (conv, maxpool) followed by one head of
flatten, dense, softmax; no other layer order is accepted. propagate_shapes
checks that order and every extent once, when a NetworkConfig is built, and
the config keeps the result as its shapes; the forward, the backward and
training then walk the stages by position.
Convolutions are valid (no padding), stride 1, cross-correlation semantics,
each followed by a ReLU; every pooling is 2x1. Backpropagation is written
out by hand and validated against central finite differences (grad_check).

There is one convolution primitive: each convolution is one matrix product
of its input's window rows with the kernels, plus the bias. Each row is one
kh x kw window with the maps innermost, the memory order conv and pool
outputs already have, so building the rows is one strided view and one copy.
Each kernel's memory is in (kh, kw, in_maps, filters) order, which is the
kernel matrix that product reads, and NetworkParams.conv_kernels[i] is its
[filters, in_maps, kh, kw] view. So the forward, the kernel gradient and the
input gradient all read the stored kernels without a copy.
The forward is split into the trunk, a loop over the stage primitive
(_stage: conv, in-place ReLU, 2x1 pool), and the head, which flattens the
last pool output and runs the dense layer and softmax. The batched forward
runs both and returns every layer's output; a single window runs as a batch
of one. The logits and everything the backward needs are read from those
outputs. The latent hypernet never runs the dense head: it builds each pool
tap by running _stage on the tap below, and its batched head (_tap_head)
reads each pool output of the trunk as maps-innermost rows, a free view,
and permutes the head's rows to that order instead of copying a tap.

A dataset runs in chunks of _CHUNK = 16 windows. The size is chosen for the
cache, not for memory alone: a 256-window chunk of convnet3 on 128x2 windows
builds a 55 MB window-rows matrix, and on every preset and shape measured 16
was within noise of the fastest chunk size and 256 the slowest.

The backward reads every layer's input and output from those outputs. Per
stage it masks the pool-size gradient with the ReLU (the ReLU runs before
the pool, so a pair's winning row is > 0 exactly where its pooled value is),
then routes it to the conv size. Pooling keeps no argmax: the backward
compares each row pair again and routes the gradient to the upper row where
it is >= the lower. A conv's kernel gradient is the transposed output-gradient
rows times the same window rows. Its input gradient is col2im: one
contraction of the output gradient with the kernels gives every output
position's column of kh x kw input taps, and kh * kw shifted adds lay the
columns onto the input. The first conv's input gradient is never formed,
since its input is the data.

A window enters the network as a single feature map of height t (time) and
width equal to the channel count, so a kernel of shape 12x2 spans 12 time
steps across 2 channels. Every window passes one gate, _checked_batch,
whether it comes alone or in a dataset: a single window is window 0 of a
batch of one. It refuses a window of another shape ("windows are 80x2 but
the network expects 64x2") and one with a nan or an infinity ("window 7
holds non-finite values", the first bad window's index). Training refuses a
class index outside [0, k), by ingest.class_indices.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fileio
from .errors import (
    ArchitectureError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    ShapeError,
    TrainingDivergedError,
)
from .ingest import Dataset, check_count, class_indices, is_integer

PARAMS_FORMAT = "convnet-params"
PARAMS_VERSION = 1

# Windows per forward when a whole dataset is predicted or tapped. The size
# is set by the cache, not by memory alone: a 256-window chunk of convnet3 on
# 128x2 windows makes a 55 MB stage-2 window-rows matrix, and copying it
# takes a fifth of the forward. Tap collection, in us per window at chunk
# sizes 2/4/8/16/32/64/128/256 (1 BLAS thread, 2 vCPUs):
#   convnet1 64x2    36/25/22/20/21/21/22/23
#   convnet2 96x2    98/101/103/112/102/103/104/127
#   convnet3 128x2   190/187/187/184/209/194/207/243
#   convnet3 256x3   700/677/754/678/745/934/936/996
#   convnet1 128x6   455/507/414/459/544/675/744/816
# 16 is within noise of the best size on every row and 256 is the slowest.
_CHUNK = 16


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | maxpool | flatten | dense | softmax
    filters: int = 0
    kernel_h: int = 0
    kernel_w: int = 0
    pool_h: int = 2
    pool_w: int = 1
    units: int = 0

    def __post_init__(self):
        _python_ints(self, ("filters", "kernel_h", "kernel_w", "pool_h", "pool_w", "units"))


def _python_ints(obj, names) -> None:
    """Store numpy integer fields as Python ints, which JSON writes, so configs digest alike."""
    for name in names:
        if is_integer(value := getattr(obj, name)):
            object.__setattr__(obj, name, operator.index(value))


def conv(filters: int, kernel_h: int, kernel_w: int) -> LayerSpec:
    return LayerSpec("conv", filters=filters, kernel_h=kernel_h, kernel_w=kernel_w)


def maxpool() -> LayerSpec:
    return LayerSpec("maxpool")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def dense(units: int) -> LayerSpec:
    return LayerSpec("dense", units=units)


def softmax() -> LayerSpec:
    return LayerSpec("softmax")


@dataclass(frozen=True)
class NetworkConfig:
    """A layer table and input shape, checked by propagate_shapes when it is built.

    `shapes` keeps that check's result; it takes no part in equality, hashing or repr.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    input_h: int
    input_w: int
    shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        _python_ints(self, ("input_h", "input_w"))  # propagate_shapes refuses a non-integer
        object.__setattr__(self, "shapes", tuple(propagate_shapes(self)))

    @property
    def n_classes(self) -> int:
        return self.shapes[-1][0]

    def tap_widths(self) -> list[int]:
        """Flattened width of each pool tap, in layer order."""
        return [math.prod(shape) for shape in self.shapes[1:-3:2]]


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_count(self.epochs, 1, "epochs")
        check_count(self.batch_size, 1, "batch_size")
        check_count(self.seed, 0, "seed")
        for name in ("learning_rate", "momentum"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"training needs a finite {name}, got {value}")


@dataclass
class NetworkParams:
    """Learned weights; shapes follow the owning NetworkConfig."""

    # each a [filters, in_maps, kh, kw] view of (kh, kw, in_maps, filters) memory
    conv_kernels: list[np.ndarray]
    conv_biases: list[np.ndarray]  # each [filters]
    dense_weights: np.ndarray  # [flat_dim, units]
    dense_bias: np.ndarray  # [units]

    def arrays(self) -> list[np.ndarray]:
        """Every parameter array, in the one order gradients and digests use."""
        return [*self.conv_kernels, *self.conv_biases, self.dense_weights, self.dense_bias]


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer outputs of one window's forward pass."""

    layer_outputs: tuple[np.ndarray, ...]
    pool_taps: tuple[np.ndarray, ...]  # flattened pool outputs, layer order
    logits: np.ndarray


# Table-driven presets: (filters, kernel_h, kernel_w) per conv stage. Kernel
# widths are clamped to the incoming map width when the preset is built, so
# the same architecture runs on inputs with few channels; kernel heights are
# never clamped (a too-short window is an error, not a different network).
PRESET_CONV_STAGES = {
    "convnet1": ((24, 12, 2), (32, 12, 2)),
    "convnet2": ((24, 6, 1), (32, 8, 1), (40, 10, 1)),
    "convnet3": ((24, 12, 1), (32, 12, 1), (40, 6, 1), (48, 2, 1)),
}


def preset(name: str, input_h: int, input_w: int, n_classes: int) -> NetworkConfig:
    """Build one of the named architectures for the given input shape.

    A feature map extent below 1 raises ArchitectureError naming the layer.
    """
    if name not in PRESET_CONV_STAGES:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {sorted(PRESET_CONV_STAGES)}"
        )
    if n_classes < 2:
        raise ParameterError("a classifier needs at least 2 classes")
    layers: list[LayerSpec] = []
    w = input_w
    for filters, kh, kw in PRESET_CONV_STAGES[name]:
        kw = min(kw, w)
        layers.append(conv(filters, kh, kw))
        layers.append(maxpool())
        w = w - kw + 1
    layers += [flatten(), dense(n_classes), softmax()]
    return NetworkConfig(name=name, layers=tuple(layers), input_h=input_h, input_w=input_w)


def propagate_shapes(config: NetworkConfig) -> list[tuple[int, ...]]:
    """Output shape of every layer, validating the layer order and extents.

    The one accepted order is k stages of (conv, maxpool), k >= 0, then
    flatten, dense, softmax; every maxpool is 2x1. The input extents, each
    conv's filters and kernel extents, and the dense units are counts under
    ingest.check_count, integers of at least 1 (a float such as 64.0 would
    give the same shapes but another config_digest); a refusal names the
    layer, as in "bad: layer 1 (conv): filters must be an integer >= 1, got
    2.5". No map may shrink below 1x1. Shapes are (maps, h, w) through the
    stages, then (units,); a NetworkConfig keeps it as `shapes`.
    """
    kinds = tuple(spec.kind for spec in config.layers)
    expected = ("conv", "maxpool") * kinds.count("conv") + ("flatten", "dense", "softmax")
    for i, (kind, want) in enumerate(itertools.zip_longest(kinds, expected)):
        if kind != want:
            raise ArchitectureError(
                f"{config.name}: layer {i + 1} ({kind or 'missing'}) breaks the layer order, "
                f"expected {want or 'no further layer'}: a network is (conv, maxpool) * k, "
                f"then flatten, dense, softmax"
            )
    _check_extents(f"{config.name}: input", config, ("input_h", "input_w"))
    shapes: list[tuple[int, ...]] = []
    maps, h, w = 1, config.input_h, config.input_w
    for i in range(0, len(config.layers) - 3, 2):
        spec, pool = config.layers[i], config.layers[i + 1]
        where = f"{config.name}: layer {i + 1} (conv)"
        _check_extents(where, spec, ("filters", "kernel_h", "kernel_w"))
        h, w, maps = h - spec.kernel_h + 1, w - spec.kernel_w + 1, spec.filters
        if h < 1 or w < 1:
            raise ArchitectureError(
                f"{where} with kernel {spec.kernel_h}x{spec.kernel_w} would produce a {h}x{w} map"
            )
        shapes.append((maps, h, w))
        where = f"{config.name}: layer {i + 2} (maxpool)"
        pool_extents = (pool.pool_h, pool.pool_w)
        if not all(map(is_integer, pool_extents)) or pool_extents != (2, 1):
            raise ArchitectureError(
                f"{where}: only 2x1 pooling is supported, got {pool.pool_h}x{pool.pool_w}"
            )
        h = h // 2
        if h < 1:
            raise ArchitectureError(f"{where} would produce a {h}-row map")
        shapes.append((maps, h, w))
    head = config.layers[-2]
    _check_extents(f"{config.name}: layer {len(config.layers) - 1} (dense)", head, ("units",))
    return shapes + [(maps * h * w,), (head.units,), (head.units,)]


def _check_extents(where: str, obj, names) -> None:
    """ArchitectureError at `where` unless each named field of obj is a check_count integer >= 1."""
    try:
        for name in names:
            check_count(getattr(obj, name), 1, name)
    except ParameterError as exc:
        raise ArchitectureError(f"{where}: {exc}") from None


def _param_shapes(config: NetworkConfig):
    """Kernel shapes [filters, in_maps, kh, kw] per stage, and the dense weight shape."""
    convs = config.layers[:-3:2]
    in_maps = [1] + [spec.filters for spec in convs[:-1]]
    kernels = [(spec.filters, m, spec.kernel_h, spec.kernel_w) for spec, m in zip(convs, in_maps)]
    return kernels, (config.shapes[-3][0], config.shapes[-2][0])


def _stored_kernel(kernels: np.ndarray) -> np.ndarray:
    """The same [filters, in_maps, kh, kw] values, viewed over (kh, kw, in_maps, filters) memory.

    That memory is the kernel matrix the convolution multiplies by, so
    kernels.transpose(2, 3, 1, 0).reshape(-1, filters) of the result is a view.
    """
    return np.ascontiguousarray(kernels.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1)


def init_params(config: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Fan-in scaled uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    kernel_shapes, dense_shape = _param_shapes(config)
    kernels = []
    for shape in kernel_shapes:
        lim = 1.0 / np.sqrt(shape[1] * shape[2] * shape[3])  # fan-in
        kernels.append(_stored_kernel(rng.uniform(-lim, lim, size=shape)))
    lim = 1.0 / np.sqrt(dense_shape[0])
    return NetworkParams(
        conv_kernels=kernels,
        conv_biases=[np.zeros(shape[0]) for shape in kernel_shapes],
        dense_weights=rng.uniform(-lim, lim, size=dense_shape),
        dense_bias=np.zeros(dense_shape[1]),
    )


# ---------------------------------------------------------------------------
# forward / backward primitives (batched; leading axis is the batch)
# ---------------------------------------------------------------------------


def _windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Every kh x kw window of a [b, maps, h, w] batch as rows [b * oh * ow, kh * kw * maps].

    A row holds its window in (kh, kw, maps) order, maps innermost. The rows
    are one strided view over the maps-last copy of x, which is x itself for
    conv and pool outputs, so the final reshape makes the only copy.
    """
    b, maps, h, w = x.shape
    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # [b, h, w, maps]
    sb, sh, sw, sm = x.strides
    shape = (b, h - kh + 1, w - kw + 1, kh, kw, maps)
    view = np.ndarray(shape, x.dtype, x, 0, (sb, sh, sw, sh, sw, sm))
    return view.reshape(-1, kh * kw * maps)


def _conv_forward_batch(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    filters, ck, kh, kw = kernels.shape
    if ck != c:
        raise ShapeError(f"kernel expects {ck} input maps, got {c}")
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} does not fit inside a {h}x{w} map")
    out = _windows(x, kh, kw) @ kernels.transpose(2, 3, 1, 0).reshape(-1, filters)
    out += biases
    return out.reshape(b, h - kh + 1, w - kw + 1, filters).transpose(0, 3, 1, 2)


def _conv_kernel_grads(x, kernels, grad_out):
    """Kernel and bias gradients: the transposed window rows of x times the output-gradient rows.

    The product is [(kh, kw, in_maps), filters], the stored kernels' memory
    order, and the kernel gradient is its [filters, in_maps, kh, kw] view, so
    the momentum update runs in that order too.
    """
    filters, maps, kh, kw = kernels.shape
    grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(-1, filters)
    grad_k = (_windows(x, kh, kw).T @ grad_rows).reshape(kh, kw, maps, filters)
    return grad_k.transpose(3, 2, 0, 1), grad_out.sum(axis=(0, 2, 3))


def _conv_input_grad(kernels, grad_out, input_shape):
    """Input gradient by col2im: one contraction with the kernels, then kh x kw shifted adds.

    The contraction is one stacked matrix product that gives, for each kernel
    tap (i, j), the [in_maps] input gradient at every output position; tap
    (i, j) of output position (r, q) lands on input row r + i, column q + j.
    The adds run on a maps-last buffer, so each moves whole [rows, columns,
    maps] blocks, and the [b, maps, h, w] result is a view of it. The taps
    are a view of the stored kernels, so the product reads them in place.
    """
    filters, _, kh, kw = kernels.shape
    b, maps, h, w = input_shape
    _, _, oh, ow = grad_out.shape
    taps = kernels.transpose(2, 3, 0, 1).reshape(kh * kw, filters, maps)
    cols = np.matmul(grad_out.transpose(0, 2, 3, 1).reshape(-1, filters), taps)
    cols = cols.reshape(kh, kw, b, oh, ow, maps)
    grad_x = np.zeros((b, h, w, maps))
    for i in range(kh):
        for j in range(kw):
            grad_x[:, i : i + oh, j : j + ow] += cols[i, j]
    return grad_x.transpose(0, 3, 1, 2)


def _row_pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of the upper and lower rows of each pooling pair; a trailing odd row is dropped."""
    end = x.shape[-2] - x.shape[-2] % 2
    return x[..., 0:end:2, :], x[..., 1:end:2, :]


def _maxpool_forward_batch(x: np.ndarray) -> np.ndarray:
    if x.shape[2] < 2:
        raise ShapeError(f"max pooling needs at least 2 rows, got {x.shape[2]}")
    return np.maximum(*_row_pairs(x))


def _maxpool_backward_batch(grad_out, x):
    """Route each gradient to the upper row of its pair where upper >= lower, else the lower."""
    upper, lower = _row_pairs(x)
    grad_x = np.zeros_like(x)  # x's memory order, so the writes below run in it
    grad_upper, grad_lower = _row_pairs(grad_x)
    np.multiply(grad_out, upper >= lower, out=grad_upper)
    np.subtract(grad_out, grad_upper, out=grad_lower)  # grad_out where the lower row won, else 0
    return grad_x


def _stage(x, kernels, biases):
    """One stage of a [b, maps, h, w] batch: its conv output, ReLU'd in place, and its 2x1 pool."""
    out = _conv_forward_batch(x, kernels, biases)
    np.maximum(out, 0.0, out=out)
    return out, _maxpool_forward_batch(out)


def _trunk(params, x):
    """Conv and pool output of every stage for a [b, 1, h, w] batch, in layer order."""
    outputs = []
    for kernels, biases in zip(params.conv_kernels, params.conv_biases):
        outputs += _stage(x, kernels, biases)
        x = outputs[-1]
    return outputs


def _forward_batch(params, x):
    """Run a [b, 1, h, w] batch through the trunk and the head.

    Returns every layer's output for the whole batch, in layer order: conv
    and pool per stage, then flatten, the logits and the class
    probabilities. The backward reads these outputs.
    """
    outputs = _trunk(params, x)
    last = outputs[-1] if outputs else x
    flat = last.reshape(last.shape[0], -1)
    logits = flat @ params.dense_weights + params.dense_bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return outputs + [flat, logits, e / e.sum(axis=1, keepdims=True)]


def _pools(params, x):
    """Pool outputs [b, maps, rows, columns] of a [b, 1, h, w] batch, from the trunk alone.

    Each is maps-innermost in memory, as every conv output is.
    """
    return _trunk(params, x)[1::2]


def _forward_taps(params, x):
    """Pool taps of a [b, 1, h, w] batch: each pool output as [b, maps * rows * columns]."""
    return [out.reshape(out.shape[0], -1) for out in _pools(params, x)]


def _tap_head(params, config: NetworkConfig, heads, bias):
    """The logits bias + sum_i tap_i @ heads[i] of a [b, 1, h, w] batch, as a function of it.

    heads[i] is [width_i, k] over pool tap i in its (map, row, column) order,
    the order _forward_taps flattens it in. A pool output is maps-innermost
    in memory, so it is read as [b, rows * columns * maps] rows by a free
    view; each head's rows are permuted to that order once, here, and no tap
    is copied.
    """
    widths, taps = [head.shape[0] for head in heads], config.tap_widths()
    if widths != taps:
        raise ShapeError(f"heads take pool taps {widths} wide, but {config.name}'s are {taps}")
    heads = [
        head[np.arange(head.shape[0]).reshape(shape).transpose(1, 2, 0).reshape(-1)]
        for head, shape in zip(heads, config.shapes[1:-3:2])
    ]

    def logits(x: np.ndarray) -> np.ndarray:
        rows = [out.transpose(0, 2, 3, 1).reshape(out.shape[0], -1) for out in _pools(params, x)]
        return bias + sum(r @ head for r, head in zip(rows, heads))

    return logits


def _backward_batch(params, x, outputs, grad_logits):
    """Gradients in NetworkParams.arrays() order.

    Stage s's conv output is outputs[2s] and its pool output outputs[2s + 1];
    the flattened last pool output is outputs[-3].
    """
    n = len(params.conv_kernels)
    grad_kernels, grad_biases = [None] * n, [None] * n
    g = grad_logits @ params.dense_weights.T
    for s in reversed(range(n)):
        pooled = outputs[2 * s + 1]
        # the ReLU ran before the pool, so a pair's winning row is > 0 exactly
        # where its pooled value is: mask at pool size, then route
        g = g.reshape(pooled.shape) * (pooled > 0.0)
        g = _maxpool_backward_batch(g, outputs[2 * s])
        x_in = x if s == 0 else outputs[2 * s - 1]
        grad_kernels[s], grad_biases[s] = _conv_kernel_grads(x_in, params.conv_kernels[s], g)
        if s > 0:  # the first conv's input is the data: nothing upstream needs that gradient
            g = _conv_input_grad(params.conv_kernels[s], g, x_in.shape)
    return grad_kernels + grad_biases + [outputs[-3].T @ grad_logits, grad_logits.sum(axis=0)]


def _cross_entropy(outputs, labels):
    """Summed softmax cross-entropy of a batch, and its gradient at the logits."""
    logits, probs = outputs[-2], outputs[-1]
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    grad_logits = probs.copy()
    grad_logits[rows, labels] -= 1.0
    return -log_probs[rows, labels].sum(), grad_logits


# ---------------------------------------------------------------------------
# public single-window operations
# ---------------------------------------------------------------------------


def conv2d_forward(x, kernels, biases) -> np.ndarray:
    """Valid cross-correlation of one [maps, h, w] input plus bias."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected [maps, h, w] input, got rank {x.ndim}")
    kernels = np.asarray(kernels, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    return _conv_forward_batch(x[None], kernels, biases)[0]


def maxpool_forward(x) -> np.ndarray:
    """Non-overlapping 2x1 max pooling of one [maps, h, w] input; a trailing odd row is dropped.

    Returns the pooled maps only; the backward pass decides which row of a
    pair gets the gradient (the upper one on ties).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected [maps, h, w] input, got rank {x.ndim}")
    return _maxpool_forward_batch(x[None])[0]


def _checked_batch(config: NetworkConfig, windows: np.ndarray) -> np.ndarray:
    """An [n, h, w] float64 array as the network's [n, 1, h, w] batch; the one input gate.

    Every window must be input_h x input_w and hold only finite values; a
    refusal names the first bad window by its index, so a single window,
    passed as a batch of one, is window 0.
    """
    if windows.shape[1:] != (config.input_h, config.input_w):
        got = "x".join(map(str, windows.shape[1:])) or "scalars"
        raise ShapeError(
            f"windows are {got} but the network expects {config.input_h}x{config.input_w}"
        )
    if not np.isfinite(windows).all():
        bad = np.argmin(np.isfinite(windows).all(axis=(1, 2)))
        raise NumericError(f"window {bad} holds non-finite values")
    return windows[:, None]


def forward_with_taps(params: NetworkParams, config: NetworkConfig, window) -> ForwardTrace:
    """Forward one window, recording every layer output and pool tap.

    The window runs as a batch of one; the layer outputs are views into that run.
    """
    x = _checked_batch(config, np.asarray(window, dtype=np.float64)[None])
    outputs = _forward_batch(params, x)
    taps = tuple(out[0].reshape(-1) for out in outputs[1:-3:2])
    return ForwardTrace(tuple(out[0] for out in outputs), taps, outputs[-2][0])


def predict(params: NetworkParams, config: NetworkConfig, window) -> int:
    """Class index with the largest logit; ties go to the lowest index."""
    x = _checked_batch(config, np.asarray(window, dtype=np.float64)[None])
    logits = _forward_batch(params, x)[-2]
    return int(np.argmax(logits[0]))


def _dataset_batch(config: NetworkConfig, dataset: Dataset) -> np.ndarray:
    """The dataset's windows as one [n, 1, h, w] batch, through _checked_batch."""
    if len(dataset) == 0:
        raise InputError("dataset is empty")
    return _checked_batch(config, dataset.stacked())


def _chunks(n: int):
    """Slices of at most _CHUNK consecutive windows out of n, so each forward stays cache-sized."""
    return (slice(start, start + _CHUNK) for start in range(0, n, _CHUNK))


def _argmax_chunks(x: np.ndarray, logits_of) -> np.ndarray:
    """Argmax labels of logits_of(chunk) over the _chunks of x; ties go to the lowest index."""
    return np.concatenate([np.argmax(logits_of(x[rows]), axis=1) for rows in _chunks(len(x))])


def predict_dataset(params: NetworkParams, config: NetworkConfig, dataset: Dataset) -> np.ndarray:
    """Vectorized predict over a whole dataset, in chunks of _CHUNK windows."""
    x = _dataset_batch(config, dataset)
    return _argmax_chunks(x, lambda chunk: _forward_batch(params, chunk)[-2])


def _macro_recall(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    recalls = []
    for c in range(n_classes):
        mask = y_true == c
        if mask.any():
            recalls.append(float((y_pred[mask] == c).mean()))
    return float(np.mean(recalls)) if recalls else 0.0


def train_arrays(
    config: NetworkConfig,
    x: np.ndarray,
    labels: np.ndarray,
    hyper: TrainingConfig = TrainingConfig(),
    log_stream=None,
) -> NetworkParams:
    """Mini-batch SGD with momentum on softmax cross-entropy.

    x is [n, 1, h, w]; labels are n class indices in [0, k), checked once per
    call, before any weight is built. Deterministic for a fixed seed: weight
    init uses hyper.seed, epoch shuffling uses hyper.seed + 1. Logs one
    `epoch,loss,train_recall` line per epoch when log_stream is given (recall
    is the running macro recall over that epoch's batches).
    """
    n = x.shape[0]
    if n == 0:
        raise InputError("training needs at least one window")
    k = config.n_classes
    labels = class_indices(labels, k)
    if labels.size != n:
        raise ShapeError(f"{labels.size} labels for {n} windows")
    params = init_params(config, hyper.seed)
    shuffle_rng = np.random.default_rng(hyper.seed + 1)

    velocities = [np.zeros_like(a) for a in params.arrays()]
    lr, mom = hyper.learning_rate, hyper.momentum

    for epoch in range(1, hyper.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        preds = np.empty(n, dtype=np.int64)
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            xb, yb = x[idx], labels[idx]
            outputs = _forward_batch(params, xb)
            batch_loss, grad_logits = _cross_entropy(outputs, yb)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(f"loss became non-finite in epoch {epoch}")
            loss_sum += float(batch_loss)
            preds[idx] = np.argmax(outputs[-2], axis=1)

            grad_logits /= len(idx)
            grads = _backward_batch(params, xb, outputs, grad_logits)
            for arr, vel, grad in zip(params.arrays(), velocities, grads):
                vel *= mom
                vel -= lr * grad
                arr += vel

        if log_stream is not None:
            recall = _macro_recall(labels, preds, k)
            log_stream.write(f"{epoch},{loss_sum / n:.6f},{recall:.6f}\n")
    return params


def train(
    config: NetworkConfig,
    dataset: Dataset,
    hyper: TrainingConfig = TrainingConfig(),
    log_stream=None,
) -> NetworkParams:
    """Train on a segmented dataset; see train_arrays."""
    x = _dataset_batch(config, dataset)
    return train_arrays(config, x, dataset.labels(), hyper, log_stream)


def grad_check(config: NetworkConfig, window, label: int = 0, seed: int = 0) -> float:
    """Max relative error between analytic and finite-difference gradients.

    Central differences with step 1e-5 over every parameter of a freshly
    initialized network; intended for small networks (<= 1e4 parameters).
    """
    x = _checked_batch(config, np.asarray(window, dtype=np.float64)[None])
    params = init_params(config, seed)
    labels = np.array([label])
    outputs = _forward_batch(params, x)
    _, grad_logits = _cross_entropy(outputs, labels)
    grads = _backward_batch(params, x, outputs, grad_logits)

    h = 1e-5
    worst = 0.0
    for arr, grad in zip(params.arrays(), grads):
        # index the array itself: a reshape of a non-contiguous kernel view
        # would be a copy, and perturbing it would never reach the network
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + h
            up, _ = _cross_entropy(_forward_batch(params, x), labels)
            arr[i] = orig - h
            down, _ = _cross_entropy(_forward_batch(params, x), labels)
            arr[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(grad[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(grad[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _config_payload(config: NetworkConfig) -> dict:
    return {
        "name": config.name,
        "input_h": config.input_h,
        "input_w": config.input_w,
        "layers": [asdict(spec) for spec in config.layers],
    }


def _config_from_payload(payload: dict) -> NetworkConfig:
    layers = tuple(LayerSpec(**entry) for entry in payload["layers"])
    return NetworkConfig(
        name=payload["name"],
        layers=layers,
        input_h=payload["input_h"],
        input_w=payload["input_w"],
    )


def config_digest(config: NetworkConfig) -> str:
    """Stable hash of the architecture, used to pair model files."""
    blob = json.dumps(_config_payload(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_params(params: NetworkParams, config: NetworkConfig, path) -> None:
    fileio.write_model(
        path,
        PARAMS_FORMAT,
        PARAMS_VERSION,
        config=_config_payload(config),
        conv_kernels=[fileio.shaped_entry(k) for k in params.conv_kernels],
        conv_biases=[k.tolist() for k in params.conv_biases],
        dense_weights=fileio.shaped_entry(params.dense_weights),
        dense_bias=params.dense_bias.tolist(),
    )


def load_params(path) -> tuple[NetworkParams, NetworkConfig]:
    """Read a params file; every array is checked against the stored config's shapes."""
    payload = fileio.read_model(path, PARAMS_FORMAT, PARAMS_VERSION)
    with fileio.decoding(path):
        try:
            config = _config_from_payload(payload["config"])
        except (ArchitectureError, TypeError) as exc:
            raise FormatError(f"{path}: config: {exc}") from None
        kernel_shapes, dense_shape = _param_shapes(config)
        kernels, biases = payload["conv_kernels"], payload["conv_biases"]
        if len(kernels) != len(kernel_shapes) or len(biases) != len(kernel_shapes):
            raise FormatError(
                f"{path}: conv_kernels and conv_biases hold {len(kernels)} and {len(biases)} "
                f"entries, the stored config has {len(kernel_shapes)} conv layers"
            )
        params = NetworkParams(
            conv_kernels=[
                _stored_kernel(fileio.shaped_array(k, shape, f"conv_kernels[{i}]", path))
                for i, (k, shape) in enumerate(zip(kernels, kernel_shapes))
            ],
            conv_biases=[
                fileio.float_array(b, shape[:1], f"conv_biases[{i}]", path)
                for i, (b, shape) in enumerate(zip(biases, kernel_shapes))
            ],
            dense_weights=fileio.shaped_array(
                payload["dense_weights"], dense_shape, "dense_weights", path
            ),
            dense_bias=fileio.float_array(payload["dense_bias"], dense_shape[1:], "dense_bias", path),
        )
    return params, config


def params_digest(params: NetworkParams) -> str:
    """Hash of all parameter bytes; used to assert the freezing contract."""
    h = hashlib.sha256()
    for arr in params.arrays():
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
