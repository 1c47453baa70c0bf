"""Small trainable 2D convolutional networks over (time x channel) windows.

A network is k >= 0 stages of (conv, maxpool) followed by one head of
flatten, dense, softmax; no other layer order is accepted. propagate_shapes
checks that order and every extent, and it runs when a preset is built,
when parameters are initialized and when a params file is loaded; the
forward, the backward and training then walk the stages by position.
Convolutions are valid (no padding), stride 1, cross-correlation semantics,
each followed by a ReLU; every pooling is 2x1. Backpropagation is written
out by hand and validated against central finite differences (grad_check).

There is one convolution primitive: each convolution is one contraction of
the kernels with every kh x kw sliding window of its input, plus the bias.
The forward is split into the trunk, which runs the conv/pool stages, and
the head, which flattens the last pool output and runs the dense layer and
softmax. The batched forward runs both and returns every layer's output; a
single window runs as a batch of one. The logits and everything the
backward needs are read from those outputs. The latent hypernet's pool taps
come from the trunk alone, so it never runs the dense head. The backward
reuses the forward convolution: a layer's input gradient is the forward
convolution of its zero-padded output gradient with the kernels flipped and
transposed, and its kernel gradient is one contraction over sliding input
windows. The first conv's input gradient is never formed, since its input
is the data. Pooling keeps no argmax: the backward compares each row pair
again and routes the gradient to the upper row where it is >= the lower.

A window enters the network as a single feature map of height t (time) and
width equal to the channel count, so a kernel of shape 12x2 spans 12 time
steps across 2 channels.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import fileio
from .errors import (
    ArchitectureError,
    FormatError,
    InputError,
    ParameterError,
    ShapeError,
    TrainingDivergedError,
)
from .ingest import Dataset

PARAMS_FORMAT = "convnet-params"
PARAMS_VERSION = 1

_CHUNK = 256  # windows per forward when a whole dataset is predicted or tapped


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | maxpool | flatten | dense | softmax
    filters: int = 0
    kernel_h: int = 0
    kernel_w: int = 0
    pool_h: int = 2
    pool_w: int = 1
    units: int = 0


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
    name: str
    layers: tuple[LayerSpec, ...]
    input_h: int
    input_w: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def n_classes(self) -> int:
        return propagate_shapes(self)[-1][0]

    def pool_layer_count(self) -> int:
        return (len(propagate_shapes(self)) - 3) // 2


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0


@dataclass
class NetworkParams:
    """Learned weights; shapes follow the owning NetworkConfig."""

    conv_kernels: list[np.ndarray]  # each [filters, in_maps, kh, kw]
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

    Raises ArchitectureError (naming the offending layer) when any feature
    map extent would drop below 1.
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
    config = NetworkConfig(name=name, layers=tuple(layers), input_h=input_h, input_w=input_w)
    propagate_shapes(config)  # validates feasibility
    return config


def propagate_shapes(config: NetworkConfig) -> list[tuple[int, ...]]:
    """Output shape of every layer, validating the layer order and extents.

    The one accepted order is k stages of (conv, maxpool), k >= 0, then
    flatten, dense, softmax; every maxpool is 2x1. Shapes are (maps, h, w)
    through the stages, then (units,).
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
    shapes: list[tuple[int, ...]] = []
    maps, h, w = 1, config.input_h, config.input_w
    for i in range(0, len(config.layers) - 3, 2):
        spec, pool = config.layers[i], config.layers[i + 1]
        h, w, maps = h - spec.kernel_h + 1, w - spec.kernel_w + 1, spec.filters
        if h < 1 or w < 1:
            raise ArchitectureError(
                f"{config.name}: layer {i + 1} (conv) with kernel "
                f"{spec.kernel_h}x{spec.kernel_w} would produce a {h}x{w} map"
            )
        shapes.append((maps, h, w))
        where = f"{config.name}: layer {i + 2} (maxpool)"
        if (pool.pool_h, pool.pool_w) != (2, 1):
            raise ArchitectureError(
                f"{where}: only 2x1 pooling is supported, got {pool.pool_h}x{pool.pool_w}"
            )
        h = h // 2
        if h < 1:
            raise ArchitectureError(f"{where} would produce a {h}-row map")
        shapes.append((maps, h, w))
    units = config.layers[-2].units
    if units < 1:
        raise ArchitectureError(
            f"{config.name}: layer {len(config.layers) - 1} (dense) needs at least 1 unit"
        )
    return shapes + [(maps * h * w,), (units,), (units,)]


def _param_shapes(config: NetworkConfig):
    """Kernel shapes [filters, in_maps, kh, kw] per stage, and the dense weight shape."""
    shapes = propagate_shapes(config)
    convs = config.layers[:-3:2]
    in_maps = [1] + [spec.filters for spec in convs[:-1]]
    kernels = [(spec.filters, m, spec.kernel_h, spec.kernel_w) for spec, m in zip(convs, in_maps)]
    return kernels, (shapes[-3][0], shapes[-2][0])


def init_params(config: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Fan-in scaled uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    kernel_shapes, dense_shape = _param_shapes(config)
    kernels = []
    for shape in kernel_shapes:
        lim = 1.0 / np.sqrt(shape[1] * shape[2] * shape[3])  # fan-in
        kernels.append(rng.uniform(-lim, lim, size=shape))
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


def _conv_forward_batch(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray) -> np.ndarray:
    _, c, h, w = x.shape
    _, ck, kh, kw = kernels.shape
    if ck != c:
        raise ShapeError(f"kernel expects {ck} input maps, got {c}")
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} does not fit inside a {h}x{w} map")
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.tensordot(windows, kernels, axes=([1, 4, 5], [1, 2, 3]))  # [b, oh, ow, filters]
    out += biases
    return out.transpose(0, 3, 1, 2)


def _conv_kernel_grads(x, kernels, grad_out):
    """Kernel and bias gradients: grad_out contracted with every kh x kw input window."""
    windows = np.lib.stride_tricks.sliding_window_view(x, kernels.shape[2:], axis=(2, 3))
    grad_k = np.tensordot(grad_out, windows, axes=([0, 2, 3], [0, 2, 3]))
    return grad_k, grad_out.sum(axis=(0, 2, 3))


def _conv_backward_batch(x, kernels, grad_out):
    """Kernel, bias and input gradients; the input gradient is a full convolution."""
    _, c, kh, kw = kernels.shape
    grad_k, grad_b = _conv_kernel_grads(x, kernels, grad_out)
    padded = np.pad(grad_out, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # [in_maps, filters, kh, kw]
    return grad_k, grad_b, _conv_forward_batch(padded, flipped, np.zeros(c))


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
    upper_wins = upper >= lower
    grad_x = np.zeros(x.shape)
    grad_upper, grad_lower = _row_pairs(grad_x)
    grad_upper[...] = np.where(upper_wins, grad_out, 0.0)
    grad_lower[...] = np.where(upper_wins, 0.0, grad_out)
    return grad_x


def _trunk(params, x):
    """Conv and pool output of every stage for a [b, 1, h, w] batch, in layer order."""
    outputs = []
    cur = x
    for kernels, biases in zip(params.conv_kernels, params.conv_biases):
        out = _conv_forward_batch(cur, kernels, biases)
        cur = _maxpool_forward_batch(np.maximum(out, 0.0, out=out))  # in place: out is kept
        outputs += [out, cur]
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


def _forward_taps(params, x):
    """Pool taps of a [b, 1, h, w] batch, from the trunk alone.

    Each tap is one pool output flattened to [b, maps * rows * columns].
    """
    return [out.reshape(out.shape[0], -1) for out in _trunk(params, x)[1::2]]


def _backward_batch(params, x, outputs, grad_logits):
    """Gradients in NetworkParams.arrays() order.

    Stage s's conv output is outputs[2s] and its pool output outputs[2s + 1];
    the flattened last pool output is outputs[-3].
    """
    n = len(params.conv_kernels)
    grad_kernels, grad_biases = [None] * n, [None] * n
    g = grad_logits @ params.dense_weights.T
    for s in reversed(range(n)):
        conv_out = outputs[2 * s]
        g = _maxpool_backward_batch(g.reshape(outputs[2 * s + 1].shape), conv_out)
        g = g * (conv_out > 0.0)
        if s == 0:  # its input is the data: nothing upstream needs that gradient
            grad_kernels[0], grad_biases[0] = _conv_kernel_grads(x, params.conv_kernels[0], g)
        else:
            grad_kernels[s], grad_biases[s], g = _conv_backward_batch(
                outputs[2 * s - 1], params.conv_kernels[s], g
            )
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


def maxpool_forward(x) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping 2x1 max pooling of one [maps, h, w] input.

    Returns the pooled maps and, per output, the row of its pair that the
    backward routes the gradient to (0 = upper row, also on ties); a
    trailing odd row is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected [maps, h, w] input, got rank {x.ndim}")
    out = _maxpool_forward_batch(x[None])[0]
    upper, lower = _row_pairs(x)
    return out, (lower > upper).astype(np.intp)


def _check_window(config: NetworkConfig, window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (config.input_h, config.input_w):
        raise ShapeError(
            f"window shape {window.shape} does not match network input "
            f"{(config.input_h, config.input_w)}"
        )
    return window


def forward_with_taps(params: NetworkParams, config: NetworkConfig, window) -> ForwardTrace:
    """Forward one window, recording every layer output and pool tap.

    The window runs as a batch of one; the layer outputs are views into that run.
    """
    window = _check_window(config, window)
    outputs = _forward_batch(params, window[None, None, :, :])
    taps = tuple(out[0].reshape(-1) for out in outputs[1:-3:2])
    return ForwardTrace(tuple(out[0] for out in outputs), taps, outputs[-2][0])


def predict(params: NetworkParams, config: NetworkConfig, window) -> int:
    """Class index with the largest logit; ties go to the lowest index."""
    window = _check_window(config, window)
    logits = _forward_batch(params, window[None, None, :, :])[-2]
    return int(np.argmax(logits[0]))


def _dataset_batch(config: NetworkConfig, dataset: Dataset) -> np.ndarray:
    """The dataset's windows as one [n, 1, h, w] batch, checked against the network input."""
    if len(dataset) == 0:
        raise InputError("dataset is empty")
    if dataset.window_len != config.input_h or dataset.channels != config.input_w:
        raise ShapeError(
            f"dataset windows are {dataset.window_len}x{dataset.channels} but the "
            f"network expects {config.input_h}x{config.input_w}"
        )
    return dataset.stacked()[:, None, :, :]


def _chunks(x: np.ndarray):
    """Consecutive slices of at most _CHUNK windows, so a forward's memory stays bounded."""
    return (x[start : start + _CHUNK] for start in range(0, x.shape[0], _CHUNK))


def _argmax_chunks(x: np.ndarray, logits_of) -> np.ndarray:
    """Argmax labels of logits_of(chunk) over _chunks(x); ties go to the lowest index."""
    return np.concatenate([np.argmax(logits_of(chunk), axis=1) for chunk in _chunks(x)])


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

    x is [n, 1, h, w]; labels are class indices. Deterministic for a fixed
    seed: weight init uses hyper.seed, epoch shuffling uses hyper.seed + 1.
    Logs one `epoch,loss,train_recall` line per epoch when log_stream is
    given (recall is the running macro recall over that epoch's batches).
    """
    n = x.shape[0]
    if n == 0:
        raise InputError("training needs at least one window")
    k = config.n_classes
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
    window = _check_window(config, window)
    params = init_params(config, seed)
    x = window[None, None, :, :]
    labels = np.array([label])
    outputs = _forward_batch(params, x)
    _, grad_logits = _cross_entropy(outputs, labels)
    grads = _backward_batch(params, x, outputs, grad_logits)

    h = 1e-5
    worst = 0.0
    for arr, grad in zip(params.arrays(), grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = _cross_entropy(_forward_batch(params, x), labels)
            flat[i] = orig - h
            down, _ = _cross_entropy(_forward_batch(params, x), labels)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
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
        input_h=int(payload["input_h"]),
        input_w=int(payload["input_w"]),
    )


def config_digest(config: NetworkConfig) -> str:
    """Stable hash of the architecture, used to pair model files."""
    import hashlib

    blob = json.dumps(_config_payload(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_params(params: NetworkParams, config: NetworkConfig, path) -> None:
    fileio.write_model(
        path,
        PARAMS_FORMAT,
        PARAMS_VERSION,
        config=_config_payload(config),
        conv_kernels=[
            {"shape": list(k.shape), "data": k.reshape(-1).tolist()} for k in params.conv_kernels
        ],
        conv_biases=[k.tolist() for k in params.conv_biases],
        dense_weights={
            "shape": list(params.dense_weights.shape),
            "data": params.dense_weights.reshape(-1).tolist(),
        },
        dense_bias=params.dense_bias.tolist(),
    )


def load_params(path) -> tuple[NetworkParams, NetworkConfig]:
    """Read a params file; every array is checked against the stored config's shapes."""
    payload = fileio.read_model(path, PARAMS_FORMAT, PARAMS_VERSION)
    with fileio.decoding(path):
        config = _config_from_payload(payload["config"])
        try:
            kernel_shapes, dense_shape = _param_shapes(config)
        except (ArchitectureError, TypeError) as exc:
            raise FormatError(f"{path}: config: {exc}") from None
        kernels, biases = payload["conv_kernels"], payload["conv_biases"]
        if len(kernels) != len(kernel_shapes) or len(biases) != len(kernel_shapes):
            raise FormatError(
                f"{path}: conv_kernels and conv_biases hold {len(kernels)} and {len(biases)} "
                f"entries, the stored config has {len(kernel_shapes)} conv layers"
            )
        params = NetworkParams(
            conv_kernels=[
                fileio.shaped_array(k, shape, f"conv_kernels[{i}]", path)
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
    import hashlib

    h = hashlib.sha256()
    for arr in params.arrays():
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
