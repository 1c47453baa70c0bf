"""Latent hypernet: per-pool-layer latent projections over a frozen network.

Every max-pooling stage of a trained network gets its own supervised
projection, fitted on that stage's flattened feature maps and the class
indicators. The per-stage latent features are concatenated in layer order
and a fresh fully connected + softmax classifier is trained on them. The
network's weights are read, never written.

Fitting one projection per stage (instead of one over the concatenated
maps) keeps each fit small. The stages are fitted in layer order, and a
stage's raw taps are released once they are projected, so the fit holds the
taps plus one standardized copy of the tap it is fitting. A `reduce=False`
switch skips the projections entirely and feeds z-scored raw taps to the
classifier, for measuring what the reduction step contributes. A model is
valid only on the network it was fitted on; it records that network's
architecture and weight digests, and check_pair is the one check that a
model and a network belong together.

A model is checked and folds each layer's map into its classifier rows once,
when it is built, fitted or loaded, and is immutable, its arrays read-only.
The batched predict is the network's trunk, a bias plus one matrix product
per pool output, then argmax. The pool outputs are read in place, so no tap
is flattened, copied or projected on that path. A single-window
lhn_predict still projects through lhn_transform: the benchmark's traced
runs time the projection from those calls, so folding it too waits until the
benchmark calls lhn_transform itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import convnet, fileio, pls
from .convnet import NetworkConfig, NetworkParams, TrainingConfig
from .errors import DegenerateClassError, FormatError, ParameterError, ShapeError
from .ingest import Dataset

MODEL_FORMAT = "lhn-model"
MODEL_VERSION = 2

DEFAULT_COMPONENTS = 19


@dataclass(frozen=True)
class LhnModel:
    """Per-pool-layer projections plus the latent classifier.

    pls_models is empty when the model was fitted with reduce=False; the
    tap_standardizers then z-score the raw taps instead.

    Checked and folded once, when built, as PlsModel folds its standardizer: the
    logits of a window's taps are ``head_bias + sum_i tap_i @ head_weights[i]``,
    which equals classifying its latent vector. A field cannot be reassigned
    and every array is read-only (pls.read_only); dataclasses.replace builds
    a changed copy, checked and folded anew.
    """

    pls_models: list[pls.PlsModel]
    tap_standardizers: list[pls.Standardizer]
    classifier_weights: np.ndarray  # [latent_width, n_classes]
    classifier_bias: np.ndarray  # [n_classes]
    components: int  # requested per-layer width
    config_name: str
    config_digest: str
    params_digest: str  # convnet.params_digest of the weights it was fitted on
    head_weights: list[np.ndarray] = field(init=False, repr=False)  # each [tap width, n_classes]
    head_bias: np.ndarray = field(init=False, repr=False)  # [n_classes]

    def __post_init__(self):
        object.__setattr__(self, "classifier_weights", pls.read_only(self.classifier_weights))
        object.__setattr__(self, "classifier_bias", pls.read_only(self.classifier_bias))
        if self.reduced == bool(self.tap_standardizers):
            raise ParameterError("exactly one of pls_models and tap_standardizers must be set")
        k = self.classifier_bias.size
        if k < 2:
            raise ParameterError(f"classifier_bias holds {k} classes, fewer than 2")
        for i, m in enumerate(self.pls_models):
            if m.n_classes != k:
                raise ParameterError(f"pls_models[{i}].n_classes is {m.n_classes}, not {k}")
        if (shape := self.classifier_weights.shape) != (self.latent_width, k):
            raise ParameterError(f"classifier_weights has shape {shape}, not {(self.latent_width, k)}")
        ends = np.cumsum(self.layer_components)[:-1]
        blocks = np.split(self.classifier_weights, ends)  # layer i's rows of the classifier
        if self.reduced:
            head = [m.scaled_weights @ w for m, w in zip(self.pls_models, blocks)]
            shifts = [m.offset @ w for m, w in zip(self.pls_models, blocks)]
        else:
            pairs = list(zip(self.tap_standardizers, blocks))
            head = [w / s.stds[:, None] for s, w in pairs]
            shifts = [-(s.means / s.stds) @ w for s, w in pairs]
        object.__setattr__(self, "head_weights", [pls.sealed(h) for h in head])
        object.__setattr__(self, "head_bias", pls.sealed(self.classifier_bias + sum(shifts)))

    @property
    def reduced(self) -> bool:
        return bool(self.pls_models)

    @property
    def layer_components(self) -> list[int]:
        """Effective latent width per pool layer: components when reduced, else the tap widths."""
        if self.reduced:
            return [m.components for m in self.pls_models]
        return [s.means.size for s in self.tap_standardizers]

    @property
    def latent_width(self) -> int:
        return int(sum(self.layer_components))


def collect_pool_features(
    params: NetworkParams, config: NetworkConfig, dataset: Dataset
) -> list[np.ndarray]:
    """One matrix per pool layer; row j is window j's flattened pool output.

    Flattening is row-major over (map, row, column). The network parameters
    are only read. The matrices are allocated once, and each chunk's pool
    outputs are copied straight into their rows.
    """
    x = convnet._dataset_batch(config, dataset)
    taps = [np.empty((len(x), width)) for width in config.tap_widths()]
    for rows in convnet._chunks(len(x)):
        for tap, pooled in zip(taps, convnet._pools(params, x[rows])):
            tap[rows].reshape(pooled.shape)[...] = pooled  # a row slice's reshape is a view
    return taps


def lhn_fit(
    params: NetworkParams,
    config: NetworkConfig,
    dataset: Dataset,
    components: int = DEFAULT_COMPONENTS,
    classifier: TrainingConfig = TrainingConfig(),
    reduce: bool = True,
) -> LhnModel:
    """Fit the per-layer projections and train the latent classifier.

    Each pool layer's projection is fitted independently on that layer's
    taps and the one-hot labels; requested widths wider than a layer
    supports are clamped (with a warning) by the projection fit. Layers go
    in order, and each layer's raw taps are released once they are
    projected, so the fit holds the taps plus one standardized copy of the
    tap being fitted.
    """
    if components < 1:
        raise ParameterError("components must be >= 1")
    labels = dataset.labels()
    k = dataset.n_classes
    if len(np.unique(labels)) < 2:
        raise DegenerateClassError("need windows from at least 2 classes")

    taps = collect_pool_features(params, config, dataset)
    indicators = pls.one_hot(labels, k) if reduce else None
    models, standardizers, parts = [], [], []
    for i in range(len(taps)):  # in layer order: layer i's fit is the i-th nipals_fit
        if reduce:
            models.append(layer_map := pls.nipals_fit(taps[i], indicators, components))
        else:
            standardizers.append(layer_map := pls.standardize_fit(taps[i]))
        parts.append(_project(layer_map, taps[i]))
        taps[i] = None  # released once projected
    latent = np.concatenate(parts, axis=1)
    del parts  # unreduced, these are as wide as the taps; the head trains on latent alone
    head_config = NetworkConfig(
        name="latent-classifier",
        layers=(convnet.flatten(), convnet.dense(k), convnet.softmax()),
        input_h=latent.shape[1],
        input_w=1,
    )
    head = convnet.train_arrays(
        head_config, latent[:, None, :, None], labels, classifier
    )
    return LhnModel(
        pls_models=models,
        tap_standardizers=standardizers,
        classifier_weights=head.dense_weights,
        classifier_bias=head.dense_bias,
        components=components,
        config_name=config.name,
        config_digest=convnet.config_digest(config),
        params_digest=convnet.params_digest(params),
    )


def check_pair(model: LhnModel, params: NetworkParams, config: NetworkConfig, source) -> None:
    """Refuse a model that was not fitted on this network.

    Another architecture or other weights raise ParameterError. A class count
    or a layer width other than the network's, which only a tampered file with
    the right digests can hold, raises FormatError.
    """
    if model.config_digest != convnet.config_digest(config):
        raise ParameterError(
            f"{source}: model was fitted for architecture {model.config_name!r}, not the network's"
        )
    if model.params_digest != convnet.params_digest(params):
        raise ParameterError(f"{source}: model was fitted on other weights than the network's")
    k = model.classifier_bias.size
    if k != config.n_classes:
        raise FormatError(f"{source}: classifier_bias holds {k} classes, not {config.n_classes}")
    taps = config.tap_widths()
    if model.reduced:
        part, widths = "pls_models", [m.n_features for m in model.pls_models]
    else:
        part, widths = "tap_standardizers", [s.means.size for s in model.tap_standardizers]
    if len(widths) != len(taps):
        raise FormatError(f"{source}: {len(widths)} {part} for {len(taps)} pools in {config.name}")
    for i, (width, tap) in enumerate(zip(widths, taps)):
        if width != tap:
            raise FormatError(
                f"{source}: {part}[{i}] takes {width} features, "
                f"but pool tap {i} of {config.name} is {tap} wide"
            )


def _project(layer_map, tap: np.ndarray) -> np.ndarray:
    """A tap through its layer's PlsModel, or its Standardizer when unreduced.

    The fit and every projection of a fitted model go through here.
    """
    if isinstance(layer_map, pls.PlsModel):
        return pls.pls_transform(layer_map, tap)
    return pls.standardize_apply(layer_map, tap)


def _latent(pls_models, tap_standardizers, taps: list[np.ndarray]) -> np.ndarray:
    """Each tap through its layer's map, concatenated in layer order."""
    maps = pls_models or tap_standardizers
    if len(taps) != len(maps):
        raise ShapeError(
            f"network exposes {len(taps)} pool layers, model was fitted on {len(maps)}"
        )
    return np.concatenate([_project(m, t) for m, t in zip(maps, taps)], axis=1)


def lhn_transform(
    model: LhnModel, params: NetworkParams, config: NetworkConfig, window
) -> np.ndarray:
    """Latent feature vector of one window: per-layer projections, in order."""
    x = convnet._checked_batch(config, np.asarray(window, dtype=np.float64)[None])
    taps = convnet._forward_taps(params, x)
    return _latent(model.pls_models, model.tap_standardizers, taps)[0]


def lhn_predict(
    model: LhnModel, params: NetworkParams, config: NetworkConfig, window
) -> int:
    """Classifier argmax over the latent features; ties go to the lowest index."""
    z = lhn_transform(model, params, config, window)
    logits = z @ model.classifier_weights + model.classifier_bias
    return int(np.argmax(logits))


def lhn_predict_dataset(
    model: LhnModel, params: NetworkParams, config: NetworkConfig, dataset: Dataset
) -> np.ndarray:
    """Vectorized lhn_predict over a whole dataset, through the folded head.

    Each chunk of convnet._CHUNK windows runs the trunk alone; its logits are
    model.head_bias plus each pool output times its layer's head_weights,
    read from the pool outputs in place (convnet._tap_head), so no tap is
    flattened, copied or projected. lhn_predict still goes through
    lhn_transform, since the benchmark's traced runs time the projection
    from those calls.
    """
    x = convnet._dataset_batch(config, dataset)
    logits = convnet._tap_head(params, config, model.head_weights, model.head_bias)
    return convnet._argmax_chunks(x, logits)


def export_projection(
    model: LhnModel,
    params: NetworkParams,
    config: NetworkConfig,
    dataset: Dataset,
    layer_selector: str = "last",
    out_path=None,
) -> list[tuple[float, float, str]]:
    """Two-component scatter of the dataset for plotting.

    `last` projects the final pool layer's taps with its fitted model and
    takes components 1 and 2; `all` fits a fresh two-component projection
    on the concatenation of every layer's taps, releasing the per-layer taps
    once they are concatenated. Rows are (comp1, comp2, class name); written
    as CSV when out_path is given.
    """
    if layer_selector not in ("last", "all"):
        raise ParameterError(f"layer_selector must be 'last' or 'all', got {layer_selector!r}")
    if layer_selector == "last":
        if not model.reduced:
            raise ParameterError("projection export needs a model fitted with reduce=True")
        if model.layer_components[-1] < 2:
            raise ParameterError("last pool layer has fewer than 2 components; cannot export")
    taps = collect_pool_features(params, config, dataset)
    if layer_selector == "last":
        coords = pls.pls_transform(model.pls_models[-1], taps[-1])[:, :2]
    else:
        combined = np.concatenate(taps, axis=1)
        del taps
        indicators = pls.one_hot(dataset.labels(), dataset.n_classes)
        fresh = pls.nipals_fit(combined, indicators, 2)
        coords = pls.pls_transform(fresh, combined)

    names = dataset.class_names
    rows = [(float(c1), float(c2), names[y]) for (c1, c2), y in zip(coords, dataset.labels())]
    if out_path is not None:
        fileio.write_csv(
            out_path,
            [["comp1", "comp2", "label"]] + [[repr(c1), repr(c2), name] for c1, c2, name in rows],
        )
    return rows


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_lhn(model: LhnModel, path) -> None:
    fileio.write_model(
        path,
        MODEL_FORMAT,
        MODEL_VERSION,
        config_name=model.config_name,
        config_digest=model.config_digest,
        params_digest=model.params_digest,
        components=model.components,
        layer_components=model.layer_components,
        pls_models=[pls.model_payload(m) for m in model.pls_models],
        tap_standardizers=[pls.standardizer_payload(s) for s in model.tap_standardizers],
        classifier_weights=fileio.shaped_entry(model.classifier_weights),
        classifier_bias=model.classifier_bias.tolist(),
    )


def load_lhn(path) -> LhnModel:
    """Read a model file; every array must fit its widths, and the model must build.

    Building checks the model's own rules (LhnModel.__post_init__); a file
    that breaks one, or whose stored layer_components copy disagrees with
    the built model's widths, raises FormatError naming the file.
    """
    payload = fileio.read_model(path, MODEL_FORMAT, MODEL_VERSION)
    with fileio.decoding(path):
        layer_components = [int(v) for v in payload["layer_components"]]
        bias = payload["classifier_bias"]
        bias = fileio.float_array(bias, (len(bias),), "classifier_bias", path)
        pls_models = [
            pls.model_from_payload(p, f"{path}: pls_models[{i}]")
            for i, p in enumerate(payload["pls_models"])
        ]
        tap_standardizers = [
            pls.standardizer_from_payload(e, len(e["means"]), f"{path}: tap_standardizers[{i}]")
            for i, e in enumerate(payload["tap_standardizers"])
        ]
        weights = fileio.shaped_array(
            payload["classifier_weights"],
            (sum(layer_components), bias.size),
            "classifier_weights",
            path,
        )
        try:
            model = LhnModel(
                pls_models=pls_models,
                tap_standardizers=tap_standardizers,
                classifier_weights=weights,
                classifier_bias=bias,
                components=int(payload["components"]),
                config_name=payload["config_name"],
                config_digest=payload["config_digest"],
                params_digest=payload["params_digest"],
            )
        except ParameterError as exc:
            raise FormatError(f"{path}: {exc}") from None
    if (widths := model.layer_components) != layer_components:
        raise FormatError(
            f"{path}: per-layer widths {widths} disagree with layer_components {layer_components}"
        )
    return model
