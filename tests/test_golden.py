"""Model files written by earlier code still load, predict and save byte for byte.

The three files in tests/data were written with the code at commit d15dceb,
before the model-file reader was shared between the formats:

    config = NetworkConfig(
        name="golden",
        layers=(conv(3, 3, 2), maxpool(), conv(4, 3, 1), maxpool(),
                flatten(), dense(4), softmax()),
        input_h=16,
        input_w=2,
    )
    ds = synthetic.make_synthetic_dataset(n_windows=40, window_len=16, seed=5)
    params = convnet.train(config, ds, TrainingConfig(epochs=3, learning_rate=0.05, seed=0))
    convnet.save_params(params, config, "golden.params.json")
    for reduce, name in ((True, "reduced"), (False, "unreduced")):
        model = lhn.lhn_fit(
            params, config, ds, components=3,
            classifier=TrainingConfig(epochs=3, learning_rate=0.05, seed=1),
            reduce=reduce,
        )
        lhn.save_lhn(model, f"golden.{name}.lhn.json")

The expected labels are what that code predicted for the eight windows of
make_synthetic_dataset(n_windows=8, window_len=16, seed=99).
"""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from latenthypernet import convnet, lhn, synthetic
from latenthypernet.errors import FormatError, ParameterError

DATA = Path(__file__).parent / "data"

EXPECTED_LABELS = {
    "convnet": [1, 3, 1, 1, 1, 3, 3, 1],
    "reduced": [3, 3, 1, 3, 3, 0, 3, 3],
    "unreduced": [3, 3, 1, 3, 3, 0, 3, 3],
}


@pytest.fixture(scope="module")
def probe():
    return synthetic.make_synthetic_dataset(n_windows=8, window_len=16, seed=99)


def test_params_file(probe, tmp_path):
    params, config = convnet.load_params(DATA / "golden.params.json")
    assert convnet.predict_dataset(params, config, probe).tolist() == EXPECTED_LABELS["convnet"]
    convnet.save_params(params, config, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (DATA / "golden.params.json").read_bytes()


@pytest.mark.parametrize("name", ["reduced", "unreduced"])
def test_lhn_file(probe, tmp_path, name):
    params, config = convnet.load_params(DATA / "golden.params.json")
    path = DATA / f"golden.{name}.lhn.json"
    model = lhn.load_lhn(path)
    assert model.reduced == (name == "reduced")
    assert model.params_digest == convnet.params_digest(params)
    assert lhn.lhn_predict_dataset(model, params, config, probe).tolist() == EXPECTED_LABELS[name]
    lhn.save_lhn(model, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", ["reduced", "unreduced"])
def test_folded_head_equals_the_latent_classifier(probe, name):
    """The batched head's folded logits are the latent vector's logits, to rounding."""
    params, config = convnet.load_params(DATA / "golden.params.json")
    model = lhn.load_lhn(DATA / f"golden.{name}.lhn.json")
    taps = lhn.collect_pool_features(params, config, probe)
    latent = lhn._latent(model.pls_models, model.tap_standardizers, taps)
    expected = latent @ model.classifier_weights + model.classifier_bias
    x = convnet._dataset_batch(config, probe)
    folded = convnet._tap_head(params, config, model.head_weights, model.head_bias)(x)
    assert np.allclose(folded, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    flat = model.head_bias + sum(t @ h for t, h in zip(taps, model.head_weights, strict=True))
    assert np.allclose(flat, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("name", ["reduced", "unreduced"])
def test_lhn_file_pairs_only_with_its_network(name):
    params, config = convnet.load_params(DATA / "golden.params.json")
    model = lhn.load_lhn(DATA / f"golden.{name}.lhn.json")
    lhn.check_pair(model, params, config, "golden")
    taller = dataclasses.replace(config, input_h=20)  # another architecture digest
    with pytest.raises(ParameterError, match="fitted for architecture 'golden'"):
        lhn.check_pair(model, convnet.init_params(taller), taller, "golden")
    other = dataclasses.replace(params, dense_bias=params.dense_bias + 1.0)
    with pytest.raises(ParameterError, match="other weights"):
        lhn.check_pair(model, other, config, "golden")


@pytest.mark.parametrize("name, part", [("reduced", "pls_models"), ("unreduced", "tap_standardizers")])
def test_lhn_file_layer_widths_against_the_network(tmp_path, name, part):
    params, config = convnet.load_params(DATA / "golden.params.json")
    model = lhn.load_lhn(write_payload(tmp_path, with_layer0_width(golden_payload(name), 20)))
    with pytest.raises(FormatError, match=rf"{part}\[0\] takes 20 features, .* is 21 wide"):
        lhn.check_pair(model, params, config, "golden")


def golden_payload(name):
    return json.loads((DATA / f"golden.{name}.lhn.json").read_text(encoding="utf-8"))


def with_classes(payload, k):
    """The payload with its classifier cut to the first k classes."""
    shape = payload["classifier_weights"]["shape"]
    weights = np.array(payload["classifier_weights"]["data"]).reshape(shape)[:, :k]
    payload["classifier_weights"] = {"shape": list(weights.shape), "data": weights.ravel().tolist()}
    payload["classifier_bias"] = payload["classifier_bias"][:k]
    for model in payload["pls_models"]:
        model["n_classes"] = k
    return payload


def with_layer0_width(payload, width):
    """The payload with layer 0's map cut to its first `width` tap features."""
    if payload["pls_models"]:
        layer = payload["pls_models"][0]
        c = layer["components"]
        layer["n_features"] = width
        layer["weights"] = layer["weights"][: width * c]
    else:
        layer = payload["tap_standardizers"][0]
        old, payload["layer_components"][0] = payload["layer_components"][0], width
        # each raw tap feature is a latent column, so its classifier row goes too
        entry = payload["classifier_weights"]
        weights = np.delete(np.array(entry["data"]).reshape(entry["shape"]), range(width, old), axis=0)
        payload["classifier_weights"] = {"shape": list(weights.shape), "data": weights.ravel().tolist()}
    layer["means"], layer["stds"] = layer["means"][:width], layer["stds"][:width]
    return payload


def write_payload(tmp_path, payload):
    path = tmp_path / "tampered.lhn.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", ["reduced", "unreduced"])
def test_classifier_with_fewer_than_two_classes_refused(tmp_path, name, k):
    path = write_payload(tmp_path, with_classes(golden_payload(name), k))
    message = f"classifier_bias holds {k} classes, fewer than 2"
    if name == "reduced" and k == 0:  # a layer's map of 0 classes is refused first
        message = r"pls_models\[0\]: n_classes must be an integer >= 1, got 0"
    with pytest.raises(FormatError, match=message):
        lhn.load_lhn(path)


@pytest.mark.parametrize("name", ["reduced", "unreduced"])
def test_head_narrower_than_the_network_refused_at_pairing(tmp_path, name):
    params, config = convnet.load_params(DATA / "golden.params.json")
    model = lhn.load_lhn(write_payload(tmp_path, with_classes(golden_payload(name), 3)))
    with pytest.raises(FormatError, match="classifier_bias holds 3 classes, not 4"):
        lhn.check_pair(model, params, config, "golden")


def test_pls_model_class_count_must_match_the_head(tmp_path):
    payload = golden_payload("reduced")
    payload["pls_models"][0]["n_classes"] = 7
    with pytest.raises(FormatError, match=r"pls_models\[0\]\.n_classes is 7"):
        lhn.load_lhn(write_payload(tmp_path, payload))


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (["components"], 3.9, "components must be an integer >= 1, got 3.9"),
        (["components"], -3, "components must be an integer >= 1, got -3"),
        (["components"], True, "components must be an integer >= 1, got True"),
        (["layer_components"], [3.5, 3.5], "layer_components must be an integer >= 1, got 3.5"),
        (["pls_models", 0, "n_classes"], 4.5,
         "pls_models[0]: n_classes must be an integer >= 1, got 4.5"),
        (["pls_models", 0, "n_features"], "21",
         "pls_models[0]: n_features must be an integer >= 1, got '21'"),
    ],
    ids=["components-fractional", "components-negative", "components-bool",
         "layer-components-fractional", "pls-classes-fractional", "pls-features-string"],
)
def test_count_field_that_is_not_an_integer_from_one_is_refused(tmp_path, keys, value, message):
    payload = golden_payload("reduced")
    entry = payload
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    path = write_payload(tmp_path, payload)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        lhn.load_lhn(path)


@pytest.mark.parametrize("both", ["full", "empty"])
def test_exactly_one_of_pls_models_and_standardizers(tmp_path, both):
    payload = golden_payload("reduced")
    if both == "full":
        payload["tap_standardizers"] = golden_payload("unreduced")["tap_standardizers"]
    else:
        payload["pls_models"] = payload["layer_components"] = []
        payload["classifier_weights"] = {"shape": [0, 4], "data": []}
    with pytest.raises(FormatError, match="exactly one of pls_models and tap_standardizers"):
        lhn.load_lhn(write_payload(tmp_path, payload))
