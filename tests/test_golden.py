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
from pathlib import Path

import pytest

from latenthypernet import convnet, lhn, synthetic
from latenthypernet.errors import FormatError

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


@pytest.mark.parametrize("name, part", [("reduced", "pls_models"), ("unreduced", "tap_standardizers")])
def test_lhn_file_layer_widths_against_the_network(name, part):
    _, config = convnet.load_params(DATA / "golden.params.json")
    model = lhn.load_lhn(DATA / f"golden.{name}.lhn.json")
    lhn.check_tap_widths(model, config, "golden")
    taller = dataclasses.replace(config, input_h=20)  # pool tap 0 becomes 3 x 9 x 1 = 27 wide
    with pytest.raises(FormatError, match=rf"{part}\[0\] takes 21 features, .* is 27 wide"):
        lhn.check_tap_widths(model, taller, "golden")
