import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latenthypernet
from latenthypernet import cli, convnet, lhn, synthetic

RATE = 8.0  # 40-sample windows at 8 Hz = 5-second windows
WINDOW_LEN = 40


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sensors.csv"
    synthetic.write_synthetic_csv(
        path, n_windows=80, window_len=WINDOW_LEN, seed=0, sampling_rate_hz=RATE
    )
    return path


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory, data_csv):
    """Shared params + lhn model files produced through the CLI itself."""
    out_dir = tmp_path_factory.mktemp("models")
    rc = cli.main(
        [
            "train",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--arch", "convnet1",
            "--epochs", "6",
            "--seed", "3",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    params_path = out_dir / "convnet1.params.json"
    assert params_path.exists()
    rc = cli.main(
        [
            "lhn-fit",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--params", str(params_path),
            "--components", "5",
            "--epochs", "4",
            "--seed", "3",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    model_path = out_dir / "convnet1.lhn.json"
    assert model_path.exists()
    return data_csv, params_path, model_path


def test_train_writes_params_and_logs(tmp_path, data_csv, capsys):
    rc = cli.main(
        [
            "train",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--epochs", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    epoch_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(epoch_lines) == 2
    assert len(epoch_lines[0].split(",")) == 3  # epoch,loss,train_recall
    assert (tmp_path / "convnet1.params.json").exists()


def test_train_missing_data_names_path(capsys):
    rc = cli.main(["train", "--data", "/nope/missing.csv", "--rate", "8", "--window-seconds", "5"])
    assert rc == 2
    assert "/nope/missing.csv" in capsys.readouterr().err


def test_infeasible_architecture_diagnostic(tmp_path, capsys):
    csv_path = tmp_path / "fast.csv"
    synthetic.write_synthetic_csv(csv_path, n_windows=20, window_len=50, sampling_rate_hz=50.0)
    rc = cli.main(
        [
            "train",
            "--data", str(csv_path),
            "--rate", "50",
            "--window-seconds", "1",
            "--arch", "convnet3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "conv" in err and "convnet3" in err


def test_lhn_fit_leaves_params_file_untouched(trained_files, tmp_path):
    data_csv, params_path, _ = trained_files
    checksum = sha256(params_path)
    rc = cli.main(
        [
            "lhn-fit",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--params", str(params_path),
            "--components", "3",
            "--epochs", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert sha256(params_path) == checksum


def test_lhn_fit_no_reduction_flag(trained_files, tmp_path):
    data_csv, params_path, _ = trained_files
    out = tmp_path / "raw.lhn.json"
    rc = cli.main(
        [
            "lhn-fit",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--params", str(params_path),
            "--no-reduction",
            "--epochs", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    model = lhn.load_lhn(out)
    assert not model.reduced
    assert model.latent_width > 100  # raw tap widths, not components


def test_lhn_fit_window_mismatch(trained_files, capsys):
    data_csv, params_path, _ = trained_files
    rc = cli.main(
        [
            "lhn-fit",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "2.5",
            "--params", str(params_path),
        ]
    )
    assert rc == 2
    assert "expects 40x2" in capsys.readouterr().err


def test_lhn_fit_on_fewer_classes_than_the_network_exits_two(trained_files, tmp_path, capsys):
    data_csv, params_path, _ = trained_files
    lines = data_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    fewer = tmp_path / "three-classes.csv"
    fewer.write_text("".join(l for l in lines if not l.startswith("slow_smooth,")), "utf-8")
    out = tmp_path / "fewer.lhn.json"
    rc = cli.main(
        [
            "lhn-fit",
            "--data", str(fewer),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--params", str(params_path),
            "--epochs", "1",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert "the dataset has 3 classes but network 'convnet1' classifies 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark-time", "project"])
def test_window_mismatch_with_a_model_pair_exits_two(trained_files, tmp_path, command, capsys):
    data_csv, params_path, model_path = trained_files
    rc = cli.main(
        [
            command,
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "2.5",
            "--params", str(params_path),
            "--lhn-model", str(model_path),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "expects 40x2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_evaluate_is_deterministic_per_seed(data_csv, tmp_path):
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = cli.main(
            [
                "evaluate",
                "--data", str(data_csv),
                "--rate", str(RATE),
                "--window-seconds", "5",
                "--epochs", "2",
                "--folds", "3",
                "--components", "3",
                "--seed", "7",
                "--out-dir", str(out_dir),
            ]
        )
        assert rc == 0
        outputs.append(
            (out_dir / "cv_folds.csv").read_bytes()
            + (out_dir / "cv_summary.csv").read_bytes()
        )
    assert outputs[0] == outputs[1]


def test_evaluate_summary_format(data_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "evaluate",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--epochs", "2",
            "--folds", "3",
            "--components", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    folds = (tmp_path / "cv_folds.csv").read_text().splitlines()
    assert folds[0] == "fold,system,recall"
    assert len(folds) == 1 + 2 * 3  # two systems per fold
    summary = (tmp_path / "cv_summary.csv").read_text().splitlines()
    assert summary[0] == "system,mean_recall,improvement_pp"
    assert summary[1].startswith("convnet,")
    assert summary[2].startswith("lhn,")
    assert "improvement" in capsys.readouterr().out


def test_benchmark_time(trained_files, tmp_path, capsys):
    data_csv, params_path, model_path = trained_files
    rc = cli.main(
        [
            "benchmark-time",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--params", str(params_path),
            "--lhn-model", str(model_path),
            "--runs", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "equivalent" in out  # verdict line (either verdict contains the word)
    runs = (tmp_path / "timing.csv").read_text().splitlines()
    assert runs[0] == "run,system,mean_prediction_seconds"
    assert len(runs) == 1 + 2 * 2
    summary = (tmp_path / "timing_summary.csv").read_text().splitlines()
    assert summary[0].split(",")[:3] == ["system", "mean_seconds", "ci95_half_width"]


def test_project_both_selectors(trained_files, tmp_path):
    data_csv, params_path, model_path = trained_files
    for layers in ("last", "all"):
        rc = cli.main(
            [
                "project",
                "--data", str(data_csv),
                "--rate", str(RATE),
                "--window-seconds", "5",
                "--params", str(params_path),
                "--lhn-model", str(model_path),
                "--layers", layers,
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
    for layers in ("last", "all"):
        lines = (tmp_path / f"projection_{layers}.csv").read_text().splitlines()
        assert lines[0] == "comp1,comp2,label"
        assert len(lines) == 1 + 80


def test_model_paired_with_other_weights_exits_two(trained_files, tmp_path, capsys):
    data_csv, _, model_path = trained_files
    common = ["--data", str(data_csv), "--rate", str(RATE), "--window-seconds", "5"]
    rc = cli.main(["train", *common, "--epochs", "1", "--seed", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    other = tmp_path / "convnet1.params.json"  # same architecture, other weights
    rc = cli.main(
        ["project", *common, "--params", str(other), "--lhn-model", str(model_path),
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "other weights" in capsys.readouterr().err
    assert not (tmp_path / "projection_last.csv").exists()


def test_model_paired_with_another_architecture_exits_two(trained_files, tmp_path, capsys):
    data_csv, params_path, model_path = trained_files
    config = convnet.preset("convnet2", 2 * WINDOW_LEN, 2, 4)
    other = tmp_path / "convnet2.params.json"
    convnet.save_params(convnet.init_params(config), config, other)
    rc = cli.main(
        ["project", "--data", str(data_csv), "--rate", str(RATE), "--window-seconds", "5",
         "--params", str(other), "--lhn-model", str(model_path), "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "fitted for architecture 'convnet1'" in err
    assert str(model_path) in err and str(other) in err
    assert not (tmp_path / "projection_last.csv").exists()


def test_config_file_and_flag_precedence(data_csv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {data_csv}\nrate = {RATE}\nwindow-seconds = 5\n"
        "epochs = 1\nseed = 2\n# comment line\n",
        encoding="utf-8",
    )
    rc = cli.main(
        ["train", "--config", str(config), "--epochs", "3", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    epoch_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(epoch_lines) == 3  # CLI flag beats the file's epochs = 1


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("bogus = 1\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(config)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_out_dir_env_override(data_csv, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("LHN_OUT_DIR", str(env_dir))
    rc = cli.main(
        [
            "train",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--epochs", "1",
        ]
    )
    assert rc == 0
    assert (env_dir / "convnet1.params.json").exists()


def test_defaults_resolve():
    parser = cli.build_parser()
    cfg = cli._resolve(parser.parse_args(["evaluate"]))
    assert cfg.folds == 10
    assert cfg.components == 19
    assert cfg.window_seconds == 5.0
    cfg = cli._resolve(parser.parse_args(["benchmark-time"]))
    assert cfg.runs == 30
    assert cfg.no_reduction is False


def test_corrupt_params_file_is_runtime_failure(data_csv, tmp_path, capsys):
    bad = tmp_path / "corrupt.params.json"
    bad.write_text("{definitely not a params file", encoding="utf-8")
    rc = cli.main(
        [
            "lhn-fit",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--window-seconds", "5",
            "--params", str(bad),
        ]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--frobnicate"])
    assert exc.value.code == 2


COMMON_FLAGS = {
    "--config", "--out-dir", "--data", "--rate", "--label-column",
    "--subject-column", "--channels", "--window-seconds", "--stride",
}
TRAINING_FLAGS = {"--epochs", "--batch-size", "--learning-rate", "--momentum", "--seed"}
FLAGS = {
    "train": COMMON_FLAGS | TRAINING_FLAGS | {"--arch", "--out", "--log-file"},
    "lhn-fit": COMMON_FLAGS
    | TRAINING_FLAGS
    | {"--params", "--components", "--no-reduction", "--out"},
    "evaluate": COMMON_FLAGS
    | TRAINING_FLAGS
    | {"--arch", "--components", "--folds", "--no-reduction"},
    "benchmark-time": COMMON_FLAGS | {"--params", "--lhn-model", "--runs"},
    "project": COMMON_FLAGS | {"--params", "--lhn-model", "--layers", "--out"},
}

# setting: (its text in a config file or on the command line, the value it resolves to);
# None as text marks a switch, whose flag takes no value
NON_DEFAULT = {
    "data": ("x.csv", "x.csv"),
    "rate": ("8.5", 8.5),
    "label_column": ("activity", "activity"),
    "subject_column": ("subject", "subject"),
    "channels": ("ax, ay", ("ax", "ay")),
    "window_seconds": ("2.5", 2.5),
    "stride": ("3", 3),
    "arch": ("convnet2", "convnet2"),
    "epochs": ("7", 7),
    "batch_size": ("16", 16),
    "learning_rate": ("0.5", 0.5),
    "momentum": ("0.25", 0.25),
    "components": ("4", 4),
    "seed": ("5", 5),
    "folds": ("4", 4),
    "runs": ("6", 6),
    "out_dir": ("elsewhere", "elsewhere"),
    "no_reduction": (None, True),
    "layers": ("all", "all"),
    "params": ("p.params.json", "p.params.json"),
    "lhn_model": ("m.lhn.json", "m.lhn.json"),
    "out": ("o.csv", "o.csv"),
    "log_file": ("train.log", "train.log"),
}


def subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if a.dest == "command")
    return action.choices


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_takes_its_flags(command):
    actions = subparsers()[command]._actions
    flags = {opt for a in actions for opt in a.option_strings} - {"-h", "--help"}
    assert flags == FLAGS[command]


def test_every_setting_has_a_non_default_case():
    assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(cli.RunConfig)}


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_config_line_and_flag_resolve_alike(name, tmp_path, monkeypatch):
    monkeypatch.delenv("LHN_OUT_DIR", raising=False)
    text, value = NON_DEFAULT[name]
    flag = "--" + name.replace("_", "-")
    command = next(c for c in sorted(FLAGS) if flag in FLAGS[c])
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:]} = {text or 'true'}\n", encoding="utf-8")
    parser = cli.build_parser()
    from_file = cli._resolve(parser.parse_args([command, "--config", str(config)]))
    from_flag = cli._resolve(parser.parse_args([command, flag, *([text] if text else [])]))
    assert getattr(from_file, name) == getattr(from_flag, name) == value
    assert value != getattr(cli.RunConfig(), name)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_every_flag_and_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for flag in FLAGS[command]:
        assert flag in text
        name = flag[2:].replace("-", "_")
        default = getattr(cli.RunConfig(), name, None)
        if default is not None and default is not False:  # `is`: seed's 0 == False
            assert f"(default: {default})" in text, flag
    if "--seed" in FLAGS[command]:
        assert "(default: 0)" in text


def test_welch_switch_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["benchmark-time", "--welch"])
    assert exc.value.code == 2
    config = tmp_path / "run.cfg"
    config.write_text("welch = true\n", encoding="utf-8")
    assert cli.main(["benchmark-time", "--config", str(config)]) == 2
    assert f"{config}: line 1: unknown key 'welch'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["benchmark-time", "project"])
def test_commands_that_draw_no_random_number_take_no_seed_flag(command, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "1"])
    assert exc.value.code == 2
    config = tmp_path / "shared.cfg"  # a config file stays shared across commands
    config.write_text("seed = 3\n", encoding="utf-8")
    assert cli._resolve(cli.build_parser().parse_args([command, "--config", str(config)])).seed == 3


def test_cli_defaults_are_the_librarys():
    from latenthypernet import evaluation

    cfg, hyper = cli.RunConfig(), convnet.TrainingConfig()
    for name in ("epochs", "batch_size", "learning_rate", "momentum", "seed"):
        assert getattr(cfg, name) == getattr(hyper, name), name
    assert cfg.components == lhn.DEFAULT_COMPONENTS
    assert cfg.folds == inspect.signature(evaluation.run_cv).parameters["folds"].default
    assert cfg.runs == inspect.signature(evaluation.timing_benchmark).parameters["runs"].default
    assert cli._ARCHES == tuple(convnet.PRESET_CONV_STAGES)


def test_config_file_value_outside_choices_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("arch = convnet9\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "arch must be one of convnet1, convnet2, convnet3" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["no_reduction = maybe", "runs = many"])
def test_config_file_bad_value_names_file_and_line(line, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"# comment\n{line}\n", encoding="utf-8")
    assert cli.main(["benchmark-time", "--config", str(config)]) == 2
    key, _, value = line.partition(" = ")
    assert f"{config}: line 2: bad value {value!r} for {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        pytest.param("evaluate", "folds", "1", "folds must be an integer >= 2, got 1",
                     id="evaluate-folds"),
        pytest.param("benchmark-time", "runs", "1", "runs must be an integer >= 2, got 1",
                     id="benchmark-time-runs"),
        pytest.param("train", "stride", "0", "stride_samples must be an integer >= 1, got 0",
                     id="train-stride"),
        pytest.param("train", "epochs", "0", "epochs must be an integer >= 1, got 0",
                     id="train-epochs"),
        pytest.param("train", "batch-size", "0", "batch_size must be an integer >= 1, got 0",
                     id="train-batch-size"),
        pytest.param("lhn-fit", "components", "0", "components must be an integer >= 1, got 0",
                     id="lhn-fit-components"),
        pytest.param("evaluate", "components", "0", "components must be an integer >= 1, got 0",
                     id="evaluate-components"),
        pytest.param("train", "window-seconds", "-1", "window of -1.0 s at 8.0 Hz holds no samples",
                     id="train-window-negative"),
        pytest.param("train", "window-seconds", "nan", "window of nan s at 8.0 Hz is not a finite",
                     id="train-window-nan"),
    ],
)
def test_folds_and_runs_need_two(trained_files, tmp_path, monkeypatch, capsys,
                                 command, flag, value, message):
    # the library function that reads the setting refuses it, before any training or file
    def no_training(*args, **kwargs):
        raise AssertionError("a refused setting reached training")

    monkeypatch.setattr(convnet, "train_arrays", no_training)
    data_csv, params_path, model_path = trained_files
    files = {
        "train": ["--log-file", str(tmp_path / "train.log")],
        "lhn-fit": ["--params", str(params_path)],
        "evaluate": [],
        "benchmark-time": ["--params", str(params_path), "--lhn-model", str(model_path)],
    }
    argv = [command, "--data", str(data_csv), "--rate", str(RATE),
            "--out-dir", str(tmp_path / "out"), *files[command], f"--{flag}", value]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_seed_exits_two(command, tmp_path, data_csv, capsys):
    # numpy refuses a negative seed; `train --seed -1` used to end in a traceback
    argv = [command, "--data", str(data_csv), "--rate", str(RATE), "--seed", "-1",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bounds_of_settings_a_command_does_not_take_are_not_checked(tmp_path, data_csv):
    config = tmp_path / "shared.cfg"
    config.write_text("folds = 1\n", encoding="utf-8")
    rc = cli.main(
        [
            "train",
            "--config", str(config),
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--epochs", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "convnet1.params.json").exists()


@pytest.mark.parametrize("command", ["project", "benchmark-time"])
def test_model_layer_narrower_than_its_tap_exits_one(command, tmp_path, capsys):
    data = Path(__file__).parent / "data"
    payload = json.loads((data / "golden.reduced.lhn.json").read_text(encoding="utf-8"))
    layer = payload["pls_models"][0]
    assert layer["n_features"] == 21
    layer["n_features"] = 20
    for key in ("means", "stds"):
        layer[key] = layer[key][:20]
    layer["weights"] = layer["weights"][: 20 * layer["components"]]
    model_path = tmp_path / "cut.lhn.json"
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    csv_path = tmp_path / "windows.csv"
    synthetic.write_synthetic_csv(csv_path, n_windows=8, window_len=16, sampling_rate_hz=8.0)
    out_dir = tmp_path / "out"
    rc = cli.main(
        [
            command,
            "--data", str(csv_path),
            "--rate", "8",
            "--window-seconds", "2",
            "--params", str(data / "golden.params.json"),
            "--lhn-model", str(model_path),
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 1
    assert "pls_models[0]" in capsys.readouterr().err
    assert not out_dir.exists()


def test_empty_channels_flag_reads_every_other_column(tmp_path, data_csv):
    rc = cli.main(
        [
            "train",
            "--data", str(data_csv),
            "--rate", str(RATE),
            "--channels", "",
            "--epochs", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    params = json.loads((tmp_path / "convnet1.params.json").read_text(encoding="utf-8"))
    assert params["config"]["input_w"] == 2  # ax and ay


def test_header_without_channels_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "labels.csv"
    csv_path.write_text("label\nwalk\n", encoding="utf-8")
    rc = cli.main(["train", "--data", str(csv_path), "--rate", "8", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {csv_path}: no channel columns besides 'label'\n"


def test_class_smaller_than_folds_exits_two(tmp_path, data_csv, capsys):
    lines = data_csv.read_text(encoding="utf-8").splitlines()
    short = [l for l in lines if l.startswith("slow_burst,")][: 2 * WINDOW_LEN]
    kept = [l for l in lines if not l.startswith("slow_burst,")] + short
    csv_path = tmp_path / "short_class.csv"
    csv_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    rc = cli.main(
        [
            "evaluate",
            "--data", str(csv_path),
            "--rate", str(RATE),
            "--folds", "5",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "{'slow_burst': 2}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "header, flags, message",
    [
        ("label,ax,ax", [], "header repeats column(s) ['ax']"),
        ("label,ax,ay", ["--channels", "ax,ay,ax"], "repeat a name"),
        (
            "label,subject,ax",
            ["--channels", "ax,subject", "--subject-column", "subject"],
            "subject column 'subject' cannot also be a channel",
        ),
        (
            "label,subject,ax",
            ["--label-column", "subject", "--subject-column", "subject"],
            "cannot be both label and subject",
        ),
    ],
)
def test_repeated_column_exits_two(tmp_path, capsys, header, flags, message):
    csv_path = tmp_path / "repeated.csv"
    csv_path.write_text(f"{header}\nwalk,1,2\n", encoding="utf-8")
    rc = cli.main(
        ["train", "--data", str(csv_path), "--rate", "8", "--out-dir", str(tmp_path), *flags]
    )
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, code",
    [("lhn-fit", "--params", 1), ("train", "--data", 1), ("train", "--config", 2)],
    ids=["model-file", "csv", "config-file"],
)
def test_file_that_is_not_utf8_is_named(command, flag, code, tmp_path, data_csv, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("label,ax,ay\nmarch\xe9,1,2\n".encode("latin-1"))
    common = ["--data", str(data_csv), "--rate", str(RATE), "--out-dir", str(tmp_path)]
    assert cli.main([command, *common, flag, str(bad)]) == code
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rate", "nan"], "sampling_rate_hz must be positive and finite, got nan"),
        (["--rate", "inf"], "sampling_rate_hz must be positive and finite, got inf"),
        (["--window-seconds", "nan"], "window of nan s at 8.0 Hz is not a finite sample count"),
        (["--window-seconds", "inf"], "window of inf s at 8.0 Hz is not a finite sample count"),
    ],
    ids=["rate-nan", "rate-inf", "window-nan", "window-inf"],
)
def test_non_finite_rate_or_window_exits_two(flags, message, tmp_path, data_csv, capsys):
    argv = ["train", "--data", str(data_csv), "--rate", str(RATE), "--out-dir", str(tmp_path)]
    assert cli.main([*argv, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "convnet1.params.json").exists()


@pytest.mark.parametrize(
    "flag, value", [("--learning-rate", "nan"), ("--learning-rate", "inf"), ("--momentum", "inf")]
)
def test_non_finite_training_rate_exits_two(flag, value, tmp_path, data_csv, capsys):
    out_dir, log = tmp_path / "out", tmp_path / "train.log"
    argv = ["train", "--data", str(data_csv), "--rate", str(RATE), "--out-dir", str(out_dir),
            "--log-file", str(log)]
    assert cli.main([*argv, "--epochs", "1", "--batch-size", "16", flag, value]) == 2
    name = flag[2:].replace("-", "_")
    assert f"training needs a finite {name}, got {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # neither the out dir nor an empty log


def test_config_file_with_a_byte_order_mark(data_csv, tmp_path, capsys):
    config = tmp_path / "bom.cfg"
    config.write_text(f"\ufeffepochs = 1\ndata = {data_csv}\nrate = {RATE}\n", encoding="utf-8")
    assert config.read_bytes().startswith(b"\xef\xbb\xbf")
    assert cli.main(["train", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    epoch_lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert len(epoch_lines) == 1  # the first key, after the mark, was read


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, **env):
    """Run code in a fresh interpreter that finds this package, no BLAS variable set but env."""
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS + ("LHN_THREADS",)}
    base["PYTHONPATH"] = str(Path(latenthypernet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split()


def test_importing_cli_loads_no_numpy():
    assert run_python("import sys, latenthypernet.cli; print('numpy' in sys.modules)") == ["False"]


def test_no_module_loads_scipy():
    code = (
        "import sys\n"
        "from latenthypernet import cli, convnet, evaluation, fileio, ingest, lhn, pls, synthetic\n"
        "evaluation.timing_stats([1.0, 1.1, 0.9], [1.2, 1.0, 1.1])\n"
        "print('scipy' in sys.modules)"
    )
    assert run_python(code) == ["False"]


PRINT_THREAD_VARS = f"import os, latenthypernet; print(*map(os.environ.get, {_THREAD_VARS!r}))"


def test_lhn_threads_caps_blas_on_package_import():
    assert run_python(PRINT_THREAD_VARS, LHN_THREADS="3") == ["3", "3", "3"]


def test_thread_variable_already_set_wins_over_lhn_threads():
    printed = run_python(PRINT_THREAD_VARS, LHN_THREADS="3", OPENBLAS_NUM_THREADS="2")
    assert printed == ["3", "2", "3"]
