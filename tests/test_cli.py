import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from latenthypernet import cli, lhn, synthetic

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
    "--config", "--seed", "--out-dir", "--data", "--rate", "--label-column",
    "--subject-column", "--channels", "--window-seconds", "--stride",
}
TRAINING_FLAGS = {"--epochs", "--batch-size", "--learning-rate", "--momentum"}
FLAGS = {
    "train": COMMON_FLAGS | TRAINING_FLAGS | {"--arch", "--out", "--log-file"},
    "lhn-fit": COMMON_FLAGS
    | TRAINING_FLAGS
    | {"--params", "--components", "--no-reduction", "--out"},
    "evaluate": COMMON_FLAGS
    | TRAINING_FLAGS
    | {"--arch", "--components", "--folds", "--no-reduction"},
    "benchmark-time": COMMON_FLAGS | {"--params", "--lhn-model", "--runs", "--welch"},
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
    "welch": (None, True),
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
    assert "(default: 0)" in text  # --seed


def test_config_file_value_outside_choices_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("arch = convnet9\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "arch must be one of convnet1, convnet2, convnet3" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("evaluate", "folds"), ("benchmark-time", "runs")])
def test_folds_and_runs_need_two(command, flag, capsys):
    assert cli.main([command, f"--{flag}", "1"]) == 2
    assert f"{flag} must be >= 2" in capsys.readouterr().err


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
