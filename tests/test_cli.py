import hashlib

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
