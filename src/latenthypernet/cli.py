"""Command-line entry point.

Subcommands: train, lhn-fit, evaluate, benchmark-time, project. Settings
resolve in precedence order: explicit flags, then LHN_OUT_DIR (output
directory only), then a --config file of key=value lines, then package
defaults. Exit codes: 0 success, 1 runtime failure, 2 usage/config error.

Heavy modules are imported inside the command handlers so LHN_THREADS can
cap the BLAS thread pool before numpy loads.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields

from .errors import (
    ArchitectureError,
    InputError,
    LhnError,
    ParameterError,
    SchemaError,
)

_USAGE_ERRORS = (ParameterError, SchemaError, ArchitectureError, InputError)


@dataclass
class RunConfig:
    """Fully resolved settings; each command reads the fields it needs."""

    data: str | None = None
    rate: float | None = None
    label_column: str = "label"
    subject_column: str | None = None
    channels: tuple[str, ...] | None = None
    window_seconds: float = 5.0
    stride: int | None = None
    arch: str = "convnet1"
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    components: int = 19
    seed: int = 0
    folds: int = 10
    runs: int = 30
    out_dir: str = "."
    no_reduction: bool = False
    welch: bool = False
    layers: str = "last"
    params: str | None = None
    lhn_model: str | None = None
    out: str | None = None
    log_file: str | None = None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"cannot parse {text!r} as a boolean")


_FIELD_PARSERS = {
    "rate": float,
    "window_seconds": float,
    "learning_rate": float,
    "momentum": float,
    "stride": int,
    "epochs": int,
    "batch_size": int,
    "seed": int,
    "components": int,
    "folds": int,
    "runs": int,
    "no_reduction": _parse_bool,
    "welch": _parse_bool,
}

_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"{path}: line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _KNOWN_KEYS:
                raise ParameterError(f"{path}: line {line_no}: unknown key {key!r}")
            parser = _FIELD_PARSERS.get(key, str)
            try:
                values[key] = parser(value)
            except ValueError:
                raise ParameterError(
                    f"{path}: line {line_no}: bad value {value!r} for {key}"
                ) from None
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(_read_config_file(config_path))
    env_out = os.environ.get("LHN_OUT_DIR")
    if env_out:
        merged["out_dir"] = env_out
    for key, value in vars(args).items():
        if key in _KNOWN_KEYS and value is not None:
            merged[key] = value
    if isinstance(merged.get("channels"), str):
        merged["channels"] = tuple(c.strip() for c in merged["channels"].split(",") if c.strip())
    cfg = RunConfig(**merged)
    if cfg.window_seconds <= 0:
        raise ParameterError("window-seconds must be positive")
    if cfg.stride is not None and cfg.stride < 1:
        raise ParameterError("stride must be a positive integer")
    for name in ("epochs", "batch_size", "components", "folds", "runs"):
        if getattr(cfg, name) < 1:
            raise ParameterError(f"{name.replace('_', '-')} must be >= 1")
    return cfg


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise ParameterError(f"{what} path is required")
    if not os.path.exists(path):
        raise InputError(f"{what} file not found: {path}")
    return path


def _infer_channels(path: str, label_column: str, subject_column: str | None) -> tuple[str, ...]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InputError(f"{path}: file is empty") from None
    skip = {label_column, subject_column}
    channels = tuple(h.strip() for h in header if h.strip() not in skip)
    if not channels:
        raise SchemaError(f"{path}: no channel columns besides {label_column!r}")
    return channels


def _load_dataset(cfg: RunConfig):
    from . import ingest

    path = _require_file(cfg.data, "data")
    if cfg.rate is None:
        raise ParameterError("--rate (sampling rate in Hz) is required")
    channels = cfg.channels or _infer_channels(path, cfg.label_column, cfg.subject_column)
    schema = ingest.CsvSchema(
        channel_columns=channels,
        sampling_rate_hz=cfg.rate,
        label_column=cfg.label_column,
        subject_column=cfg.subject_column,
    )
    recordings = ingest.load_csv(path, schema)
    return ingest.build_dataset(recordings, cfg.window_seconds, cfg.stride)


def _training_config(cfg: RunConfig, seed: int | None = None):
    from .convnet import TrainingConfig

    return TrainingConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        seed=cfg.seed if seed is None else seed,
    )


def _out_path(cfg: RunConfig, default_name: str) -> str:
    if cfg.out:
        return cfg.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, default_name)


def _load_lhn_pair(cfg: RunConfig):
    from . import convnet, lhn

    params_path = _require_file(cfg.params, "params")
    model_path = _require_file(cfg.lhn_model, "lhn-model")
    params, config = convnet.load_params(params_path)
    model = lhn.load_lhn(model_path)
    if model.config_digest != convnet.config_digest(config):
        raise ParameterError(
            f"{model_path} was fitted for architecture {model.config_name!r}, "
            f"which does not match {params_path}"
        )
    if model.params_digest != convnet.params_digest(params):
        raise ParameterError(
            f"{model_path} was fitted on other weights than those in {params_path}"
        )
    return params, config, model


def _require_windows(dataset, config, params_path: str) -> None:
    """Refuse (exit 2) data whose windows are not the shape the network was built for."""
    if dataset.window_len != config.input_h or dataset.channels != config.input_w:
        raise ParameterError(
            f"data windows are {dataset.window_len}x{dataset.channels} but "
            f"{params_path} expects {config.input_h}x{config.input_w}"
        )


def cmd_train(cfg: RunConfig) -> int:
    from . import convnet

    dataset = _load_dataset(cfg)
    config = convnet.preset(cfg.arch, dataset.window_len, dataset.channels, dataset.n_classes)
    out = _out_path(cfg, f"{cfg.arch}.params.json")
    log_fh = open(cfg.log_file, "w", encoding="utf-8") if cfg.log_file else sys.stdout
    try:
        params = convnet.train(config, dataset, _training_config(cfg), log_stream=log_fh)
    finally:
        if cfg.log_file:
            log_fh.close()
    convnet.save_params(params, config, out)
    print(f"wrote {out}")
    return 0


def cmd_lhn_fit(cfg: RunConfig) -> int:
    from . import convnet, lhn

    params_path = _require_file(cfg.params, "params")
    params, config = convnet.load_params(params_path)
    dataset = _load_dataset(cfg)
    _require_windows(dataset, config, params_path)
    model = lhn.lhn_fit(
        params,
        config,
        dataset,
        components=cfg.components,
        classifier=_training_config(cfg),
        reduce=not cfg.no_reduction,
    )
    out = _out_path(cfg, f"{config.name}.lhn.json")
    lhn.save_lhn(model, out)
    print(f"wrote {out} (latent width {model.latent_width})")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    from . import convnet, evaluation
    from .fileio import write_csv

    dataset = _load_dataset(cfg)
    config = convnet.preset(cfg.arch, dataset.window_len, dataset.channels, dataset.n_classes)
    result = evaluation.run_cv(
        dataset,
        config,
        hyper=_training_config(cfg),
        components=cfg.components,
        seed=cfg.seed,
        folds=cfg.folds,
        reduce=not cfg.no_reduction,
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = [["fold", "system", "recall"]]
    for fold in range(result.folds):
        rows.append([fold, "convnet", f"{result.baseline_recalls[fold]:.6f}"])
        rows.append([fold, "lhn", f"{result.lhn_recalls[fold]:.6f}"])
    folds_path = os.path.join(cfg.out_dir, "cv_folds.csv")
    write_csv(folds_path, rows)

    summary_path = os.path.join(cfg.out_dir, "cv_summary.csv")
    write_csv(
        summary_path,
        [
            ["system", "mean_recall", "improvement_pp"],
            ["convnet", f"{result.mean_baseline:.6f}", ""],
            ["lhn", f"{result.mean_lhn:.6f}", f"{result.improvement_pp:.4f}"],
        ],
    )

    print(f"convnet mean recall: {result.mean_baseline:.4f}")
    print(f"lhn mean recall:     {result.mean_lhn:.4f}")
    print(f"improvement:         {result.improvement_pp:+.2f} p.p.")
    print(f"wrote {folds_path} and {summary_path}")
    return 0


def cmd_benchmark_time(cfg: RunConfig) -> int:
    from . import convnet, evaluation, lhn
    from .fileio import write_csv

    params, config, model = _load_lhn_pair(cfg)
    dataset = _load_dataset(cfg)
    _require_windows(dataset, config, cfg.params)
    report = evaluation.timing_benchmark(
        lambda w: convnet.predict(params, config, w),
        lambda w: lhn.lhn_predict(model, params, config, w),
        dataset,
        runs=cfg.runs,
        welch=cfg.welch,
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = [["run", "system", "mean_prediction_seconds"]]
    for r in range(report.runs):
        rows.append([r, "convnet", repr(float(report.samples_a[r]))])
        rows.append([r, "lhn", repr(float(report.samples_b[r]))])
    runs_path = os.path.join(cfg.out_dir, "timing.csv")
    write_csv(runs_path, rows)

    rows = [["system", "mean_seconds", "ci95_half_width", "t_statistic", "critical_value", "verdict"]]
    for system, mean, half in (
        ("convnet", report.mean_a, report.ci_half_a),
        ("lhn", report.mean_b, report.ci_half_b),
    ):
        rows.append(
            [
                system,
                repr(float(mean)),
                repr(float(half)),
                repr(float(report.t_statistic)),
                repr(float(report.critical_value)),
                report.verdict,
            ]
        )
    summary_path = os.path.join(cfg.out_dir, "timing_summary.csv")
    write_csv(summary_path, rows)

    print(
        f"prediction time: {report.verdict} "
        f"(|t| = {abs(report.t_statistic):.4f}, critical = {report.critical_value:.4f})"
    )
    print(f"wrote {runs_path} and {summary_path}")
    return 0


def cmd_project(cfg: RunConfig) -> int:
    from . import lhn

    params, config, model = _load_lhn_pair(cfg)
    dataset = _load_dataset(cfg)
    _require_windows(dataset, config, cfg.params)
    out = _out_path(cfg, f"projection_{cfg.layers}.csv")
    rows = lhn.export_projection(
        model, params, config, dataset, layer_selector=cfg.layers, out_path=out
    )
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value settings file; flags override it")
    p.add_argument("--seed", type=int, help="master random seed (default 0)")
    p.add_argument("--out-dir", help="output directory (default .; env LHN_OUT_DIR overrides)")


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input CSV path")
    p.add_argument("--rate", type=float, help="sampling rate of the CSV rows in Hz")
    p.add_argument("--label-column", help="label column name (default: label)")
    p.add_argument("--subject-column", help="optional subject column name")
    p.add_argument("--channels", help="comma-separated channel columns (default: all others)")
    p.add_argument("--window-seconds", type=float, help="window length in seconds (default: 5)")
    p.add_argument("--stride", type=int, help="window stride in samples (default: window length)")


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, help="training epochs (default: 50)")
    p.add_argument("--batch-size", type=int, help="mini-batch size (default: 32)")
    p.add_argument("--learning-rate", type=float, help="SGD learning rate (default: 0.01)")
    p.add_argument("--momentum", type=float, help="SGD momentum (default: 0.9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhn",
        description="Train convnets on windowed sensor data and build latent hypernets on top.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("train", help="train a convnet and save its parameters")
    _add_common(p)
    _add_data(p)
    _add_training(p)
    p.add_argument("--arch", choices=("convnet1", "convnet2", "convnet3"),
                   help="architecture preset (default: convnet1)")
    p.add_argument("--out", help="params file path (default: OUT_DIR/ARCH.params.json)")
    p.add_argument("--log-file", help="write epoch,loss,train_recall lines here instead of stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("lhn-fit", help="fit a latent hypernet on frozen network parameters")
    _add_common(p)
    _add_data(p)
    _add_training(p)
    p.add_argument("--params", help="trained params file from `lhn train`")
    p.add_argument("--components", type=int, help="latent components per pool layer (default: 19)")
    p.add_argument("--no-reduction", action="store_const", const=True,
                   help="skip the projections and feed z-scored raw taps to the classifier")
    p.add_argument("--out", help="model file path (default: OUT_DIR/ARCH.lhn.json)")
    p.set_defaults(func=cmd_lhn_fit)

    p = sub.add_parser("evaluate", help="k-fold cross-validation of convnet vs latent hypernet")
    _add_common(p)
    _add_data(p)
    _add_training(p)
    p.add_argument("--arch", choices=("convnet1", "convnet2", "convnet3"),
                   help="architecture preset (default: convnet1)")
    p.add_argument("--components", type=int, help="latent components per pool layer (default: 19)")
    p.add_argument("--folds", type=int, help="number of folds (default: 10)")
    p.add_argument("--no-reduction", action="store_const", const=True,
                   help="evaluate the raw-concatenation ablation instead of the projection")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark-time", help="compare per-window prediction time statistically")
    _add_common(p)
    _add_data(p)
    p.add_argument("--params", help="trained params file")
    p.add_argument("--lhn-model", help="fitted latent hypernet file")
    p.add_argument("--runs", type=int, help="timed passes per system (default: 30)")
    p.add_argument("--welch", action="store_const", const=True,
                   help="use the unequal-variance t-test")
    p.set_defaults(func=cmd_benchmark_time)

    p = sub.add_parser("project", help="export a two-component latent scatter as CSV")
    _add_common(p)
    _add_data(p)
    p.add_argument("--params", help="trained params file")
    p.add_argument("--lhn-model", help="fitted latent hypernet file")
    p.add_argument("--layers", choices=("last", "all"),
                   help="project the last pool layer or a fresh fit on all taps (default: last)")
    p.add_argument("--out", help="output CSV path (default: OUT_DIR/projection_LAYERS.csv)")
    p.set_defaults(func=cmd_project)

    return parser


def _apply_thread_env() -> None:
    threads = os.environ.get("LHN_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def main(argv=None) -> int:
    _apply_thread_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help()
        return 2
    try:
        cfg = _resolve(args)
        return args.func(cfg)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LhnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
