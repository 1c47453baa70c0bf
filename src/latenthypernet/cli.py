"""Command-line entry point.

Subcommands: train, lhn-fit, evaluate, benchmark-time, project. Every
setting is one RunConfig field, declared once: its default, its parser, its
help and its choices. build_parser turns each field a command takes into a
--flag whose help shows the default, and a --config file takes the same
names as `key = value` lines (dashes or underscores, # comments).

Settings resolve in precedence order: explicit flags, then LHN_OUT_DIR
(output directory only), then the --config file, then the field defaults.
A setting's bounds are checked by the library code that uses it, not here.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.

Heavy modules are imported inside the command handlers, so `lhn --help`
loads no numpy.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

from .errors import (
    ArchitectureError,
    InputError,
    LhnError,
    ParameterError,
    SchemaError,
)

_USAGE_ERRORS = (ParameterError, SchemaError, ArchitectureError, InputError)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse {text!r} as a boolean")


def _parse_channels(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _setting(default, help: str, parse=str, choices=None):
    """A RunConfig field; `parse` reads both its --flag value and its config-file value."""
    return field(default=default, metadata={"parse": parse, "help": help, "choices": choices})


_ARCHES = ("convnet1", "convnet2", "convnet3")  # convnet.PRESET_CONV_STAGES would load numpy


@dataclass
class RunConfig:
    """Fully resolved settings; each command reads the fields it needs.

    A setting parsed by _parse_bool is a switch: its flag takes no value.
    """

    data: str | None = _setting(None, "input CSV path")
    rate: float | None = _setting(None, "sampling rate of the CSV rows in Hz", float)
    label_column: str = _setting("label", "label column name")
    subject_column: str | None = _setting(None, "optional subject column name")
    channels: tuple[str, ...] | None = _setting(
        None, "comma-separated channel columns; all others when unset", _parse_channels
    )
    window_seconds: float = _setting(5.0, "window length in seconds", float)
    stride: int | None = _setting(None, "window stride in samples; window length when unset", int)
    arch: str = _setting("convnet1", "architecture preset", choices=_ARCHES)
    epochs: int = _setting(50, "training epochs", int)
    batch_size: int = _setting(32, "mini-batch size", int)
    learning_rate: float = _setting(0.01, "SGD learning rate", float)
    momentum: float = _setting(0.9, "SGD momentum", float)
    components: int = _setting(19, "latent components per pool layer", int)
    seed: int = _setting(0, "master random seed", int)
    folds: int = _setting(10, "number of cross-validation folds", int)
    runs: int = _setting(30, "timed passes per system", int)
    out_dir: str = _setting(".", "output directory; env LHN_OUT_DIR beats the config file")
    no_reduction: bool = _setting(False, "classify z-scored raw taps, not projections", _parse_bool)
    layers: str = _setting(
        "last", "project the last pool layer, or a fresh fit on all taps", choices=("last", "all")
    )
    params: str | None = _setting(None, "trained params file from `lhn train`")
    lhn_model: str | None = _setting(None, "fitted latent hypernet file from `lhn lhn-fit`")
    out: str | None = _setting(
        None,
        "output file; when unset OUT_DIR/ARCH.params.json (train), "
        "OUT_DIR/ARCH.lhn.json (lhn-fit) or OUT_DIR/projection_LAYERS.csv (project)",
    )
    log_file: str | None = _setting(None, "epoch,loss,train_recall lines go here, not stdout")


_SETTINGS = {f.name: f for f in fields(RunConfig)}


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ParameterError(
                f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})"
            ) from None
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"{path}: line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _SETTINGS:
                raise ParameterError(f"{path}: line {line_no}: unknown key {key!r}")
            meta = _SETTINGS[key].metadata
            try:
                values[key] = meta["parse"](value)
            except ValueError:
                raise ParameterError(
                    f"{path}: line {line_no}: bad value {value!r} for {key}"
                ) from None
            if meta["choices"] and values[key] not in meta["choices"]:
                raise ParameterError(
                    f"{path}: line {line_no}: {key} must be one of {', '.join(meta['choices'])}"
                )
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    config_path = getattr(args, "config", None)
    merged = _read_config_file(config_path) if config_path else {}
    env_out = os.environ.get("LHN_OUT_DIR")
    if env_out:
        merged["out_dir"] = env_out
    merged.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    return RunConfig(**merged)


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise ParameterError(f"{what} path is required")
    if not os.path.exists(path):
        raise InputError(f"{what} file not found: {path}")
    return path


def _load_dataset(cfg: RunConfig, config=None):
    """The windowed CSV; given the network's config, windows of another shape exit 2."""
    from . import ingest

    path = _require_file(cfg.data, "data")
    if cfg.rate is None:
        raise ParameterError("--rate (sampling rate in Hz) is required")
    schema = ingest.CsvSchema(
        channel_columns=cfg.channels or None,  # unset or empty: every other column
        sampling_rate_hz=cfg.rate,
        label_column=cfg.label_column,
        subject_column=cfg.subject_column,
    )
    dataset = ingest.build_dataset(ingest.load_csv(path, schema), cfg.window_seconds, cfg.stride)
    if config and (dataset.window_len, dataset.channels) != (config.input_h, config.input_w):
        raise ParameterError(
            f"data windows are {dataset.window_len}x{dataset.channels} but "
            f"{cfg.params} expects {config.input_h}x{config.input_w}"
        )
    return dataset


def _training_config(cfg: RunConfig):
    from .convnet import TrainingConfig

    return TrainingConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        seed=cfg.seed,
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
    lhn.check_pair(model, params, config, f"{model_path} with {params_path}")
    return params, config, model


def cmd_train(cfg: RunConfig) -> int:
    from . import convnet

    hyper = _training_config(cfg)  # refused settings exit before any file is made
    dataset = _load_dataset(cfg)
    config = convnet.preset(cfg.arch, dataset.window_len, dataset.channels, dataset.n_classes)
    out = _out_path(cfg, f"{cfg.arch}.params.json")
    log_fh = open(cfg.log_file, "w", encoding="utf-8") if cfg.log_file else sys.stdout
    try:
        params = convnet.train(config, dataset, hyper, log_stream=log_fh)
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
    dataset = _load_dataset(cfg, config)
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
    dataset = _load_dataset(cfg, config)
    report = evaluation.timing_benchmark(
        lambda w: convnet.predict(params, config, w),
        lambda w: lhn.lhn_predict(model, params, config, w),
        dataset,
        runs=cfg.runs,
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = [["run", "system", "mean_prediction_seconds"]]
    for r in range(report.runs):
        rows.append([r, "convnet", repr(float(report.samples_a[r]))])
        rows.append([r, "lhn", repr(float(report.samples_b[r]))])
    runs_path = os.path.join(cfg.out_dir, "timing.csv")
    write_csv(runs_path, rows)

    t_test = [repr(float(report.t_statistic)), repr(float(report.critical_value)), report.verdict]
    rows = [
        ["system", "mean_seconds", "ci95_half_width", "t_statistic", "critical_value", "verdict"],
        ["convnet", repr(float(report.mean_a)), repr(float(report.ci_half_a)), *t_test],
        ["lhn", repr(float(report.mean_b)), repr(float(report.ci_half_b)), *t_test],
    ]
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
    dataset = _load_dataset(cfg, config)
    out = _out_path(cfg, f"projection_{cfg.layers}.csv")
    rows = lhn.export_projection(
        model, params, config, dataset, layer_selector=cfg.layers, out_path=out
    )
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


_COMMON = ("out_dir", "data", "rate", "label_column", "subject_column", "channels",
           "window_seconds", "stride")
# what _training_config reads; seed is here because only the training commands draw one
_TRAINING = ("epochs", "batch_size", "learning_rate", "momentum", "seed")

# command -> (handler, summary, the RunConfig settings it takes as flags, in help order)
_COMMANDS = {
    "train": (cmd_train, "train a convnet and save its parameters",
              (*_COMMON, *_TRAINING, "arch", "out", "log_file")),
    "lhn-fit": (cmd_lhn_fit, "fit a latent hypernet on frozen network parameters",
                (*_COMMON, *_TRAINING, "params", "components", "no_reduction", "out")),
    "evaluate": (cmd_evaluate, "k-fold cross-validation of convnet vs latent hypernet",
                 (*_COMMON, *_TRAINING, "arch", "components", "folds", "no_reduction")),
    "benchmark-time": (cmd_benchmark_time, "compare per-window prediction time statistically",
                       (*_COMMON, "params", "lhn_model", "runs")),
    "project": (cmd_project, "export a two-component latent scatter as CSV",
                (*_COMMON, "params", "lhn_model", "layers", "out")),
}


def _flag_help(setting) -> str:
    # `is`, not `in (None, False)`: seed's default 0 == False
    if setting.default is None or setting.default is False:
        return setting.metadata["help"]
    return f"{setting.metadata['help']} (default: {setting.default})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhn",
        description="Train convnets on windowed sensor data and build latent hypernets on top.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")
    for command, (handler, summary, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=handler)
        p.add_argument("--config", help="file of key = value settings; flags override it")
        for name in names:
            setting = _SETTINGS[name]
            flag, meta = "--" + name.replace("_", "-"), setting.metadata
            if meta["parse"] is _parse_bool:
                p.add_argument(flag, action="store_const", const=True, help=_flag_help(setting))
            else:
                p.add_argument(
                    flag, type=meta["parse"], choices=meta["choices"], help=_flag_help(setting)
                )
    return parser


def main(argv=None) -> int:
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
