"""The benchmark's workloads: set-up, one operation, correctness checks, metrics.

Every workload reads its windows the way a user's data arrives: set-up writes
the seed's synthetic recordings as CSV and reads them back through `ingest`.

cv          `evaluation.run_cv` on the acceptance data shape (600 windows of
            64x2, convnet1, 19 components), with folds and epochs cut so that
            several cross-validations fit in one run. Network training
            (batch-32 conv forward and backward) does most of the work.
online      One caller in a closed loop predicts held-out convnet1 windows one
            at a time. It alternates `convnet.predict` and `lhn.lhn_predict`
            on the same window, so drift in machine speed hits both. Batch-1
            forward and the latent head do the work; nothing is fitted.
latent-fit  `lhn.lhn_fit` on a frozen convnet3 over 800 windows of 128x2,
            then batched predict of both systems over the same windows. The
            four taps are 2784, 1472, 720 and 384 wide, so NIPALS dominates.
"""
from __future__ import annotations

import math
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from latenthypernet import convnet, evaluation, ingest, lhn, pls, synthetic
from latenthypernet.convnet import TrainingConfig

from tracer import Tracer, instrument, roots, self_times, summarize

MODULES = (convnet, pls, lhn, evaluation, ingest)
RATE_HZ = 32.0
SCHEMA = ingest.CsvSchema(channel_columns=("ax", "ay"), sampling_rate_hz=RATE_HZ)
COMPONENTS = 19
SETUP_REPEATS = 3
TRACE_BLOCKS = 8  # untraced and traced blocks a traced run alternates


@dataclass(frozen=True)
class Shape:
    """Input size and training budget of one workload."""

    windows: int
    window_len: int
    arch: str
    epochs: int  # network training
    head_epochs: int  # latent classifier training
    folds: int = 3  # cv folds; online holds out one fold of this many
    # Above the library's 0.01: with a handful of epochs the slower rate
    # leaves recall depending strongly on the seed. convnet3 needs less than
    # convnet1; at 0.05 some seeds collapse to one class.
    learning_rate: float = 0.05
    predict_batch: int = 100  # windows per batched predict call (latent-fit)
    probe_windows: int = 32


FULL = {
    "cv": Shape(600, 64, "convnet1", epochs=8, head_epochs=8),
    "online": Shape(600, 64, "convnet1", epochs=10, head_epochs=20, folds=5),
    "latent-fit": Shape(800, 128, "convnet3", epochs=2, head_epochs=50, learning_rate=0.02),
}

# A few seconds in all; used by the benchmark's own tests.
TINY = {
    "cv": Shape(40, 64, "convnet1", epochs=1, head_epochs=1, folds=2, probe_windows=16),
    "online": Shape(40, 64, "convnet1", epochs=1, head_epochs=1, folds=4, probe_windows=16),
    "latent-fit": Shape(
        40, 128, "convnet3", epochs=1, head_epochs=1, predict_batch=20, probe_windows=16
    ),
}


class Tally:
    """Operations attempted and failed; a failure raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def error(self, exc: BaseException) -> None:
        self.attempted += 1
        self._fail("".join(traceback.format_exception(exc)).rstrip())

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(what)


def subset(dataset: ingest.Dataset, indices) -> ingest.Dataset:
    return ingest.Dataset(
        windows=tuple(dataset.windows[i] for i in indices),
        class_names=dataset.class_names,
        channels=dataset.channels,
    )


def macro_recall(y_true, y_pred, n_classes: int) -> float:
    return evaluation.recall_macro(evaluation.confusion_matrix(y_true, y_pred, n_classes))


def percentiles(samples, qs) -> list[float]:
    return [float(v) for v in np.percentile(np.asarray(samples), qs)]


class Workload:
    """One workload: `setup` builds the state, `step` runs one operation."""

    name = ""
    # Tail percentile of predict time. A cv or latent-fit run makes only
    # ~15-50 batched calls, where p95 would rest on one or two of them;
    # online makes thousands of single-window calls.
    tail_percentile = 75

    def __init__(self, shape: Shape, seed: int, workdir: str, tally: Tally):
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.params = None
        self.model = None
        self.reset_samples()

    def reset_samples(self) -> None:
        self.wall: list[float] = []  # seconds of the workload's main call
        self.convnet_us: list[float] = []  # per-window predict time
        self.lhn_us: list[float] = []

    def load_windows(self) -> ingest.Dataset:
        s = self.shape
        path = f"{self.workdir}/{self.name}-{self.seed}.csv"
        synthetic.write_synthetic_csv(
            path, s.windows, s.window_len, seed=self.seed, sampling_rate_hz=RATE_HZ
        )
        recordings = ingest.load_csv(path, SCHEMA)
        dataset = ingest.build_dataset(recordings, s.window_len / RATE_HZ)
        expected = synthetic.make_synthetic_dataset(s.windows, s.window_len, seed=self.seed)
        self.tally.check(
            np.array_equal(dataset.stacked(), expected.stacked())
            and np.array_equal(dataset.labels(), expected.labels()),
            "windows read back through ingest differ from the generated ones",
        )
        self.config = convnet.preset(s.arch, s.window_len, dataset.channels, dataset.n_classes)
        return dataset

    def training(self, epochs: int, seed: int) -> TrainingConfig:
        return TrainingConfig(epochs=epochs, learning_rate=self.shape.learning_rate, seed=seed)

    def end_to_end(self) -> dict[str, float]:
        recall_convnet, recall_lhn = self.recalls()
        tail = (50, self.tail_percentile)
        c50, c_tail = percentiles(self.convnet_us, tail)
        l50, l_tail = percentiles(self.lhn_us, tail)
        return {
            "wall_s": statistics.median(self.wall),
            "recall_convnet": recall_convnet,
            "recall_lhn": recall_lhn,
            "convnet_predict_p50_us": c50,
            "convnet_predict_tail_us": c_tail,
            "lhn_predict_p50_us": l50,
            "lhn_predict_tail_us": l_tail,
            "lhn_predict_overhead": l50 / c50,
        }

    def key_samples(self) -> list[float]:
        """The timing whose traced over untraced median is the tracing overhead."""
        return self.wall

    def probe_inputs(self):
        """Network weights, latent model and windows for the batch-1 probe."""
        return self.params, self.model, self.dataset


class Cv(Workload):
    name = "cv"

    def setup(self) -> None:
        self.dataset = self.load_windows()

    def step(self) -> None:
        s = self.shape
        timer = Tracer()
        only = ("convnet.predict_dataset", "lhn.lhn_predict_dataset")
        with instrument(timer, (convnet, lhn), only=only):
            start = time.perf_counter()
            result = evaluation.run_cv(
                self.dataset,
                self.config,
                hyper=self.training(s.epochs, self.seed),
                components=COMPONENTS,
                seed=self.seed,
                folds=s.folds,
            )
            self.wall.append(time.perf_counter() - start)
        for span in timer.spans:
            samples = self.convnet_us if span.name == only[0] else self.lhn_us
            samples.append(1e6 * span.duration / span.counts["windows"])
        self.result = result
        chance = 1.0 / self.dataset.n_classes
        self.tally.check(
            all(math.isfinite(r) and r > chance for r in (result.mean_baseline, result.mean_lhn)),
            f"cv recalls {result.mean_baseline}, {result.mean_lhn} are not above chance",
        )

    def recalls(self) -> tuple[float, float]:
        return self.result.mean_baseline, self.result.mean_lhn

    def probe_inputs(self):
        # run_cv keeps its fold models to itself, so the probe builds its own.
        return None, None, self.dataset


class Online(Workload):
    name = "online"
    tail_percentile = 95

    def setup(self) -> None:
        s = self.shape
        dataset = self.load_windows()
        folds = evaluation.kfold_split(dataset.labels(), folds=s.folds, seed=self.seed)
        train = subset(dataset, folds.train_indices(0))
        self.dataset = held = subset(dataset, folds.test_indices(0))
        params = convnet.train(self.config, train, self.training(s.epochs, self.seed))
        model = lhn.lhn_fit(
            params,
            self.config,
            train,
            components=COMPONENTS,
            classifier=self.training(s.head_epochs, self.seed + 1),
        )

        params_path = f"{self.workdir}/online.params.json"
        model_path = f"{self.workdir}/online.lhn.json"
        convnet.save_params(params, self.config, params_path)
        self.params, config = convnet.load_params(params_path)
        lhn.save_lhn(model, model_path)
        self.model = lhn.load_lhn(model_path)
        self.tally.check(
            convnet.params_digest(self.params) == convnet.params_digest(params)
            and convnet.config_digest(config) == convnet.config_digest(self.config),
            "network weights changed in a save_params/load_params round trip",
        )
        self.tally.check(
            np.array_equal(self.model.classifier_weights, model.classifier_weights)
            and all(
                np.array_equal(a.weights, b.weights)
                for a, b in zip(self.model.pls_models, model.pls_models)
            ),
            "latent model changed in a save_lhn/load_lhn round trip",
        )

        self.windows = [w.values for w in held.windows]
        self.labels = held.labels()
        self.expected = {
            "convnet": convnet.predict_dataset(self.params, self.config, held),
            "lhn": lhn.lhn_predict_dataset(self.model, self.params, self.config, held),
        }
        self.calls = 0

    def reset_samples(self) -> None:
        super().reset_samples()
        self.predicted = {"convnet": [], "lhn": []}
        self.truth: list[int] = []

    def step(self) -> None:
        i = self.calls % len(self.windows)
        window = self.windows[i]
        order = ("convnet", "lhn") if self.calls % 2 == 0 else ("lhn", "convnet")
        self.calls += 1
        start = time.perf_counter()
        for system in order:
            t0 = time.perf_counter()
            if system == "convnet":
                label = convnet.predict(self.params, self.config, window)
                self.convnet_us.append(1e6 * (time.perf_counter() - t0))
            else:
                label = lhn.lhn_predict(self.model, self.params, self.config, window)
                self.lhn_us.append(1e6 * (time.perf_counter() - t0))
            self.predicted[system].append(label)
            self.tally.check(
                label == self.expected[system][i],
                f"{system}: window {i} predicts {label} alone, "
                f"{self.expected[system][i]} in a batch",
            )
        self.wall.append(time.perf_counter() - start)
        self.truth.append(int(self.labels[i]))

    def recalls(self) -> tuple[float, float]:
        k = self.config.n_classes
        return tuple(macro_recall(self.truth, self.predicted[s], k) for s in ("convnet", "lhn"))

    def key_samples(self) -> list[float]:
        return self.lhn_us


class LatentFit(Workload):
    name = "latent-fit"

    def setup(self) -> None:
        s = self.shape
        self.dataset = self.load_windows()
        self.params = convnet.train(self.config, self.dataset, self.training(s.epochs, self.seed))
        self.digest = convnet.params_digest(self.params)
        n = len(self.dataset)
        self.batches = [
            subset(self.dataset, range(start, min(start + s.predict_batch, n)))
            for start in range(0, n, s.predict_batch)
        ]

    def step(self) -> None:
        s = self.shape
        start = time.perf_counter()
        self.model = lhn.lhn_fit(
            self.params,
            self.config,
            self.dataset,
            components=COMPONENTS,
            classifier=self.training(s.head_epochs, self.seed + 1),
        )
        self.wall.append(time.perf_counter() - start)
        self.tally.check(
            convnet.params_digest(self.params) == self.digest,
            "lhn_fit changed the network parameters",
        )

        predicted = {"convnet": [], "lhn": []}
        for j, batch in enumerate(self.batches):
            order = ("convnet", "lhn") if j % 2 == 0 else ("lhn", "convnet")
            for system in order:
                t0 = time.perf_counter()
                if system == "convnet":
                    labels = convnet.predict_dataset(self.params, self.config, batch)
                    self.convnet_us.append(1e6 * (time.perf_counter() - t0) / len(batch))
                else:
                    labels = lhn.lhn_predict_dataset(self.model, self.params, self.config, batch)
                    self.lhn_us.append(1e6 * (time.perf_counter() - t0) / len(batch))
                predicted[system].append(labels)
        k = self.config.n_classes
        y = self.dataset.labels()
        self.last_recalls = tuple(
            macro_recall(y, np.concatenate(predicted[s]), k) for s in ("convnet", "lhn")
        )
        self.tally.check(
            all(r > 1.0 / k for r in self.last_recalls),
            f"batched predict recalls {self.last_recalls} are not above chance",
        )

    def recalls(self) -> tuple[float, float]:
        return self.last_recalls


WORKLOADS = {w.name: w for w in (Cv, Online, LatentFit)}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def drive(workload: Workload, seconds: float, tracer: Tracer | None = None) -> None:
    """Closed loop: run operations back to back until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        try:
            with tracer.span("bench.op") if tracer else nullcontext():
                workload.step()
        except Exception as exc:  # a failed operation is counted; measuring goes on
            workload.tally.error(exc)
        if time.perf_counter() >= deadline:
            break


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float, workdir: str, shape: Shape | None = None):
    """End-to-end metrics: set up several times (median), then the timed loop."""
    make = WORKLOADS[name]
    shape = shape or FULL[name]
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = make(shape, seed, workdir, tally)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    drive(workload, seconds)
    metrics = workload.end_to_end()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["ok_rate"] = (tally.attempted - tally.failed) / tally.attempted
    detail = {
        "setup_s_each": setups,
        "samples": {
            "wall_s": len(workload.wall),
            "convnet_predict": len(workload.convnet_us),
            "lhn_predict": len(workload.lhn_us),
        },
        "tail_percentile": workload.tail_percentile,
    }
    return metrics, tally, detail


def probe(tracer: Tracer, workload: Workload) -> None:
    """Call, at this workload's shapes, the layers its own loop may not call.

    Gives every per-layer metric a measured value on every workload: the
    batch-1 conv and pool primitives, single-window predict of both systems,
    a small cross-validation and the model files' round trips.
    """
    s = workload.shape
    params, model, dataset = workload.probe_inputs()
    config = workload.config
    labels = dataset.labels()
    per_class = max(2, s.probe_windows // dataset.n_classes)
    small = subset(
        dataset,
        np.concatenate([np.flatnonzero(labels == c)[:per_class] for c in range(dataset.n_classes)]),
    )
    hyper = TrainingConfig(epochs=1, seed=workload.seed)
    with tracer.span("probe.cv"):
        evaluation.run_cv(small, config, hyper=hyper, components=2, seed=workload.seed, folds=2)
    if params is None:
        params = convnet.init_params(config, workload.seed)
        model = lhn.lhn_fit(params, config, small, components=COMPONENTS, classifier=hyper)

    for window in small.windows:
        values = window.values
        convnet.predict(params, config, values)
        lhn.lhn_predict(model, params, config, values)
        trace = convnet.forward_with_taps(params, config, values)
        x, conv_i, pool_i = values[None], 0, 0
        for spec, out in zip(config.layers, trace.layer_outputs):
            if spec.kind == "conv":
                conv_i += 1
                with tracer.span(f"probe.conv{conv_i}"):
                    convnet.conv2d_forward(
                        x, params.conv_kernels[conv_i - 1], params.conv_biases[conv_i - 1]
                    )
            elif spec.kind == "maxpool":
                pool_i += 1
                with tracer.span(f"probe.pool{pool_i}"):
                    convnet.maxpool_forward(x)
            else:
                break
            x = out

    params_path = f"{workload.workdir}/probe.params.json"
    model_path = f"{workload.workdir}/probe.lhn.json"
    convnet.save_params(params, config, params_path)
    convnet.load_params(params_path)
    lhn.save_lhn(model, model_path)
    lhn.load_lhn(model_path)


def run_traced(name: str, seed: int, seconds: float, workdir: str, shape: Shape | None = None):
    """Per-layer metrics from a traced set-up, loop and probe.

    The loop alternates untraced and traced blocks, so drift in machine speed
    hits both; their ratio on the workload's key timing is the tracing overhead.
    """
    make = WORKLOADS[name]
    tally = Tally()
    workload = make(shape or FULL[name], seed, workdir, tally)
    tracer = Tracer()
    with instrument(tracer, MODULES), tracer.span("bench.setup"):
        workload.setup()
    keys: dict[bool, list[float]] = {False: [], True: []}
    traced = False
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not keys[True]:
        if traced:
            with instrument(tracer, MODULES), tracer.span("bench.loop"):
                drive(workload, seconds / TRACE_BLOCKS, tracer)
        else:
            drive(workload, seconds / TRACE_BLOCKS)
        keys[traced] += workload.key_samples()
        workload.reset_samples()
        traced = not traced
    with instrument(tracer, MODULES), tracer.span("bench.probe"):
        probe(tracer, workload)

    overhead = {
        "untraced": statistics.median(keys[False]),
        "traced": statistics.median(keys[True]),
    }
    overhead["ratio"] = overhead["traced"] / overhead["untraced"]
    analysis = TraceAnalysis(tracer.spans)
    metrics = analysis.per_layer()
    metrics["trace.overhead_ratio"] = overhead["ratio"]
    detail = {
        "overhead": overhead,
        "loop_accounting": analysis.loop_accounting(),
        "nipals_fit_s_by_tap": [
            statistics.mean(analysis.durations(tap)) for tap in analysis.nipals_by_tap()
        ],
        "spans": analysis.tables(),
    }
    return metrics, tally, detail, tracer.spans


class TraceAnalysis:
    """Per-layer metrics and span tables from one traced run.

    A metric comes from the set-up and loop spans of its layer when the
    workload calls that layer there, and from the probe's spans otherwise.
    """

    PHASES = ("bench.setup", "bench.loop", "bench.probe")

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        top = roots(spans)
        self.phase = [spans[r].name for r in top]
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span.name, []).append(i)

    def parent_name(self, i: int) -> str | None:
        p = self.spans[i].parent
        return self.spans[p].name if p >= 0 else None

    def pick(self, name: str, where=None) -> list[int]:
        found = [i for i in self.by_name.get(name, []) if where is None or where(i)]
        native = [i for i in found if self.phase[i] != "bench.probe"]
        return native or found

    def durations(self, indices) -> list[float]:
        return [self.spans[i].duration for i in indices]

    def median_us(self, name: str, where=None) -> float:
        return 1e6 * statistics.median(self.durations(self.pick(name, where)))

    def mean_s(self, name: str, where=None) -> float:
        return statistics.mean(self.durations(self.pick(name, where)))

    def per_unit(self, name: str, unit: str, where=None) -> float:
        """Microseconds per counted unit of work."""
        idx = self.pick(name, where)
        return 1e6 * sum(self.durations(idx)) / sum(self.spans[i].counts[unit] for i in idx)

    def under(self, parent: str):
        return lambda i: self.parent_name(i) == parent

    def nipals_by_tap(self) -> list[list[int]]:
        """The nipals_fit spans of each lhn_fit, grouped by pool tap (layer order)."""
        fits: dict[int, list[int]] = {}
        for i in self.pick("pls.nipals_fit", self.under("lhn.lhn_fit")):
            fits.setdefault(self.spans[i].parent, []).append(i)
        return [list(tap) for tap in zip(*fits.values())]

    def per_layer(self) -> dict[str, float]:
        network = lambda i: self.parent_name(i) != "lhn.lhn_fit"  # noqa: E731
        under_fit = self.under("lhn.lhn_fit")
        train = self.pick("convnet.train_arrays", network)
        taps = self.nipals_by_tap()
        nipals = [i for tap in taps for i in tap]
        lhn_fit = self.pick("lhn.lhn_fit")
        heads = self.pick("convnet.train_arrays", under_fit)
        run_cv = self.pick("evaluation.run_cv")
        load_csv = self.pick("ingest.load_csv")
        return {
            "convnet.train_arrays.us_per_window_epoch": self.per_unit(
                "convnet.train_arrays", "window_epochs", where=network
            ),
            "convnet.train_arrays.window_epochs": float(
                sum(self.spans[i].counts["window_epochs"] for i in train)
            ),
            "convnet.conv2d_forward.conv1_us": self.median_us(
                "convnet.conv2d_forward", self.under("probe.conv1")
            ),
            "convnet.conv2d_forward.conv2_us": self.median_us(
                "convnet.conv2d_forward", self.under("probe.conv2")
            ),
            "convnet.maxpool_forward.pool1_us": self.median_us(
                "convnet.maxpool_forward", self.under("probe.pool1")
            ),
            "convnet.maxpool_forward.pool2_us": self.median_us(
                "convnet.maxpool_forward", self.under("probe.pool2")
            ),
            "convnet.forward_with_taps.us": self.median_us("convnet.forward_with_taps"),
            "convnet.predict.us": self.median_us("convnet.predict"),
            "convnet.predict_dataset.us_per_window": self.per_unit(
                "convnet.predict_dataset", "windows"
            ),
            "pls.nipals_fit.s": sum(self.durations(nipals)) / len(taps[0]),
            "pls.nipals_fit.first_tap_s": statistics.mean(self.durations(taps[0])),
            "pls.nipals_fit.last_tap_s": statistics.mean(self.durations(taps[-1])),
            "pls.nipals_fit.components_kept_ratio": sum(
                self.spans[i].counts["kept"] for i in nipals
            )
            / sum(self.spans[i].counts["requested"] for i in nipals),
            "pls.pls_transform.us": self.median_us("pls.pls_transform"),
            "lhn.collect_pool_features.us_per_window": self.per_unit(
                "lhn.collect_pool_features", "windows"
            ),
            "lhn.lhn_fit.s": statistics.mean(self.durations(lhn_fit)),
            "lhn.lhn_fit.self_s": statistics.mean(self.selfs[i] for i in lhn_fit),
            "lhn.lhn_fit.head_s": sum(self.durations(heads)) / len(lhn_fit),
            "lhn.lhn_transform.us": self.median_us("lhn.lhn_transform"),
            "lhn.lhn_predict_dataset.us_per_window": self.per_unit(
                "lhn.lhn_predict_dataset", "windows"
            ),
            "convnet.save_params.s": self.mean_s("convnet.save_params"),
            "convnet.load_params.s": self.mean_s("convnet.load_params"),
            "lhn.save_lhn.s": self.mean_s("lhn.save_lhn"),
            "lhn.load_lhn.s": self.mean_s("lhn.load_lhn"),
            "evaluation.run_cv.self_s": statistics.mean(self.selfs[i] for i in run_cv),
            "evaluation.kfold_split.s": self.mean_s("evaluation.kfold_split"),
            "ingest.load_csv.s": self.mean_s("ingest.load_csv"),
            "ingest.load_csv.rows": float(
                statistics.mean(self.spans[i].counts["rows"] for i in load_csv)
            ),
            "ingest.build_dataset.s": self.mean_s("ingest.build_dataset"),
        }

    def loop_accounting(self) -> dict:
        """How much of the traced loop's operations the program's layers cover."""
        ops = self.by_name.get("bench.op", [])
        op_set = set(ops)
        layer_self: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if self.phase[i] == "bench.loop" and i not in op_set and span.name != "bench.loop":
                layer = span.name.split(".", 1)[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + self.selfs[i]
        op_total = sum(self.durations(ops))
        glue = sum(self.selfs[i] for i in ops)
        return {
            "operations": len(ops),
            "op_total_s": op_total,
            "layer_self_s": layer_self,
            "benchmark_self_s": glue,
            "accounted_share": (op_total - glue) / op_total if op_total else 0.0,
        }

    def tables(self) -> dict[str, dict]:
        return {
            phase: summarize(self.spans, self.selfs, lambda i, p=phase: self.phase[i] == p)
            for phase in self.PHASES
        }
