"""CSV ingestion and temporal windowing of multichannel sensor recordings.

load_csv, the one reader of the CSV layout, groups rows into recordings:
contiguous runs sharing one (label, subject) pair. Recordings are cut into
fixed-length windows of t = floor(window seconds x sampling rate) samples;
trailing samples that do not fill a whole window are dropped. Only this
module walks a Dataset's windows; others call labels(), stacked(), take().
stacked() refuses windows of unequal shape with a ShapeError naming the first
one that differs from window 0. class_indices is the one check that labels
are whole class indices in [0, k).
"""
from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClassError,
    InputError,
    ParameterError,
    ParseError,
    SchemaError,
    ShapeError,
)


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of an input CSV plus the capture rate of its rows."""

    channel_columns: tuple[str, ...] | None  # None: every column but label and subject
    sampling_rate_hz: float
    label_column: str = "label"
    subject_column: str | None = None

    def __post_init__(self):
        if self.channel_columns is not None:
            object.__setattr__(self, "channel_columns", tuple(self.channel_columns))
            if not self.channel_columns:
                raise ParameterError("schema needs at least one channel column")
            if len(set(self.channel_columns)) < len(self.channel_columns):
                raise ParameterError(f"channel columns {self.channel_columns} repeat a name")
        if self.label_column == self.subject_column:
            raise ParameterError(f"column {self.label_column!r} cannot be both label and subject")
        for role, name in (("label", self.label_column), ("subject", self.subject_column)):
            if name in (self.channel_columns or ()):
                raise ParameterError(f"{role} column {name!r} cannot also be a channel")
        if self.sampling_rate_hz <= 0:
            raise ParameterError("sampling_rate_hz must be positive")


@dataclass(frozen=True)
class SensorRecording:
    samples: np.ndarray  # [n_samples, channels]
    sampling_rate_hz: float
    label: str
    subject_id: str | None = None

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Window:
    values: np.ndarray  # [t, channels]
    label: int  # class index within the owning dataset


def class_indices(labels, n_classes: int) -> np.ndarray:
    """Labels as a flat int64 array of class indices, each in [0, n_classes).

    The one check of a class index, for training, scoring and indicators. A
    float label must be a whole number; 1.7 is refused, not truncated to 1.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        whole = np.isfinite(labels) & (labels == np.trunc(labels))
        if not whole.all():
            raise ParameterError(
                f"labels must be whole class indices, got {float(labels[~whole][0])!r}"
            )
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError("labels must be a flat sequence")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ParameterError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


@dataclass(frozen=True)
class Dataset:
    windows: tuple[Window, ...]
    class_names: tuple[str, ...]
    channels: int

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))
        object.__setattr__(self, "class_names", tuple(self.class_names))

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def window_len(self) -> int:
        return self.windows[0].values.shape[0]

    def labels(self) -> np.ndarray:
        return np.array([w.label for w in self.windows], dtype=np.int64)

    def stacked(self) -> np.ndarray:
        """All window values as one [n, t, channels] array; every window must share one shape."""
        values = [w.values for w in self.windows]
        try:
            return np.stack(values)
        except ValueError:
            shapes = [v.shape for v in values]
            bad = next((i for i, shape in enumerate(shapes) if shape != shapes[0]), None)
            if bad is None:
                raise
            raise ShapeError(
                f"window {bad} is {'x'.join(map(str, shapes[bad]))} "
                f"but window 0 is {'x'.join(map(str, shapes[0]))}"
            ) from None

    def take(self, indices) -> Dataset:
        """The windows at `indices`, in that order, with the same classes and channels."""
        return Dataset(
            windows=tuple(self.windows[i] for i in indices),
            class_names=self.class_names,
            channels=self.channels,
        )


def load_csv(path, schema: CsvSchema) -> list[SensorRecording]:
    """Read recordings from a header-first, comma-separated UTF-8 file.

    The channels are schema.channel_columns or, when that is None, every
    header column but the label and subject, in header order. Each column it
    reads (label, subject, channels) must appear once in the header. Blank
    rows are skipped; each itertools.groupby run of identical (label,
    subject) values is one recording, in file order.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: file is empty") from None
        channels = schema.channel_columns
        if channels is None:
            keys = (schema.label_column, schema.subject_column)
            channels = tuple(h for h in header if h not in keys)
            if not channels:
                raise SchemaError(f"{path}: no channel columns besides {schema.label_column!r}")

        col_index = {name: i for i, name in enumerate(header)}
        needed = [schema.label_column, *channels]
        if schema.subject_column is not None:
            needed.append(schema.subject_column)
        missing = [c for c in needed if c not in col_index]
        if missing:
            raise SchemaError(f"{path}: header is missing column(s) {missing}")
        repeated = [c for c in dict.fromkeys(needed) if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"{path}: header repeats column(s) {repeated}")

        label_i = col_index[schema.label_column]
        subject_i = col_index[schema.subject_column] if schema.subject_column else None
        cells = [(name, col_index[name]) for name in channels]

        def parse(line_no: int, row: list[str]):
            try:
                label = row[label_i].strip()
                subject = row[subject_i].strip() if subject_i is not None else None
            except IndexError:
                raise ParseError(f"{path}: row at line {line_no} is too short") from None
            values = []
            for name, i in cells:
                cell = row[i] if i < len(row) else "<missing>"
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}, column {name!r}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: line {line_no}, column {name!r}: "
                        f"{cell.strip()!r} is not a finite number"
                    )
                values.append(value)
            return (label, subject), values

        rows = (parse(line_no, row) for line_no, row in enumerate(reader, start=2) if row)
        recordings = [
            SensorRecording(
                samples=np.array([values for _, values in run], dtype=np.float64),
                sampling_rate_hz=schema.sampling_rate_hz,
                label=label,
                subject_id=subject,
            )
            for (label, subject), run in itertools.groupby(rows, key=operator.itemgetter(0))
        ]

    if not recordings:
        raise InputError(f"{path}: file has no data rows")
    return recordings


def window_samples(window_seconds: float, sampling_rate_hz: float) -> int:
    """Window length in samples: floor(seconds x rate)."""
    t = int(window_seconds * sampling_rate_hz)
    if t < 1:
        raise ParameterError(
            f"window of {window_seconds} s at {sampling_rate_hz} Hz holds no samples"
        )
    return t


def segment(
    rec: SensorRecording,
    window_seconds: float,
    stride_samples: int | None = None,
    label_index: int = 0,
) -> list[Window]:
    """Cut a recording into windows of t samples every `stride_samples` rows.

    Stride defaults to t (non-overlapping). A recording shorter than one
    window yields an empty list; trailing samples that do not fill a whole
    window are dropped.
    """
    t = window_samples(window_seconds, rec.sampling_rate_hz)
    stride = t if stride_samples is None else int(stride_samples)
    if stride < 1:
        raise ParameterError("stride_samples must be a positive integer")
    n = rec.samples.shape[0]
    if n < t:
        return []
    count = (n - t) // stride + 1
    return [
        Window(values=rec.samples[i * stride : i * stride + t].copy(), label=label_index)
        for i in range(count)
    ]


def build_dataset(
    recordings: list[SensorRecording],
    window_seconds: float,
    stride_samples: int | None = None,
) -> Dataset:
    """Segment all recordings and assemble a labeled dataset.

    Class names are the lexicographically sorted distinct recording labels;
    window labels are indices into that order.
    """
    if not recordings:
        raise InputError("no recordings given")
    channels = recordings[0].channels
    rate = recordings[0].sampling_rate_hz
    for rec in recordings:
        if rec.channels != channels:
            raise ShapeError(
                f"recordings disagree on channel count: {rec.channels} vs {channels}"
            )
        if rec.sampling_rate_hz != rate:
            raise InputError(
                f"recordings disagree on sampling rate: {rec.sampling_rate_hz} vs {rate}"
            )

    class_names = tuple(sorted({rec.label for rec in recordings}))
    index_of = {name: i for i, name in enumerate(class_names)}

    windows = tuple(
        window
        for rec in recordings
        for window in segment(rec, window_seconds, stride_samples, label_index=index_of[rec.label])
    )
    present = {window.label for window in windows}
    empty = [name for i, name in enumerate(class_names) if i not in present]
    if empty:
        raise DegenerateClassError(
            f"class(es) {empty} produced no windows; recordings are shorter than one window"
        )
    return Dataset(windows=windows, class_names=class_names, channels=channels)
