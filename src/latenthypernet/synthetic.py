"""Synthetic two-channel activity data with structure at two time scales.

Four classes arise from crossing a slow property (trend frequency: one vs.
four cycles per window) with a fast one (short spike bursts present or
absent). Telling the classes apart therefore needs both fine-grained local
patterns and the long-range envelope, which is exactly the regime where
combining shallow and deep feature maps should help.
"""
from __future__ import annotations

import itertools

import numpy as np

from .fileio import write_csv
from .ingest import Dataset, Window

CLASS_NAMES = ("fast_burst", "fast_smooth", "slow_burst", "slow_smooth")

_SPIKE = np.array([0.5, 1.0, 0.5])


def _window_values(rng: np.random.Generator, name: str, length: int, noise: float) -> np.ndarray:
    cycles = 4.0 if name.startswith("fast") else 1.0
    phase = rng.uniform(0.0, 2.0 * np.pi)
    grid = 2.0 * np.pi * cycles * np.arange(length) / length
    values = np.stack([np.sin(grid + phase), np.cos(grid + phase)], axis=1)
    if name.endswith("burst"):
        for _ in range(int(rng.integers(3, 6))):
            pos = int(rng.integers(0, length - _SPIKE.size))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            channel = int(rng.integers(0, 2))
            values[pos : pos + _SPIKE.size, channel] += sign * 2.5 * _SPIKE
    values += rng.normal(0.0, noise, size=values.shape)
    return values


def make_synthetic_dataset(
    n_windows: int = 600,
    window_len: int = 64,
    seed: int = 0,
    noise: float = 0.6,
) -> Dataset:
    """Balanced four-class dataset of [window_len x 2] windows."""
    rng = np.random.default_rng(seed)
    windows: list[Window] = []
    per_class = n_windows // len(CLASS_NAMES)
    extra = n_windows - per_class * len(CLASS_NAMES)
    for label, name in enumerate(CLASS_NAMES):
        count = per_class + (1 if label < extra else 0)
        for _ in range(count):
            windows.append(Window(values=_window_values(rng, name, window_len, noise), label=label))
    return Dataset(windows=tuple(windows), class_names=CLASS_NAMES, channels=2)


def write_synthetic_csv(
    path,
    n_windows: int = 600,
    window_len: int = 64,
    seed: int = 0,
    noise: float = 0.6,
    sampling_rate_hz: float = 32.0,
) -> None:
    """Write the synthetic data as an ingestible CSV.

    Each class becomes one contiguous recording whose length is an exact
    multiple of window_len, so segmenting at window_len samples with the
    default stride recovers the generated windows unchanged. Columns:
    label, ax, ay. window_len / sampling_rate_hz gives the window-seconds
    value to segment with (the default 64 at 32 Hz means 2-second windows).
    """
    dataset = make_synthetic_dataset(n_windows, window_len, seed, noise)
    samples = (  # a generator, so the rows are never all held as strings at once
        [dataset.class_names[label], repr(a), repr(b)]
        for label, values in zip(dataset.labels().tolist(), dataset.stacked())  # class by class
        for a, b in values.tolist()
    )
    write_csv(path, itertools.chain([["label", "ax", "ay"]], samples))
