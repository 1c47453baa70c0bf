"""Small file helpers: atomic writes, CSV, and the one model-file reader.

Every model file (convnet params, LHN model, and the pls-model payload an
LHN file nests per pool layer) is one JSON object ``{format, version,
**fields}``. write_model writes it atomically; read_model parses it and
checks its format marker and version, and check_header does the same for a
payload that is already parsed. Inside ``with decoding(source):`` a
KeyError, TypeError, ValueError, OverflowError or ParameterError from a
missing, mistyped or refused field becomes a FormatError naming the file.
shaped_entry writes an array as a ``{shape, data}`` entry; float_array and
shaped_array decode stored arrays: the caller passes the shape the file's
own header implies, and the array must have that shape and hold only finite
JSON numbers. So a model file is rejected when it is loaded, not when
predict trips over it.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import secrets
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, ParameterError, UnsupportedVersionError


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    An interrupted run therefore never leaves a half-written file at `path`.
    The temp file is created with mode 0o666 less the umask, the mode a plain
    open(path, "w") gives a new file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, rows) -> None:
    """Write rows as CSV with "\\n" line endings, through atomic_write_text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_model(path, fmt: str, version: int, **fields) -> None:
    """Write ``{format, version, **fields}`` as JSON, atomically."""
    atomic_write_text(path, json.dumps({"format": fmt, "version": version, **fields}))


def read_model(path, fmt: str, version: int) -> dict:
    """Parse a model file and check its header; the fields are left to the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from None
    return check_header(payload, fmt, version, path)


def check_header(payload, fmt: str, version: int, source) -> dict:
    """Return payload if it is a JSON object of this format and version."""
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise FormatError(f"{source}: not a {fmt} file")
    if payload.get("version") != version:
        raise UnsupportedVersionError(
            f"{source}: version {payload.get('version')!r} is not supported "
            f"(this build reads version {version})"
        )
    return payload


@contextmanager
def decoding(source):
    """Report a missing, mistyped or refused field as a FormatError naming source."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an int too big for a float
        raise FormatError(f"{source}: malformed field: {exc}") from None
    except ParameterError as exc:  # the message names the field
        raise FormatError(f"{source}: {exc}") from None


def float_array(values, shape: tuple[int, ...], name: str, source) -> np.ndarray:
    """A stored flat list of JSON numbers as a finite float64 array of `shape`, row-major.

    A bool or a string is refused, where numpy would read true as 1.0 and "1e3" as 1000.0.
    """
    with decoding(f"{source}: {name}"):
        if not set(map(type, values)) <= {int, float}:
            bad = next(v for v in values if type(v) not in (int, float))
            raise FormatError(f"{source}: {name} holds {bad!r:.40}, which is not a JSON number")
        arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size != math.prod(shape):
        raise FormatError(
            f"{source}: {name} holds {arr.shape} values where the header implies "
            f"{tuple(shape)}: field lengths disagree"
        )
    if not np.isfinite(arr).all():
        raise FormatError(f"{source}: {name} holds non-finite values")
    return arr.reshape(shape)


def shaped_entry(arr: np.ndarray) -> dict:
    """An array as a ``{shape, data}`` entry, data row-major; shaped_array reads it back."""
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def shaped_array(entry, shape: tuple[int, ...], name: str, source) -> np.ndarray:
    """A stored ``{shape, data}`` entry; the stored shape must be `shape`."""
    with decoding(f"{source}: {name}"):
        stored, data = tuple(entry["shape"]), entry["data"]
    if stored != tuple(shape):
        raise FormatError(f"{source}: {name} has shape {stored}, the header implies {tuple(shape)}")
    return float_array(data, shape, name, source)
