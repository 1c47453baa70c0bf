"""Small file helpers: atomic writes."""
from __future__ import annotations

import csv
import io
import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    An interrupted run therefore never leaves a half-written file at `path`.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
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
