"""Atomic file output with round-trippable float formatting."""

from __future__ import annotations

import contextlib
import csv
import io
import os
import tempfile


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as a field of a row (the csv
    module's own quoting rules), for rows built as text."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]          # the empty field's "," and "\r\n"


def fmt(value: float) -> str:
    """Shortest decimal representation that reads back bit-exactly."""
    return repr(float(value))


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Yield a text file that replaces ``path`` only when the block exits
    cleanly (a temp file in the same directory, then a rename), so readers
    never see a partial file.  The file is the temp file's own text
    stream, so a write is not routed through the temp-file wrapper."""
    tmp = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(os.path.abspath(path)) or ".",
        suffix=".tmp", delete=False, newline=newline)
    try:
        with tmp:
            yield tmp.file
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)
        raise


def atomic_csv(path, header, rows) -> None:
    """Write a CSV file atomically (see :func:`atomic_write`)."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
