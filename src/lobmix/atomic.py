"""Artifact files: the one JSON reader, JSON writer and CSV writer, the CSV float format, and atomic writes.

A file written here appears at its final path whole or not at all. JSON is written with 2-space indent, sorted keys
and a final newline; CSV in the ``csv`` module's default dialect, rows ending in CRLF, floats by :func:`format_float`.
"""
from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", newline: str | None = None):
    """Open a temporary file next to ``path`` for writing and ``os.replace`` it into place on success.

    If the block raises, the temporary file is removed and ``path`` is left
    as it was. The temporary file sits in the same directory, so the replace
    is one rename on one file system, and it is opened like ``open(path,
    mode)``, so the file's bytes and permissions are those a plain write
    would give. An error in opening or replacing names ``path``.
    """
    path = Path(path)
    tmp = str(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def read_json(path: str | Path, digest=None):
    """The JSON value of the file; one ValueError naming ``path`` if not UTF-8 JSON.

    The file's bytes update the hash object ``digest``, if one is given, and
    are freed before the parse, so at most two copies of the file are held.
    """
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8")
        del data
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path} is not UTF-8 JSON: {exc}") from None


def write_json(path: str | Path, value) -> None:
    """Write ``value`` to ``path`` atomically as JSON: 2-space indent, sorted keys and a final newline."""
    with atomic_write(path) as fh:
        # streamed: a large value, such as a manifest's index block, is not copied into one whole-file string
        json.dump(value, fh, indent=2, sort_keys=True, allow_nan=False)  # NaN and Infinity are not JSON
        fh.write("\n")


def format_float(x: float | None) -> str:
    """Six significant digits, the CSV emission convention; None is the empty cell."""
    return "" if x is None else f"{x:.6g}"


def write_csv(path: str | Path, header: list, rows: list[list]) -> None:
    """Write the ``header`` row, then ``rows``, to ``path`` atomically as CSV."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
