"""Atomic artifact writes: a file appears at its final path whole or not at all."""
from __future__ import annotations

import contextlib
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
