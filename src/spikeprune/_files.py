"""Atomic output files: a write that fails never leaves a partial file."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Yield a sibling temp file open for writing; on success move it to path.

    The temp file is closed and os.replace'd onto path when the block ends.
    If anything raises, the temp file is deleted: path keeps the bytes it
    had, or stays absent.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
