"""Atomic file writes shared by every writer in the package."""

from __future__ import annotations

import contextlib
import os

from .errors import IoError


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` to a temporary sibling, then rename it onto ``path``.

    Readers never see a partial file.  Text is encoded as UTF-8.  On
    failure the temporary file is removed and IoError is raised.
    """
    path = str(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc
