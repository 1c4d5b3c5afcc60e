"""File reads and atomic writes shared by the package's readers and writers."""

from __future__ import annotations

import contextlib
import os

from .errors import FormatError, IoError


def read_file(path) -> bytes:
    """A file's bytes; a file that cannot be read is an IoError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_text(path) -> str:
    """A file's UTF-8 text with universal newlines; non-UTF-8 bytes are a FormatError naming it."""
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def make_dirs(path) -> None:
    """``os.makedirs(path, exist_ok=True)``; a failure is an IoError naming ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path}: {exc.strerror or exc}") from exc


def atomic_write(path, data: bytes | str | list) -> None:
    """Write ``data`` to a temporary sibling, then rename it onto ``path``.

    ``data`` is text (encoded as UTF-8), bytes, or a list of bytes-like
    chunks written in order, so a caller need not join them first.
    Readers never see a partial file.  On failure the temporary file is
    removed and IoError is raised.
    """
    path = str(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = [data]
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc
