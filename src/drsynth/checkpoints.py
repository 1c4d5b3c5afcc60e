"""Checkpoint container, binary serialization, and weight interpolation.

A checkpoint is an ordered set of named float32 tensors plus string
metadata.  The on-disk layout is little-endian throughout:

    magic   8 bytes  "WSOUP1\\0\\0"
    u32     tensor count
    per tensor:
        u32      name byte length, then UTF-8 name
        u8       rank, then rank x u64 dims
        f32 x n  raw tensor payload (product of dims values)
    u32     metadata entry count
    per entry: u32 length + UTF-8 key, u32 length + UTF-8 value

Tensor payloads round-trip bit-exactly (NaN payloads and signed zeros
included) because reads and writes never pass through arithmetic.

Interpolation blends two checkpoints elementwise: out = (1 - alpha) * a +
alpha * b, computed in float64 and rounded once to float32.  Alpha 0 and 1
return exact copies, every tensor (normalization statistics included) is
blended uniformly, and the result's metadata records both sources and the
coefficient.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateTensor,
    FormatError,
    IncompatibleCheckpoints,
    InvalidAlpha,
    TruncatedFile,
)
from .fileio import atomic_write, read_file

MAGIC = b"WSOUP1\x00\x00"


@dataclass
class Checkpoint:
    """Named float32 tensors (insertion-ordered) plus string metadata."""

    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[str, np.ndarray] = {}
        for name, arr in self.tensors.items():
            if not isinstance(name, str) or not name:
                raise FormatError(f"tensor names must be non-empty strings, got {name!r}")
            clean[name] = np.asarray(arr, dtype=np.float32)
        self.tensors = clean
        self.metadata = {str(k): str(v) for k, v in self.metadata.items()}


class _Cursor:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedFile(f"{self.path}: needed {n} bytes at offset {self.pos}, file ends early")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        n = self.u32()
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: invalid UTF-8 string at offset {self.pos - n}") from exc


def read_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file, validating magic, sizes, and name uniqueness."""
    blob = read_file(path)
    cur = _Cursor(blob, path)
    if cur.take(len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    n_tensors = cur.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name = cur.string()
        if name in tensors:
            raise DuplicateTensor(f"{path}: tensor {name!r} appears twice")
        rank = cur.u8()
        dims = tuple(cur.u64() for _ in range(rank))
        count = 1
        for d in dims:
            count *= d
        raw = cur.take(4 * count)
        arr = np.frombuffer(raw, dtype="<f4", count=count).reshape(dims).copy()
        tensors[name] = arr
    n_meta = cur.u32()
    metadata: dict[str, str] = {}
    for _ in range(n_meta):
        key = cur.string()
        metadata[key] = cur.string()
    if cur.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - cur.pos} trailing bytes after metadata")
    return Checkpoint(tensors, metadata)


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize atomically (temp file + rename); payload bytes pass through."""
    parts = [MAGIC, struct.pack("<I", len(ckpt.tensors))]
    for name, arr in ckpt.tensors.items():
        raw_name = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<Q", d))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    parts.append(struct.pack("<I", len(ckpt.metadata)))
    for key, value in ckpt.metadata.items():
        for s in (key, value):
            raw = s.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)

    atomic_write(path, parts)

DEFAULT_SWEEP = (0.0, 0.2, 0.5, 0.8, 1.0)


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float, or InvalidAlpha unless it lies in [0, 1]."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise InvalidAlpha(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def require_same_layout(a: Checkpoint, b: Checkpoint) -> None:
    """IncompatibleCheckpoints unless both share tensor names, order and shapes."""
    if [(n, t.shape) for n, t in a.tensors.items()] != [(n, t.shape) for n, t in b.tensors.items()]:
        raise IncompatibleCheckpoints("checkpoints differ in tensor names, order, or shapes")


def interpolate(a: Checkpoint, b: Checkpoint, alpha: float) -> Checkpoint:
    """Elementwise blend (1 - alpha) * a + alpha * b over every tensor.

    Alpha must lie in [0, 1]; the endpoints return exact (bitwise) copies
    of the corresponding input's tensors.  Checkpoints must agree on
    tensor names, order, and shapes.
    """
    alpha = check_alpha(alpha)
    require_same_layout(a, b)

    metadata = {f"a.{k}": v for k, v in a.metadata.items()}
    metadata.update({f"b.{k}": v for k, v in b.metadata.items()})
    metadata["alpha"] = repr(alpha)

    if alpha == 0.0:
        tensors = {n: arr.copy() for n, arr in a.tensors.items()}
    elif alpha == 1.0:
        tensors = {n: arr.copy() for n, arr in b.tensors.items()}
    else:
        tensors = {
            n: (
                (1.0 - alpha) * a.tensors[n].astype(np.float64)
                + alpha * b.tensors[n].astype(np.float64)
            ).astype(np.float32)
            for n in a.tensors
        }
    return Checkpoint(tensors, metadata)
