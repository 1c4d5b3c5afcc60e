"""NIfTI-1 reading and writing for the benchmark, independent of drsynth.

The benchmark writes its input subjects and parses the program's outputs
with this module only, so a fault in ``drsynth.nifti`` cannot hide itself
by being on both sides of a check.  It handles exactly what the benchmark
needs: single-file ``n+1`` volumes, little-endian, optionally gzipped,
float32 / int16 / int32 / uint8 data in x-fastest order, and the sform.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

HEADER_SIZE = 348
VOX_OFFSET = 352
_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 8: np.dtype("<i4"), 16: np.dtype("<f4")}
_CODES = {v: k for k, v in _DTYPES.items()}


class NiftiError(ValueError):
    """A file that is not a volume this module can parse."""


@dataclass(frozen=True)
class Nifti:
    data: np.ndarray
    spacing: tuple[float, float, float]
    sform: np.ndarray  # 3x4 rows srow_x, srow_y, srow_z as stored (float32)
    datatype: int


def parse(blob: bytes, name: str = "<bytes>") -> Nifti:
    """Parse one NIfTI-1 file's bytes (gzip is detected by its magic)."""
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (OSError, EOFError) as exc:
            raise NiftiError(f"{name}: bad gzip stream: {exc}") from None
    if len(blob) < VOX_OFFSET:
        raise NiftiError(f"{name}: {len(blob)} bytes, shorter than a header")
    if struct.unpack_from("<i", blob, 0)[0] != HEADER_SIZE:
        raise NiftiError(f"{name}: sizeof_hdr is not 348 (little-endian)")
    if blob[344:348] != b"n+1\x00":
        raise NiftiError(f"{name}: magic {blob[344:348]!r} is not n+1")
    dim = struct.unpack_from("<8h", blob, 40)
    if dim[0] not in (3, 4) or (dim[0] == 4 and dim[4] != 1):
        raise NiftiError(f"{name}: dim {dim} is not a 3D volume")
    dims = tuple(int(d) for d in dim[1:4])
    code = struct.unpack_from("<h", blob, 70)[0]
    if code not in _DTYPES:
        raise NiftiError(f"{name}: datatype code {code}")
    dtype = _DTYPES[code]
    pixdim = struct.unpack_from("<8f", blob, 76)
    offset = int(struct.unpack_from("<f", blob, 108)[0])
    slope, inter = struct.unpack_from("<2f", blob, 112)
    if slope not in (0.0, 1.0) or inter != 0.0:
        raise NiftiError(f"{name}: intensity scaling {slope}/{inter} is not expected here")
    if struct.unpack_from("<h", blob, 254)[0] < 1:
        raise NiftiError(f"{name}: no sform")
    sform = np.asarray(struct.unpack_from("<12f", blob, 280), dtype=np.float32).reshape(3, 4)
    n = int(np.prod(dims))
    if len(blob) != offset + n * dtype.itemsize:
        raise NiftiError(f"{name}: {len(blob) - offset} data bytes, expected {n * dtype.itemsize}")
    data = np.frombuffer(blob, dtype=dtype, count=n, offset=offset).reshape(dims, order="F")
    return Nifti(data, tuple(float(p) for p in pixdim[1:4]), sform, code)


def read(path: str) -> Nifti:
    with open(path, "rb") as fh:
        return parse(fh.read(), path)


def encode(data: np.ndarray, spacing, sform: np.ndarray, compresslevel: int = 1) -> bytes:
    """Gzipped single-file NIfTI-1 bytes for ``data`` (x-fastest on disk)."""
    data = np.asarray(data)
    code = _CODES[data.dtype.newbyteorder("<")]
    dim = (3, *data.shape, 1, 1, 1, 1)
    pixdim = (1.0, *(float(s) for s in spacing), 0.0, 0.0, 0.0, 0.0)
    hdr = bytearray(VOX_OFFSET)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<hh", hdr, 70, code, data.dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<fff", hdr, 108, float(VOX_OFFSET), 1.0, 0.0)
    struct.pack_into("<B", hdr, 123, 2)  # xyzt_units: mm
    struct.pack_into("<hh", hdr, 252, 0, 1)  # qform off, sform on
    struct.pack_into("<12f", hdr, 280, *np.asarray(sform, dtype=np.float64).ravel()[:12])
    hdr[344:348] = b"n+1\x00"
    payload = bytes(hdr) + data.astype(data.dtype.newbyteorder("<")).tobytes(order="F")
    return gzip.compress(payload, compresslevel=compresslevel, mtime=0)
