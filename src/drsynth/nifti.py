"""Minimal NIfTI-1 reader/writer for 3D volumes.

Covers exactly what the pipeline needs: single-file ``.nii`` (magic
``n+1``) plus the header-pair variant (``ni1`` with a sibling ``.img``),
optional gzip on either, the five scalar datatypes uint8/int16/int32/
float32/float64, ``scl_slope``/``scl_inter`` scaling (a zero or
non-finite slope means unscaled data, as NIfTI-1 says), and the sform
(fallback qform, fallback diagonal-spacing) affine.  NIfTI-2, DICOM,
time series (nt > 1), and memory mapping are out of scope.

Writing always emits little-endian single-file ``n+1`` with a 348-byte
header, 4 pad bytes, and the raw array in x-fastest order, so a write/read
cycle reproduces float payloads bit-for-bit (including NaN and signed
zeros).  Gzip output is deterministic for a given zlib (mtime 0, no
embedded name), and its deflate setting suits the kind of volume: a
float image's mantissa noise leaves LZ77 little to match, so images use
run-length deflate (``Z_RLE``: about a quarter of level 9's time, and
within 1% of its size from 96^3 up); label maps are long runs of few
values and use level 6.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib

import numpy as np

from .errors import FormatError, TruncatedFile, UnsupportedDatatype, UnsupportedShape, prefixed
from .fileio import atomic_write, read_file
from .volume import LabelMap, LabelScheme, Volume3D

HEADER_SIZE = 348
# The header's fields in file order: (name, struct code, count).  A count
# above 1 is that many values, except for "s", where it is the byte length
# of one string.
_HEADER = (
    ("sizeof_hdr", "i", 1), ("data_type", "s", 10), ("db_name", "s", 18), ("extents", "i", 1),
    ("session_error", "h", 1), ("regular", "c", 1), ("dim_info", "c", 1), ("dim", "h", 8),
    ("intent_p", "f", 3), ("intent_code", "h", 1), ("datatype", "h", 1), ("bitpix", "h", 1),
    ("slice_start", "h", 1), ("pixdim", "f", 8), ("vox_offset", "f", 1), ("scl_slope", "f", 1),
    ("scl_inter", "f", 1), ("slice_end", "h", 1), ("slice_code", "b", 1), ("xyzt_units", "b", 1),
    ("cal_max", "f", 1), ("cal_min", "f", 1), ("slice_duration", "f", 1), ("toffset", "f", 1),
    ("glmax", "i", 1), ("glmin", "i", 1), ("descrip", "s", 80), ("aux_file", "s", 24),
    ("qform_code", "h", 1), ("sform_code", "h", 1), ("quatern", "f", 3), ("qoffset", "f", 3),
    ("srow_x", "f", 4), ("srow_y", "f", 4), ("srow_z", "f", 4), ("intent_name", "s", 16),
    ("magic", "s", 4),
)
_STRUCT = "<" + "".join(f"{count if count > 1 else ''}{code}" for _, code, count in _HEADER)
assert struct.calcsize(_STRUCT) == HEADER_SIZE

_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}
_CODES = {v: k for k, v in _DTYPES.items()}


def _gunzip(blob: bytes, path) -> bytes:
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except EOFError as exc:
            raise TruncatedFile(f"{path}: gzip stream ends before its end-of-stream marker") from exc
        except (OSError, zlib.error) as exc:
            raise FormatError(f"bad gzip stream in {path}: {exc}") from exc
    return blob


def _unpack_header(blob: bytes, path):
    if len(blob) < HEADER_SIZE:
        raise TruncatedFile(f"{path}: file shorter than the 348-byte header")
    fields = struct.unpack(_STRUCT, blob[:HEADER_SIZE])
    swapped = False
    if fields[0] != HEADER_SIZE:
        fields = struct.unpack(">" + _STRUCT[1:], blob[:HEADER_SIZE])
        swapped = True
        if fields[0] != HEADER_SIZE:
            raise FormatError(f"{path}: sizeof_hdr is not 348 in either byte order")
    out = {}
    i = 0
    for key, code, count in _HEADER:
        n = 1 if code == "s" else count
        out[key] = fields[i] if n == 1 else fields[i : i + n]
        i += n
    return out, swapped


def _affine_from_header(hdr, spacing) -> np.ndarray:
    aff = np.eye(4)
    if hdr["sform_code"] > 0:
        aff[0, :] = hdr["srow_x"]
        aff[1, :] = hdr["srow_y"]
        aff[2, :] = hdr["srow_z"]
        return aff
    if hdr["qform_code"] > 0:
        b, c, d = (float(q) for q in hdr["quatern"])
        a = np.sqrt(max(0.0, 1.0 - b * b - c * c - d * d))
        rot = np.array(
            [
                [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
                [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
                [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
            ]
        )
        qfac = float(hdr["pixdim"][0]) or 1.0
        scales = np.array([spacing[0], spacing[1], spacing[2] * qfac])
        aff[:3, :3] = rot * scales[np.newaxis, :]
        aff[:3, 3] = hdr["qoffset"]
        return aff
    aff[:3, :3] = np.diag(spacing)
    return aff


def read_nifti(path, scheme: LabelScheme | None = None, raw: bytes | None = None):
    """Read a 3D NIfTI-1 file.

    With a declared ``scheme`` the result is a LabelMap (integer data
    required on disk; float data is accepted only when every value is
    integral), which stores the labels in the narrowest unsigned type that
    holds their largest value.  Without one the result is a Volume3D with values cast to
    float32 and intensity scaling applied.  ``raw`` is the file's bytes
    when the caller has read them already (to hash what it decodes); the
    file is then not read again, and ``path`` names it in errors.
    """
    blob = _gunzip(read_file(path) if raw is None else raw, path)
    del raw  # a gzipped file's bytes are not needed once inflated
    hdr, swapped = _unpack_header(blob, path)

    magic = hdr["magic"]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise FormatError(f"{path}: bad magic {magic!r}")

    dim = hdr["dim"]
    if not (dim[0] == 3 or (dim[0] == 4 and dim[4] == 1)):
        raise UnsupportedShape(f"{path}: dim[0]={dim[0]} (nt={dim[4]}) is not a 3D volume")
    shape = tuple(int(d) for d in dim[1:4])
    if min(shape) < 1:
        raise UnsupportedShape(f"{path}: non-positive dims {shape}")

    if hdr["datatype"] not in _DTYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {hdr['datatype']}")
    dt = _DTYPES[hdr["datatype"]]
    if swapped:
        dt = dt.newbyteorder(">")

    if magic == b"n+1\x00":
        vox = hdr["vox_offset"]
        offset = int(round(vox)) if np.isfinite(vox) else -1
        if offset < HEADER_SIZE:
            raise FormatError(f"{path}: vox_offset {vox} is not a byte offset past the header")
        payload = blob
    else:
        base, ext = os.path.splitext(str(path))
        if ext == ".gz":
            base, _ = os.path.splitext(base)
        img = base + ".img"
        if not os.path.exists(img) and os.path.exists(img + ".gz"):
            img = img + ".gz"
        payload = _gunzip(read_file(img), img)
        offset = 0

    need = int(np.prod(shape)) * dt.itemsize
    if len(payload) < offset + need:
        raise TruncatedFile(f"{path}: expected {need} data bytes, found {len(payload) - offset}")
    flat = np.frombuffer(payload, dtype=dt, count=int(np.prod(shape)), offset=offset)
    data = flat.reshape(shape, order="F")
    if swapped:
        data = data.astype(dt.newbyteorder("="))

    pix = hdr["pixdim"][1:4]
    spacing = tuple(float(p) if p > 0 else 1.0 for p in pix)
    affine = _affine_from_header(hdr, spacing)

    with prefixed(f"{path}: "):  # a container's checks name the file
        if scheme is not None:
            if np.issubdtype(data.dtype, np.floating):
                if not np.array_equal(data, np.round(data)):
                    raise FormatError("non-integral values cannot form a label map")
                data = data.astype(np.int64)
            return LabelMap(data, spacing, scheme, affine)

        slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
        out = data
        if slope != 0.0 and np.isfinite(slope):  # NIfTI-1: a zero or non-finite slope leaves data unscaled
            if not np.isfinite(inter):
                raise FormatError(f"scl_inter {inter} is not finite (scl_slope {slope})")
            if (slope, inter) != (1.0, 0.0):
                with np.errstate(over="ignore"):  # an overflow is rejected below, naming both fields
                    out = (data.astype(np.float64) * slope + inter).astype(np.float32)
                n_over = int(np.count_nonzero(np.isfinite(data) & ~np.isfinite(out)))
                if n_over:
                    raise FormatError(
                        f"scl_slope {slope} and scl_inter {inter} scale {n_over} finite voxel(s) past float32"
                    )
        return Volume3D(np.asarray(out, dtype=np.float32), spacing, affine)


def _pack_header(shape, spacing, affine, code, bitpix) -> bytes:
    """The header with the fields named here set, every other one zero or empty."""
    zero = {"s": b"", "c": b"\x00"}  # a string packs NUL-padded, a char as NUL, a number as 0
    hdr = {name: zero.get(c, 0) if c == "s" or n == 1 else (0,) * n for name, c, n in _HEADER}
    hdr.update(
        sizeof_hdr=HEADER_SIZE, regular=b"r", dim=(3, *shape, 1, 1, 1, 1), datatype=code, bitpix=bitpix,
        pixdim=(1.0, *spacing, 0.0, 0.0, 0.0, 0.0), vox_offset=352.0, scl_slope=1.0,
        xyzt_units=2,  # mm
        descrip=b"drsynth", sform_code=1,  # qform off, sform on
        srow_x=affine[0], srow_y=affine[1], srow_z=affine[2], magic=b"n+1\x00",
    )
    values = []
    for name, c, n in _HEADER:
        values.extend(hdr[name] if c != "s" and n > 1 else [hdr[name]])
    return struct.pack(_STRUCT, *values)


def write_nifti(vol, path) -> None:
    """Write a Volume3D (float32) or LabelMap (int16, or int32 past 32767) to ``path``.

    The write is atomic (temp file + rename).  A name ending in ``.gz`` is
    gzipped by one zlib stream with the setting for the volume's kind: a
    Volume3D with run-length deflate (``zlib.Z_RLE``, which ignores the
    level), a LabelMap at level 6 with the default strategy.  The bytes
    depend only on the volume and the zlib version.
    """
    if isinstance(vol, LabelMap):
        arr = vol.data
        wide = arr.size and arr.max() > np.iinfo(np.int16).max
        arr = arr.astype(np.int32 if wide else np.int16, order="F")
        level, strategy = 6, zlib.Z_DEFAULT_STRATEGY
    elif isinstance(vol, Volume3D):
        arr = vol.data  # float32, as Volume3D stores it
        level, strategy = 1, zlib.Z_RLE
    else:
        raise TypeError(f"cannot write {type(vol).__name__} as NIfTI")

    header = _pack_header(vol.dims, vol.spacing, vol.affine, _CODES[arr.dtype], arr.dtype.itemsize * 8)
    parts = [header + b"\x00\x00\x00\x00", arr.ravel(order="F")]  # x fastest; a view of F-ordered data
    if str(path).endswith(".gz"):
        # wbits 31: zlib writes the gzip container itself, with mtime 0 and no name
        deflate = zlib.compressobj(level, zlib.DEFLATED, 31, zlib.DEF_MEM_LEVEL, strategy)
        parts = [*map(deflate.compress, parts), deflate.flush()]
    atomic_write(path, parts)
