"""Geometry-aware containers for 3D scalar volumes and label maps.

A volume couples a 3D array with its voxel spacing (mm) and a 4x4 voxel-to-
world affine.  Containers are immutable after construction: the wrapped
array is marked read-only, so downstream stages can share data without
defensive copies.  Array indexing is ``data[x, y, z]``; the flat on-disk
ordering (x fastest) is handled at the I/O boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, UnknownLabel


class LabelScheme(enum.Enum):
    """Known label vocabularies.

    FETA7    tissue labels 0..7 (0 background, 1 CSF, 2 cortical GM, 3 WM,
             4 ventricles, 5 cerebellum, 6 deep GM, 7 brainstem)
    DRAWEM9  neonatal-atlas labels 0..9 prior to remapping
    META4    grouped generation classes 0..4 (0 background, 1 WM-like,
             2 GM-like, 3 fluid, 4 non-brain)
    SUBCLASS dense intensity-cluster ids 0..K
    """

    FETA7 = "feta7"
    DRAWEM9 = "drawem9"
    META4 = "meta4"
    SUBCLASS = "subclass"


_SCHEME_MAX = {LabelScheme.FETA7: 7, LabelScheme.DRAWEM9: 9, LabelScheme.META4: 4}


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _check_geometry(data: np.ndarray, spacing, affine: np.ndarray):
    if data.ndim != 3 or min(data.shape) < 1:
        raise GeometryError(f"expected a non-empty 3D array, got shape {data.shape}")
    if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):
        raise GeometryError(f"spacing must be three finite positive floats, got {spacing!r}")
    if affine.shape != (4, 4) or not np.isfinite(affine).all():
        raise GeometryError(f"affine must be a finite 4x4 matrix, got {affine.tolist()}")
    if abs(np.linalg.det(affine[:3, :3])) < 1e-12:
        raise GeometryError("affine direction block is singular")


@dataclass(frozen=True)
class Volume3D:
    """A scalar volume: float32 data + spacing (mm) + voxel-to-world affine."""

    data: np.ndarray
    spacing: tuple[float, float, float]
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        affine = np.asarray(self.affine, dtype=np.float64)
        spacing = tuple(float(s) for s in self.spacing)
        _check_geometry(data, spacing, affine)
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "affine", _freeze(affine))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume3D":
        """Same grid, new values."""
        return Volume3D(data, self.spacing, self.affine)


@dataclass(frozen=True)
class LabelMap:
    """An integer label volume with a declared scheme.

    The data is stored in the narrowest unsigned integer type that holds
    its largest value (``np.min_scalar_type``): uint8 for every shipped
    vocabulary and for up to 255 subclass ids, uint16 up to 65535.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    scheme: LabelScheme
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data)
        if not np.issubdtype(data.dtype, np.integer):
            raise UnknownLabel(f"label data must be integer-typed, got {data.dtype}")
        affine = np.asarray(self.affine, dtype=np.float64)
        spacing = tuple(float(s) for s in self.spacing)
        _check_geometry(data, spacing, affine)
        if np.issubdtype(data.dtype, np.signedinteger) and data.min() < 0:
            raise UnknownLabel("negative label values")
        top = int(data.max())
        hi = _SCHEME_MAX.get(self.scheme)
        if hi is not None and top > hi:
            raise UnknownLabel(f"label value {top} outside scheme {self.scheme.value} (max {hi})")
        data = data.astype(np.min_scalar_type(top), order="C", copy=False)
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "affine", _freeze(affine))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "LabelMap":
        return LabelMap(data, self.spacing, self.scheme, self.affine)


def require_same_grid(a, b, what: str = "inputs"):
    """GeometryError unless two containers share dims, and spacing and affine to 1e-5."""
    if not (
        a.dims == b.dims
        and np.allclose(a.spacing, b.spacing, atol=1e-5)
        and np.allclose(a.affine, b.affine, atol=1e-5)
    ):
        raise GeometryError(f"{what} must share dims, spacing, and affine")


_CHUNK = 1 << 14  # sample points per pass: the chunk's float64 scratch stays in cache


def sample_at_voxels(data: np.ndarray, coords: np.ndarray, oob: str = "zero") -> np.ndarray:
    """Sample ``data`` at fractional voxel coordinates, keeping its dtype.

    Integer data (labels) is looked up nearest-neighbour at floor(c + 0.5),
    float data interpolated trilinearly.  coords has shape (3, ...) in
    voxel units.  ``oob`` selects what lies beyond the voxel-center hull:
    "zero" pads with zeros (background), "clamp" replicates the edge.

    Bit-identical to scipy's map_coordinates (order 0 or 1, mode
    "grid-constant" or "nearest"): in float64, w0 = 1 - (c - floor(c))
    and w1 = 1 - w0 from the unclamped coordinate, then the sum from 0.0
    of ((v * wx) * wy) * wz over the 8 corners, z fastest.  The source is
    padded by 2 voxels in the oob mode, so corner indices clipped into
    [-2, n] need no mask.  The padded source keeps the data's dtype: each
    gathered corner is widened to float64 in its first multiply, which is
    exact for float32, so no float64 copy of the volume is made.
    """
    modes = {"zero": "constant", "clamp": "edge"}
    if oob not in modes:
        raise ValueError(f"unknown oob mode {oob!r}")
    data = np.asarray(data)
    coords = np.asarray(coords)
    if data.ndim != 3 or coords.shape[:1] != (3,):
        raise ValueError(f"expected 3D data and (3, ...) coords, got {data.shape} and {coords.shape}")
    nearest = np.issubdtype(data.dtype, np.integer)
    padded = np.pad(data, 2, mode=modes[oob])
    strides = np.array(padded.strides)[:, None] // padded.itemsize
    src = padded.ravel()
    hi = np.array(data.shape, dtype=np.float64)[:, None] + 2.0
    # flat offset of each corner from the low one, z fastest: (0,0,0), (0,0,1), ...
    corners = [(int(strides[:, 0] @ d), d) for d in np.ndindex(2, 2, 2)]
    pts = coords.reshape(3, -1)
    out = np.empty(pts.shape[1], dtype=data.dtype)
    for s in range(0, pts.shape[1], _CHUNK):
        c = pts[:, s : s + _CHUNK].astype(np.float64)
        fl = np.floor(c + 0.5 if nearest else c)
        idx = (np.clip(fl + 2.0, 0.0, hi).astype(np.intp) * strides).sum(axis=0)
        # every index is in range, so take's "clip" mode only skips the bounds check
        if nearest:
            out[s : s + _CHUNK] = src.take(idx, mode="clip")
            continue
        w1 = np.subtract(c, fl, out=c)
        w = (np.subtract(1.0, w1, out=fl), w1)
        np.subtract(1.0, w[0], out=w1)
        acc = np.zeros(c.shape[1])
        term = np.empty_like(acc)
        corner = np.empty(c.shape[1], dtype=src.dtype)
        for offset, (dx, dy, dz) in corners:
            src[offset:].take(idx, out=corner, mode="clip")
            np.multiply(corner, w[dx][0], out=term)
            term *= w[dy][1]
            term *= w[dz][2]
            acc += term
        out[s : s + _CHUNK] = acc
    return out.reshape(coords.shape[1:])

