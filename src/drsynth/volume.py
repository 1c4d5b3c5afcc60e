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


def sample_at_voxels(data: np.ndarray, coords: np.ndarray, oob: str = "zero", out=None) -> np.ndarray:
    """Sample ``data`` at fractional voxel coordinates, keeping its dtype.

    Integer data (labels) is looked up nearest-neighbour at floor(c + 0.5),
    float data interpolated trilinearly.  coords has shape (3, ...) in
    voxel units.  ``oob`` selects what lies beyond the voxel-center hull:
    "zero" reads zeros (background), "clamp" replicates the edge.  ``out``,
    when given, receives the result: a C-contiguous array of the data's
    dtype and the shape of ``coords[0]``.  It may be ``coords[0]`` itself,
    as each chunk of points is read before any result lands on it.

    Bit-identical to scipy's map_coordinates (order 0 or 1, mode
    "grid-constant" or "nearest"): in float64, w0 = 1 - (c - floor(c))
    and w1 = 1 - w0 from the unclamped coordinate, then the sum from 0.0
    of ((v * wx) * wy) * wz over the 8 corners, z fastest.  The source is
    read where it lies, with no padded or float64 copy: each gathered
    corner is widened to float64 in its first multiply, which is exact for
    float32.  A point whose corners all lie inside the hull reads them at
    constant offsets from one flat index.  In zero mode a point with every
    corner beyond the hull on some axis samples 0.  The rest, the one-voxel
    band around the hull, is gathered over chunks and sampled a corner
    index per axis at a time, each clamped into the hull: in clamp mode
    that is the edge's value, and in zero mode an out-of-hull corner adds
    +-0.0, as the zero it reads past the hull would (see ``_Band``).
    """
    if oob not in ("zero", "clamp"):
        raise ValueError(f"unknown oob mode {oob!r}")
    data = np.ascontiguousarray(data)
    coords = np.asarray(coords)
    if data.ndim != 3 or coords.shape[:1] != (3,):
        raise ValueError(f"expected 3D data and (3, ...) coords, got {data.shape} and {coords.shape}")
    if out is None:
        out = np.empty(coords.shape[1:], dtype=data.dtype)
    elif out.shape != coords.shape[1:] or out.dtype != data.dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be C-contiguous {data.dtype} of shape {coords.shape[1:]}, got {out.dtype} {out.shape}"
        )
    nearest = np.issubdtype(data.dtype, np.integer)
    zero = oob == "zero"
    src = data.ravel()
    dims = np.array(data.shape, dtype=np.float64)[:, None]
    strides = [int(np.prod(data.shape[i + 1 :])) for i in range(3)]
    pts = coords.reshape(3, -1)
    res = out.reshape(-1)
    band = _Band(src, strides, dims, zero, res)
    # with a single voxel on some axis no trilinear point has all its corners inside
    degenerate = not nearest and min(data.shape) < 2
    for s in range(0, pts.shape[1], _CHUNK):
        c = pts[:, s : s + _CHUNK].astype(np.float64)
        if degenerate:
            band.add(np.arange(s, s + c.shape[1]), c, np.floor(c))
            continue
        # the chunk's scratch is local to _sample_chunk, so it is gone before
        # the band's batch may be sampled
        sel, c_band, fl_band = _sample_chunk(src, strides, dims, c, res[s : s + _CHUNK], nearest, zero)
        band.add(s + sel, c_band, fl_band)
    band.flush()
    return out


def _sample_chunk(src, strides, dims, c, chunk, nearest, zero):
    """Sample one chunk of points ``c`` (float64, consumed) into ``chunk``.

    Every point takes the interior path with its low corner clamped into
    the hull, so every read is in range.  Returns (positions in the chunk,
    coordinates, floors) of the trilinear points that need the band path;
    zero mode's points beyond the band are set to 0.  Each scratch array
    is dropped once read, so a chunk holds about 100 bytes a point.
    """
    fl = np.floor(np.add(c, 0.5, out=c) if nearest else c)
    # the largest low corner whose corners all lie inside the hull
    low = np.clip(fl, 0.0, dims - (1.0 if nearest else 2.0))
    moved = np.not_equal(low, fl)  # NaN counts as moved
    outside = moved[0] | moved[1]
    outside |= moved[2]
    del moved
    flat = low[0] * strides[0]
    flat += low[1] * strides[1]
    flat += low[2]
    del low
    flat = flat.astype(np.intp)
    none = np.empty(0, dtype=np.intp)
    if nearest:
        # low is the nearest voxel clamped into the hull: clamp mode's answer
        src.take(flat, out=chunk, mode="clip")
        if zero:
            np.copyto(chunk, 0, where=outside)
        return none, None, None
    sel = none
    if outside.any():
        if zero:
            # a point with every corner beyond the hull on some axis samples
            # 0; one with a non-finite coordinate has NaN weights, so it is band
            near = (fl >= -1.0) & (fl <= dims - 1.0)
            near = near[0] & near[1] & near[2]
            if not np.isfinite(c).all():
                near |= ~np.isfinite(c).all(axis=0)
            near &= outside
            sel = np.flatnonzero(near)
            del near
        else:
            sel = np.flatnonzero(outside)
    c_band, fl_band = c.take(sel, axis=1), fl.take(sel, axis=1)
    frac = np.subtract(c, fl, out=c)
    del fl
    chunk[...] = _trilinear(src, strides, flat, frac)
    if zero:
        np.copyto(chunk, 0, where=outside)
    return sel, c_band, fl_band


def _weights(frac: np.ndarray):
    """Per-axis (w0, w1) rows of fractions ``frac``: w0 = 1 - frac, w1 = 1 - w0 (in ``frac``)."""
    w0 = np.subtract(1.0, frac)
    return w0, np.subtract(1.0, w0, out=frac)


def _trilinear(src, strides, idx, frac):
    """Trilinear samples of points whose eight corners lie inside the hull.

    ``idx`` is each point's low corner as a flat index; every corner is
    read at a constant offset from it.
    """
    w = _weights(frac)
    acc = np.zeros(idx.size)
    term = np.empty_like(acc)
    corner = np.empty(idx.size, dtype=src.dtype)
    for dx, dy, dz in np.ndindex(2, 2, 2):
        # every index is in range, so take's "clip" mode only skips the bounds check
        src[dx * strides[0] + dy * strides[1] + dz * strides[2] :].take(idx, out=corner, mode="clip")
        np.copyto(term, corner)  # exact, and cheaper than a mixed-type multiply
        term *= w[dx][0]
        term *= w[dy][1]
        term *= w[dz][2]
        acc += term
    return acc


# Band points per batch: a batch's scratch, about 200 bytes a point, stays
# below a megabyte.
_BAND_BATCH = 1 << 12


class _Band:
    """Trilinear points near the hull, sampled in batches of about ``_BAND_BATCH``.

    Each axis's two corner indices are clamped into the hull.  In zero
    mode a corner outside it on any axis weighs 0 on that axis: with a
    finite value its term is +-0.0, which leaves the sum as it is, and a
    batch that reads a NaN or inf at such a corner sets that value to 0
    first.  The results land in ``res`` at the points' flat positions,
    all of which were read before they were added.
    """

    def __init__(self, src, strides, dims, zero, res):
        self.src, self.strides, self.dims, self.zero, self.res = src, strides, dims, zero, res
        self.parts, self.size = [], 0

    def add(self, pos, c, fl):
        if pos.size:
            self.parts.append((pos, c, fl))
            self.size += pos.size
        if self.size >= _BAND_BATCH:
            self.flush()

    def flush(self):
        if not self.parts:
            return
        pos, c, fl = (np.concatenate(p, axis=-1) for p in zip(*self.parts))
        self.parts, self.size = [], 0
        lo = np.clip(fl, -2.0, self.dims).astype(np.intp)  # NaN casts to some integer; its weights are NaN
        w = _weights(np.subtract(c, fl, out=c))
        del fl
        hi = self.dims.astype(np.intp) - 1
        strides = np.array(self.strides)[:, None]
        offsets, inside = [], []
        for side in (lo, lo + 1):
            inside.append((side >= 0) & (side <= hi))
            offsets.append(np.clip(side, 0, hi, out=side) * strides)
        del lo
        if self.zero:
            for k in range(2):
                np.multiply(w[k], inside[k], out=w[k])
        acc = np.zeros(pos.size)
        for dx, dy, dz in np.ndindex(2, 2, 2):
            corner = self.src.take(offsets[dx][0] + offsets[dy][1] + offsets[dz][2], mode="clip")
            if self.zero and not np.isfinite(corner).all():
                corner[~(inside[dx][0] & inside[dy][1] & inside[dz][2])] = 0
            term = np.multiply(corner, w[dx][0])
            term *= w[dy][1]
            term *= w[dz][2]
            acc += term
        self.res[pos] = acc
