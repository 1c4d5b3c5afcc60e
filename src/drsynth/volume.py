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
from scipy import ndimage

from .errors import GeometryError, UnknownLabel


class InterpKind(enum.Enum):
    NEAREST = "nearest"
    TRILINEAR = "trilinear"


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
    if len(spacing) != 3 or any(s <= 0 for s in spacing):
        raise GeometryError(f"spacing must be three positive floats, got {spacing!r}")
    if affine.shape != (4, 4):
        raise GeometryError(f"affine must be 4x4, got {affine.shape}")
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
    """An integer label volume with a declared scheme."""

    data: np.ndarray
    spacing: tuple[float, float, float]
    scheme: LabelScheme
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data)
        if not np.issubdtype(data.dtype, np.integer):
            raise UnknownLabel(f"label data must be integer-typed, got {data.dtype}")
        data = data.astype(np.int32, copy=False)
        affine = np.asarray(self.affine, dtype=np.float64)
        spacing = tuple(float(s) for s in self.spacing)
        _check_geometry(data, spacing, affine)
        if data.size and data.min() < 0:
            raise UnknownLabel("negative label values")
        hi = _SCHEME_MAX.get(self.scheme)
        if hi is not None and data.size and data.max() > hi:
            raise UnknownLabel(
                f"label value {int(data.max())} outside scheme {self.scheme.value} (max {hi})"
            )
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "affine", _freeze(affine))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "LabelMap":
        return LabelMap(data, self.spacing, self.scheme, self.affine)


def same_grid(a, b) -> bool:
    """True when two containers share dims, and spacing and affine to 1e-5."""
    return (
        a.dims == b.dims
        and np.allclose(a.spacing, b.spacing, atol=1e-5)
        and np.allclose(a.affine, b.affine, atol=1e-5)
    )


def require_same_grid(a, b, what: str = "inputs"):
    if not same_grid(a, b):
        raise GeometryError(f"{what} must share dims, spacing, and affine")


def sample_at_voxels(
    data: np.ndarray,
    coords: np.ndarray,
    interp: InterpKind,
    oob: str = "zero",
) -> np.ndarray:
    """Sample ``data`` at fractional voxel coordinates.

    coords has shape (3, ...) in voxel units.  ``oob`` selects what lies
    beyond the voxel-center hull: "zero" pads with zeros (background),
    "clamp" replicates the edge.
    """
    order = 0 if interp is InterpKind.NEAREST else 1
    if oob == "zero":
        mode, cval = "grid-constant", 0.0
    elif oob == "clamp":
        mode, cval = "nearest", 0.0
    else:
        raise ValueError(f"unknown oob mode {oob!r}")
    return ndimage.map_coordinates(data, coords, order=order, mode=mode, cval=cval)


def _resampled_geometry(vol, target_spacing):
    src = np.asarray(vol.spacing, dtype=np.float64)
    tgt = np.asarray(target_spacing, dtype=np.float64)
    if tgt.shape != (3,) or np.any(tgt <= 0):
        raise GeometryError(f"target spacing must be three positive floats, got {target_spacing!r}")
    dims = np.asarray(vol.dims)
    # eps absorbs float noise so an exact spacing ratio never gains a voxel
    out_dims = np.ceil(dims * src / tgt - 1e-9).astype(int)
    out_dims = np.maximum(out_dims, 1)
    # Output voxel centers live in the input voxel frame at
    # (v + 0.5) * tgt/src - 0.5, i.e. the two grids cover the same extent.
    scale = tgt / src
    shift = 0.5 * scale - 0.5
    affine = np.array(vol.affine, dtype=np.float64)
    new_affine = affine.copy()
    new_affine[:3, :3] = affine[:3, :3] * scale[np.newaxis, :]
    new_affine[:3, 3] = affine[:3, 3] + affine[:3, :3] @ shift
    return out_dims, scale, shift, new_affine


def resample(vol, target_spacing, *, oob: str = "zero"):
    """Resample a volume or label map onto a new spacing.

    Output dims are ceil(dim * spacing / target) per axis and voxel centers
    are mapped through the shared world frame, so resampling at the source
    spacing is the identity.  Samples falling outside the input take the
    background value 0.  Label maps use nearest-neighbour lookup, volumes
    trilinear interpolation.
    """
    out_dims, scale, shift, new_affine = _resampled_geometry(vol, target_spacing)
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in out_dims], indexing="ij")
    coords = np.stack([g * s + h for g, s, h in zip(grids, scale, shift)])

    tgt = tuple(float(t) for t in target_spacing)
    if isinstance(vol, LabelMap):
        data = sample_at_voxels(vol.data, coords, InterpKind.NEAREST, oob=oob)
        return LabelMap(data.astype(np.int32), tgt, vol.scheme, new_affine)
    data = sample_at_voxels(vol.data.astype(np.float64), coords, InterpKind.TRILINEAR, oob=oob)
    return Volume3D(data.astype(np.float32), tgt, new_affine)
