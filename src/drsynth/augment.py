"""Randomized spatial and intensity augmentations for 3D volumes.

Spatial side: random affines (rotation, scale, translation, shear composed
about the volume center) and diffeomorphic deformations built by sampling
a coarse stationary velocity field and integrating it with scaling and
squaring.  Intensity side: multiplicative bias fields (exponentiated
smooth Gaussian fields), gamma contrast, additive Gaussian noise,
separable Gaussian blur, and acquisition-resolution simulation
(FWHM-matched blur, downsample, upsample back to the source grid).

Two named profiles select which of these ``generator.generate_sample``
applies: the full randomization chain (everything on, parameters drawn per
sample) and a light chain (each of affine, gamma, noise and blur gated at
probability 0.5, drawn up front as a ``SimplePlan``).

All randomness comes through an explicit ``numpy.random.Generator`` and
draws happen in a fixed order, so a stage is reproducible from its stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidGamma, InvalidRange
from .volume import InterpKind, LabelMap, Volume3D, resample, sample_at_voxels

_FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


# ---------------------------------------------------------------------------
# affine transforms


@dataclass(frozen=True)
class AffineRanges:
    """Symmetric draw ranges for the random affine.

    rotation ~ U(+-rotation_rad) per axis, scale ~ U(1 +- scale_delta),
    translation ~ U(+-translation_mm), shear coefficients ~ U(+-shear).
    """

    rotation_rad: float = 0.2
    scale_delta: float = 0.1
    translation_mm: float = 30.0
    shear: float = 0.1


@dataclass(frozen=True)
class AffineParams:
    """A drawn affine: the map is T @ R @ Sh @ Sc applied about the center.

    The matrix maps output-voxel physical coordinates (mm, relative to the
    volume center) to the input sampling location, i.e. it is the backward
    warp used for resampling.
    """

    rotation: tuple[float, float, float]
    scale: tuple[float, float, float]
    translation: tuple[float, float, float]
    shear: tuple[float, float, float, float, float, float]

    def matrix(self) -> np.ndarray:
        rx, ry, rz = self.rotation
        cx, sx = np.cos(rx), np.sin(rx)
        cy, sy = np.cos(ry), np.sin(ry)
        cz, sz = np.cos(rz), np.sin(rz)
        mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        rot = mz @ my @ mx
        sxy, sxz, syx, syz, szx, szy = self.shear
        sh = np.array([[1, sxy, sxz], [syx, 1, syz], [szx, szy, 1]], dtype=np.float64)
        m = np.eye(4)
        m[:3, :3] = rot @ sh @ np.diag(self.scale)
        m[:3, 3] = self.translation
        return m

    def as_dict(self) -> dict:
        return {
            "rotation": list(self.rotation),
            "scale": list(self.scale),
            "translation": list(self.translation),
            "shear": list(self.shear),
        }


def draw_affine(ranges: AffineRanges, rng: np.random.Generator) -> AffineParams:
    """Draw affine parameters (rotation, scale, translation, shear order)."""
    r = ranges
    rotation = tuple(rng.uniform(-r.rotation_rad, r.rotation_rad, 3))
    scale = tuple(rng.uniform(1.0 - r.scale_delta, 1.0 + r.scale_delta, 3))
    translation = tuple(rng.uniform(-r.translation_mm, r.translation_mm, 3))
    shear = tuple(rng.uniform(-r.shear, r.shear, 6))
    return AffineParams(rotation, scale, translation, shear)


# ---------------------------------------------------------------------------
# diffeomorphic deformations


@dataclass(frozen=True)
class SvfConfig:
    """Stationary-velocity-field deformation settings.

    The default magnitude keeps the largest displacement around three
    voxels (under four), small enough that the integrated map stays
    numerically diffeomorphic with plenty of margin.
    """

    control_points: int = 10
    sigma_vox: float = 0.75
    integration_steps: int = 7


@dataclass(frozen=True)
class DeformationField:
    """A dense displacement field in mm over the volume grid."""

    disp_mm: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.disp_mm, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[3] != 3:
            raise InvalidRange(f"displacement field must be (nx, ny, nz, 3), got {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "disp_mm", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.disp_mm.shape[:3]

    def as_voxels(self, spacing) -> np.ndarray:
        return self.disp_mm / np.asarray(spacing, dtype=np.float32)


def _axis_ramp(n: int, axis: int) -> np.ndarray:
    """arange(n) shaped to broadcast along one axis of a 3D grid."""
    shape = [1, 1, 1]
    shape[axis] = n
    return np.arange(n, dtype=np.float32).reshape(shape)


def _separable_linear(arr: np.ndarray, positions) -> np.ndarray:
    """Linearly resample the three leading axes of ``arr``, one axis at a time.

    ``positions[i]`` holds fractional source coordinates along axis i,
    edge-clamped.  Because trilinear interpolation factorizes over axes this
    equals dense trilinear sampling on the tensor-product grid, at a fraction
    of the gather traffic.
    """
    for axis, pos in enumerate(positions):
        n_in = arr.shape[axis]
        pos = np.clip(np.asarray(pos, dtype=np.float64), 0.0, n_in - 1.0)
        i0 = np.minimum(pos.astype(np.int64), max(n_in - 2, 0))
        lo = np.take(arr, i0, axis=axis)
        hi = np.take(arr, np.minimum(i0 + 1, n_in - 1), axis=axis)
        shape = [1] * arr.ndim
        shape[axis] = pos.size
        # two-weight form: exact at integer positions, unlike lo + (hi-lo)*f
        w1 = (pos - i0).astype(arr.dtype).reshape(shape)
        lo *= 1.0 - w1
        hi *= w1
        lo += hi
        arr = lo
    return arr


def upsample_control_grid(ctrl: np.ndarray, dims) -> np.ndarray:
    """Trilinearly upsample a coarse control grid to full resolution.

    Control points are corner-aligned: point 0 sits on voxel 0 and the last
    point on the last voxel of each axis.
    """
    dims = tuple(int(d) for d in dims)
    c = ctrl.shape[:3]
    positions = [
        np.linspace(0.0, c[i] - 1.0, dims[i]) if dims[i] > 1 else np.zeros(1)
        for i in range(3)
    ]
    return _separable_linear(np.asarray(ctrl, dtype=np.float32), positions)


# Voxels per slab of whole x-planes in integrate_velocity.  Its scratch
# takes about 130 bytes per slab voxel (4 MiB here), half of it the eight
# corner index arrays; 2**15 and 2**16 timed fastest of 2**13..2**17 at 128^3.
_SLAB_VOXELS = 1 << 15


def integrate_velocity(vel_vox: np.ndarray, steps: int = 7) -> np.ndarray:
    """Integrate a stationary velocity field by scaling and squaring.

    The field is divided by 2**steps and composed with itself ``steps``
    times: u <- u + u(x + u), with edge-clamped trilinear sampling of u.
    Inputs and outputs are in voxel units.  The sampler is hand-fused:
    the three channels share one set of gather indices and lerp weights.

    Each squaring step runs over slabs of whole x-planes (about
    ``_SLAB_VOXELS`` voxels) rather than the whole volume.  The
    gather-and-lerp chain is memory-bound: whole-volume index and lerp
    scratch (about 150 MiB at 128^3) streams through main memory once per
    operation, while slab-sized scratch stays in cache.  The eight corner
    indices of a slab are computed once and shared by the three channels.
    Gathers read the whole previous-step field and every float32
    operation is elementwise and in the same order as a whole-volume pass
    (z-lerps, then y, then x), so the result matches that pass bit for
    bit, whatever the slab size.
    """
    vel = np.asarray(vel_vox, dtype=np.float32)
    dims = vel.shape[:3]
    nx, ny, nz = dims
    # channel-first working copies keep the gathers contiguous
    disp = np.empty((3,) + dims, dtype=np.float32)
    for ch in range(3):
        disp[ch] = vel[..., ch]
    disp /= np.float32(2**steps)

    # size-1 axes degenerate to stride 0: both lerp endpoints read voxel 0
    sx, sy, sz = (
        int(np.prod(dims[i + 1 :])) if dims[i] > 1 else 0 for i in range(3)
    )
    # corner order (x, y, z) = 000, 001, 010, 011, 100, 101, 110, 111
    offsets = np.array(
        [0, sz, sy, sy + sz, sx, sx + sz, sx + sy, sx + sy + sz], dtype=np.intp
    ).reshape(8, 1, 1, 1)
    rows = max(1, min(nx, _SLAB_VOXELS // max(ny * nz, 1)))
    slab = (rows, ny, nz)
    ramps = [_axis_ramp(n, i) for i, n in enumerate(dims)]
    coord = np.empty(slab, dtype=np.float32)
    idx0 = [np.empty(slab, dtype=np.intp) for _ in range(3)]
    frac = [np.empty(slab, dtype=np.float32) for _ in range(3)]
    base = np.empty(slab, dtype=np.intp)
    corners = np.empty((8,) + slab, dtype=np.intp)
    lerp = [np.empty(slab, dtype=np.float32) for _ in range(4)]
    acc = np.empty(slab, dtype=np.float32)
    nxt = np.empty_like(disp)

    for _ in range(steps):
        for x0 in range(0, nx, rows):
            x1 = min(x0 + rows, nx)
            r = x1 - x0
            c = coord[:r]
            for i, n in enumerate(dims):
                ii = idx0[i][:r]
                np.add(ramps[i][x0:x1] if i == 0 else ramps[i], disp[i, x0:x1], out=c)
                np.clip(c, 0.0, n - 1.0, out=c)
                np.copyto(ii, c, casting="unsafe")  # trunc == floor, coord >= 0
                np.minimum(ii, max(n - 2, 0), out=ii)
                np.subtract(c, ii, out=frac[i][:r])
            b = base[:r]
            np.multiply(idx0[0][:r], ny, out=b)
            np.add(b, idx0[1][:r], out=b)
            np.multiply(b, nz, out=b)
            np.add(b, idx0[2][:r], out=b)
            cs = corners[:, :r]
            np.add(b, offsets, out=cs)
            fx, fy, fz = (f[:r] for f in frac)
            g00, g01, g10, g11 = (g[:r] for g in lerp)
            a = acc[:r]
            for ch in range(3):
                src = disp[ch].ravel()
                # indices stay in range by construction; mode="clip" skips the
                # per-element bounds check np.take does in its default mode
                for j, out in enumerate((g00, g01, g10, g11)):
                    np.take(src, cs[2 * j], out=out, mode="clip")
                    np.take(src, cs[2 * j + 1], out=a, mode="clip")
                    np.subtract(a, out, out=a)
                    np.multiply(a, fz, out=a)
                    np.add(out, a, out=out)
                np.subtract(g01, g00, out=g01)
                np.multiply(g01, fy, out=g01)
                np.add(g00, g01, out=g00)
                np.subtract(g11, g10, out=g11)
                np.multiply(g11, fy, out=g11)
                np.add(g10, g11, out=g10)
                np.subtract(g10, g00, out=g10)
                np.multiply(g10, fx, out=g10)
                np.add(g00, g10, out=g00)
                np.add(disp[ch, x0:x1], g00, out=nxt[ch, x0:x1])
        disp, nxt = nxt, disp
    # the spare field buffer takes the channel-last result
    out = nxt.reshape(dims + (3,))
    np.copyto(out, np.moveaxis(disp, 0, -1))
    return out


def draw_svf_control(cfg: SvfConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the control-grid velocities: i.i.d. N(0, sigma_vox^2) per component."""
    c = int(cfg.control_points)
    return rng.standard_normal((c, c, c, 3)).astype(np.float32) * np.float32(cfg.sigma_vox)


def svf_from_control(ctrl: np.ndarray, dims, spacing, steps: int = 7) -> DeformationField:
    """Upsample control velocities to the grid and integrate them (mm output)."""
    vel = upsample_control_grid(np.asarray(ctrl, dtype=np.float32), dims)
    disp_vox = integrate_velocity(vel, steps)
    disp_mm = disp_vox * np.asarray(spacing, dtype=np.float32)
    return DeformationField(disp_mm)


def draw_svf_deformation(dims, spacing, cfg: SvfConfig, rng: np.random.Generator) -> DeformationField:
    """Draw a random diffeomorphic deformation for a grid.

    Velocity components are i.i.d. N(0, sigma_vox^2) on the control grid,
    upsampled trilinearly, then integrated.  Returned displacements are in
    mm on the full grid.
    """
    return svf_from_control(draw_svf_control(cfg, rng), dims, spacing, cfg.integration_steps)


def jacobian_determinant(field: DeformationField, spacing) -> np.ndarray:
    """Voxelwise finite-difference Jacobian determinant of id + field.

    Central differences inside, one-sided at the border, all in voxel
    units.  Positive everywhere means the map is locally invertible.
    """
    d = field.as_voxels(spacing).astype(np.float64)
    jac = np.empty(d.shape[:3] + (3, 3))
    for i in range(3):
        grads = np.gradient(d[..., i], axis=(0, 1, 2))
        for j in range(3):
            jac[..., i, j] = grads[j]
        jac[..., i, i] += 1.0
    a = jac
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )


def transform_coordinates(dims, spacing, affine: AffineParams | None, field: DeformationField | None) -> np.ndarray:
    """Sampling grid (voxel units, channel-first) of affine o (id + field).

    Entry [i, x, y, z] is the source coordinate along axis i at which output
    voxel (x, y, z) samples the input.  Shared by every volume warped through
    the same transform.
    """
    dims = tuple(int(d) for d in dims)
    spacing = np.asarray(spacing, dtype=np.float32)
    pos = np.empty((3,) + dims, dtype=np.float32)
    for i in range(3):
        np.multiply(_axis_ramp(dims[i], i), spacing[i], out=pos[i])
    if field is not None:
        if field.dims != dims:
            raise InvalidRange("displacement field dims do not match the volume")
        for i in range(3):
            pos[i] += field.disp_mm[..., i]

    if affine is not None:
        center = (np.asarray(dims, dtype=np.float64) - 1.0) / 2.0 * spacing
        m = affine.matrix()
        pos -= center.astype(np.float32)[:, None, None, None]
        lin = m[:3, :3].astype(np.float32)
        pos = np.einsum("ij,jxyz->ixyz", lin, pos)
        pos += (m[:3, 3] + center).astype(np.float32)[:, None, None, None]

    pos /= spacing[:, None, None, None]
    return pos


def apply_transform(
    vol,
    affine: AffineParams | None,
    field: DeformationField | None,
    coords: np.ndarray | None = None,
):
    """Backward-warp a volume or label map through affine o (id + field).

    Each output voxel samples the input at the affine image (about the
    volume center, in physical mm) of its own position plus the local
    displacement.  Out-of-bounds samples take 0.  Label maps use
    nearest-neighbour lookup and stay int32, volumes trilinear
    interpolation.  ``coords`` short-circuits the grid build when the
    caller warps several volumes through one transform.
    """
    if affine is None and field is None and coords is None:
        return vol.with_data(vol.data)

    if coords is None:
        coords = transform_coordinates(vol.dims, vol.spacing, affine, field)
    if isinstance(vol, LabelMap):
        data = sample_at_voxels(vol.data, coords, InterpKind.NEAREST, oob="zero")
        return vol.with_data(data.astype(np.int32))
    return vol.with_data(sample_at_voxels(vol.data, coords, InterpKind.TRILINEAR, oob="zero"))


# ---------------------------------------------------------------------------
# intensity corruptions


@dataclass(frozen=True)
class CorruptionConfig:
    """Intensity-corruption draw ranges.

    ``noise_sigma_range`` and ``simple_noise_sigma`` are in normalized
    units (relative to the volume maximum), so 0.1 means 10% of peak.
    ``op_probability`` gates each op of the light profile.
    """

    bias_control_points: int = 4
    bias_log_sigma: float = 0.3
    gamma_range: tuple[float, float] = (0.5, 1.5)
    noise_sigma_range: tuple[float, float] = (0.0, 0.1)
    blur_sigma_mm_range: tuple[float, float] = (0.5, 1.5)
    simple_noise_sigma: float = 0.1
    op_probability: float = 0.5


def sample_bias_control(cfg: CorruptionConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the log-bias control grid: i.i.d. N(0, bias_log_sigma^2)."""
    c = int(cfg.bias_control_points)
    return rng.standard_normal((c, c, c)) * cfg.bias_log_sigma


def bias_field_from_control(ctrl: np.ndarray, dims) -> np.ndarray:
    """Exponentiated trilinear upsampling of a log-bias control grid."""
    return np.exp(upsample_control_grid(np.asarray(ctrl, dtype=np.float32), dims))


def apply_bias_field(vol: Volume3D, bias: np.ndarray) -> Volume3D:
    """Multiply by a positive smooth field; zero background stays zero."""
    if bias.shape != vol.dims:
        raise InvalidRange("bias field dims do not match the volume")
    return vol.with_data(vol.data * np.asarray(bias, dtype=np.float32))


def gamma_contrast(vol: Volume3D, gamma: float) -> Volume3D:
    """Power-law contrast: normalize to [0, 1], raise to gamma, restore range.

    Constant volumes pass through unchanged; gamma must be positive.
    """
    if not gamma > 0:
        raise InvalidGamma(f"gamma must be > 0, got {gamma}")
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    if hi == lo:
        return vol.with_data(vol.data)
    unit = (vol.data - lo) / (hi - lo)
    return vol.with_data(unit**np.float32(gamma) * (hi - lo) + lo)


def add_gaussian_noise(vol: Volume3D, sigma: float, rng: np.random.Generator) -> Volume3D:
    """Additive i.i.d. Gaussian noise, sigma in normalized units.

    The absolute noise scale is sigma times the volume maximum (1.0 when
    the volume is non-positive), matching noise specified on [0, 1] data.
    """
    peak = float(vol.data.max())
    scale = peak if peak > 0 else 1.0
    noise = rng.standard_normal(vol.dims).astype(np.float32) * np.float32(sigma * scale)
    return vol.with_data(vol.data + noise)


def gaussian_blur(vol: Volume3D, sigma_mm) -> Volume3D:
    """Separable Gaussian blur with a 3-sigma-truncated, sum-1 kernel.

    ``sigma_mm`` is a scalar or per-axis triple in mm; kernel widths are
    sigma_mm / spacing voxels.  Borders replicate the edge value, so
    constant volumes stay constant.
    """
    sig = np.broadcast_to(np.asarray(sigma_mm, dtype=np.float64), (3,))
    if np.any(sig < 0):
        raise InvalidRange(f"blur sigma must be >= 0, got {sigma_mm!r}")
    data = vol.data
    for axis in range(3):
        s_vox = sig[axis] / vol.spacing[axis]
        if s_vox > 1e-8:
            data = ndimage.gaussian_filter1d(data, s_vox, axis=axis, mode="nearest", truncate=3.0)
    return vol.with_data(data)


def rescale_unit(arr: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; constant arrays map to zeros."""
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        return np.zeros_like(arr, dtype=np.float32)
    return ((arr - lo) / (hi - lo)).astype(np.float32)


# ---------------------------------------------------------------------------
# resolution simulation


@dataclass(frozen=True)
class ResolutionSim:
    """Acquisition-resolution draw ranges (mm).

    One in-plane spacing is drawn for the two in-plane axes and one slice
    thickness for the slice axis, which is drawn uniformly from the three
    axes unless pinned.
    """

    inplane_range_mm: tuple[float, float] = (0.5, 1.5)
    thickness_range_mm: tuple[float, float] = (3.0, 4.5)
    slice_axis: int | None = None


def draw_resolution(cfg: ResolutionSim, source_spacing, rng: np.random.Generator):
    """Draw (target spacing triple, slice axis); targets clamp to >= source."""
    axis = cfg.slice_axis if cfg.slice_axis is not None else int(rng.integers(0, 3))
    inplane = float(rng.uniform(*cfg.inplane_range_mm))
    thickness = float(rng.uniform(*cfg.thickness_range_mm))
    target = [inplane] * 3
    target[axis] = thickness
    target = tuple(max(t, s) for t, s in zip(target, source_spacing))
    return target, axis


def simulate_resolution(vol: Volume3D, target_spacing) -> Volume3D:
    """Simulate acquiring at a coarser resolution, back on the source grid.

    Per axis the volume is blurred with sigma = (target - source) mm /
    (2 sqrt(2 ln 2)) (FWHM matched to the extra slice width, floored at 0),
    downsampled to the target spacing, and trilinearly sampled back onto
    the original grid.  Constant volumes come back constant to rounding.
    """
    src = np.asarray(vol.spacing, dtype=np.float64)
    tgt = np.maximum(np.asarray(target_spacing, dtype=np.float64), src)
    sigma_mm = np.maximum(tgt - src, 0.0) / _FWHM_TO_SIGMA
    blurred = gaussian_blur(vol, sigma_mm)
    low = resample(blurred, tuple(tgt), oob="clamp")
    # Sample the coarse grid back at the original voxel centers (shared
    # world frame, edge-clamped): original voxel v sits at coarse
    # coordinate (v + 0.5) * src/tgt - 0.5.
    scale = src / tgt
    positions = [(np.arange(n) + 0.5) * s - 0.5 for n, s in zip(vol.dims, scale)]
    back = _separable_linear(low.data.astype(np.float64), positions)
    return vol.with_data(back.astype(np.float32))


# ---------------------------------------------------------------------------
# profiles


class AugmentProfile(enum.Enum):
    SYNTHSEG_FULL = "synthseg"
    SIMPLE = "simple"


@dataclass(frozen=True)
class SimplePlan:
    """Drawn decisions of the light profile (gates first, then parameters)."""

    apply_affine: bool
    apply_gamma: bool
    apply_noise: bool
    apply_blur: bool
    affine: AffineParams | None = None
    gamma: float | None = None
    noise_sigma: float = 0.0
    blur_sigma_mm: float | None = None

    def as_dict(self) -> dict:
        out = {
            "apply_affine": self.apply_affine,
            "apply_gamma": self.apply_gamma,
            "apply_noise": self.apply_noise,
            "apply_blur": self.apply_blur,
            "noise_sigma": self.noise_sigma,
        }
        if self.affine is not None:
            out["affine"] = self.affine.as_dict()
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.blur_sigma_mm is not None:
            out["blur_sigma_mm"] = self.blur_sigma_mm
        return out


def draw_simple_plan(
    affine_ranges: AffineRanges,
    corruption: CorruptionConfig,
    rng: np.random.Generator,
) -> SimplePlan:
    """Draw the light-profile plan: four 0.5-probability gates, then params."""
    p = corruption.op_probability
    gates = rng.uniform(size=4) < p
    affine = draw_affine(affine_ranges, rng) if gates[0] else None
    gamma = float(rng.uniform(*corruption.gamma_range)) if gates[1] else None
    blur = float(rng.uniform(*corruption.blur_sigma_mm_range)) if gates[3] else None
    return SimplePlan(
        apply_affine=bool(gates[0]),
        apply_gamma=bool(gates[1]),
        apply_noise=bool(gates[2]),
        apply_blur=bool(gates[3]),
        affine=affine,
        gamma=gamma,
        noise_sigma=corruption.simple_noise_sigma,
        blur_sigma_mm=blur,
    )
