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
sample) and a light chain (affine, gamma, noise and blur each gated at
``op_probability``, drawn up front as a ``SimplePlan`` whose set fields
the sidecar records).

All randomness comes through an explicit ``numpy.random.Generator`` and
draws happen in a fixed order, so a stage is reproducible from its stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGamma, InvalidRange
from .volume import Volume3D, sample_at_voxels

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


def _axis_ramp(n: int, axis: int) -> np.ndarray:
    """arange(n) shaped to broadcast along one axis of a 3D grid."""
    shape = [1, 1, 1]
    shape[axis] = n
    return np.arange(n, dtype=np.float32).reshape(shape)


# Output values per block of _separable_linear, and voxels per block of
# transform_coordinates' affine: a block's scratch stays in cache, and no
# full-size scratch is made.
_LINEAR_BLOCK = 1 << 16


def _separable_linear(arr: np.ndarray, positions, dtype=None) -> np.ndarray:
    """Linearly resample the three leading axes of ``arr``, one axis at a time.

    ``positions[i]`` holds fractional source coordinates along axis i,
    edge-clamped.  Because trilinear interpolation factorizes over axes this
    equals dense trilinear sampling on the tensor-product grid, at a fraction
    of the gather traffic.  The arithmetic runs in ``arr``'s dtype and the
    result is cast to ``dtype`` (default: the same).  It is filled a block
    of leading-axis rows at a time; every operation is elementwise, so the
    blocks change no bit, and no full-size scratch is made.
    """
    taps = []
    for pos, n_in in zip(positions, arr.shape):
        pos = np.clip(np.asarray(pos, dtype=np.float64), 0.0, n_in - 1.0)
        i0 = np.minimum(pos.astype(np.int64), max(n_in - 2, 0))
        # two-weight form: exact at integer positions, unlike lo + (hi-lo)*f
        w1 = (pos - i0).astype(arr.dtype)
        taps.append((i0, np.minimum(i0 + 1, n_in - 1), 1.0 - w1, w1))
    out = np.empty(tuple(len(t[0]) for t in taps) + arr.shape[3:], dtype=dtype or arr.dtype)
    rows = max(1, _LINEAR_BLOCK // max(out[0].size, 1))
    for a in range(0, out.shape[0], rows):
        block = arr
        for axis, (i0, i1, w0, w1) in enumerate(taps):
            if axis == 0:
                i0, i1, w0, w1 = (t[a : a + rows] for t in (i0, i1, w0, w1))
            shape = [1] * arr.ndim
            shape[axis] = i0.size
            lo = np.take(block, i0, axis=axis)
            hi = np.take(block, i1, axis=axis)
            lo *= w0.reshape(shape)
            hi *= w1.reshape(shape)
            lo += hi
            block = lo
        out[a : a + rows] = block
    return out


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
# takes 52 bytes per slab voxel (1.6 MiB here): the coordinate, three
# fractions, the base index and its cast, four lerp rows and one gather
# row.  2**15 and 2**16 timed fastest of 2**13..2**17 at 128^3.
_SLAB_VOXELS = 1 << 15


def integrate_velocity(vel_vox: np.ndarray, steps: int = 7) -> np.ndarray:
    """Integrate a stationary velocity field by scaling and squaring.

    The field is divided by 2**steps and composed with itself ``steps``
    times: u <- u + u(x + u), with edge-clamped trilinear sampling of u.
    Input and output are (nx, ny, nz, 3) in voxel units; the output is a
    channel-last view of channel-first storage.  The sampler is hand-fused:
    the three channels share one base index and one set of lerp weights.

    Each squaring step runs over slabs of whole x-planes (about
    ``_SLAB_VOXELS`` voxels) rather than the whole volume.  The
    gather-and-lerp chain is memory-bound: whole-volume index and lerp
    scratch (about 150 MiB at 128^3) streams through main memory once per
    operation, while slab-sized scratch stays in cache.  Gathers read the
    whole previous-step field and every float32 operation is elementwise
    and in the same order as a whole-volume pass (z-lerps, then y, then
    x), so the result matches that pass bit for bit, whatever the slab
    size.

    The floor, the clamp to n - 2 and the fraction are taken in float32,
    exactly: a clipped coordinate c lies in [0, n - 1], so floor(c) is a
    float32 integer and c - floor(c) keeps the low bits of c; where the
    clamp applies, n - 2 is 0 or within a factor of 2 of c, so c - (n - 2)
    is exact (Sterbenz's lemma).  The weights therefore equal those of
    integer indices with a float64 fraction, bit for bit.  The eight
    corners are read from one base index at constant offsets,
    ``src[offset:].take(base)``.
    The input is released once copied, so a caller that passes the only
    reference (CPython 3.11+ hands a call's arguments over to the callee)
    holds two fields at once, not three.
    """
    vel = np.asarray(vel_vox, dtype=np.float32)
    del vel_vox
    dims = vel.shape[:3]
    nx, ny, nz = dims
    # channel-first working copies keep the gathers contiguous
    disp = np.empty((3,) + dims, dtype=np.float32)
    for ch in range(3):
        disp[ch] = vel[..., ch]
    del vel
    disp /= np.float32(2**steps)

    # size-1 axes degenerate to stride 0: both lerp endpoints read voxel 0
    sx, sy, sz = (
        int(np.prod(dims[i + 1 :])) if dims[i] > 1 else 0 for i in range(3)
    )
    # corner order (x, y, z) = 000, 001, 010, 011, 100, 101, 110, 111
    offsets = [0, sz, sy, sy + sz, sx, sx + sz, sx + sy, sx + sy + sz]
    rows = max(1, min(nx, _SLAB_VOXELS // max(ny * nz, 1)))
    slab = (rows, ny, nz)
    ramps = [_axis_ramp(n, i) for i, n in enumerate(dims)]
    coord = np.empty(slab, dtype=np.float32)
    frac = [np.empty(slab, dtype=np.float32) for _ in range(3)]
    floor = np.empty(slab, dtype=np.intp)
    base = np.empty(slab, dtype=np.intp)
    lerp = [np.empty(slab, dtype=np.float32) for _ in range(4)]
    acc = np.empty(slab, dtype=np.float32)
    nxt = np.empty_like(disp)

    for _ in range(steps):
        for x0 in range(0, nx, rows):
            x1 = min(x0 + rows, nx)
            r = x1 - x0
            c, fl, b = coord[:r], floor[:r], base[:r]
            # base = (ix * ny + iy) * nz + iz, built axis by axis
            for i, n in enumerate(dims):
                f = frac[i][:r]
                np.add(ramps[i][x0:x1] if i == 0 else ramps[i], disp[i, x0:x1], out=c)
                np.clip(c, 0.0, n - 1.0, out=c)
                np.floor(c, out=f)
                np.minimum(f, max(n - 2, 0), out=f)
                np.copyto(fl if i else b, f, casting="unsafe")
                if i:
                    np.multiply(b, n, out=b)
                    np.add(b, fl, out=b)
                np.subtract(c, f, out=f)
            fx, fy, fz = (f[:r] for f in frac)
            g00, g01, g10, g11 = (g[:r] for g in lerp)
            a = acc[:r]
            for ch in range(3):
                src = disp[ch].ravel()
                # indices stay in range by construction; mode="clip" skips the
                # per-element bounds check np.take does in its default mode
                for j, out in enumerate((g00, g01, g10, g11)):
                    src[offsets[2 * j] :].take(b, out=out, mode="clip")
                    src[offsets[2 * j + 1] :].take(b, out=a, mode="clip")
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
    # channel-last view: each channel of it is one contiguous block
    return np.moveaxis(disp, 0, -1)


def draw_svf_control(cfg: SvfConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the control-grid velocities: i.i.d. N(0, sigma_vox^2) per component."""
    c = int(cfg.control_points)
    return rng.standard_normal((c, c, c, 3)).astype(np.float32) * np.float32(cfg.sigma_vox)


def svf_from_control(ctrl: np.ndarray, dims, spacing, steps: int = 7) -> np.ndarray:
    """Upsample control velocities to the grid and integrate them: (nx, ny, nz, 3) float32, in mm."""
    # passed as the only reference, so integrate_velocity can release it
    disp = integrate_velocity(upsample_control_grid(np.asarray(ctrl, dtype=np.float32), dims), steps)
    disp *= np.asarray(spacing, dtype=np.float32)
    return disp


def draw_svf_deformation(dims, spacing, cfg: SvfConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a random diffeomorphic deformation for a grid.

    Velocity components are i.i.d. N(0, sigma_vox^2) on the control grid,
    upsampled trilinearly, then integrated.  Returns the (nx, ny, nz, 3)
    float32 displacement in mm on the full grid.
    """
    return svf_from_control(draw_svf_control(cfg, rng), dims, spacing, cfg.integration_steps)


def jacobian_determinant(disp_mm: np.ndarray, spacing) -> np.ndarray:
    """Voxelwise finite-difference Jacobian determinant of id + displacement.

    ``disp_mm`` is (nx, ny, nz, 3) in mm.  Central differences inside,
    one-sided at the border, all in voxel units.  Positive everywhere means
    the map is locally invertible.
    """
    d = (disp_mm / np.asarray(spacing, dtype=np.float32)).astype(np.float64)
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


def transform_coordinates(dims, spacing, affine: AffineParams | None, disp_mm: np.ndarray | None) -> np.ndarray:
    """Sampling grid (voxel units, channel-first) of affine o (id + disp_mm).

    Entry [i, x, y, z] is the source coordinate along axis i at which output
    voxel (x, y, z) samples the input (the affine acts about the volume
    center, in mm; ``disp_mm`` is (nx, ny, nz, 3) in mm).  Every volume
    warped through the transform shares it: ``sample_at_voxels(vol.data, coords)``.
    """
    dims = tuple(int(d) for d in dims)
    spacing = np.asarray(spacing, dtype=np.float32)
    pos = np.empty((3,) + dims, dtype=np.float32)
    for i in range(3):
        np.multiply(_axis_ramp(dims[i], i), spacing[i], out=pos[i])
    if disp_mm is not None:
        if disp_mm.shape != dims + (3,):
            raise InvalidRange(f"displacement shape {disp_mm.shape} does not match the grid {dims + (3,)}")
        for i in range(3):
            pos[i] += disp_mm[..., i]

    if affine is not None:
        center = (np.asarray(dims, dtype=np.float64) - 1.0) / 2.0 * spacing
        m = affine.matrix()
        pos -= center.astype(np.float32)[:, None, None, None]
        lin = m[:3, :3].astype(np.float32)
        # in place, a slab of x-planes at a time, so no second full-size grid
        # is made; each output voxel reads only its own input voxel
        rows = max(1, _LINEAR_BLOCK // max(dims[1] * dims[2], 1))
        for a in range(0, dims[0], rows):
            pos[:, a : a + rows] = np.einsum("ij,jxyz->ixyz", lin, pos[:, a : a + rows])
        pos += (m[:3, 3] + center).astype(np.float32)[:, None, None, None]

    pos /= spacing[:, None, None, None]
    return pos


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


_BLUR_BLOCK = 1 << 15  # float64 values per padded block: a few scratch blocks stay in cache


def _gaussian_half_kernel(s_vox: float) -> np.ndarray:
    """w[j], the weight at distance j, of scipy's 3-sigma-truncated, sum-1 kernel."""
    radius = int(3.0 * s_vox + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (s_vox * s_vox) * x**2)
    return (phi / phi.sum())[radius:]


def _blur_axis(data: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``data`` with the symmetric kernel ``w`` along ``axis``.

    scipy's correlate1d arithmetic for a symmetric kernel in mode
    "nearest": in float64, x * w[0], then += (x[-j] + x[+j]) * w[j] for
    j = r..1, cast to the data's dtype.  Blocks over the other two axes
    are edge-padded into a float64 buffer that stays in cache.
    """
    r = len(w) - 1
    out = np.empty(data.shape, dtype=data.dtype)
    src, dst = np.moveaxis(data, axis, 0), np.moveaxis(out, axis, 0)
    n, rows, cols = src.shape
    step = max(1, _BLUR_BLOCK // ((n + 2 * r) * cols))
    buf = np.empty((n + 2 * r, step, cols))
    acc, pair = np.empty((2, n, step, cols))
    for a in range(0, rows, step):
        b = min(step, rows - a)
        x, ac, pr = buf[:, :b], acc[:, :b], pair[:, :b]
        x[r : r + n] = src[:, a : a + b]
        x[:r] = x[r]
        x[r + n :] = x[r + n - 1]
        np.multiply(x[r : r + n], w[0], out=ac)
        for j in range(r, 0, -1):
            np.add(x[r - j : r - j + n], x[r + j : r + j + n], out=pr)
            pr *= w[j]
            ac += pr
        dst[:, a : a + b] = ac
    return out


def gaussian_blur(vol: Volume3D, sigma_mm) -> Volume3D:
    """Separable Gaussian blur with a 3-sigma-truncated, sum-1 kernel.

    ``sigma_mm`` is a scalar or per-axis triple in mm; kernel widths are
    sigma_mm / spacing voxels.  Borders replicate the edge value, so
    constant volumes stay constant.  Each axis is bit-identical to scipy's
    gaussian_filter1d(mode="nearest", truncate=3.0) on float32 data; an
    axis whose kernel is the single weight 1.0 (below 1/6 voxel) is left
    as it is, as that filter leaves it.
    """
    sig = np.broadcast_to(np.asarray(sigma_mm, dtype=np.float64), (3,))
    if np.any(sig < 0):
        raise InvalidRange(f"blur sigma must be >= 0, got {sigma_mm!r}")
    data = vol.data
    for axis in range(3):
        s_vox = sig[axis] / vol.spacing[axis]
        if s_vox > 1e-8:
            w = _gaussian_half_kernel(s_vox)
            if len(w) > 1:
                data = _blur_axis(data, w, axis)
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

    The coarse grid has ceil(dims * source / target) voxels per axis (at
    least 1) and covers the same extent as the source: coarse voxel g sits
    at source coordinate g * scale + shift with scale = target / source,
    so source voxel v sits at coarse coordinate (v + 0.5) / scale - 0.5.
    Both samplings replicate the edge.
    """
    src = np.asarray(vol.spacing, dtype=np.float64)
    tgt = np.maximum(np.asarray(target_spacing, dtype=np.float64), src)
    sigma_mm = np.maximum(tgt - src, 0.0) / _FWHM_TO_SIGMA
    blurred = gaussian_blur(vol, sigma_mm)
    # eps absorbs float noise so an exact spacing ratio never gains a voxel
    low_dims = np.maximum(np.ceil(np.asarray(vol.dims) * src / tgt - 1e-9).astype(int), 1)
    scale = tgt / src
    shift = 0.5 * scale - 0.5
    axes = [np.arange(n) * s + h for n, s, h in zip(low_dims, scale, shift)]
    low = sample_at_voxels(blurred.data, np.stack(np.broadcast_arrays(*np.ix_(*axes))), "clamp")
    del blurred
    positions = [(np.arange(n) + 0.5) * s - 0.5 for n, s in zip(vol.dims, src / tgt)]
    return vol.with_data(_separable_linear(low.astype(np.float64), positions, np.float32))


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
