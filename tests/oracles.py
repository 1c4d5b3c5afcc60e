"""Independent reference implementations the tests check production against.

Everything here is deliberately naive: scalar loops, full state lattices,
brute-force enumeration, O(n^2) distance matrices.  Nothing imports from
``drsynth``, so a bug cannot hide in code shared with the implementation
under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# interpolation / sampling


def sample_trilinear(data: np.ndarray, coord, oob: str = "zero") -> float:
    """One trilinear sample at a fractional voxel coordinate (scalar loops)."""
    dims = data.shape
    c = [float(v) for v in coord]
    if oob == "clamp":
        c = [min(max(v, 0.0), n - 1.0) for v, n in zip(c, dims)]
    base = [math.floor(v) for v in c]
    frac = [v - b for v, b in zip(c, base)]
    acc = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                idx = (base[0] + dx, base[1] + dy, base[2] + dz)
                w = 1.0
                for f, d in zip(frac, (dx, dy, dz)):
                    w *= f if d else 1.0 - f
                if all(0 <= i < n for i, n in zip(idx, dims)):
                    val = float(data[idx])
                elif oob == "clamp":
                    clipped = tuple(min(max(i, 0), n - 1) for i, n in zip(idx, dims))
                    val = float(data[clipped])
                else:
                    val = 0.0
                acc += w * val
    return acc


def sample_nearest(data: np.ndarray, coord, oob: str = "zero") -> float:
    """Nearest-voxel lookup, rounding c -> floor(c + 0.5) per axis."""
    dims = data.shape
    idx = tuple(math.floor(float(v) + 0.5) for v in coord)
    if all(0 <= i < n for i, n in zip(idx, dims)):
        return float(data[idx])
    if oob == "clamp":
        return float(data[tuple(min(max(i, 0), n - 1) for i, n in zip(idx, dims))])
    return 0.0


def simulate_resolution_dense_ref(data: np.ndarray, spacing, target) -> np.ndarray:
    """Resolution simulation with its coarse grid sampled in one dense call.

    scipy's gaussian_filter1d blurs (mode "nearest", truncate 3), one
    map_coordinates call (order 1, mode "nearest") samples the whole dense
    (3, ...) coarse grid, and the way back lerps one axis at a time in
    float64, lo * w0 + hi * w1 with w0 = 1 - w1, before one float32 cast.
    """
    from scipy.ndimage import gaussian_filter1d, map_coordinates

    src = np.asarray(spacing, dtype=np.float64)
    tgt = np.maximum(np.asarray(target, dtype=np.float64), src)
    sigma_vox = np.maximum(tgt - src, 0.0) / (2.0 * np.sqrt(2.0 * np.log(2.0))) / src
    blurred = data
    for axis, s in enumerate(sigma_vox):
        if s > 1e-8:
            blurred = gaussian_filter1d(blurred, s, axis=axis, mode="nearest", truncate=3.0)
    low_dims = np.maximum(np.ceil(np.asarray(data.shape) * src / tgt - 1e-9).astype(int), 1)
    scale = tgt / src
    axes = [np.arange(n) * s + (0.5 * s - 0.5) for n, s in zip(low_dims, scale)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"))
    out = map_coordinates(blurred, grid, order=1, mode="nearest").astype(np.float64)
    for axis, (n_out, s) in enumerate(zip(data.shape, src / tgt)):
        n_in = out.shape[axis]
        pos = np.clip((np.arange(n_out) + 0.5) * s - 0.5, 0.0, n_in - 1.0)
        i0 = np.minimum(pos.astype(np.int64), max(n_in - 2, 0))
        w1 = pos - i0
        shape = [1, 1, 1]
        shape[axis] = n_out
        lo = np.take(out, i0, axis=axis) * (1.0 - w1).reshape(shape)
        out = lo + np.take(out, np.minimum(i0 + 1, n_in - 1), axis=axis) * w1.reshape(shape)
    return out.astype(np.float32)


def _lerp(a, b, f):
    return a + (b - a) * f


def integrate_velocity_ref(vel: np.ndarray, steps: int) -> np.ndarray:
    """Scaling and squaring over the whole volume, one channel at a time.

    u <- u + u(x + u) ``steps`` times from u = vel / 2**steps, with
    edge-clamped trilinear sampling in float32: z-lerps first, then y, then
    x, each as a + (b - a) * f.
    """
    vel = np.asarray(vel, dtype=np.float32)
    dims = vel.shape[:3]
    disp = [vel[..., c] / np.float32(2**steps) for c in range(3)]
    grid = np.meshgrid(*(np.arange(n, dtype=np.float32) for n in dims), indexing="ij")
    for _ in range(steps):
        lo, hi, frac = [], [], []
        for a, n in enumerate(dims):
            c = np.clip(grid[a] + disp[a], 0.0, n - 1.0)
            i0 = np.minimum(np.floor(c).astype(np.int64), max(n - 2, 0))
            lo.append(i0)
            hi.append(np.minimum(i0 + 1, n - 1))
            frac.append((c - i0).astype(np.float32))
        fx, fy, fz = frac

        x0, y0, z0 = lo
        x1, y1, z1 = hi
        warped = []
        for u in disp:
            c00 = _lerp(u[x0, y0, z0], u[x0, y0, z1], fz)
            c01 = _lerp(u[x0, y1, z0], u[x0, y1, z1], fz)
            c10 = _lerp(u[x1, y0, z0], u[x1, y0, z1], fz)
            c11 = _lerp(u[x1, y1, z0], u[x1, y1, z1], fz)
            warped.append(_lerp(_lerp(c00, c01, fy), _lerp(c10, c11, fy), fx))
        disp = [u + w for u, w in zip(disp, warped)]
    return np.stack(disp, axis=-1)


def integrate_velocity_double_buffer(vel: np.ndarray, steps: int, slab_voxels: int = 1 << 15) -> np.ndarray:
    """The slab-blocked scaling and squaring with a second whole-field buffer.

    Each step writes u + u(x + u) for every slab into a separate field and
    swaps the two at the end, so no slab can read a value of the step it
    is in.  The arithmetic is the fused kernel's (one base index for the
    three channels, lerp weights from float32 floors), so a single-buffer
    kernel must match this one bit for bit, NaN payloads included.
    """
    vel = np.asarray(vel, dtype=np.float32)
    dims = vel.shape[:3]
    nx, ny, nz = dims
    disp = np.empty((3,) + dims, dtype=np.float32)
    for ch in range(3):
        disp[ch] = vel[..., ch]
    disp /= np.float32(2**steps)
    sx, sy, sz = (int(np.prod(dims[i + 1 :])) if dims[i] > 1 else 0 for i in range(3))
    offsets = [0, sz, sy, sy + sz, sx, sx + sz, sx + sy, sx + sy + sz]
    rows = max(1, min(nx, slab_voxels // max(ny * nz, 1)))
    ramps = []
    for i, n in enumerate(dims):
        shape = [1, 1, 1]
        shape[i] = n
        ramps.append(np.arange(n, dtype=np.float32).reshape(shape))
    nxt = np.empty_like(disp)
    with np.errstate(invalid="ignore"):
        for _ in range(steps):
            for x0 in range(0, nx, rows):
                x1 = min(x0 + rows, nx)
                fracs, base = [], None
                for i, n in enumerate(dims):
                    c = np.clip((ramps[i][x0:x1] if i == 0 else ramps[i]) + disp[i, x0:x1], 0.0, n - 1.0)
                    f = np.minimum(np.floor(c), np.float32(max(n - 2, 0)))
                    idx = f.astype(np.intp)
                    base = idx if base is None else base * n + idx
                    fracs.append(c - f)
                fx, fy, fz = fracs
                for ch in range(3):
                    src = disp[ch].ravel()
                    g = []
                    for j in range(4):
                        lo = src[offsets[2 * j] :].take(base, mode="clip")
                        hi = src[offsets[2 * j + 1] :].take(base, mode="clip")
                        g.append(lo + (hi - lo) * fz)
                    g00 = g[0] + (g[1] - g[0]) * fy
                    g10 = g[2] + (g[3] - g[2]) * fy
                    nxt[ch, x0:x1] = disp[ch, x0:x1] + (g00 + (g10 - g00) * fx)
            disp, nxt = nxt, disp
    return np.moveaxis(disp, 0, -1)


# ---------------------------------------------------------------------------
# segmentation metrics


def dice_ref(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    na, nb = int(a.sum()), int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (na + nb)


def boundary_ref(mask: np.ndarray) -> np.ndarray:
    """Face-neighbor boundary by explicit loops; outside the volume counts
    as background."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    out = np.zeros_like(mask)
    offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask[x, y, z]:
                    continue
                for dx, dy, dz in offsets:
                    i, j, k = x + dx, y + dy, z + dz
                    if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz) or not mask[i, j, k]:
                        out[x, y, z] = True
                        break
    return out


def nearest_rank_ref(values, q: float) -> float:
    """Smallest sorted value whose cumulative share reaches q percent."""
    srt = sorted(float(v) for v in values)
    idx = max(math.ceil(q / 100.0 * len(srt)) - 1, 0)
    return srt[idx]


def hausdorff_percentile_ref(a: np.ndarray, b: np.ndarray, spacing, q: float) -> float | None:
    """O(n^2) directed-distance percentiles over boundary voxel centers."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if not a.any() or not b.any():
        return None
    sp = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(boundary_ref(a)) * sp
    pb = np.argwhere(boundary_ref(b)) * sp
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    d_ab = np.sqrt(d2.min(axis=1))
    d_ba = np.sqrt(d2.min(axis=0))
    return max(nearest_rank_ref(d_ab, q), nearest_rank_ref(d_ba, q))


# ---------------------------------------------------------------------------
# spin-echo signal formation


def _rf_matrix(flip_deg: float, phase_deg: float) -> np.ndarray:
    """Mixing matrix of an RF pulse on (F(+k), conj F(-k), Z(k))."""
    a = math.radians(flip_deg)
    phi = math.radians(phase_deg)
    half_c = math.cos(a / 2.0) ** 2
    half_s = math.sin(a / 2.0) ** 2
    sa, ca = math.sin(a), math.cos(a)
    return np.array(
        [
            [half_c, np.exp(2j * phi) * half_s, -1j * np.exp(1j * phi) * sa],
            [np.exp(-2j * phi) * half_s, half_c, 1j * np.exp(-1j * phi) * sa],
            [-0.5j * np.exp(-1j * phi) * sa, 0.5j * np.exp(1j * phi) * sa, ca],
        ]
    )


def epg_echoes_dense(
    t1_ms: float,
    t2_ms: float,
    esp_ms: float,
    excitation_deg: float,
    refocus_deg,
    n_echoes: int,
) -> np.ndarray:
    """Fast-spin-echo echo amplitudes on the full signed order lattice.

    Transverse states F(k) live on k in [-K, K] with no truncation, and
    longitudinal states Z(k) on the same lattice; every RF pulse mixes
    (F(k), conj F(-k), Z(k)) for every k.  Excitation is phase 90
    (about y), refocusing phase 0 (about x); each spacing applies half
    relaxation, shift, RF, shift, half relaxation, echo = |F(0)|.
    """
    sched = np.broadcast_to(np.asarray(refocus_deg, dtype=np.float64), (n_echoes,))
    K = 2 * n_echoes + 4
    size = 2 * K + 1
    F = np.zeros(size, dtype=complex)
    Z = np.zeros(size, dtype=complex)
    Z[K] = 1.0

    def rf(flip, phase):
        T = _rf_matrix(flip, phase)
        newF = np.zeros_like(F)
        newZ = np.zeros_like(Z)
        for k in range(-K, K + 1):
            triple = (F[k + K], np.conj(F[-k + K]), Z[k + K])
            newF[k + K] = T[0, 0] * triple[0] + T[0, 1] * triple[1] + T[0, 2] * triple[2]
            newZ[k + K] = T[2, 0] * triple[0] + T[2, 1] * triple[1] + T[2, 2] * triple[2]
        F[:] = newF
        Z[:] = newZ

    def relax(dt):
        e2 = math.exp(-dt / t2_ms)
        e1 = math.exp(-dt / t1_ms)
        F[:] *= e2
        Z[:] *= e1
        Z[K] += 1.0 - e1

    def shift():
        F[1:] = F[:-1]
        F[0] = 0.0

    rf(excitation_deg, 90.0)
    half = esp_ms / 2.0
    echoes = np.empty(n_echoes)
    for k in range(n_echoes):
        relax(half)
        shift()
        rf(float(sched[k]), 0.0)
        shift()
        relax(half)
        echoes[k] = abs(F[K])
    return echoes


def epg_fse_complex64_ref(
    t1_ms: np.ndarray,
    t2_ms: np.ndarray,
    esp_ms: float,
    excitation_deg: float,
    refocus_deg: float,
    n_echoes: int,
) -> np.ndarray:
    """Single-precision FSE echoes of a spin batch, every order at every step.

    Every float32 operation the production kernel must reproduce, one at
    a time and in order, but with no window: states span 2 * n_echoes + 4
    orders (none ever leaves the lattice) and every RF pulse, shift and
    relaxation touches all of them.  The RF pulse computes both transverse
    rows, each with its own Z product, into scratch and copies them back.
    Returns (n_echoes, batch) float64 holding |F+(0)|, whose bits the
    windowed kernel must match.
    """
    t1 = np.asarray(t1_ms, dtype=np.float64)
    t2 = np.asarray(t2_ms, dtype=np.float64)
    half = esp_ms / 2.0
    e1 = np.exp(-half / t1).astype(np.float32)
    e2 = np.exp(-half / t2).astype(np.float32)
    regrow = (1.0 - e1).astype(np.float32)
    n = 2 * n_echoes + 4
    fp = np.zeros((n, t1.size), dtype=np.complex64)
    fm = np.zeros_like(fp)
    z = np.zeros_like(fp)
    z[0] = 1.0

    def rotate(flip, about):
        a = np.deg2rad(flip)
        ch, sh = np.cos(a / 2.0) ** 2, np.sin(a / 2.0) ** 2
        sa, ca = np.sin(a), np.cos(a)
        if about == "x":
            rp, rm, rz = (ch, sh, -1j * sa), (sh, ch, 1j * sa), (-0.5j * sa, 0.5j * sa, ca)
        else:
            rp, rm, rz = (ch, -sh, sa), (-sh, ch, sa), (-0.5 * sa, -0.5 * sa, ca)
        s1, s2, t = np.empty_like(fp), np.empty_like(fp), np.empty_like(fp)
        np.multiply(fp, rp[0], out=s1)
        np.multiply(fm, rp[1], out=t)
        s1 += t
        np.multiply(z, rp[2], out=t)
        s1 += t
        np.multiply(fp, rm[0], out=s2)
        np.multiply(fm, rm[1], out=t)
        s2 += t
        np.multiply(z, rm[2], out=t)
        s2 += t
        np.multiply(fp, rz[0], out=t)
        z[:] *= rz[2]
        z[:] += t
        np.multiply(fm, rz[1], out=t)
        z[:] += t
        fp[:] = s1
        fm[:] = s2

    def relax():
        fp[:] *= e2
        fm[:] *= e2
        z[:] *= e1
        z[0] += regrow

    def shift():
        fp[1:] = fp[:-1]
        fm[:-1] = fm[1:]
        fm[-1] = 0.0
        np.conjugate(fm[0], out=fp[0])

    rotate(excitation_deg, "y")
    echoes = np.empty((n_echoes, t1.size))
    for k in range(n_echoes):
        relax()
        shift()
        rotate(refocus_deg, "x")
        shift()
        relax()
        echoes[k] = np.abs(fp[0])
    return echoes


def cpmg_closed_form(esp_ms: float, t2_ms: float, k: int) -> float:
    """Ideal-refocusing echo amplitude: pure T2 exponential at TE = k * ESP."""
    return math.exp(-k * esp_ms / t2_ms)


# ---------------------------------------------------------------------------
# mixtures


def gmm_log_likelihood_ref(x, means, variances, weights) -> float:
    """Direct per-point mixture log-likelihood, no log-sum-exp tricks."""
    total = 0.0
    for v in np.asarray(x, dtype=np.float64):
        s = 0.0
        for m, var, w in zip(means, variances, weights):
            s += w * math.exp(-((v - m) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        total += math.log(s)
    return total


def em_cluster_kn_scratch(values, k: int, max_iter: int = 50, rel_tol: float = 1e-4) -> dict:
    """The EM fit with a full (k, n) work array for the variance sums.

    ``values`` are the class intensities (float32).  Initialization, the
    float32 work dtype for n * k >= 2**19, the matmul E step and the
    variance floor are the production fit's; the M step squares every
    deviation into one (k, n) array and sums it along axis 1.  Returns
    means, variances, weights, assignments, ll_history and n_iter.
    """
    x = np.asarray(values).astype(np.float64)
    n = x.size
    sample_var = float(np.var(x))
    floor = max(1e-6 * sample_var, 1e-12)
    means = np.quantile(x, (np.arange(k) + 0.5) / k)
    variances = np.full(k, max(sample_var, floor))
    weights = np.full(k, 1.0 / k)
    work = np.float32 if n * k >= (1 << 19) else np.float64
    xw = x.astype(work, copy=False)
    basis = np.stack([xw * xw, xw, np.ones_like(xw)])
    coef = np.empty((k, 3), dtype=work)
    resp = np.empty((k, n), dtype=work)
    scratch = np.empty((k, n), dtype=work)
    prev_ll, history, it = -np.inf, [], 0
    for it in range(1, max_iter + 1):
        with np.errstate(divide="ignore"):
            lw = np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances)
        coef[:, 0] = -0.5 / variances
        coef[:, 1] = means / variances
        coef[:, 2] = lw - 0.5 * means**2 / variances
        np.matmul(coef, basis, out=resp)
        peak = resp.max(axis=0)
        resp -= peak
        np.exp(resp, out=resp)
        total = resp.sum(axis=0, dtype=np.float64)
        ll = float((peak + np.log(total)).sum(dtype=np.float64))
        history.append(ll)
        if prev_ll > -np.inf and abs(ll - prev_ll) / max(abs(prev_ll), 1e-300) < rel_tol:
            break
        prev_ll = ll
        resp /= total.astype(work, copy=False)
        nk = np.maximum(resp.sum(axis=1, dtype=np.float64), 1e-300)
        weights = nk / nk.sum()
        means = (resp @ xw).astype(np.float64) / nk
        np.subtract(xw, means.astype(work)[:, np.newaxis], out=scratch)
        np.square(scratch, out=scratch)
        scratch *= resp
        variances = np.maximum(scratch.sum(axis=1, dtype=np.float64) / nk, floor)
    return {
        "means": np.asarray(means, dtype=np.float64),
        "variances": np.asarray(variances, dtype=np.float64),
        "weights": np.asarray(weights, dtype=np.float64),
        "assignments": np.argmax(resp, axis=0).astype(np.int32),
        "ll_history": tuple(history),
        "n_iter": it,
    }


# ---------------------------------------------------------------------------
# rank statistics


def midranks_ref(values) -> list[float]:
    """Ranks 1..N; tied values all get the average of their positions."""
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_sum_exact_ref(x, y) -> tuple[float, float]:
    """Two-sided exact p: enumerate every assignment of pooled ranks to x."""
    pooled = list(x) + list(y)
    ranks = midranks_ref(pooled)
    n, total = len(x), len(pooled)
    mu = n * (total + 1) / 2.0
    t_obs = sum(ranks[:n])
    d_obs = abs(t_obs - mu)
    hits = count = 0
    for pick in itertools.combinations(range(total), n):
        count += 1
        if abs(sum(ranks[i] for i in pick) - mu) >= d_obs - 1e-12:
            hits += 1
    return t_obs, hits / count


def rank_sum_normal_ref(x, y) -> tuple[float, float]:
    """Tie-corrected normal approximation with 0.5 continuity correction."""
    pooled = list(x) + list(y)
    ranks = midranks_ref(pooled)
    n, m = len(x), len(y)
    total = n + m
    t_obs = sum(ranks[:n])
    mu = n * (total + 1) / 2.0
    counts: dict[float, int] = {}
    for v in pooled:
        counts[float(v)] = counts.get(float(v), 0) + 1
    tie_term = sum(c**3 - c for c in counts.values() if c > 1)
    var = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if var <= 0:
        return t_obs, 1.0
    z = max(abs(t_obs - mu) - 0.5, 0.0) / math.sqrt(var)
    return t_obs, min(math.erfc(z / math.sqrt(2.0)), 1.0)


# ---------------------------------------------------------------------------
# checkpoints


def average_f32_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise float32 average via one float64 round trip."""
    return ((a.astype(np.float64) + b.astype(np.float64)) / 2.0).astype(np.float32)
