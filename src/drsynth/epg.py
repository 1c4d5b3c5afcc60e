"""Extended-phase-graph simulation of fast-spin-echo signal formation.

The transverse/longitudinal magnetization of one voxel (or tissue class)
is tracked as configuration states F+(k), F-(k), Z(k) over dephasing
orders k.  Starting from equilibrium Z(0) = 1, an excitation pulse about
y is followed by a train of refocusing pulses about x; each inter-echo
block applies half-interval relaxation, a gradient dephasing shift, the
refocusing rotation, a second shift, and the remaining half-interval
relaxation.  The echo amplitude after block k is |F+(0)|.

Only half of that lattice can reach an echo.  Shifts move every F order
by one, the excitation fills order 0, and each refocusing pulse comes
after an odd number of shifts and couples F and Z of one order.  So
after s shifts the live states are the F orders of parity s and the odd
Z orders; the even Z orders (Z(0) and its T1 regrowth included) and the
F orders of the other parity only ever mix among themselves and are at
order 0 only between echoes.  The kernel stores and updates the live
half alone, with the same float operations on the same values in the
same order, so its echoes are bit-identical to the full lattice's.

Rendering maps a label volume plus per-class relaxometry (T1, T2, proton
density) to intensities: each voxel gets pd x echo amplitude at the echo
whose index is round(TE_eff / ESP).  One batched loop simulates a vector
of spins: one per distinct class, or, with ``voxelwise``, one per
foreground voxel, which is the faithful cost model of physics-based
phantom simulation and the setting the benchmark times.  Both settings
produce identical values.

No literature relaxometry values ship with the package: reference-mode
draws need user-supplied intervals, randomized-mode bounds are plain
configuration defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRange, InvalidRelaxometry, MissingParams
from .volume import LabelMap, Volume3D


@dataclass(frozen=True)
class EpgSequenceParams:
    """Fast-spin-echo sequence parameters.

    ``refocus_deg`` is a constant flip angle or a per-echo schedule of
    length ``etl``.  ``te_eff_ms`` selects the echo used for rendering and
    must lie within [esp, etl * esp].
    """

    esp_ms: float = 6.12
    etl: int = 150
    excitation_deg: float = 90.0
    refocus_deg: float | tuple[float, ...] = 180.0
    te_eff_ms: float = 90.0

    def __post_init__(self):
        if self.esp_ms <= 0:
            raise InvalidRange(f"echo spacing must be > 0 ms, got {self.esp_ms}")
        if self.etl < 1:
            raise InvalidRange(f"echo train length must be >= 1, got {self.etl}")
        sched = self.refocus_schedule()
        if sched.shape != (self.etl,):
            raise InvalidRange(f"refocusing schedule must have length {self.etl}")
        if not self.esp_ms <= self.te_eff_ms <= self.etl * self.esp_ms:
            raise InvalidRange(
                f"TE_eff {self.te_eff_ms} ms outside [{self.esp_ms}, {self.etl * self.esp_ms}] ms"
            )

    def refocus_schedule(self) -> np.ndarray:
        if np.isscalar(self.refocus_deg):
            return np.full(self.etl, float(self.refocus_deg))
        return np.asarray(self.refocus_deg, dtype=np.float64)

    @property
    def echo_index(self) -> int:
        """1-based index of the echo rendered at the effective echo time."""
        k = int(round(self.te_eff_ms / self.esp_ms))
        return min(max(k, 1), self.etl)


@dataclass(frozen=True)
class TissueRelaxometry:
    """Relaxation times (ms) and proton-density weight of one class."""

    t1_ms: float
    t2_ms: float
    pd: float = 1.0

    def __post_init__(self):
        if not self.t1_ms > 0 or not self.t2_ms > 0:
            raise InvalidRelaxometry(f"T1/T2 must be > 0 ms, got {self.t1_ms}/{self.t2_ms}")
        if self.pd < 0:
            raise InvalidRelaxometry(f"proton density must be >= 0, got {self.pd}")


@dataclass(frozen=True)
class ReferenceInterval:
    """Per-class draw intervals for reference-mode relaxometry."""

    t1_ms: tuple[float, float]
    t2_ms: tuple[float, float]
    pd: tuple[float, float] = (1.0, 1.0)


@dataclass(frozen=True)
class RelaxometryRanges:
    """Draw configuration for both relaxometry modes.

    Randomized bounds are deliberately broad, physically agnostic
    defaults; reference mode has no defaults and requires an interval for
    every class rendered.
    """

    t1_range_ms: tuple[float, float] = (100.0, 5000.0)
    t2_range_ms: tuple[float, float] = (10.0, 2000.0)
    pd_range: tuple[float, float] = (0.2, 1.2)
    reference: dict[int, ReferenceInterval] = field(default_factory=dict)


@dataclass(frozen=True)
class SequenceRanges:
    """Per-sample sequence draw configuration.

    Fixed echo spacing, train length, and excitation; the refocusing flip
    angle and effective echo time are drawn uniformly per sample.
    """

    esp_ms: float = 6.12
    etl: int = 150
    excitation_deg: float = 90.0
    refocus_range_deg: tuple[float, float] = (150.0, 180.0)
    te_eff_range_ms: tuple[float, float] = (90.0, 300.0)


def draw_sequence(ranges: SequenceRanges, rng: np.random.Generator) -> EpgSequenceParams:
    """Draw one sequence: constant refocusing angle first, then TE_eff."""
    refocus = float(rng.uniform(*ranges.refocus_range_deg))
    te = float(rng.uniform(*ranges.te_eff_range_ms))
    return EpgSequenceParams(
        esp_ms=ranges.esp_ms,
        etl=ranges.etl,
        excitation_deg=ranges.excitation_deg,
        refocus_deg=refocus,
        te_eff_ms=te,
    )


def sample_relaxometry(
    ranges: RelaxometryRanges,
    class_ids,
    rng: np.random.Generator,
    reference: bool = False,
) -> dict[int, TissueRelaxometry]:
    """Draw one (T1, T2, pd) triple per class id, in ascending id order.

    ``reference`` draws each class from its ``ranges.reference`` interval,
    otherwise every class draws from the global randomized ranges.
    """
    out: dict[int, TissueRelaxometry] = {}
    for cid in sorted(int(c) for c in class_ids):
        if cid == 0:
            continue
        if reference:
            iv = ranges.reference.get(cid)
            if iv is None:
                raise MissingParams(f"no reference relaxometry interval for class {cid}")
            bounds = (iv.t1_ms, iv.t2_ms, iv.pd)
        else:
            bounds = (ranges.t1_range_ms, ranges.t2_range_ms, ranges.pd_range)
        out[cid] = TissueRelaxometry(*(float(rng.uniform(*b)) for b in bounds))
    return out


# ---------------------------------------------------------------------------
# state recursion


def _rf_coefficients(flip_deg: float, about: str):
    """Mixing coefficients of an RF pulse in the (F+, conj F-, Z) basis.

    Rows are the new (F+, conj F-, Z) as combinations of the old triple,
    for a rotation about the x axis (phase 0) or y axis (phase 90 deg).
    """
    a = np.deg2rad(flip_deg)
    ch = np.cos(a / 2.0) ** 2
    sh = np.sin(a / 2.0) ** 2
    sa = np.sin(a)
    ca = np.cos(a)
    if about == "x":
        return (ch, sh, -1j * sa), (sh, ch, 1j * sa), (-0.5j * sa, 0.5j * sa, ca)
    if about == "y":
        return (ch, -sh, sa), (-sh, ch, sa), (-0.5 * sa, -0.5 * sa, ca)
    raise ValueError(f"unknown rotation axis {about!r}")


class _EpgKernel:
    """FSE recursion for a spin batch over the half lattice that reaches the echo.

    Only the live half is stored (module docstring): after s shifts, the
    F orders of parity s and the odd Z orders.  The dead half never mixes
    back into it, so every live value gets the same float operations in
    the same order as in the full lattice, and so do the echoes.

    States are (rows, batch) arrays: ``fp`` holds F+ and ``fm`` the
    conjugated F- at orders 2j + (s mod 2) (so at even s, F+(0) ==
    conj F-(0) sits in row 0 of both), and ``z`` holds Z at orders
    2j + 1, so at a refocusing pulse row j of all three is order 2j + 1.  A shift from even s to odd keeps F+ in place
    and moves F- down one row; from odd to even it moves F+ up one row
    and refills F+(0) from F-(0), which keeps its row.

    Every step takes a row window ``h`` and touches rows [0, h) only; the
    caller restricts it to rows that are reachable from equilibrium and
    can still rewind to order zero before the last rendered echo, which
    leaves all emitted echoes bit-identical to the untruncated recursion.
    Relaxation and shifts work in place.  An RF pulse writes the new
    transverse rows into two scratch arrays and then swaps them with
    ``fp`` and ``fm``, so rows at and beyond ``h`` come from whichever
    buffer was swapped in.  That is exact because the window only grows
    over rows that no step has written in either buffer (both start at
    zero), and rows it has shrunk past are never read again.
    """

    def __init__(self, rows: int, batch: int, dtype, excitation_deg: float):
        self.fp = np.zeros((rows, batch), dtype=dtype)
        self.fm = np.zeros_like(self.fp)
        self.z = np.zeros_like(self.fp)
        self._s1 = np.zeros_like(self.fp)
        self._s2 = np.zeros_like(self.fp)
        self._t = np.empty_like(self.fp)
        self._odd = False
        # excitation about y of equilibrium Z(0) = 1 into F(0); Z(0) is dead after it
        self.rotate(1, excitation_deg, "y", z=np.ones((1, batch), dtype=dtype))

    def rotate(self, h: int, flip_deg: float, about: str, z=None) -> None:
        """RF pulse on rows [0, h); ``z`` replaces the stored Z rows (the excitation's Z(0))."""
        rp, rm, rz = _rf_coefficients(flip_deg, about)
        fp, fm = self.fp[:h], self.fm[:h]
        z = self.z[:h] if z is None else z
        s1, s2, t = self._s1[:h], self._s2[:h], self._t[:h]
        np.multiply(fp, rp[0], out=s1)
        np.multiply(fm, rp[1], out=t)
        s1 += t
        np.multiply(fp, rm[0], out=s2)
        np.multiply(fm, rm[1], out=t)
        s2 += t
        # one Z product serves both rows: rm[2] == -rp[2] about x, == rp[2]
        # about y, and negating a product is exact, so s2 rounds as with its own
        np.multiply(z, rp[2], out=t)
        s1 += t
        if about == "x":
            s2 -= t
        else:
            s2 += t
        np.multiply(fp, rz[0], out=t)
        z *= rz[2]
        z += t
        np.multiply(fm, rz[1], out=t)
        z += t
        self.fp, self._s1 = self._s1, self.fp
        self.fm, self._s2 = self._s2, self.fm

    def relax(self, h: int, e1, e2) -> None:
        """T2 decay on transverse states, T1 decay on Z; the regrowth feeds only dead Z(0)."""
        self.fp[:h] *= e2
        self.fm[:h] *= e2
        self.z[:h] *= e1

    def shift(self, h: int) -> None:
        """One dephasing increment: F+ orders up, conjugated F- down."""
        fp, fm = self.fp, self.fm
        if self._odd:
            fp[1:h] = fp[: h - 1]
            np.conjugate(fm[0], out=fp[0])
        else:
            fm[: h - 1] = fm[1:h]
            fm[h - 1] = 0.0
        self._odd = not self._odd


_COMPLEX_DTYPES = (np.dtype(np.complex64), np.dtype(np.complex128))


def epg_fse_echoes_batch(
    t1_ms: np.ndarray,
    t2_ms: np.ndarray,
    seq: EpgSequenceParams,
    n_echoes: int | None = None,
    dtype=np.complex128,
) -> np.ndarray:
    """Echo amplitudes |F+(0)| for a batch of (T1, T2) pairs.

    Returns shape (n_echoes, batch), float64.  Only the live half of the
    lattice (F orders of the shift count's parity, odd Z orders; see
    ``_EpgKernel``) is allocated, for orders up to n_echoes + 2, and each
    step runs on the window of orders that can still influence a
    rendered echo (two order increments per echo spacing, forward and
    backward), which reproduces the untruncated recursion exactly; the
    tests verify this against a dense reference.
    ``dtype`` selects the state precision: complex128 for analysis,
    complex64 for volume rendering throughput.
    """
    t1 = np.atleast_1d(np.asarray(t1_ms, dtype=np.float64))
    t2 = np.atleast_1d(np.asarray(t2_ms, dtype=np.float64))
    if t1.shape != t2.shape or t1.ndim != 1:
        raise InvalidRange("T1 and T2 batches must be equal-length 1D arrays")
    if np.any(t2 <= 0) or np.any(t1 <= 0):
        raise InvalidRelaxometry("T1/T2 must be > 0 ms")
    dtype = np.dtype(dtype)
    if dtype not in _COMPLEX_DTYPES:
        raise InvalidRange(f"dtype must be complex64 or complex128, got {dtype}")
    if n_echoes is None:
        n_echoes = seq.etl
    n_echoes = min(int(n_echoes), seq.etl)
    if n_echoes < 1:
        raise InvalidRange("need at least one echo")

    real = np.float32 if dtype == np.dtype(np.complex64) else np.float64
    sched = seq.refocus_schedule()
    half = seq.esp_ms / 2.0
    e1 = np.exp(-half / t1).astype(real)
    e2 = np.exp(-half / t2).astype(real)
    # relaxation factors in the state dtype once, not converted on every multiply
    e1, e2 = e1.astype(dtype), e2.astype(dtype)

    n_orders = n_echoes + 2
    kern = _EpgKernel((n_orders + 1) // 2, t1.size, dtype, seq.excitation_deg)

    out = np.empty((n_echoes, t1.size), dtype=np.float64)
    for k in range(n_echoes):
        # Orders reachable by echo k: 2k + 2 (two shifts per spacing, +2
        # margin); orders able to return to order 0 by the last echo:
        # 2(n_echoes - 1 - k) + 2, +2 margin.  Rows of the half lattice
        # cover the orders below w.
        w = min(2 * k + 5, 2 * (n_echoes - 1 - k) + 4, n_orders)
        h = (w + 1) // 2
        kern.relax(h, e1, e2)
        kern.shift(h)
        kern.rotate(h, float(sched[k]), about="x")
        kern.shift(h)
        kern.relax(h, e1, e2)
        out[k] = np.abs(kern.fp[0])
    return out


def epg_fse_echoes(relax: TissueRelaxometry, seq: EpgSequenceParams) -> np.ndarray:
    """Full echo-train amplitudes (length etl) for one tissue."""
    return epg_fse_echoes_batch(
        np.array([relax.t1_ms]), np.array([relax.t2_ms]), seq
    )[:, 0]


# ---------------------------------------------------------------------------
# volume rendering


# Spins per kernel call.  One row of a complex64 state array is then
# 16 KiB, so each half-lattice array holds at most 0.27 MiB at echo 31
# (17 rows) and 0.41 MiB at echo 49 (26 rows), and the arrays one step
# touches stay in a 2 MiB L2 cache instead of streaming from memory.
# Timed with the full lattice (twice the rows) from 512 to 16384 spins at
# echoes 15 and 49 (the ends of the default draw range) and 31, 2048 was
# fastest or tied with 1024, and 16-28% faster than 16384.
_SPIN_BATCH = 2048


def render_epg_volume(
    labels: LabelMap,
    relaxometry: dict[int, TissueRelaxometry],
    seq: EpgSequenceParams,
    *,
    voxelwise: bool = False,
) -> Volume3D:
    """Render intensities pd x |echo(TE_eff)| from per-class relaxometry.

    One batched loop runs the complex64 recursion over a vector of spins:
    the class ids, or with ``voxelwise`` the label of every foreground
    voxel, which carries the per-voxel physics cost.  The per-class
    signal then fills voxels through a lookup table, so both settings
    produce identical values.  Background class 0 renders exactly 0.
    """
    ids = [int(v) for v in np.unique(labels.data) if v != 0]
    missing = [i for i in ids if i not in relaxometry]
    if missing:
        raise MissingParams(f"no relaxometry for class ids {missing}")
    # per-class (T1, T2, pd) indexed by class id; background entries stay unused
    t1, t2, pd = np.zeros((3, max(ids, default=0) + 1))
    for cid in ids:
        r = relaxometry[cid]
        t1[cid], t2[cid], pd[cid] = r.t1_ms, r.t2_ms, r.pd

    spins = labels.data[labels.data != 0] if voxelwise else np.array(ids, dtype=np.int32)
    k_echo = seq.echo_index
    signal = np.zeros(t1.size, dtype=np.float32)
    for start in range(0, spins.size, _SPIN_BATCH):
        lab = spins[start : start + _SPIN_BATCH]
        echoes = epg_fse_echoes_batch(t1[lab], t2[lab], seq, n_echoes=k_echo, dtype=np.complex64)
        signal[lab] = echoes[k_echo - 1]
    signal *= pd.astype(np.float32)
    return Volume3D(signal[labels.data], labels.spacing, labels.affine)
