"""Label-map preparation: atlas remapping, meta-classes, intensity clustering.

The synthesis engine consumes tissue label maps in the 7-class fetal
vocabulary.  This module remaps 9-class neonatal-atlas segmentations into
it, groups tissues into four generation meta-classes (with a non-brain
class recovered from the image), and splits each class into intensity
subclasses with a 1D Gaussian-mixture EM fit so rendering can re-randomize
fine-grained contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, TooFewVoxels, UnknownLabel
from .volume import LabelMap, LabelScheme, Volume3D, require_same_grid

# 9-class neonatal-atlas labels -> 7-class fetal labels.
# 4 (outer CSF in the source vocabulary that the target folds elsewhere) maps
# to background; 9 joins white matter.
DRAWEM_TO_FETA = {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 4, 6: 5, 7: 6, 8: 7, 9: 3}

# 7-class fetal labels -> generation meta-classes.
# 1 white-matter-like (WM, cerebellum, brainstem), 2 gray-matter-like
# (cortical + deep GM), 3 fluid (CSF, ventricles).  4 is reserved for
# non-brain tissue, assigned from the image rather than this table.
META_CLASS_TABLE = {3: 1, 5: 1, 7: 1, 2: 2, 6: 2, 1: 3, 4: 3}
NONBRAIN_META = 4


def remap_drawem_to_feta(labels: LabelMap) -> LabelMap:
    """Remap a 9-class atlas segmentation onto the 7-class fetal scheme."""
    if labels.scheme is not LabelScheme.DRAWEM9:
        raise UnknownLabel(f"expected a drawem9 map, got {labels.scheme.value}")
    data = labels.data
    if data.size and data.max() > 9:
        raise UnknownLabel(f"label value {int(data.max())} outside the 9-class vocabulary")
    lut = np.zeros(10, dtype=np.uint8)
    for src, dst in DRAWEM_TO_FETA.items():
        lut[src] = dst
    return LabelMap(lut[data], labels.spacing, LabelScheme.FETA7, labels.affine)


_META_LUT = np.zeros(8, dtype=np.uint8)
_META_LUT[list(META_CLASS_TABLE)] = list(META_CLASS_TABLE.values())
_META_LUT.flags.writeable = False


def build_meta_classes(labels: LabelMap, intensity: Volume3D) -> LabelMap:
    """Group fetal labels into generation meta-classes.

    Tissue labels map through ``META_CLASS_TABLE`` (a lookup table built
    once at import).  Voxels outside every tissue label but with non-zero
    image intensity become the non-brain class 4; label-0 voxels with zero
    intensity stay background.
    """
    if labels.scheme is not LabelScheme.FETA7:
        raise UnknownLabel(f"expected a feta7 map, got {labels.scheme.value}")
    require_same_grid(labels, intensity, "labels and intensity")
    meta = _META_LUT[labels.data]
    meta[(labels.data == 0) & (intensity.data != 0)] = NONBRAIN_META
    return LabelMap(meta, labels.spacing, LabelScheme.META4, labels.affine)


@dataclass(frozen=True)
class GmmFit:
    """A converged 1D Gaussian-mixture fit over one voxel set.

    ``assignments`` holds the argmax-responsibility component index per
    masked voxel, in the order the mask flattens (x fastest is irrelevant
    here; the caller keeps the same mask).
    """

    k: int
    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    assignments: np.ndarray
    log_likelihood: float
    n_iter: int
    converged: bool
    ll_history: tuple = ()

    def __post_init__(self):
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must stay above the positive floor")


_EM_MAX_ITER = 50
_EM_REL_TOL = 1e-4


def em_cluster(intensity: Volume3D, mask: np.ndarray, k: int) -> GmmFit:
    """Fit a k-component 1D Gaussian mixture to the masked intensities.

    Initialization is deterministic: means at the (i + 0.5)/k quantiles,
    equal weights, every variance at the sample variance.  Iteration stops
    when the relative log-likelihood change drops below ``_EM_REL_TOL``
    (1e-4) or after ``_EM_MAX_ITER`` (50) rounds; ``GmmFit.converged``
    tells which.  A variance floor of 1e-6 x sample variance is applied at
    every M step.

    Initialization reads the class intensities in float64; after it the
    fit holds them once, in the work dtype, next to the (3, n) quadratic
    basis, the (k, n) responsibilities and one (n,) row of scratch, through
    which the M step computes each component's variance in turn.
    """
    mask = np.asarray(mask, dtype=bool)
    x32 = intensity.data[mask]
    x = x32.astype(np.float64)
    n = x.size
    if n == 0:
        raise EmptyMask("cannot cluster an empty voxel set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise TooFewVoxels(f"k={k} components but only {n} voxels")

    sample_var = float(np.var(x))
    floor = max(1e-6 * sample_var, 1e-12)

    means = np.quantile(x, (np.arange(k) + 0.5) / k)
    variances = np.full(k, max(sample_var, floor))
    weights = np.full(k, 1.0 / k)

    # Large problems run the per-voxel work in float32 (all parameter and
    # likelihood accumulations stay float64); small ones keep float64.
    work = np.float32 if n * k >= (1 << 19) else np.float64
    xw = x32 if work is np.float32 else x  # x32 is x as float32, exactly
    del x, x32
    basis = np.empty((3, n), dtype=work)
    np.square(xw, out=basis[0])
    basis[1] = xw
    basis[2] = 1.0
    coef = np.empty((k, 3), dtype=work)
    resp = np.empty((k, n), dtype=work)
    row = np.empty(n, dtype=work)

    prev_ll = -np.inf
    ll = -np.inf
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, _EM_MAX_ITER + 1):
        # E step.  Per-component log densities expand to a quadratic in x,
        # evaluated as one (k,3)x(3,n) matmul, then the max trick.
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

        if prev_ll > -np.inf and abs(ll - prev_ll) / max(abs(prev_ll), 1e-300) < _EM_REL_TOL:
            converged = True
            break
        prev_ll = ll

        # M step with the variance floor.
        resp /= total.astype(work, copy=False)
        nk = np.maximum(resp.sum(axis=1, dtype=np.float64), 1e-300)
        weights = nk / nk.sum()
        means = (resp @ xw).astype(np.float64) / nk
        spread = np.empty(k)
        # a row's float64 sum equals its row of sum(axis=1), bit for bit
        for j, mean in enumerate(means.astype(work)):
            np.subtract(xw, mean, out=row)
            np.square(row, out=row)
            row *= resp[j]
            spread[j] = row.sum(dtype=np.float64)
        variances = np.maximum(spread / nk, floor)

    assignments = np.argmax(resp, axis=0).astype(np.int32)
    return GmmFit(
        k=k,
        means=np.asarray(means, dtype=np.float64),
        variances=np.asarray(variances, dtype=np.float64),
        weights=np.asarray(weights, dtype=np.float64),
        assignments=assignments,
        log_likelihood=ll,
        n_iter=it,
        converged=converged,
        ll_history=tuple(history),
    )


@dataclass(frozen=True)
class SubclassPartition:
    """A label map refined into dense per-class intensity subclasses.

    Subclass ids are dense 1..K over all classes (0 stays background);
    ``subclass_to_class`` maps each id back to (source class id, component
    index) and ``k_by_class`` records the component count drawn per class.
    """

    subclass_map: LabelMap
    k_by_class: dict[int, int]
    subclass_to_class: dict[int, tuple[int, int]]
    fits: dict[int, GmmFit]

    @property
    def n_subclasses(self) -> int:
        return len(self.subclass_to_class)

    def ids(self) -> list[int]:
        return sorted(self.subclass_to_class)


def split_meta_classes(
    labels: LabelMap,
    intensity: Volume3D,
    k_range: tuple[int, int],
    rng: np.random.Generator,
    *,
    k_range_by_class: dict[int, tuple[int, int]] | None = None,
) -> SubclassPartition:
    """Split every non-background class into EM intensity subclasses.

    For each class present (ascending id order, so draws are reproducible)
    a component count k ~ U{k_range} is drawn, clamped to the class voxel
    count, and an EM fit of the class's intensities assigns each voxel a
    subclass.  ``k_range_by_class`` overrides the range per class id (used
    to configure the non-brain class independently).  Works on any scheme:
    meta-class maps for the grouped mode, tissue maps for the per-label
    mode.
    """
    require_same_grid(labels, intensity, "labels and intensity")
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid k range {k_range!r}")

    class_ids = sorted(int(v) for v in np.unique(labels.data) if v != 0)
    ranges = {cid: (k_range_by_class or {}).get(cid, (lo, hi)) for cid in class_ids}
    # ids run up to the sum of the k bounds, so the map is allocated narrow
    sub = np.zeros(labels.dims, dtype=np.min_scalar_type(sum(max(1, r[1]) for r in ranges.values())))
    k_by_class: dict[int, int] = {}
    subclass_to_class: dict[int, tuple[int, int]] = {}
    fits: dict[int, GmmFit] = {}
    next_id = 1
    for cid in class_ids:
        clo, chi = ranges[cid]
        k = int(rng.integers(clo, chi + 1))
        mask = labels.data == cid
        n_vox = int(mask.sum())
        k = max(1, min(k, n_vox))
        fit = em_cluster(intensity, mask, k)
        sub[mask] = next_id + fit.assignments
        k_by_class[cid] = k
        fits[cid] = fit
        for comp in range(k):
            subclass_to_class[next_id + comp] = (cid, comp)
        next_id += k

    sub_map = LabelMap(sub, labels.spacing, LabelScheme.SUBCLASS, labels.affine)
    return SubclassPartition(sub_map, k_by_class, subclass_to_class, fits)


def toy_label_map(dims=(32, 32, 32), spacing=(1.0, 1.0, 1.0)) -> LabelMap:
    """Concentric-shell phantom carrying every tissue label 1..7.

    Deterministic and tiny; used by the standalone physics renderer and
    the demo scripts when no real subject is available.
    """
    dims = tuple(int(d) for d in dims)
    grids = np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims), indexing="ij")
    center = [(d - 1) / 2.0 for d in dims]
    # Chebyshev distance from center, normalized to [0, 1] at the border.
    r = np.max(
        np.stack([np.abs(g - c) / max(c, 1.0) for g, c in zip(grids, center)]), axis=0
    )
    data = np.zeros(dims, dtype=np.uint8)
    shells = np.linspace(0.9, 0.1, 7)
    for lab, radius in enumerate(shells, start=1):
        data[r <= radius] = lab
    return LabelMap(data, spacing, LabelScheme.FETA7)
