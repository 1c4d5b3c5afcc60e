"""Segmentation evaluation (Dice, boundary Hausdorff percentiles) and
rank-based statistical comparison.

Conventions, fixed here and documented in the report format:

* Dice on two empty masks is 1.0; exactly one empty mask gives 0.0.
* hd95/hd100 need both masks nonempty, otherwise the metric is Undefined
  (returned as None, written as "NA" in reports, excluded from means).
* Boundary voxels are mask voxels with at least one face neighbor
  (6-connectivity) outside the mask, where outside includes beyond the
  volume border.  Distances are between boundary voxel centers in mm,
  respecting anisotropic spacing.
* hd95 = max over both directions of the 95th nearest-rank percentile of
  directed boundary distances; hd100 is the plain (maximum) Hausdorff.
* Aggregate means cover only labels present in ground truth or
  prediction (dice) and labels defined on both sides (hd95).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DrsynthError, EmptySample
from .volume import LabelMap, require_same_grid

FETA_LABELS = tuple(range(1, 8))


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """Overlap ratio 2|A n B| / (|A| + |B|) between two boolean masks."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    a = int(pred.sum())
    b = int(gt.sum())
    if a == 0 and b == 0:
        return 1.0
    inter = int(np.logical_and(pred, gt).sum())
    return 2.0 * inter / (a + b)


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Mask voxels with a face neighbor outside (volume border is outside)."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1)  # the border is outside
    interior = mask.copy()
    for axis in range(mask.ndim):
        for step in (0, 2):  # the neighbor below, then above
            interior &= padded[tuple(
                slice(step, step + n) if a == axis else slice(1, 1 + n) for a, n in enumerate(mask.shape)
            )]
    return mask & ~interior


def _boundary_points_mm(mask: np.ndarray, spacing) -> np.ndarray:
    pts = np.argwhere(boundary_mask(mask)).astype(np.float64)
    return pts * np.asarray(spacing, dtype=np.float64)


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    n = sorted_values.size
    idx = max(int(math.ceil(q / 100.0 * n)) - 1, 0)
    return float(sorted_values[idx])


def hausdorff_percentile(pred: np.ndarray, gt: np.ndarray, spacing, q: float = 95.0) -> float | None:
    """max(Pq(d pred->gt), Pq(d gt->pred)) over boundary voxel centers.

    Pq is the nearest-rank percentile of one direction's sorted distances.
    Returns None (Undefined) when either mask is empty.
    """
    from scipy.spatial import cKDTree  # only evaluation needs it; keeps CLI import light

    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if not pred.any() or not gt.any():
        return None
    pa = _boundary_points_mm(pred, spacing)
    pb = _boundary_points_mm(gt, spacing)
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    d_ab.sort()
    d_ba.sort()
    return max(_nearest_rank(d_ab, q), _nearest_rank(d_ba, q))


def hd95(pred: np.ndarray, gt: np.ndarray, spacing) -> float | None:
    return hausdorff_percentile(pred, gt, spacing, 95.0)


def hd100(pred: np.ndarray, gt: np.ndarray, spacing) -> float | None:
    """The plain Hausdorff distance (100th percentile)."""
    return hausdorff_percentile(pred, gt, spacing, 100.0)


@dataclass(frozen=True)
class LabelScore:
    dice: float
    hd95: float | None


@dataclass(frozen=True)
class EvalReport:
    """Per-label scores for one subject plus defined-only aggregates."""

    subject: str
    per_label: dict[int, LabelScore]
    mean_dice: float | None
    mean_hd95: float | None


def evaluate(pred: LabelMap, gt: LabelMap, subject: str = "") -> EvalReport:
    """Score a prediction against ground truth over the tissue labels 1..7.

    mean_dice covers labels present in either map; mean_hd95 covers labels
    whose hd95 is defined (present in both).
    """
    require_same_grid(pred, gt, "pred and gt")
    per_label: dict[int, LabelScore] = {}
    dices: list[float] = []
    hds: list[float] = []
    for lab in FETA_LABELS:
        pm = pred.data == lab
        gm = gt.data == lab
        d = dice(pm, gm)
        h = hd95(pm, gm, gt.spacing)
        per_label[int(lab)] = LabelScore(d, h)
        if pm.any() or gm.any():
            dices.append(d)
        if h is not None:
            hds.append(h)
    mean_dice = float(np.mean(dices)) if dices else None
    mean_hd95 = float(np.mean(hds)) if hds else None
    return EvalReport(subject, per_label, mean_dice, mean_hd95)


@dataclass(frozen=True)
class BatchReport:
    """Per-subject reports plus across-subject mean and std of the means."""

    subjects: list[EvalReport]
    dice_mean: float | None
    dice_std: float | None
    hd95_mean: float | None
    hd95_std: float | None


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def batch_evaluate(pairs) -> BatchReport:
    """Evaluate (subject_id, pred, gt) triples; aggregates skip Undefined.

    A package error is re-raised as the same type with the subject id
    prefixed to its message.
    """
    reports = []
    for sid, pred, gt in pairs:
        try:
            reports.append(evaluate(pred, gt, subject=sid))
        except DrsynthError as exc:
            raise type(exc)(f"subject '{sid}': {exc}") from exc
    dice_mean, dice_std = _mean_std([r.mean_dice for r in reports if r.mean_dice is not None])
    hd_mean, hd_std = _mean_std([r.mean_hd95 for r in reports if r.mean_hd95 is not None])
    return BatchReport(reports, dice_mean, dice_std, hd_mean, hd_std)


def _fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"


def report_rows(batch: BatchReport) -> list[tuple[str, str, str, str]]:
    """Flatten a batch into (subject, label, dice, hd95) text rows.

    One row per (subject, label), a per-subject "mean" row, and dataset
    "mean"/"std" rows under subject "all".  Undefined values print as NA.
    """
    rows = [("subject", "label", "dice", "hd95")]
    for rep in batch.subjects:
        for lab, score in sorted(rep.per_label.items()):
            rows.append((rep.subject, str(lab), _fmt(score.dice), _fmt(score.hd95)))
        rows.append((rep.subject, "mean", _fmt(rep.mean_dice), _fmt(rep.mean_hd95)))
    rows.append(("all", "mean", _fmt(batch.dice_mean), _fmt(batch.hd95_mean)))
    rows.append(("all", "std", _fmt(batch.dice_std), _fmt(batch.hd95_std)))
    return rows


# ---------------------------------------------------------------------------
# rank-sum comparison


def _midranks(pooled: np.ndarray) -> np.ndarray:
    """Ranks 1..N with tied values sharing the mean of their rank block."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size, dtype=np.float64)
    i = 0
    srt = pooled[order]
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _tie_counts(pooled: np.ndarray) -> list[int]:
    _, counts = np.unique(pooled, return_counts=True)
    return [int(c) for c in counts if c > 1]


@dataclass(frozen=True)
class RankSumResult:
    statistic: float
    p_value: float
    method: str
    n: int
    m: int


EXACT_LIMIT = 12


def wilcoxon_rank_sum(x, y, method: str = "auto") -> RankSumResult:
    """Two-sided rank-sum (Mann-Whitney) test with midrank ties.

    ``method`` selects "exact" (full enumeration of rank assignments),
    "normal" (tie-corrected variance plus 0.5 continuity correction), or
    "auto" (exact when n + m <= 12, else normal).  The statistic is the
    rank sum of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise EmptySample("rank-sum test needs at least one value per sample")
    n, m = x.size, y.size
    total = n + m
    pooled = np.concatenate([x, y])
    ranks = _midranks(pooled)
    t_obs = float(ranks[:n].sum())
    mu = n * (total + 1) / 2.0

    if method == "auto":
        method = "exact" if total <= EXACT_LIMIT else "normal"
    if method == "exact":
        d_obs = abs(t_obs - mu)
        hits = 0
        count = 0
        for pick in combinations(range(total), n):
            count += 1
            t = sum(ranks[i] for i in pick)
            if abs(t - mu) >= d_obs - 1e-12:
                hits += 1
        p = hits / count
    elif method == "normal":
        tie_term = sum(t**3 - t for t in _tie_counts(pooled))
        var = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
        if var <= 0:
            p = 1.0
        else:
            z = max(abs(t_obs - mu) - 0.5, 0.0) / math.sqrt(var)
            p = math.erfc(z / math.sqrt(2.0))
        p = min(p, 1.0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return RankSumResult(t_obs, float(p), method, n, m)


def bonferroni(p_values, m: int | None = None) -> list[float]:
    """Family-wise correction p_adj = min(1, m * p); m defaults to len."""
    p_values = list(p_values)
    if m is None:
        m = len(p_values)
    return [min(1.0, m * float(p)) for p in p_values]
