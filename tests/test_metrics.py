import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsynth.errors import EmptySample, GeometryError
from drsynth.metrics import (
    EXACT_LIMIT,
    FETA_LABELS,
    batch_evaluate,
    bonferroni,
    boundary_mask,
    dice,
    evaluate,
    hausdorff_percentile,
    hd95,
    hd100,
    report_rows,
    wilcoxon_rank_sum,
)
from drsynth.volume import LabelMap, LabelScheme

from oracles import (
    boundary_ref,
    dice_ref,
    hausdorff_percentile_ref,
    midranks_ref,
    rank_sum_exact_ref,
    rank_sum_normal_ref,
)


def random_mask(r, p=0.3, dims=(7, 8, 9)):
    return r.random(dims) < p


def test_dice_identical_and_disjoint():
    a = np.zeros((4, 4, 4), bool)
    a[:2] = True
    assert dice(a, a) == 1.0
    b = np.zeros((4, 4, 4), bool)
    b[2:] = True
    assert dice(a, b) == 0.0


def test_dice_empty_conventions():
    empty = np.zeros((3, 3, 3), bool)
    full = np.ones((3, 3, 3), bool)
    assert dice(empty, empty) == 1.0
    assert dice(empty, full) == 0.0
    assert dice(full, empty) == 0.0


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.9))
@settings(max_examples=30)
def test_dice_matches_brute_force(seed, p):
    r = np.random.default_rng(seed)
    a, b = random_mask(r, p), random_mask(r, p)
    assert dice(a, b) == pytest.approx(dice_ref(a, b), abs=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_boundary_matches_brute_force(seed):
    r = np.random.default_rng(seed)
    mask = random_mask(r, 0.4, dims=(6, 7, 5))
    np.testing.assert_array_equal(boundary_mask(mask), boundary_ref(mask))


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 6, 5), (7, 1, 3), (9, 8, 10)])
def test_boundary_matches_scipy_erosion(dims):
    from scipy.ndimage import binary_erosion, generate_binary_structure

    r = np.random.default_rng(sum(dims))
    face = generate_binary_structure(3, 1)
    for p in (0.3, 0.8, 1.0):
        mask = r.random(dims) < p
        want = mask & ~binary_erosion(mask, structure=face, border_value=0)
        np.testing.assert_array_equal(boundary_mask(mask), want)


def test_boundary_counts_volume_border():
    mask = np.ones((4, 4, 4), bool)
    # the volume edge borders the outside, so every face voxel is boundary
    want = np.ones((4, 4, 4), bool)
    want[1:3, 1:3, 1:3] = False
    np.testing.assert_array_equal(boundary_mask(mask), want)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_hausdorff_matches_brute_force(seed):
    r = np.random.default_rng(seed)
    a, b = random_mask(r, 0.2, (6, 6, 6)), random_mask(r, 0.2, (6, 6, 6))
    spacing = tuple(r.uniform(0.5, 2.0, 3))
    for q in (95.0, 100.0, 50.0):
        got = hausdorff_percentile(a, b, spacing, q)
        want = hausdorff_percentile_ref(a, b, spacing, q)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_hausdorff_undefined_when_either_empty():
    empty = np.zeros((4, 4, 4), bool)
    full = np.ones((4, 4, 4), bool)
    assert hd95(empty, full, (1, 1, 1)) is None
    assert hd95(full, empty, (1, 1, 1)) is None
    assert hd95(empty, empty, (1, 1, 1)) is None


def test_hausdorff_spacing_is_metric():
    a = np.zeros((5, 5, 5), bool)
    b = np.zeros((5, 5, 5), bool)
    a[0, 0, 0] = True
    b[3, 0, 0] = True
    assert hd100(a, b, (1.0, 1.0, 1.0)) == pytest.approx(3.0)
    assert hd100(a, b, (2.0, 1.0, 1.0)) == pytest.approx(6.0)


def test_hd95_below_hd100(rng):
    a, b = random_mask(rng, 0.3), random_mask(rng, 0.3)
    assert hd95(a, b, (1, 1, 1)) <= hd100(a, b, (1, 1, 1))


def test_identity_prediction_scores_perfectly(rng):
    data = rng.integers(0, 8, (8, 8, 8), dtype=np.int32)
    lm = LabelMap(data, (1, 1, 1), LabelScheme.FETA7)
    rep = evaluate(lm, lm)
    assert rep.mean_dice == 1.0
    assert rep.mean_hd95 == 0.0
    for lab in FETA_LABELS:
        assert rep.per_label[lab].dice == 1.0


def test_evaluate_skips_absent_labels():
    pred = np.zeros((6, 6, 6), np.int32)
    gt = np.zeros((6, 6, 6), np.int32)
    pred[:3] = 1
    gt[:3] = 1
    gt[3:5] = 2  # label 2 missed entirely by pred
    rep = evaluate(
        LabelMap(pred, (1, 1, 1), LabelScheme.FETA7),
        LabelMap(gt, (1, 1, 1), LabelScheme.FETA7),
    )
    assert rep.per_label[1].dice == 1.0
    assert rep.per_label[2].dice == 0.0
    assert rep.per_label[2].hd95 is None
    assert rep.per_label[3].dice == 1.0  # absent from both: perfect by convention
    # mean over labels present in either map: (1 + 0) / 2
    assert rep.mean_dice == pytest.approx(0.5)
    assert rep.mean_hd95 == 0.0  # only label 1 defined


def test_evaluate_requires_shared_grid(rng):
    a = LabelMap(np.zeros((4, 4, 4), np.int32), (1, 1, 1), LabelScheme.FETA7)
    b = LabelMap(np.zeros((4, 4, 5), np.int32), (1, 1, 1), LabelScheme.FETA7)
    with pytest.raises(GeometryError):
        evaluate(a, b)


def test_report_rows_structure(rng):
    data = rng.integers(0, 3, (6, 6, 6), dtype=np.int32)
    lm = LabelMap(data, (1, 1, 1), LabelScheme.FETA7)
    batch = batch_evaluate([("s1", lm, lm), ("s2", lm, lm)])
    rows = report_rows(batch)
    assert rows[0] == ("subject", "label", "dice", "hd95")
    assert rows[1] == ("s1", "1", "1.000000", "0.000000")
    # labels 3..7 are absent from both maps: dice 1, hd95 undefined
    assert rows[3] == ("s1", "3", "1.000000", "NA")
    assert rows[8] == ("s1", "mean", "1.000000", "0.000000")
    assert rows[-2] == ("all", "mean", "1.000000", "0.000000")
    assert rows[-1] == ("all", "std", "0.000000", "0.000000")
    assert len(rows) == 1 + 2 * 8 + 2


def test_batch_aggregates_mean_and_std():
    a = np.zeros((4, 4, 4), np.int32)
    a[:2] = 1
    half = a.copy()
    half[0] = 0  # half the voxels of label 1
    lm = lambda d: LabelMap(d, (1, 1, 1), LabelScheme.FETA7)  # noqa: E731
    batch = batch_evaluate([("good", lm(a), lm(a)), ("bad", lm(half), lm(a))])
    d_good = batch.subjects[0].mean_dice
    d_bad = batch.subjects[1].mean_dice
    assert batch.dice_mean == pytest.approx((d_good + d_bad) / 2)
    assert batch.dice_std == pytest.approx(np.std([d_good, d_bad]))


# ---------------------------------------------------------------------------
# rank-sum test


def test_rank_sum_frozen_untied_example():
    res = wilcoxon_rank_sum([1.0, 2.0, 3.0], [100.0, 101.0, 102.0], method="exact")
    assert res.statistic == 6.0
    assert res.p_value == pytest.approx(0.1, abs=1e-15)
    res_n = wilcoxon_rank_sum([1.0, 2.0, 3.0], [100.0, 101.0, 102.0], method="normal")
    assert res_n.p_value == pytest.approx(0.0808555983700523, abs=1e-13)


def test_rank_sum_frozen_tied_example():
    res = wilcoxon_rank_sum([1.0, 1.0, 2.0], [2.0, 3.0], method="exact")
    assert res.statistic == 6.5
    assert res.p_value == pytest.approx(0.3, abs=1e-15)
    res_n = wilcoxon_rank_sum([1.0, 1.0, 2.0], [2.0, 3.0], method="normal")
    assert res_n.p_value == pytest.approx(0.2235428745713205, abs=1e-13)


def test_rank_sum_frozen_tiny_example():
    res = wilcoxon_rank_sum([5.0], [1.0, 2.0], method="exact")
    assert res.p_value == pytest.approx(2.0 / 3.0, abs=1e-15)
    res_n = wilcoxon_rank_sum([5.0], [1.0, 2.0], method="normal")
    assert res_n.p_value == pytest.approx(0.5402913746074199, abs=1e-13)


def test_auto_switches_at_the_exact_limit(rng):
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    assert wilcoxon_rank_sum(x, y).method == "exact"
    assert 6 + 6 == EXACT_LIMIT
    assert wilcoxon_rank_sum(np.append(x, 0.0), y).method == "normal"


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=30)
def test_exact_p_matches_enumeration_oracle(seed, n, m):
    r = np.random.default_rng(seed)
    x = np.round(r.normal(size=n), 1)  # rounding provokes ties
    y = np.round(r.normal(size=m), 1)
    got = wilcoxon_rank_sum(x, y, method="exact")
    t_ref, p_ref = rank_sum_exact_ref(x, y)
    assert got.statistic == pytest.approx(t_ref, abs=1e-12)
    assert got.p_value == pytest.approx(p_ref, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_normal_p_matches_reference(seed):
    r = np.random.default_rng(seed)
    x = np.round(r.normal(0.0, 1.0, 15), 1)
    y = np.round(r.normal(0.4, 1.0, 15), 1)
    got = wilcoxon_rank_sum(x, y, method="normal")
    t_ref, p_ref = rank_sum_normal_ref(x, y)
    assert got.statistic == pytest.approx(t_ref, abs=1e-12)
    assert got.p_value == pytest.approx(p_ref, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_exact_p_invariant_under_monotone_transforms(seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=4)
    y = r.normal(size=5)
    base = wilcoxon_rank_sum(x, y, method="exact").p_value
    assert wilcoxon_rank_sum(np.exp(x), np.exp(y), method="exact").p_value == base
    assert wilcoxon_rank_sum(3 * x + 7, 3 * y + 7, method="exact").p_value == base


def test_rank_sum_validation():
    with pytest.raises(EmptySample):
        wilcoxon_rank_sum([], [1.0])
    with pytest.raises(EmptySample):
        wilcoxon_rank_sum([1.0], [])
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0], [2.0], method="bootstrap")


def test_all_tied_data_is_inconclusive():
    res = wilcoxon_rank_sum([4.0, 4.0], [4.0, 4.0, 4.0], method="normal")
    assert res.p_value == 1.0


def test_midranks_used_for_ties():
    pooled = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
    np.testing.assert_array_equal(midranks_ref(pooled), [4.0, 1.0, 4.0, 2.0, 4.0])
    res = wilcoxon_rank_sum([3.0, 1.0], [3.0, 2.0, 3.0], method="exact")
    assert res.statistic == 5.0


def test_bonferroni_correction():
    assert bonferroni([0.01, 0.2, 0.5]) == pytest.approx([0.03, 0.6, 1.0])
    assert bonferroni([0.04], m=10) == pytest.approx([0.4])
    assert bonferroni([]) == []
