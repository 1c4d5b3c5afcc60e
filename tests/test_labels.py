import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drsynth.errors import EmptyMask, TooFewVoxels, UnknownLabel
from drsynth.labels import (
    DRAWEM_TO_FETA,
    META_CLASS_TABLE,
    GmmFit,
    build_meta_classes,
    em_cluster,
    remap_drawem_to_feta,
    split_meta_classes,
    toy_label_map,
)
from drsynth.volume import LabelMap, LabelScheme, Volume3D

from oracles import gmm_log_likelihood_ref


def drawem_map(values):
    data = np.asarray(values, dtype=np.int32).reshape(-1, 1, 1)
    return LabelMap(data, (1, 1, 1), LabelScheme.DRAWEM9)


def test_remap_table_is_frozen():
    assert DRAWEM_TO_FETA == {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 4, 6: 5, 7: 6, 8: 7, 9: 3}
    assert META_CLASS_TABLE == {3: 1, 5: 1, 7: 1, 2: 2, 6: 2, 1: 3, 4: 3}


def test_remap_covers_every_source_label():
    src = drawem_map(range(10))
    out = remap_drawem_to_feta(src)
    assert out.scheme is LabelScheme.FETA7
    np.testing.assert_array_equal(out.data.ravel(), [0, 1, 2, 3, 0, 4, 5, 6, 7, 3])


def test_remap_requires_drawem_scheme():
    lm = LabelMap(np.zeros((2, 2, 2), np.int32), (1, 1, 1), LabelScheme.FETA7)
    with pytest.raises(UnknownLabel):
        remap_drawem_to_feta(lm)


def test_meta_classes_group_tissues():
    labels = LabelMap(
        np.arange(8, dtype=np.int32).reshape(8, 1, 1), (1, 1, 1), LabelScheme.FETA7
    )
    intensity = Volume3D(np.zeros((8, 1, 1), np.float32), (1, 1, 1))
    out = build_meta_classes(labels, intensity)
    assert out.scheme is LabelScheme.META4
    np.testing.assert_array_equal(out.data.ravel(), [0, 3, 2, 1, 3, 1, 2, 1])


def test_meta_classes_nonbrain_comes_from_image():
    labels = LabelMap(np.zeros((4, 1, 1), np.int32), (1, 1, 1), LabelScheme.FETA7)
    img = Volume3D(np.array([0, 0.5, 0, 2.0], np.float32).reshape(4, 1, 1), (1, 1, 1))
    out = build_meta_classes(labels, img)
    np.testing.assert_array_equal(out.data.ravel(), [0, 4, 0, 4])


def test_gmm_fit_validates_itself():
    ok = dict(
        k=1,
        means=np.array([0.0]),
        variances=np.array([1.0]),
        weights=np.array([1.0]),
        assignments=np.zeros(3, np.int32),
        log_likelihood=0.0,
        n_iter=1,
        converged=True,
    )
    GmmFit(**ok)
    with pytest.raises(ValueError):
        GmmFit(**{**ok, "weights": np.array([0.5])})
    with pytest.raises(ValueError):
        GmmFit(**{**ok, "variances": np.array([0.0])})


def _masked_volume(x):
    x = np.asarray(x, dtype=np.float32).reshape(-1, 1, 1)
    vol = Volume3D(x, (1, 1, 1))
    return vol, np.ones(vol.dims, dtype=bool)


def test_em_single_component_matches_sample_moments(rng):
    x = rng.normal(4.0, 2.0, size=500)
    vol, mask = _masked_volume(x)
    fit = em_cluster(vol, mask, 1)
    x32 = x.astype(np.float32).astype(np.float64)
    assert fit.means[0] == pytest.approx(x32.mean(), abs=1e-9)
    assert fit.variances[0] == pytest.approx(x32.var(), abs=1e-9)
    assert fit.weights[0] == 1.0
    assert fit.converged


def test_em_recovers_two_separated_components(rng):
    x = np.concatenate([rng.normal(0.0, 0.5, 400), rng.normal(10.0, 0.5, 600)])
    vol, mask = _masked_volume(x)
    fit = em_cluster(vol, mask, 2)
    order = np.argsort(fit.means)
    np.testing.assert_allclose(fit.means[order], [0.0, 10.0], atol=0.2)
    np.testing.assert_allclose(fit.weights[order], [0.4, 0.6], atol=0.05)
    # components are far apart, so the argmax assignment splits exactly
    low = fit.assignments == order[0]
    assert np.array_equal(low, np.arange(1000) < 400)


def test_em_log_likelihood_never_decreases(rng):
    x = rng.normal(0.0, 1.0, 300) * rng.choice([1.0, 3.0], 300)
    vol, mask = _masked_volume(x)
    fit = em_cluster(vol, mask, 3)
    ll = np.asarray(fit.ll_history)
    assert ll.size == fit.n_iter
    rel = np.diff(ll) / np.maximum(np.abs(ll[:-1]), 1e-300)
    assert rel.min() >= -1e-9


def test_em_reported_ll_matches_returned_params(rng):
    x = np.concatenate([rng.normal(0.0, 1.0, 200), rng.normal(6.0, 1.0, 200)])
    vol, mask = _masked_volume(x)
    fit = em_cluster(vol, mask, 2)
    assert fit.converged
    x64 = vol.data[mask].astype(np.float64)
    want = gmm_log_likelihood_ref(x64, fit.means, fit.variances, fit.weights)
    assert fit.log_likelihood == pytest.approx(want, rel=1e-9)


def test_em_is_deterministic(rng):
    x = rng.normal(0.0, 1.0, 400)
    vol, mask = _masked_volume(x)
    a = em_cluster(vol, mask, 3)
    b = em_cluster(vol, mask, 3)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.log_likelihood == b.log_likelihood


def test_em_large_input_takes_float32_path(rng):
    # n * k >= 2^19 flips the E step to float32 scratch; recovery must hold
    n = 1 << 18
    x = np.concatenate([rng.normal(0.0, 1.0, n // 2), rng.normal(20.0, 1.0, n // 2)])
    vol, mask = _masked_volume(x)
    fit = em_cluster(vol, mask, 2)
    np.testing.assert_allclose(np.sort(fit.means), [0.0, 20.0], atol=0.05)
    assert abs(fit.weights.sum() - 1.0) < 1e-9


def test_em_input_validation():
    vol, mask = _masked_volume(np.arange(5.0))
    with pytest.raises(EmptyMask):
        em_cluster(vol, np.zeros(vol.dims, bool), 1)
    with pytest.raises(ValueError):
        em_cluster(vol, mask, 0)
    with pytest.raises(TooFewVoxels):
        em_cluster(vol, mask, 6)


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_em_weights_normalized_and_variances_positive(k, seed):
    r = np.random.default_rng(seed)
    x = r.normal(0.0, 1.0, 64)
    vol, mask = _masked_volume(x)
    fit = em_cluster(vol, mask, k)
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert fit.variances.min() > 0
    assert fit.assignments.shape == (64,)
    assert fit.assignments.min() >= 0 and fit.assignments.max() < k


def test_split_assigns_dense_ids_in_class_order(subject, rng):
    labels, intensity = subject
    part = split_meta_classes(labels, intensity, (2, 2), rng)
    present = sorted(int(v) for v in np.unique(labels.data) if v)
    assert part.n_subclasses == 2 * len(present)
    assert part.ids() == list(range(1, part.n_subclasses + 1))
    assert part.subclass_map.scheme is LabelScheme.SUBCLASS
    # ids partition each class's voxels and map back to it
    for sid, (cid, comp) in part.subclass_to_class.items():
        where = part.subclass_map.data == sid
        assert where.any()
        assert set(np.unique(labels.data[where])) == {cid}
        assert 0 <= comp < part.k_by_class[cid]
    # background untouched
    assert not part.subclass_map.data[labels.data == 0].any()


def test_split_clamps_k_to_voxel_count(rng):
    data = np.zeros((4, 4, 4), np.int32)
    data[0, 0, 0] = 1  # a single voxel of class 1
    data[1, :, :] = 2
    labels = LabelMap(data, (1, 1, 1), LabelScheme.FETA7)
    intensity = Volume3D(rng.random((4, 4, 4), dtype=np.float32), (1, 1, 1))
    part = split_meta_classes(labels, intensity, (3, 3), rng)
    assert part.k_by_class[1] == 1
    assert part.k_by_class[2] == 3


def test_split_per_class_range_override(subject, rng):
    labels, intensity = subject
    part = split_meta_classes(
        labels, intensity, (1, 1), rng, k_range_by_class={2: (4, 4)}
    )
    assert part.k_by_class[2] == 4
    assert all(k == 1 for cid, k in part.k_by_class.items() if cid != 2)


def test_split_is_deterministic_per_seed(subject):
    labels, intensity = subject
    a = split_meta_classes(labels, intensity, (1, 4), np.random.default_rng(9))
    b = split_meta_classes(labels, intensity, (1, 4), np.random.default_rng(9))
    np.testing.assert_array_equal(a.subclass_map.data, b.subclass_map.data)
    assert a.k_by_class == b.k_by_class


def test_split_rejects_bad_range(subject, rng):
    labels, intensity = subject
    with pytest.raises(ValueError):
        split_meta_classes(labels, intensity, (0, 2), rng)
    with pytest.raises(ValueError):
        split_meta_classes(labels, intensity, (3, 2), rng)


def test_toy_label_map_shape_and_vocabulary():
    lm = toy_label_map((20, 24, 28))
    assert lm.dims == (20, 24, 28)
    assert lm.scheme is LabelScheme.FETA7
    assert set(np.unique(lm.data)) == set(range(8))
    again = toy_label_map((20, 24, 28))
    np.testing.assert_array_equal(lm.data, again.data)
