import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drsynth.errors import GeometryError, UnknownLabel
from drsynth.volume import (
    InterpKind,
    LabelMap,
    LabelScheme,
    Volume3D,
    resample,
    same_grid,
    sample_at_voxels,
)

from oracles import sample_nearest, sample_trilinear


def test_volume_freezes_data_as_float32():
    vol = Volume3D(np.ones((2, 3, 4), dtype=np.float64), (1.0, 1.0, 1.0))
    assert vol.data.dtype == np.float32
    assert not vol.data.flags.writeable
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 2.0


def test_volume_rejects_bad_geometry():
    with pytest.raises(GeometryError):
        Volume3D(np.zeros((2, 2)), (1.0, 1.0, 1.0))
    with pytest.raises(GeometryError):
        Volume3D(np.zeros((2, 2, 2)), (1.0, -1.0, 1.0))
    with pytest.raises(GeometryError):
        Volume3D(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0), affine=np.zeros((4, 4)))


def test_labelmap_requires_integer_data():
    with pytest.raises(UnknownLabel):
        LabelMap(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1), LabelScheme.FETA7)


def _cube(value):
    data = np.zeros((2, 2, 2), dtype=np.int32)
    data[0, 0, 0] = value
    return data


def test_labelmap_scheme_bounds():
    with pytest.raises(UnknownLabel):
        LabelMap(_cube(8), (1, 1, 1), LabelScheme.FETA7)
    LabelMap(_cube(8), (1, 1, 1), LabelScheme.DRAWEM9)
    # dense subclass ids are unbounded above
    LabelMap(_cube(4321), (1, 1, 1), LabelScheme.SUBCLASS)
    with pytest.raises(UnknownLabel):
        LabelMap(_cube(-1), (1, 1, 1), LabelScheme.SUBCLASS)


def test_container_takes_ownership_of_array():
    # construction freezes the wrapped array in place rather than copying
    arr = np.zeros((2, 2, 2), dtype=np.float32)
    vol = Volume3D(arr, (1, 1, 1))
    assert vol.data is arr
    assert not arr.flags.writeable


def test_same_grid_checks_all_three():
    a = Volume3D(np.zeros((2, 2, 2)), (1, 1, 1))
    assert same_grid(a, a)
    assert not same_grid(a, Volume3D(np.zeros((2, 2, 3)), (1, 1, 1)))
    assert not same_grid(a, Volume3D(np.zeros((2, 2, 2)), (1, 1, 2)))
    shifted = np.eye(4)
    shifted[0, 3] = 5.0
    assert not same_grid(a, Volume3D(np.zeros((2, 2, 2)), (1, 1, 1), affine=shifted))


def test_sample_at_voxels_matches_brute_force(rng):
    data = rng.random((5, 6, 7))
    coords = rng.uniform(-1.5, 7.5, size=(3, 40))
    for oob in ("zero", "clamp"):
        got = sample_at_voxels(data, coords, InterpKind.TRILINEAR, oob=oob)
        want = [sample_trilinear(data, coords[:, i], oob) for i in range(coords.shape[1])]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_sample_nearest_matches_brute_force(rng):
    data = rng.random((5, 6, 7))
    # keep coordinates away from .5 ties, where rounding conventions differ
    coords = np.round(rng.uniform(-1.4, 7.4, size=(3, 40)), 1) + 0.21
    for oob in ("zero", "clamp"):
        got = sample_at_voxels(data, coords, InterpKind.NEAREST, oob=oob)
        want = [sample_nearest(data, coords[:, i], oob) for i in range(coords.shape[1])]
        np.testing.assert_allclose(got, want, atol=0)


def test_sample_at_integer_coords_is_exact(rng):
    data = rng.random((4, 4, 4))
    coords = np.stack(np.meshgrid(*(np.arange(4.0),) * 3, indexing="ij")).reshape(3, -1)
    got = sample_at_voxels(data, coords, InterpKind.TRILINEAR)
    np.testing.assert_array_equal(got.reshape(4, 4, 4), data)


def test_resample_identity_spacing_is_identity(rng):
    vol = Volume3D(rng.random((6, 5, 4), dtype=np.float32), (0.8, 1.0, 1.25))
    out = resample(vol, vol.spacing)
    assert out.dims == vol.dims
    np.testing.assert_array_equal(out.data, vol.data)
    np.testing.assert_allclose(out.affine, vol.affine)


def test_downsample_averages_adjacent_pairs():
    # Halving the resolution of a ramp lands each output voxel midway
    # between two inputs, so values are pairwise midpoint averages.
    ramp = np.arange(8, dtype=np.float32).reshape(8, 1, 1) * np.ones((1, 2, 2), np.float32)
    vol = Volume3D(ramp, (1.0, 1.0, 1.0))
    out = resample(vol, (2.0, 1.0, 1.0))
    assert out.dims == (4, 2, 2)
    np.testing.assert_allclose(out.data[:, 0, 0], [0.5, 2.5, 4.5, 6.5])


def test_resample_affine_keeps_world_frame():
    aff = np.eye(4)
    aff[:3, 3] = (10.0, 20.0, 30.0)
    vol = Volume3D(np.zeros((8, 8, 8), np.float32), (1.0, 1.0, 1.0), affine=aff)
    out = resample(vol, (2.0, 2.0, 2.0))
    # output voxel 0 center sits at input coordinate 0.5 -> world 10.5
    np.testing.assert_allclose(out.affine[:3, 3], (10.5, 20.5, 30.5))
    np.testing.assert_allclose(np.diag(out.affine)[:3], (2.0, 2.0, 2.0))


def test_resample_labels_stay_integer(rng):
    data = rng.integers(0, 8, size=(8, 8, 8), dtype=np.int32)
    lm = LabelMap(data, (1.0, 1.0, 1.0), LabelScheme.FETA7)
    out = resample(lm, (1.6, 1.6, 1.6))
    assert isinstance(out, LabelMap)
    assert out.data.dtype == np.int32
    assert out.scheme is LabelScheme.FETA7


def test_resample_rejects_bad_spacing():
    vol = Volume3D(np.zeros((4, 4, 4)), (1, 1, 1))
    with pytest.raises(GeometryError):
        resample(vol, (0.0, 1.0, 1.0))


@given(
    n=st.integers(2, 12),
    src=st.floats(0.3, 3.0),
    tgt=st.floats(0.3, 3.0),
)
def test_resampled_dims_formula(n, src, tgt):
    vol = Volume3D(np.zeros((n, 3, 3), np.float32), (src, 1.0, 1.0))
    out = resample(vol, (tgt, 1.0, 1.0))
    assert out.dims[0] == max(int(np.ceil(n * src / tgt - 1e-9)), 1)
