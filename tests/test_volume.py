import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drsynth import augment
from drsynth.augment import simulate_resolution
from drsynth.errors import GeometryError, UnknownLabel
from drsynth.volume import (
    LabelMap,
    LabelScheme,
    Volume3D,
    same_grid,
    sample_at_voxels,
)

from conftest import traced_peak
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


@pytest.mark.parametrize("spacing, cell", [
    ((np.inf, 1.0, 1.0), None), ((1.0, np.nan, 1.0), None), ((1.0, 1.0, 1.0), (0, 0)), ((1.0, 1.0, 1.0), (2, 3)),
])
def test_geometry_must_be_finite(spacing, cell):
    # NaN compares false both ways, so each check must ask for a finite value
    affine = np.eye(4)
    if cell is not None:
        affine[cell] = np.nan
    with pytest.raises(GeometryError, match="finite"):
        Volume3D(np.zeros((2, 2, 2)), spacing, affine)
    with pytest.raises(GeometryError, match="finite"):
        LabelMap(np.zeros((2, 2, 2), np.int32), spacing, LabelScheme.FETA7, affine)


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
        got = sample_at_voxels(data, coords, oob=oob)
        want = [sample_trilinear(data, coords[:, i], oob) for i in range(coords.shape[1])]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_sample_nearest_matches_brute_force(rng):
    data = rng.integers(1, 100, size=(5, 6, 7), dtype=np.int32)  # integer data samples nearest
    # keep coordinates away from .5 ties, where rounding conventions differ
    coords = np.round(rng.uniform(-1.4, 7.4, size=(3, 40)), 1) + 0.21
    for oob in ("zero", "clamp"):
        got = sample_at_voxels(data, coords, oob=oob)
        assert got.dtype == np.int32
        want = [sample_nearest(data, coords[:, i], oob) for i in range(coords.shape[1])]
        np.testing.assert_allclose(got, want, atol=0)


def test_sample_at_integer_coords_is_exact(rng):
    data = rng.random((4, 4, 4))
    coords = np.stack(np.meshgrid(*(np.arange(4.0),) * 3, indexing="ij")).reshape(3, -1)
    got = sample_at_voxels(data, coords)
    np.testing.assert_array_equal(got.reshape(4, 4, 4), data)


# simulate_resolution resamples through a coarse grid that covers the source's
# extent; the coarse samples are what it passes to sample_at_voxels


def _coarse_samples(vol, target):
    """(coords, values) of simulate_resolution's downsample of ``vol``."""
    seen = []

    def spy(data, coords, oob="zero"):
        seen.append((coords, sample_at_voxels(data, coords, oob)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augment, "sample_at_voxels", spy)
        simulate_resolution(vol, target)
    (coords, values), = seen
    return coords, values


def test_resample_identity_spacing_is_identity(rng):
    vol = Volume3D(rng.random((6, 5, 4), dtype=np.float32), (0.8, 1.0, 1.25))
    coords, values = _coarse_samples(vol, vol.spacing)
    grid = np.stack(np.meshgrid(*(np.arange(n) for n in vol.dims), indexing="ij"))
    np.testing.assert_array_equal(coords, grid)
    np.testing.assert_array_equal(values, vol.data)
    np.testing.assert_array_equal(simulate_resolution(vol, vol.spacing).data, vol.data)


def test_downsample_averages_adjacent_pairs():
    # Halving the resolution lands each coarse voxel midway between two
    # source voxels, so its value is their (blurred) midpoint average.
    ramp = np.arange(8, dtype=np.float32).reshape(8, 1, 1) * np.ones((1, 2, 2), np.float32)
    vol = Volume3D(ramp, (1.0, 1.0, 1.0))
    coords, values = _coarse_samples(vol, (2.0, 1.0, 1.0))
    assert values.shape == (4, 2, 2)
    np.testing.assert_array_equal(coords[0, :, 0, 0], [0.5, 2.5, 4.5, 6.5])
    blurred = augment.gaussian_blur(vol, (1.0 / augment._FWHM_TO_SIGMA, 0.0, 0.0)).data
    np.testing.assert_allclose(values[:, 0, 0], (blurred[0::2, 0, 0] + blurred[1::2, 0, 0]) / 2, rtol=1e-6)


@given(
    n=st.integers(2, 12),
    src=st.floats(0.3, 3.0),
    tgt=st.floats(0.3, 3.0),
)
def test_resampled_dims_formula(n, src, tgt):
    vol = Volume3D(np.zeros((n, 3, 3), np.float32), (src, 1.0, 1.0))
    _, values = _coarse_samples(vol, (tgt, 1.0, 1.0))
    # the target never goes below the source spacing
    assert values.shape == (max(int(np.ceil(n * src / max(tgt, src) - 1e-9)), 1), 3, 3)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_simulate_resolution_keeps_a_linear_ramp(axis):
    # Blur, downsample and the way back are each exact on a linear ramp away
    # from the borders, so any offset between the coarse and source grids,
    # even a small fraction of a voxel, shows as a shifted ramp.
    dims, spacing, target = (40, 36, 44), (0.8, 1.0, 1.25), (2.6, 3.0, 3.9)
    shape = [1, 1, 1]
    shape[axis] = dims[axis]
    ramp = np.broadcast_to(np.arange(dims[axis], dtype=np.float32).reshape(shape), dims)
    out = simulate_resolution(Volume3D(ramp, spacing), target).data
    inner = [slice(None)] * 3
    inner[axis] = slice(10, -10)
    np.testing.assert_allclose(out[tuple(inner)], ramp[tuple(inner)], rtol=0, atol=1e-4)


# scipy's map_coordinates is the oracle: sample_at_voxels does its arithmetic
# and must match it bit for bit, -0.0 and the oob modes included
ORACLE_GRIDS = [(1, 1, 1), (1, 5, 7), (4, 1, 1), (3, 9, 1), (6, 7, 5), (12, 3, 10)]


@pytest.mark.parametrize("dims", ORACLE_GRIDS, ids=["x".join(map(str, d)) for d in ORACLE_GRIDS])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
def test_sample_at_voxels_matches_scipy_bit_for_bit(dims, dtype):
    from scipy.ndimage import map_coordinates

    r = np.random.default_rng(sum(dims) * 7 + np.dtype(dtype).itemsize)
    if dtype is np.int32:
        data = r.integers(-50, 50, size=dims).astype(dtype)
    else:
        data = (r.standard_normal(dims) * 100.0).astype(dtype)
        data[r.random(dims) < 0.2] = -0.0
    hull = [np.arange(-2.0, n + 2.0) for n in dims]
    coords = np.concatenate([
        r.uniform(-3.0, max(dims) + 2.0, size=(3, 400)),
        np.stack([r.choice(h, 100) for h in hull]),  # integer
        np.stack([r.choice(h, 100) + 0.5 for h in hull]),  # half-integer
        r.choice([-1e6, -40.5, -1.0, 1e-9, 40.5, 1e6], size=(3, 60)),  # far out and at the edge
    ], axis=1)
    for coord_dtype in (np.float32, np.float64):
        c = coords.astype(coord_dtype).reshape(3, 22, 30)
        for oob, mode in (("zero", "grid-constant"), ("clamp", "nearest")):
            want = map_coordinates(data, c, order=0 if dtype is np.int32 else 1, mode=mode)
            got = sample_at_voxels(data, c, oob)
            assert got.dtype == want.dtype and got.shape == (22, 30)
            assert got.tobytes() == want.tobytes(), (oob, coord_dtype)


@pytest.mark.parametrize("oob", ["zero", "clamp"])
def test_float32_sampling_makes_no_float64_copy_of_its_source(oob):
    # the padded float32 source is the one volume-sized buffer: a float64
    # copy of it would double that and more
    data = np.random.default_rng(3).random((64, 64, 64), dtype=np.float32)
    coords = np.random.default_rng(4).uniform(-3.0, 67.0, size=(3, 500))
    padded_bytes = 68**3 * 4
    peak = traced_peak(sample_at_voxels, data, coords, oob)
    assert padded_bytes <= peak < 1.25 * padded_bytes
