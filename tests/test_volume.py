import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drsynth import augment, volume
from drsynth.augment import simulate_resolution
from drsynth.errors import GeometryError, UnknownLabel
from drsynth.volume import (
    LabelMap,
    LabelScheme,
    Volume3D,
    require_same_grid,
    sample_at_voxels,
)

from conftest import traced_peak
from oracles import sample_nearest, sample_trilinear, simulate_resolution_dense_ref


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


NARROWEST = [(0, np.uint8), (7, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)]


@pytest.mark.parametrize(
    "top, dtype, given",
    [(top, dtype, given) for top, dtype in NARROWEST for given in (np.int16, np.int32, np.int64, np.uint32)
     if top <= np.iinfo(given).max],
)
def test_labelmap_stores_the_narrowest_unsigned_type(top, dtype, given):
    lm = LabelMap(_cube(top).astype(given), (1, 1, 1), LabelScheme.SUBCLASS)
    assert lm.data.dtype == dtype
    assert int(lm.data[0, 0, 0]) == top and lm.data.flags.c_contiguous


def test_labelmap_narrows_fortran_order_data_to_c_order():
    data = np.asfortranarray(np.arange(24, dtype=np.int32).reshape(2, 3, 4))
    lm = LabelMap(data, (1, 1, 1), LabelScheme.SUBCLASS)
    assert lm.data.dtype == np.uint8 and lm.data.flags.c_contiguous
    np.testing.assert_array_equal(lm.data, data)


def test_container_takes_ownership_of_array():
    # construction freezes the wrapped array in place rather than copying
    arr = np.zeros((2, 2, 2), dtype=np.float32)
    vol = Volume3D(arr, (1, 1, 1))
    assert vol.data is arr
    assert not arr.flags.writeable


def test_same_grid_checks_all_three():
    a = Volume3D(np.zeros((2, 2, 2)), (1, 1, 1))
    require_same_grid(a, a)
    shifted = np.eye(4)
    shifted[0, 3] = 5.0
    for other in (
        Volume3D(np.zeros((2, 2, 3)), (1, 1, 1)),
        Volume3D(np.zeros((2, 2, 2)), (1, 1, 2)),
        Volume3D(np.zeros((2, 2, 2)), (1, 1, 1), affine=shifted),
    ):
        with pytest.raises(GeometryError, match="a and b must share dims, spacing, and affine"):
            require_same_grid(a, other, "a and b")


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
    """(coords, values) of simulate_resolution's downsample of ``vol``, its tiles joined."""
    seen = []

    def spy(data, coords, oob="zero", out=None):
        values = sample_at_voxels(data, coords, oob, out=out)
        seen.append((coords.copy(), values.copy()))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augment, "sample_at_voxels", spy)
        simulate_resolution(vol, target)
    coords, values = zip(*seen)
    return np.concatenate(coords, axis=1), np.concatenate(values)


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


@pytest.mark.parametrize(
    "block, tiles", [(augment._LINEAR_BLOCK, 1), (600, 4), (1, 12)], ids=["default", "few-planes", "one-plane"]
)
def test_simulate_resolution_in_tiles_matches_one_dense_grid(monkeypatch, block, tiles):
    # the coarse grid is sampled a tile of x-planes at a time; each point
    # samples on its own, so any tiling gives the dense grid's bytes
    r = np.random.default_rng(12)
    vol = Volume3D(r.random((30, 26, 22), dtype=np.float32) * 100.0, (0.8, 1.0, 1.25))
    target = (2.1, 1.3, 3.7)
    monkeypatch.setattr(augment, "_LINEAR_BLOCK", block)
    calls = []
    monkeypatch.setattr(augment, "sample_at_voxels", lambda *a, **k: calls.append(1) or sample_at_voxels(*a, **k))
    got = simulate_resolution(vol, target).data
    assert got.tobytes() == simulate_resolution_dense_ref(vol.data, vol.spacing, target).tobytes()
    assert len(calls) == tiles  # 12 coarse x-planes of 20 x 8 voxels


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
        # NaN and +-inf on the hull's faces and one voxel inside them: an
        # out-of-hull corner whose weight is zeroed but whose value is still
        # read from the edge would turn a finite or infinite sample into NaN
        for axis, n in enumerate(dims):
            for plane in {p for p in (0, 1, n - 2, n - 1) if 0 <= p < n}:
                face = [slice(None)] * 3
                face[axis] = plane
                spots = r.random(data[tuple(face)].shape)
                data[tuple(face)][spots < 0.15] = np.nan
                data[tuple(face)][(spots >= 0.15) & (spots < 0.3)] = np.inf
                data[tuple(face)][(spots >= 0.3) & (spots < 0.45)] = -np.inf
    hull = [np.arange(-2.0, n + 2.0) for n in dims]
    # per axis, points one voxel either side of the hull with the other two
    # axes anywhere from a voxel outside to a voxel inside
    band = []
    for axis, n in enumerate(dims):
        for lo in (-1.0, n - 1.0):
            pts = np.stack([r.uniform(-1.0, m, 60) for m in dims])
            pts[axis] = r.uniform(lo, lo + 1.0, 60)
            band.append(pts)
    coords = np.concatenate([
        r.uniform(-3.0, max(dims) + 2.0, size=(3, 400)),
        np.stack([r.choice(h, 100) for h in hull]),  # integer
        np.stack([r.choice(h, 100) + 0.5 for h in hull]),  # half-integer
        r.choice([-1e6, -40.5, -1.0, 1e-9, 40.5, 1e6], size=(3, 60)),  # far out and at the edge
        *band,
    ], axis=1)
    for coord_dtype in (np.float32, np.float64):
        c = coords.astype(coord_dtype).reshape(3, 34, 30)
        for oob, mode in (("zero", "grid-constant"), ("clamp", "nearest")):
            with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are meant to give NaN here
                want = map_coordinates(data, c, order=0 if dtype is np.int32 else 1, mode=mode)
                got = sample_at_voxels(data, c, oob)
            assert got.dtype == want.dtype and got.shape == (34, 30)
            # a NaN's sign bit follows the order of its operations, so NaNs
            # are compared by position and every other value bit for bit
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (oob, coord_dtype)
            assert got[~nan].tobytes() == want[~nan].tobytes(), (oob, coord_dtype)


@pytest.mark.parametrize("oob", ["zero", "clamp"])
def test_sampling_makes_no_copy_of_its_source(oob):
    # the source is read where it lies: no padded, contiguous or float64
    # copy, so nothing near the source's size is allocated; the points
    # reach a voxel beyond the hull on every side, so the band path runs
    data = np.random.default_rng(3).random((64, 64, 64), dtype=np.float32)
    coords = np.random.default_rng(4).uniform(-3.0, 67.0, size=(3, 500))
    peak = traced_peak(sample_at_voxels, data, coords, oob)
    assert peak < data.nbytes // 8


@pytest.mark.parametrize("oob", ["zero", "clamp"])
@pytest.mark.parametrize("chunk", [volume._CHUNK, 97], ids=["default-chunk", "small-chunk"])
@pytest.mark.parametrize("dtype", [np.float32, np.uint8])
def test_sampling_into_its_own_coordinates_matches_the_plain_call(monkeypatch, oob, chunk, dtype):
    # the generator warps the intensity into its grid's spent x-channel: a
    # chunk's coordinates are read before its results land on them, and the
    # band's batches write only points already read.  A small chunk makes
    # many chunks and batches; the points reach past the hull on every side.
    r = np.random.default_rng(9)
    data = (r.random((20, 18, 16)) * 200.0).astype(dtype)
    coords = r.uniform(-3.0, 22.0, size=(3, 30, 40, 50)).astype(np.float32)
    coords[:, :5] = r.integers(-2, 22, size=(3, 5, 40, 50))  # on the grid, and on the hull's faces
    want = sample_at_voxels(data, coords, oob)
    monkeypatch.setattr(volume, "_CHUNK", chunk)
    if dtype is np.uint8:
        out = np.empty(coords.shape[1:], dtype)
        assert sample_at_voxels(data, coords, oob, out=out) is out
        assert out.tobytes() == want.tobytes()
        return
    assert sample_at_voxels(data, coords.copy(), oob).tobytes() == want.tobytes()
    got = sample_at_voxels(data, coords, oob, out=coords[0])
    assert np.shares_memory(got, coords) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("out", [np.empty((4, 5), np.float64), np.empty((5, 4), np.float32), np.empty((5, 4), np.float32).T])
def test_sampling_rejects_an_out_it_cannot_fill(out):
    with pytest.raises(ValueError, match="out must be C-contiguous float32 of shape"):
        sample_at_voxels(np.zeros((3, 3, 3), np.float32), np.zeros((3, 4, 5)), out=out)
