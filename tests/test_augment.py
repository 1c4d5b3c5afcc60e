import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drsynth import augment
from drsynth.augment import (
    AffineParams,
    AffineRanges,
    CorruptionConfig,
    ResolutionSim,
    SvfConfig,
    add_gaussian_noise,
    apply_bias_field,
    bias_field_from_control,
    draw_affine,
    draw_resolution,
    draw_simple_plan,
    draw_svf_deformation,
    gamma_contrast,
    gaussian_blur,
    integrate_velocity,
    jacobian_determinant,
    rescale_unit,
    sample_bias_control,
    simulate_resolution,
    transform_coordinates,
    upsample_control_grid,
)
from drsynth.errors import InvalidGamma, InvalidRange
from drsynth.volume import LabelMap, LabelScheme, Volume3D, sample_at_voxels

from oracles import integrate_velocity_ref, sample_trilinear

IDENTITY = AffineParams((0, 0, 0), (1, 1, 1), (0, 0, 0), (0,) * 6)


def test_identity_params_give_identity_matrix():
    np.testing.assert_allclose(IDENTITY.matrix(), np.eye(4), atol=0)


def test_matrix_composes_rotation_shear_scale():
    p = AffineParams((0, 0, np.pi / 2), (2.0, 1.0, 1.0), (5.0, -3.0, 0.0), (0,) * 6)
    m = p.matrix()
    rz = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
    np.testing.assert_allclose(m[:3, :3], rz @ np.diag([2.0, 1.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(m[:3, 3], [5.0, -3.0, 0.0])
    sh = AffineParams((0, 0, 0), (1, 1, 1), (0, 0, 0), (0.1, 0, 0, 0, 0, 0))
    want = np.eye(3)
    want[0, 1] = 0.1
    np.testing.assert_allclose(sh.matrix()[:3, :3], want, atol=0)


@given(st.integers(0, 2**32 - 1))
def test_drawn_affine_respects_ranges(seed):
    ranges = AffineRanges()
    p = draw_affine(ranges, np.random.default_rng(seed))
    assert all(abs(r) <= ranges.rotation_rad for r in p.rotation)
    assert all(1 - ranges.scale_delta <= s <= 1 + ranges.scale_delta for s in p.scale)
    assert all(abs(t) <= ranges.translation_mm for t in p.translation)
    assert all(abs(s) <= ranges.shear for s in p.shear)


def warp(vol, affine, disp_mm=None):
    """A volume backward-warped as the generator warps it."""
    coords = transform_coordinates(vol.dims, vol.spacing, affine, disp_mm)
    return vol.with_data(sample_at_voxels(vol.data, coords))


def test_no_transform_is_identity(rng):
    vol = Volume3D(rng.random((6, 6, 6), dtype=np.float32), (1, 1, 1))
    np.testing.assert_array_equal(warp(vol, None).data, vol.data)


def test_identity_affine_leaves_volume_unchanged(rng):
    vol = Volume3D(rng.random((6, 6, 6), dtype=np.float32), (1.0, 1.5, 2.0))
    out = warp(vol, IDENTITY)
    np.testing.assert_array_equal(out.data, vol.data)


def test_translation_is_a_backward_warp():
    data = np.zeros((16, 16, 16), dtype=np.float32)
    data[10, 8, 8] = 1.0
    vol = Volume3D(data, (1, 1, 1))
    shift = AffineParams((0, 0, 0), (1, 1, 1), (2.0, 0.0, 0.0), (0,) * 6)
    out = warp(vol, shift)
    # output voxel x samples the input at x + 2, so the spike lands at 8
    assert out.data[8, 8, 8] == 1.0
    assert out.data.sum() == 1.0


def test_translation_respects_spacing():
    data = np.zeros((16, 16, 16), dtype=np.float32)
    data[10, 8, 8] = 1.0
    vol = Volume3D(data, (2.0, 1.0, 1.0))
    shift = AffineParams((0, 0, 0), (1, 1, 1), (4.0, 0.0, 0.0), (0,) * 6)
    out = warp(vol, shift)
    assert out.data[8, 8, 8] == 1.0  # 4 mm = 2 voxels on this axis


def test_scaling_is_about_the_volume_center(rng):
    vol = Volume3D(rng.random((9, 9, 9), dtype=np.float32), (1, 1, 1))
    grow = AffineParams((0, 0, 0), (1.25, 1.25, 1.25), (0, 0, 0), (0,) * 6)
    out = warp(vol, grow)
    assert out.data[4, 4, 4] == vol.data[4, 4, 4]


def test_label_maps_warp_nearest_only(rng):
    lm = LabelMap(rng.integers(0, 8, (8, 8, 8), dtype=np.int32), (1, 1, 1), LabelScheme.FETA7)
    disp = draw_svf_deformation(lm.dims, lm.spacing, SvfConfig(), np.random.default_rng(4))
    out = warp(lm, draw_affine(AffineRanges(translation_mm=2.0), rng), disp)
    assert out.data.dtype == np.int32
    assert set(np.unique(out.data)) <= set(np.unique(lm.data)) | {0}


def test_displacement_moves_the_sampling_grid_in_mm():
    # a uniform 3 mm shift along y on 1.5 mm voxels samples 2 voxels further on
    dims, spacing = (5, 6, 7), (1.0, 1.5, 2.0)
    disp = np.zeros(dims + (3,), np.float32)
    disp[..., 1] = 3.0
    coords = transform_coordinates(dims, spacing, None, disp)
    ramp = transform_coordinates(dims, spacing, None, None)
    np.testing.assert_array_equal(coords[1], ramp[1] + 2.0)
    np.testing.assert_array_equal(coords[[0, 2]], ramp[[0, 2]])


def test_transform_coordinates_identity_is_the_voxel_ramp():
    coords = transform_coordinates((4, 5, 6), (1.0, 2.0, 0.5), None, None)
    assert coords.shape == (3, 4, 5, 6)
    grids = np.meshgrid(*(np.arange(n, dtype=np.float32) for n in (4, 5, 6)), indexing="ij")
    for i in range(3):
        np.testing.assert_array_equal(coords[i], grids[i])


def test_field_dims_must_match():
    with pytest.raises(InvalidRange, match=r"\(4, 4, 4, 3\).*\(5, 5, 5, 3\)"):
        transform_coordinates((5, 5, 5), (1, 1, 1), None, np.zeros((4, 4, 4, 3), np.float32))


# ---------------------------------------------------------------------------
# separable resampling and control grids


def test_separable_linear_matches_trilinear_oracle(rng):
    arr = rng.random((5, 6, 7))
    positions = [np.sort(rng.uniform(-0.4, n - 0.6, size=4)) for n in arr.shape]
    got = augment._separable_linear(arr, positions)
    grids = np.meshgrid(*positions, indexing="ij")
    for idx in np.ndindex(got.shape):
        coord = [g[idx] for g in grids]
        assert got[idx] == pytest.approx(sample_trilinear(arr, coord, "clamp"), abs=1e-12)


@pytest.mark.parametrize("dtype, out", [(np.float32, None), (np.float64, np.float32)])
def test_separable_linear_blocks_change_no_bit(monkeypatch, rng, dtype, out):
    arr = rng.standard_normal((6, 5, 7, 3)).astype(dtype)
    positions = [rng.uniform(-1.0, n, size=m) for n, m in zip(arr.shape, (23, 9, 11))]
    whole = augment._separable_linear(arr, positions, out)
    assert whole.shape == (23, 9, 11, 3) and whole.dtype == (out or dtype)
    # 23 rows in blocks of 1, and of 2 with a short last block
    for rows in (1, 2):
        monkeypatch.setattr(augment, "_LINEAR_BLOCK", rows * 9 * 11 * 3)
        assert augment._separable_linear(arr, positions, out).tobytes() == whole.tobytes()


def test_transform_coordinates_blocks_change_no_bit(monkeypatch, rng):
    dims, spacing = (23, 9, 11), (0.8, 1.0, 1.7)
    affine = draw_affine(AffineRanges(), rng)
    field = rng.standard_normal(dims + (3,)).astype(np.float32)
    whole = transform_coordinates(dims, spacing, affine, field)
    for rows in (1, 2):
        monkeypatch.setattr(augment, "_LINEAR_BLOCK", rows * 9 * 11)
        assert transform_coordinates(dims, spacing, affine, field).tobytes() == whole.tobytes()


def test_upsample_is_corner_aligned(rng):
    ctrl = rng.random((4, 4, 4)).astype(np.float32)
    up = upsample_control_grid(ctrl, (13, 9, 21))
    assert up.shape == (13, 9, 21)
    assert up[0, 0, 0] == ctrl[0, 0, 0]
    assert up[-1, -1, -1] == ctrl[-1, -1, -1]
    assert up[0, -1, 0] == ctrl[0, -1, 0]
    # upsampling to the control resolution is the identity
    np.testing.assert_array_equal(upsample_control_grid(ctrl, (4, 4, 4)), ctrl)


def test_upsample_handles_vector_channels(rng):
    ctrl = rng.random((3, 3, 3, 3)).astype(np.float32)
    up = upsample_control_grid(ctrl, (7, 7, 7))
    assert up.shape == (7, 7, 7, 3)
    np.testing.assert_array_equal(up[0, 0, 0], ctrl[0, 0, 0])


# ---------------------------------------------------------------------------
# velocity integration and jacobians


def test_integrating_a_constant_velocity_returns_it():
    vel = np.empty((10, 10, 10, 3), dtype=np.float32)
    vel[..., 0], vel[..., 1], vel[..., 2] = 0.5, -0.25, 0.125
    disp = integrate_velocity(vel, steps=7)
    np.testing.assert_allclose(disp, vel, atol=1e-6)


@pytest.mark.parametrize("steps", [0, 1, 7])
@pytest.mark.parametrize(
    "dims",
    [
        (1, 17, 5),  # size-1 axis
        (70, 40, 33),  # several slabs, the last one short
        (130, 9, 11),  # one slab, not a whole number of planes per slab
        (3, 190, 180),  # one x-plane is larger than a slab
    ],
)
def test_integration_matches_whole_volume_reference_bit_for_bit(dims, steps):
    rng = np.random.default_rng(sum(dims) + steps)
    # rough and large: many sample points land past the edges and clamp
    vel = (rng.standard_normal(dims + (3,)) * 8.0).astype(np.float32)
    got = integrate_velocity(vel, steps)
    assert got.shape == vel.shape and got.dtype == np.float32
    assert got.tobytes() == integrate_velocity_ref(vel, steps).tobytes()


def test_integration_test_shapes_span_several_slabs():
    # keeps the shapes above covering a short last slab and an x-plane
    # larger than one slab if the slab size changes
    rows = augment._SLAB_VOXELS // (40 * 33)
    assert 1 <= rows < 70 and 70 % rows != 0
    assert 190 * 180 > augment._SLAB_VOXELS


def test_zero_velocity_integrates_to_zero():
    disp = integrate_velocity(np.zeros((6, 6, 6, 3), np.float32))
    np.testing.assert_array_equal(disp, 0.0)


def test_default_deformation_stays_small(rng):
    field = draw_svf_deformation((24, 24, 24), (1, 1, 1), SvfConfig(), rng)
    assert field.shape == (24, 24, 24, 3) and field.dtype == np.float32
    assert field[..., 0].flags.c_contiguous  # transform_coordinates reads whole channels
    mags = np.linalg.norm(field, axis=-1)
    assert 0.0 < mags.max() < 6.0


def test_jacobian_of_zero_field_is_one():
    field = np.zeros((8, 8, 8, 3), np.float32)
    np.testing.assert_allclose(jacobian_determinant(field, (1, 1, 1)), 1.0, atol=0)


def test_jacobian_of_linear_field_is_exact():
    # u_i = a * x_i has constant gradient a, so det(I + J) = (1 + a)^3; the
    # field is in mm, and the gradient is taken in voxels
    a = 0.125
    dims, spacing = (8, 8, 8), (2.0, 0.5, 1.5)
    disp = np.empty(dims + (3,), dtype=np.float32)
    for i in range(3):
        disp[..., i] = a * augment._axis_ramp(dims[i], i) * spacing[i]
    det = jacobian_determinant(disp, spacing)
    np.testing.assert_allclose(det, (1 + a) ** 3, rtol=1e-6)


def test_default_draws_stay_diffeomorphic():
    for seed in range(5):
        field = draw_svf_deformation((16, 16, 16), (1, 1, 1), SvfConfig(), np.random.default_rng(seed))
        assert jacobian_determinant(field, (1, 1, 1)).min() > 0


# ---------------------------------------------------------------------------
# intensity corruptions


def test_bias_field_is_positive_and_corner_aligned(rng):
    ctrl = sample_bias_control(CorruptionConfig(), rng)
    assert ctrl.shape == (4, 4, 4)
    field = bias_field_from_control(ctrl, (11, 11, 11))
    assert field.min() > 0
    assert np.log(field[0, 0, 0]) == pytest.approx(ctrl[0, 0, 0], abs=1e-6)


def test_apply_bias_keeps_zero_background(rng):
    data = rng.random((6, 6, 6), dtype=np.float32)
    data[:2] = 0.0
    vol = Volume3D(data, (1, 1, 1))
    bias = bias_field_from_control(sample_bias_control(CorruptionConfig(), rng), vol.dims)
    out = apply_bias_field(vol, bias)
    assert not out.data[:2].any()
    np.testing.assert_allclose(out.data[2:], data[2:] * bias[2:].astype(np.float32), rtol=1e-6)
    with pytest.raises(InvalidRange):
        apply_bias_field(vol, bias[:-1])


def test_gamma_preserves_range_and_order(rng):
    vol = Volume3D(np.sort(rng.random(64, dtype=np.float32)).reshape(4, 4, 4), (1, 1, 1))
    out = gamma_contrast(vol, 2.2)
    assert out.data.min() == pytest.approx(vol.data.min(), abs=1e-6)
    assert out.data.max() == pytest.approx(vol.data.max(), abs=1e-6)
    assert np.all(np.diff(out.data.ravel()) >= 0)


def test_gamma_one_is_identity(rng):
    vol = Volume3D(rng.random((5, 5, 5), dtype=np.float32), (1, 1, 1))
    np.testing.assert_allclose(gamma_contrast(vol, 1.0).data, vol.data, atol=1e-6)


def test_gamma_constant_passthrough_and_validation():
    vol = Volume3D(np.full((3, 3, 3), 7.0, np.float32), (1, 1, 1))
    np.testing.assert_array_equal(gamma_contrast(vol, 0.7).data, vol.data)
    with pytest.raises(InvalidGamma):
        gamma_contrast(vol, 0.0)
    with pytest.raises(InvalidGamma):
        gamma_contrast(vol, -1.5)


def test_noise_scale_follows_the_volume_peak(rng):
    vol = Volume3D(np.full((32, 32, 32), 50.0, np.float32), (1, 1, 1))
    out = add_gaussian_noise(vol, 0.1, rng)
    assert np.std(out.data - vol.data) == pytest.approx(5.0, rel=0.05)
    zero = Volume3D(np.zeros((32, 32, 32), np.float32), (1, 1, 1))
    out = add_gaussian_noise(zero, 0.1, rng)
    assert np.std(out.data) == pytest.approx(0.1, rel=0.05)


def test_noise_sigma_zero_is_identity(rng):
    vol = Volume3D(rng.random((6, 6, 6), dtype=np.float32), (1, 1, 1))
    np.testing.assert_array_equal(add_gaussian_noise(vol, 0.0, rng).data, vol.data)


def test_blur_keeps_constants_and_reduces_variance(rng):
    const = Volume3D(np.full((8, 8, 8), 3.0, np.float32), (1, 1, 1))
    np.testing.assert_allclose(gaussian_blur(const, 2.0).data, 3.0, rtol=1e-6)
    vol = Volume3D(rng.random((16, 16, 16), dtype=np.float32), (1, 1, 1))
    out = gaussian_blur(vol, 1.5)
    assert out.data.var() < 0.25 * vol.data.var()
    np.testing.assert_array_equal(gaussian_blur(vol, 0.0).data, vol.data)
    with pytest.raises(InvalidRange):
        gaussian_blur(vol, -1.0)


# (dims, kernel radius on axis 0): size-1 axes, axes shorter than the
# radius, and blocks of one row and of many rows with a remainder
BLUR_CASES = [((7, 1, 5), 0), ((1, 6, 9), 1), ((9, 11, 4), 2), ((40, 33, 70), 3),
              ((5, 8, 1), 4), ((13, 2, 17), 5), ((200, 5, 180), 6), ((24, 19, 21), 8)]


@pytest.mark.parametrize("dims, radius", BLUR_CASES, ids=[f"r{r}" for _, r in BLUR_CASES])
def test_blur_matches_scipy_bit_for_bit(dims, radius):
    # scipy's gaussian_filter1d is the oracle: gaussian_blur does its arithmetic
    from scipy.ndimage import gaussian_filter1d

    r = np.random.default_rng(radius)
    spacing = r.uniform(0.5, 2.0, size=3)
    s_vox = np.append(r.uniform(max(radius - 0.49, 0.01), radius + 0.49) / 3.0, r.uniform(0.0, 2.5, size=2))
    s_vox[2] *= r.integers(0, 2)  # sometimes no blur on the last axis
    sigma_mm = s_vox * spacing
    data = (r.standard_normal(dims) * 50.0).astype(np.float32)
    data[r.random(dims) < 0.1] = -0.0
    want = data
    for axis in range(3):
        s = sigma_mm[axis] / spacing[axis]
        if s > 1e-8:
            want = gaussian_filter1d(want, s, axis=axis, mode="nearest", truncate=3.0)
    assert int(3.0 * sigma_mm[0] / spacing[0] + 0.5) == radius
    got = gaussian_blur(Volume3D(data, spacing), sigma_mm).data
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    # float32 output rounds away most last-bit differences of the float64
    # sums, so each axis is also checked on float64 data, where it cannot
    wide = r.standard_normal(dims) * 50.0
    for axis, s in enumerate(s_vox):
        if int(3.0 * s + 0.5) > 0:
            want = gaussian_filter1d(wide, s, axis=axis, mode="nearest", truncate=3.0)
            got = augment._blur_axis(wide, augment._gaussian_half_kernel(s), axis)
            assert got.tobytes() == want.tobytes(), axis


def test_blur_sigma_is_in_millimetres(rng):
    data = rng.random((16, 16, 16), dtype=np.float32)
    fine = gaussian_blur(Volume3D(data, (1, 1, 1)), 2.0)
    coarse = gaussian_blur(Volume3D(data, (2, 2, 2)), 2.0)
    # same mm sigma is fewer voxels on the coarse grid, so less smoothing
    assert coarse.data.var() > fine.data.var()


def test_rescale_unit_bounds(rng):
    arr = rng.normal(5.0, 3.0, (6, 6, 6)).astype(np.float32)
    out = rescale_unit(arr)
    assert out.min() == 0.0 and out.max() == 1.0
    assert out.dtype == np.float32
    np.testing.assert_array_equal(rescale_unit(np.full((3, 3, 3), 4.2)), 0.0)


# ---------------------------------------------------------------------------
# resolution simulation


@given(st.integers(0, 2**32 - 1))
def test_drawn_resolution_respects_ranges(seed):
    cfg = ResolutionSim()
    target, axis = draw_resolution(cfg, (1.0, 1.0, 1.0), np.random.default_rng(seed))
    assert axis in (0, 1, 2)
    lo, hi = cfg.thickness_range_mm
    assert lo <= target[axis] <= hi
    for i in range(3):
        if i != axis:
            assert cfg.inplane_range_mm[0] <= target[i] <= cfg.inplane_range_mm[1]
        assert target[i] >= 1.0


def test_drawn_resolution_clamps_to_source(rng):
    target, axis = draw_resolution(ResolutionSim(slice_axis=2), (2.0, 2.0, 2.0), rng)
    assert axis == 2
    assert all(t >= 2.0 for t in target)


def test_simulate_resolution_keeps_the_grid(rng):
    vol = Volume3D(rng.random((12, 12, 12), dtype=np.float32), (1.0, 1.0, 1.0))
    out = simulate_resolution(vol, (1.5, 1.5, 4.0))
    assert out.dims == vol.dims
    assert out.spacing == vol.spacing
    np.testing.assert_array_equal(out.affine, vol.affine)
    assert out.data.var() < vol.data.var()


def test_simulate_resolution_at_source_spacing_is_identity(rng):
    vol = Volume3D(rng.random((10, 10, 10), dtype=np.float32), (0.8, 0.8, 0.8))
    out = simulate_resolution(vol, (0.8, 0.8, 0.8))
    np.testing.assert_array_equal(out.data, vol.data)


def test_simulate_resolution_keeps_constants_constant():
    vol = Volume3D(np.full((10, 10, 10), 2.5, np.float32), (1, 1, 1))
    out = simulate_resolution(vol, (1.3, 1.3, 4.1))
    np.testing.assert_allclose(out.data, 2.5, rtol=1e-6)


# ---------------------------------------------------------------------------
# profiles


def test_simple_plan_gates_follow_probability():
    always = CorruptionConfig(op_probability=1.0)
    never = CorruptionConfig(op_probability=0.0)
    on = draw_simple_plan(AffineRanges(), always, np.random.default_rng(0))
    off = draw_simple_plan(AffineRanges(), never, np.random.default_rng(0))
    assert (on.apply_affine, on.apply_gamma, on.apply_noise, on.apply_blur) == (True,) * 4
    assert on.affine is not None and on.gamma is not None and on.blur_sigma_mm is not None
    assert (off.apply_affine, off.apply_gamma, off.apply_noise, off.apply_blur) == (False,) * 4
    assert off.affine is None and off.gamma is None and off.blur_sigma_mm is None
