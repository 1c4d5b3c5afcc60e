from dataclasses import replace

import numpy as np
import pytest

from drsynth import generator
from drsynth.augment import AffineRanges, AugmentProfile, CorruptionConfig
from drsynth.epg import ReferenceInterval, RelaxometryRanges
from drsynth.errors import EmptySample, InvalidRange, MissingParams, NonFiniteIntensity
from drsynth.generator import (
    GenerationConfig,
    GeneratorMode,
    generate_sample,
    partition_subclasses,
    render_intensities,
    sample_gmm_params,
)
from drsynth.labels import build_meta_classes, split_meta_classes, toy_label_map
from drsynth.volume import LabelMap, LabelScheme, Volume3D

from conftest import make_subject, traced_peak

# small deformations keep toy anatomy inside the field of view
SMALL_AFFINE = AffineRanges(rotation_rad=0.05, scale_delta=0.02, translation_mm=2.0)

REFERENCE = RelaxometryRanges(
    reference={
        1: ReferenceInterval((1500.0, 2000.0), (100.0, 200.0)),
        2: ReferenceInterval((1800.0, 2400.0), (150.0, 250.0)),
        3: ReferenceInterval((2500.0, 3500.0), (1000.0, 2000.0)),
        4: ReferenceInterval((800.0, 1400.0), (50.0, 120.0)),
    }
)


def small_config(**kw):
    base = dict(affine=SMALL_AFFINE, relaxometry=REFERENCE, k_range=(1, 3))
    base.update(kw)
    return GenerationConfig(**base)


def test_gmm_params_pin_background_and_sort_ids(rng):
    params = sample_gmm_params([3, 1, 0, 2], (10.0, 20.0), (1.0, 2.0), rng)
    assert params[0] == (0.0, 0.0)
    assert list(params) == [0, 1, 2, 3]
    for sid in (1, 2, 3):
        mu, sigma = params[sid]
        assert 10.0 <= mu <= 20.0
        assert 1.0 <= sigma <= 2.0


def test_gmm_params_order_independent():
    a = sample_gmm_params([3, 1, 2], (0, 255), (0, 35), np.random.default_rng(5))
    b = sample_gmm_params([1, 2, 3], (0, 255), (0, 35), np.random.default_rng(5))
    assert a == b


def test_gmm_params_reject_inverted_ranges(rng):
    with pytest.raises(InvalidRange):
        sample_gmm_params([1], (255.0, 0.0), (0.0, 35.0), rng)
    with pytest.raises(InvalidRange):
        sample_gmm_params([1], (0.0, 255.0), (35.0, 0.0), rng)


def two_region_map():
    data = np.zeros((12, 12, 12), dtype=np.int32)
    data[2:6] = 1
    data[6:10] = 2
    return LabelMap(data, (1, 1, 1), LabelScheme.SUBCLASS)


def test_render_intensities_exact_at_zero_sigma(rng):
    lm = two_region_map()
    params = {0: (0.0, 0.0), 1: (40.0, 0.0), 2: (90.0, 0.0)}
    vol = render_intensities(lm, params, rng)
    np.testing.assert_array_equal(vol.data[lm.data == 1], 40.0)
    np.testing.assert_array_equal(vol.data[lm.data == 2], 90.0)
    np.testing.assert_array_equal(vol.data[lm.data == 0], 0.0)


def test_render_intensities_clamps_below_zero(rng):
    lm = two_region_map()
    params = {0: (0.0, 0.0), 1: (0.0, 5.0), 2: (200.0, 1.0)}
    vol = render_intensities(lm, params, rng)
    assert vol.data.min() == 0.0
    assert (vol.data[lm.data == 1] == 0.0).mean() == pytest.approx(0.5, abs=0.05)


def test_render_noise_field_ignores_anatomy():
    # the per-voxel normal draw depends only on grid dims and the stream,
    # so relabeling a region cannot shift another region's values
    lm = two_region_map()
    moved = LabelMap(np.where(lm.data == 2, 5, lm.data), (1, 1, 1), LabelScheme.SUBCLASS)
    params = {0: (0.0, 0.0), 1: (40.0, 3.0), 2: (90.0, 3.0), 5: (90.0, 3.0)}
    a = render_intensities(lm, params, np.random.default_rng(11))
    b = render_intensities(moved, params, np.random.default_rng(11))
    np.testing.assert_array_equal(a.data, b.data)


def test_render_intensities_requires_params(rng):
    lm = two_region_map()
    with pytest.raises(MissingParams):
        render_intensities(lm, {0: (0.0, 0.0), 1: (40.0, 1.0)}, rng)


def test_generation_labels_by_mode(subject):
    # per-tissue mode clusters the tissue labels, the grouped modes their meta-classes
    labels, intensity = subject
    meta = build_meta_classes(labels, intensity)
    for mode, gen_labels in ((GeneratorMode.SYNTHSEG, labels), (GeneratorMode.FETALSYNTHSEG, meta)):
        cfg = small_config(mode=mode)
        got = partition_subclasses(labels, intensity, cfg, np.random.default_rng(0))
        want = split_meta_classes(gen_labels, intensity, cfg.k_range, np.random.default_rng(0))
        assert got.subclass_to_class == want.subclass_to_class
        np.testing.assert_array_equal(got.subclass_map.data, want.subclass_map.data)
    assert meta.scheme is LabelScheme.META4
    assert set(got.k_by_class) <= {1, 2, 3, 4}


def test_generate_sample_outputs(subject):
    labels, intensity = subject
    pair = generate_sample(labels, intensity, small_config(), 0)
    assert pair.image.dims == labels.dims
    assert pair.labels.scheme is LabelScheme.FETA7
    assert pair.image.data.min() == 0.0 and pair.image.data.max() == 1.0
    drawn = pair.drawn
    for key in ("affine", "svf_control_sha256", "k_by_class", "gmm", "bias_control",
                "gamma", "noise_sigma", "resolution_target_mm", "slice_axis"):
        assert key in drawn


def test_generate_sample_is_deterministic(subject):
    labels, intensity = subject
    cfg = small_config()
    a = generate_sample(labels, intensity, cfg, 3)
    b = generate_sample(labels, intensity, cfg, 3)
    assert a.image.data.tobytes() == b.image.data.tobytes()
    assert a.labels.data.tobytes() == b.labels.data.tobytes()
    assert a.drawn == b.drawn


def test_generate_sample_varies_with_index_and_seed(subject):
    labels, intensity = subject
    cfg = small_config()
    base = generate_sample(labels, intensity, cfg, 0)
    other_index = generate_sample(labels, intensity, cfg, 1)
    other_seed = generate_sample(labels, intensity, replace(cfg, master_seed=99), 0)
    assert base.image.data.tobytes() != other_index.image.data.tobytes()
    assert base.image.data.tobytes() != other_seed.image.data.tobytes()


def test_generate_sample_validates_inputs(subject):
    labels, intensity = subject
    wrong_scheme = LabelMap(labels.data, labels.spacing, LabelScheme.DRAWEM9, labels.affine)
    with pytest.raises(InvalidRange):
        generate_sample(wrong_scheme, intensity, small_config(), 0)
    small = Volume3D(np.zeros((4, 4, 4), np.float32), labels.spacing)
    with pytest.raises(Exception):
        generate_sample(labels, small, small_config(), 0)
    empty = LabelMap(np.zeros(labels.dims, np.int32), labels.spacing, LabelScheme.FETA7, labels.affine)
    with pytest.raises(EmptySample):
        generate_sample(empty, intensity, small_config(), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_one_non_finite_intensity_voxel_is_rejected(subject, bad):
    labels, intensity = subject
    data = intensity.data.copy()
    inside = tuple(np.argwhere(labels.data == 2)[0])
    data[inside] = bad
    poisoned = intensity.with_data(data)
    with pytest.raises(NonFiniteIntensity, match=r"\b1 non-finite voxel"):
        generate_sample(labels, poisoned, small_config(), 0)
    with pytest.raises(NonFiniteIntensity, match=r"\b1 non-finite voxel"):
        partition_subclasses(labels, poisoned, small_config(), np.random.default_rng(0))


def test_generate_sample_stage_timings(subject):
    labels, intensity = subject
    tm = {}
    generate_sample(labels, intensity, small_config(), 0, timings=tm)
    assert {"deform", "cluster", "render", "corrupt", "resolution", "normalize"} <= set(tm)
    assert all(v >= 0 for v in tm.values())


def test_physics_modes_record_sequence_and_relaxometry(subject):
    labels, intensity = subject
    pair = generate_sample(
        labels, intensity, small_config(mode=GeneratorMode.RANDFABIAN), 0
    )
    drawn = pair.drawn
    assert "gmm" not in drawn
    seq = drawn["sequence"]
    assert set(seq) == {"esp_ms", "etl", "excitation_deg", "refocus_deg", "te_eff_ms"}
    assert type(seq["refocus_deg"]) is float
    assert seq["esp_ms"] == 6.12 and seq["etl"] == 150
    assert 150.0 <= seq["refocus_deg"] <= 180.0
    assert 90.0 <= seq["te_eff_ms"] <= 300.0
    assert len(drawn["relaxometry"]) == sum(int(v) for v in drawn["k_by_class"].values())
    for t1, t2, pd in drawn["relaxometry"].values():
        assert 100.0 <= t1 <= 5000.0
        assert 10.0 <= t2 <= 2000.0
        assert 0.2 <= pd <= 1.2


def test_reference_mode_respects_class_intervals(subject):
    labels, intensity = subject
    pair = generate_sample(
        labels, intensity, small_config(mode=GeneratorMode.FABIAN), 0
    )
    drawn = pair.drawn
    # every subclass triple must come from its parent class interval
    k_by_class = {int(c): k for c, k in drawn["k_by_class"].items()}
    sid = 0
    for cid in sorted(k_by_class):
        for _ in range(k_by_class[cid]):
            sid += 1
            t1, t2, _ = drawn["relaxometry"][str(sid)]
            iv = REFERENCE.reference[cid]
            assert iv.t1_ms[0] <= t1 <= iv.t1_ms[1]
            assert iv.t2_ms[0] <= t2 <= iv.t2_ms[1]


def test_reference_mode_requires_intervals(subject):
    labels, intensity = subject
    cfg = small_config(mode=GeneratorMode.FABIAN, relaxometry=RelaxometryRanges())
    with pytest.raises(MissingParams):
        generate_sample(labels, intensity, cfg, 0)


def test_epg_routes_render_identically(subject):
    labels, intensity = subject
    cfg = small_config(mode=GeneratorMode.RANDFABIAN, epg_voxelwise=True)
    by_voxel = generate_sample(labels, intensity, cfg, 2)
    by_class = generate_sample(labels, intensity, small_config(mode=GeneratorMode.RANDFABIAN, epg_voxelwise=False), 2)
    assert by_voxel.image.data.tobytes() == by_class.image.data.tobytes()


def test_simple_profile_draws_a_plan(subject):
    labels, intensity = subject
    cfg = small_config(profile=AugmentProfile.SIMPLE)
    pair = generate_sample(labels, intensity, cfg, 0)
    drawn = pair.drawn
    assert "simple_plan" in drawn
    assert "affine" not in drawn and "resolution_target_mm" not in drawn
    assert pair.image.data.min() == 0.0 and pair.image.data.max() == 1.0


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_simple_plan_record_keeps_only_drawn_values(subject, p):
    labels, intensity = subject
    cfg = small_config(profile=AugmentProfile.SIMPLE, corruption=CorruptionConfig(op_probability=p))
    plan = generate_sample(labels, intensity, cfg, 0).drawn["simple_plan"]
    gates = {"apply_affine", "apply_gamma", "apply_noise", "apply_blur"}
    assert gates | {"noise_sigma"} <= set(plan)
    assert all(plan[g] is bool(p) for g in gates)
    for key in ("affine", "gamma", "blur_sigma_mm"):
        assert (key in plan) is bool(p)
    if p:
        assert set(plan["affine"]) == {"rotation", "scale", "translation", "shear"}
        assert len(plan["affine"]["shear"]) == 6


def test_nonbrain_k_range_overrides_class_four(subject):
    labels, intensity = subject
    cfg = small_config(k_range=(1, 1), nonbrain_k_range=(3, 3))
    pair = generate_sample(labels, intensity, cfg, 0)
    k_by_class = pair.drawn["k_by_class"]
    if "4" in k_by_class:
        assert k_by_class["4"] == 3
    assert all(v == 1 for c, v in k_by_class.items() if c != "4")


def test_per_tissue_mode_clusters_each_label(subject):
    labels, intensity = subject
    pair = generate_sample(labels, intensity, small_config(mode=GeneratorMode.SYNTHSEG, k_range=(2, 2)), 0)
    k_by_class = pair.drawn["k_by_class"]
    assert set(k_by_class) <= {str(i) for i in range(1, 8)}
    assert all(v == 2 for v in k_by_class.values())


def test_a_partition_past_255_subclass_ids_renders():
    # 7 tissue classes x 40 components: the subclass map needs 16 bits, which
    # the map allocates from the bound on its ids before any class is fitted;
    # at 40^3 the smallest class has 64 voxels, so no k is clamped
    labels, intensity = make_subject((40, 40, 40))
    cfg = small_config(mode=GeneratorMode.SYNTHSEG, k_range=(40, 40))
    part = partition_subclasses(labels, intensity, cfg, np.random.default_rng(0))
    assert part.n_subclasses == 280 and part.ids() == list(range(1, 281))
    assert part.subclass_map.data.dtype == np.uint16
    assert int(part.subclass_map.data.max()) == 280
    params = sample_gmm_params(part.ids(), (10.0, 200.0), (1.0, 5.0), np.random.default_rng(1))
    image = render_intensities(part.subclass_map, params, np.random.default_rng(2))
    assert np.all(np.isfinite(image.data)) and image.data.max() > 0
    pair = generate_sample(labels, intensity, cfg, 0)
    assert pair.drawn["k_by_class"] == {str(c): 40 for c in range(1, 8)}
    assert pair.labels.data.dtype == np.uint8 and np.isfinite(pair.image.data).all()


@pytest.mark.parametrize("index", [1, 2, 3])
def test_a_sample_holds_only_live_volumes(index):
    # Each stage's large intermediates are dropped once no later stage reads
    # them (the SVF, the warp grid, the source intensity, the partition, the
    # blurred volume), and no kernel makes a full-size float64 copy.  At 48^3
    # a float32 volume is 0.42 MiB; these samples peak at 11.95 volumes of
    # traced memory (5.04 MiB): the SVF is squared and turned into the warp
    # grid in one field buffer, and label maps are uint8.  With int32 labels
    # and a second field buffer they peaked at 12.7 volumes, and at 21.5-21.9
    # when every intermediate lived until the sample returned.  The bound
    # leaves about two volumes of margin.
    labels, intensity = make_subject((48, 48, 48))
    cfg = GenerationConfig(mode=GeneratorMode.FETALSYNTHSEG, profile=AugmentProfile.SYNTHSEG_FULL)
    generate_sample(labels, intensity, cfg, 0)  # the first call in a process traces one-time set-up
    peak = traced_peak(generate_sample, labels, intensity, cfg, index)
    assert peak < 14 * intensity.data.nbytes


class _DeformDone(Exception):
    pass


@pytest.mark.parametrize("index", [1, 2])
def test_the_warp_adds_only_the_grid_and_the_warped_volumes(monkeypatch, index):
    # The deform stage of a sample whose inputs are handed over, traced from
    # the call to the end of the stage.  It makes the velocity field, which
    # becomes the warp grid, the warped labels, and the intensity warped into
    # the grid's spent x-channel and copied out; the rest is chunk scratch.
    # The inputs were made before tracing began, so freeing them does not
    # lower the figure.  A padded copy of the source (3.6 MiB at 96^3) or a
    # warped intensity of its own next to the grid breaks the bound: the
    # sampler that padded its source peaked at grid + 10.7 MiB, this one at 4.2.
    labels, intensity = make_subject((96, 96, 96))
    cfg = GenerationConfig(mode=GeneratorMode.FETALSYNTHSEG, profile=AugmentProfile.SYNTHSEG_FULL)
    generate_sample(labels, intensity, cfg, 0)  # the first call in a process traces one-time set-up
    grid, source, warped = 3 * intensity.data.nbytes, intensity.data.nbytes, labels.data.nbytes
    subject = [labels, intensity]
    del labels, intensity

    def stop(*args, **kwargs):
        raise _DeformDone

    def deform():
        with pytest.raises(_DeformDone):
            generate_sample(subject.pop(0), subject.pop(0), cfg, index)

    monkeypatch.setattr(generator, "partition_subclasses", stop)
    peak = traced_peak(deform)
    assert peak < grid + source + warped + (1 << 20)
