"""Domain-randomized synthesis of MR-like volumes from tissue label maps.

One sample is produced by (1) jointly deforming the label map and its
intensity image, (2) partitioning the deformed anatomy into intensity
subclasses (either within the original tissue labels or within grouped
meta-classes that include image-derived non-brain tissue), (3) rendering
every subclass with freshly randomized contrast (Gaussian draws per voxel,
or a spin-echo physics simulation in the physics modes), (4) corrupting
with a bias field, gamma, and noise, (5) simulating an acquisition
resolution, and (6) min-max normalizing to [0, 1].

Everything drawn comes from counter-based streams keyed by
(master_seed, sample_index, stage), so a sample is a pure function of its
inputs, configuration, seed, and index: workers, batching, and generation
order cannot change it.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment
from .augment import (
    AffineRanges,
    AugmentProfile,
    CorruptionConfig,
    ResolutionSim,
    SvfConfig,
    draw_simple_plan,
)
from .epg import (
    RelaxometryMode,
    RelaxometryRanges,
    SequenceRanges,
    draw_sequence,
    render_epg_volume,
    sample_relaxometry,
)
from .errors import EmptySample, InvalidRange, MissingParams, NonFiniteIntensity
from .labels import NONBRAIN_META, SubclassPartition, build_meta_classes, split_meta_classes
from .rng import make_stream
from .volume import LabelMap, LabelScheme, Volume3D, require_same_grid


class GeneratorMode(enum.Enum):
    """Contrast and partition strategy.

    SYNTHSEG       cluster within the original tissue labels, Gaussian draws
    FETALSYNTHSEG  cluster within meta-classes (+ non-brain), Gaussian draws
    FABIAN         meta-classes + spin-echo physics, reference relaxometry
    RANDFABIAN     meta-classes + spin-echo physics, randomized relaxometry
    """

    SYNTHSEG = "synthseg"
    FETALSYNTHSEG = "fetalsynthseg"
    FABIAN = "fabian"
    RANDFABIAN = "randfabian"


PHYSICS_MODES = (GeneratorMode.FABIAN, GeneratorMode.RANDFABIAN)


@dataclass(frozen=True)
class GmmParams:
    """Per-subclass (mean, standard deviation) contrast parameters."""

    by_id: dict[int, tuple[float, float]]

    def ids(self) -> list[int]:
        return sorted(self.by_id)


@dataclass(frozen=True)
class GenerationConfig:
    """Everything one needs to re-render a sample, besides the inputs.

    Intensity bounds (``mu_range``, ``sigma_range``) and subclass-count
    bounds are plain configuration: tests pin their own values rather than
    relying on the defaults here.  ``nonbrain_k_range`` overrides the
    subclass count range for the image-derived non-brain class (None means
    use ``k_range``).
    """

    mode: GeneratorMode = GeneratorMode.FETALSYNTHSEG
    profile: AugmentProfile = AugmentProfile.SYNTHSEG_FULL
    mu_range: tuple[float, float] = (0.0, 255.0)
    sigma_range: tuple[float, float] = (0.0, 35.0)
    k_range: tuple[int, int] = (1, 9)
    nonbrain_k_range: tuple[int, int] | None = None
    master_seed: int = 0
    affine: AffineRanges = field(default_factory=AffineRanges)
    svf: SvfConfig = field(default_factory=SvfConfig)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)
    resolution: ResolutionSim = field(default_factory=ResolutionSim)
    sequence: SequenceRanges = field(default_factory=SequenceRanges)
    relaxometry: RelaxometryRanges = field(default_factory=RelaxometryRanges)
    epg_voxelwise: bool = True

    def with_seed(self, master_seed: int) -> "GenerationConfig":
        return replace(self, master_seed=int(master_seed))


@dataclass(frozen=True)
class SamplePair:
    """A rendered training pair plus the record of how it was drawn."""

    image: Volume3D
    labels: LabelMap
    provenance: dict


def sample_gmm_params(
    subclass_ids,
    mu_range: tuple[float, float],
    sigma_range: tuple[float, float],
    rng: np.random.Generator,
) -> GmmParams:
    """Draw mu ~ U(mu_range), sigma ~ U(sigma_range) per subclass id.

    Ids are visited in ascending order; background id 0 is pinned to
    (0, 0) without consuming draws.
    """
    for name, (lo, hi) in (("mu", mu_range), ("sigma", sigma_range)):
        if hi < lo:
            raise InvalidRange(f"inverted {name} range ({lo}, {hi})")
    by_id: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    for sid in sorted(int(s) for s in subclass_ids):
        if sid == 0:
            continue
        mu = float(rng.uniform(*mu_range))
        sigma = float(rng.uniform(*sigma_range))
        by_id[sid] = (mu, sigma)
    return GmmParams(by_id)


def render_intensities(label_map: LabelMap, params: GmmParams, rng: np.random.Generator) -> Volume3D:
    """Render voxel intensities: value ~ N(mu_s, sigma_s^2), clamped at 0.

    Every voxel draws independently; background (id 0) renders exactly 0.
    One standard-normal field covering the whole grid is drawn regardless
    of the partition, so the stream layout does not depend on anatomy.
    """
    ids = np.unique(label_map.data)
    missing = [int(i) for i in ids if int(i) not in params.by_id]
    if missing:
        raise MissingParams(f"no contrast parameters for subclass ids {missing}")
    top = int(ids.max()) if ids.size else 0
    mu_lut = np.zeros(top + 1, dtype=np.float32)
    sigma_lut = np.zeros(top + 1, dtype=np.float32)
    for sid in ids:
        mu, sigma = params.by_id[int(sid)]
        mu_lut[sid] = mu
        sigma_lut[sid] = sigma
    z = rng.standard_normal(label_map.dims, dtype=np.float32)
    out = mu_lut[label_map.data] + sigma_lut[label_map.data] * z
    np.maximum(out, 0.0, out=out)
    return Volume3D(out, label_map.spacing, label_map.affine)


def build_generation_labels(labels: LabelMap, intensity: Volume3D, mode: GeneratorMode) -> LabelMap:
    """The label map whose classes are clustered and rendered.

    Per-tissue mode keeps the 7-class map; the grouped modes build
    meta-classes (including image-derived non-brain tissue).
    """
    if mode is GeneratorMode.SYNTHSEG:
        return labels
    return build_meta_classes(labels, intensity)


def _require_finite(intensity: Volume3D) -> None:
    """Raise NonFiniteIntensity, with the count, if any voxel is NaN or inf.

    One such voxel inside a class would turn that class's EM fit into NaN
    means and put all of its voxels in one subclass.
    """
    n_bad = intensity.data.size - int(np.count_nonzero(np.isfinite(intensity.data)))
    if n_bad:
        raise NonFiniteIntensity(f"intensity volume has {n_bad} non-finite voxel(s) (NaN or inf)")


def partition_subclasses(labels, intensity, cfg: GenerationConfig, rng) -> SubclassPartition:
    """Split the generation labels of ``cfg.mode`` into EM intensity subclasses.

    ``rng`` draws the component count per class; in the grouped modes the
    non-brain class draws from ``cfg.nonbrain_k_range`` when it is set.
    A non-finite intensity voxel raises NonFiniteIntensity.
    """
    _require_finite(intensity)
    gen_labels = build_generation_labels(labels, intensity, cfg.mode)
    per_class = None
    if cfg.mode is not GeneratorMode.SYNTHSEG and cfg.nonbrain_k_range is not None:
        per_class = {NONBRAIN_META: cfg.nonbrain_k_range}
    return split_meta_classes(gen_labels, intensity, cfg.k_range, rng, k_range_by_class=per_class)


def relaxometry_mode(mode: GeneratorMode) -> RelaxometryMode:
    """Reference intervals for FABIAN, randomized relaxometry otherwise."""
    return RelaxometryMode.REFERENCE if mode is GeneratorMode.FABIAN else RelaxometryMode.RANDOMIZED


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class _StageClock:
    def __init__(self, sink: dict | None):
        self.sink = sink
        self.t0 = time.perf_counter()

    def lap(self, name: str):
        t = time.perf_counter()
        if self.sink is not None:
            self.sink[name] = self.sink.get(name, 0.0) + (t - self.t0)
        self.t0 = t


def generate_sample(
    labels: LabelMap,
    intensity: Volume3D,
    cfg: GenerationConfig,
    sample_index: int,
    *,
    subject_id: str = "",
    timings: dict | None = None,
) -> SamplePair:
    """Render one randomized training pair from a labeled subject.

    Deterministic in (labels, intensity, cfg, sample_index): every stage
    draws from its own stream keyed by (cfg.master_seed, sample_index,
    stage).  The returned labels are the deformed tissue labels; the image
    is min-max normalized to [0, 1].  A label map with no foreground
    raises EmptySample, a NaN or infinite intensity voxel
    NonFiniteIntensity; anatomy deformed fully out of the field of view
    yields an all-zero (still valid) sample.
    """
    if labels.scheme is not LabelScheme.FETA7:
        raise InvalidRange(f"generation expects feta7 labels, got {labels.scheme.value}")
    require_same_grid(labels, intensity, "labels and intensity")
    _require_finite(intensity)
    if not np.any(labels.data):
        raise EmptySample("label map has no foreground voxels")

    seed = cfg.master_seed
    idx = int(sample_index)
    stream = lambda stage: make_stream(seed, idx, stage)  # noqa: E731
    clock = _StageClock(timings)
    drawn: dict = {}

    # 1. joint spatial transform
    simple = cfg.profile is AugmentProfile.SIMPLE
    svf = None
    if simple:
        plan = draw_simple_plan(cfg.affine, cfg.corruption, stream("profile"))
        drawn["simple_plan"] = plan.as_dict()
        affine = plan.affine  # None when the affine gate is off
    else:
        affine = augment.draw_affine(cfg.affine, stream("spatial_affine"))
        ctrl = augment.draw_svf_control(cfg.svf, stream("spatial_svf"))
        svf = augment.svf_from_control(ctrl, labels.dims, labels.spacing, cfg.svf.integration_steps)
        drawn["affine"] = affine.as_dict()
        drawn["svf_control_sha256"] = _sha(ctrl)
    if affine is not None:
        coords = augment.transform_coordinates(labels.dims, labels.spacing, affine, svf)
        labels = augment.apply_transform(labels, affine, svf, coords=coords)
        intensity = augment.apply_transform(intensity, affine, svf, coords=coords)
    clock.lap("deform")

    # 2. partition into subclasses
    partition = partition_subclasses(labels, intensity, cfg, stream("subclass"))
    drawn["k_by_class"] = {str(k): v for k, v in sorted(partition.k_by_class.items())}
    clock.lap("cluster")

    # 3. contrast rendering
    if cfg.mode in PHYSICS_MODES:
        seq = draw_sequence(cfg.sequence, stream("sequence"))
        relax = _subclass_relaxometry(
            partition, relaxometry_mode(cfg.mode), cfg.relaxometry, stream("relaxometry")
        )
        image = render_epg_volume(
            partition.subclass_map, relax, seq, voxelwise=cfg.epg_voxelwise
        )
        drawn["sequence"] = {
            "esp_ms": seq.esp_ms,
            "etl": seq.etl,
            "excitation_deg": seq.excitation_deg,
            "refocus_deg": float(seq.refocus_schedule()[0]),
            "te_eff_ms": seq.te_eff_ms,
        }
        drawn["relaxometry"] = {
            str(i): [r.t1_ms, r.t2_ms, r.pd] for i, r in sorted(relax.items())
        }
    else:
        params = sample_gmm_params(partition.ids(), cfg.mu_range, cfg.sigma_range, stream("gmm"))
        image = render_intensities(partition.subclass_map, params, stream("gmm_noise"))
        drawn["gmm"] = {str(i): list(params.by_id[i]) for i in params.ids()}
    clock.lap("render")

    # 4. intensity corruption
    if simple:
        if plan.apply_gamma:
            image = augment.gamma_contrast(image, plan.gamma)
        if plan.apply_noise:
            image = augment.add_gaussian_noise(image, plan.noise_sigma, stream("noise"))
        if plan.apply_blur:
            image = augment.gaussian_blur(image, plan.blur_sigma_mm)
        clock.lap("corrupt")
    else:
        bias_ctrl = augment.sample_bias_control(cfg.corruption, stream("bias"))
        image = augment.apply_bias_field(image, augment.bias_field_from_control(bias_ctrl, image.dims))
        gamma = float(stream("gamma").uniform(*cfg.corruption.gamma_range))
        image = augment.gamma_contrast(image, gamma)
        noise_sigma = float(stream("noise").uniform(*cfg.corruption.noise_sigma_range))
        image = augment.add_gaussian_noise(image, noise_sigma, stream("noise_field"))
        drawn["bias_control"] = [float(v) for v in bias_ctrl.ravel()]
        drawn["gamma"] = gamma
        drawn["noise_sigma"] = noise_sigma
        clock.lap("corrupt")

        # 5. acquisition-resolution simulation
        target, axis = augment.draw_resolution(cfg.resolution, image.spacing, stream("resolution"))
        image = augment.simulate_resolution(image, target)
        drawn["resolution_target_mm"] = list(target)
        drawn["slice_axis"] = axis
        clock.lap("resolution")

    # 6. final normalization
    image = image.with_data(augment.rescale_unit(image.data))
    clock.lap("normalize")

    provenance = {
        "subject": subject_id,
        "master_seed": seed,
        "sample_index": idx,
        "mode": cfg.mode.value,
        "profile": cfg.profile.value,
        "drawn": drawn,
    }
    return SamplePair(image=image, labels=labels, provenance=provenance)


def _subclass_relaxometry(partition, mode, ranges, rng):
    """Physics-mode draws happen per source class, shared by its subclasses.

    Reference intervals are declared per generation class (meta id); each
    subclass draws its own triple from its parent's interval, in subclass
    id order.
    """
    per_class = RelaxometryRanges(
        t1_range_ms=ranges.t1_range_ms,
        t2_range_ms=ranges.t2_range_ms,
        pd_range=ranges.pd_range,
        reference={
            sid: ranges.reference[cls]
            for sid, (cls, _) in partition.subclass_to_class.items()
            if cls in ranges.reference
        }
        if mode is RelaxometryMode.REFERENCE
        else {},
    )
    return sample_relaxometry(mode, per_class, partition.ids(), rng)


def iter_samples(subjects, cfg: GenerationConfig, count: int):
    """Stream samples round-robin over subjects; index i uses subject i % n.

    ``subjects`` is a sequence of (subject_id, labels, intensity).  The
    offline writer (``cli._render_task``) does not go through here, but it
    calls the same ``generate_sample`` with the same (cfg, index), so a
    streamed sample equals the written one for equal (seed, index) and
    subject order.
    """
    if not subjects:
        raise EmptySample("no subjects to generate from")
    for i in range(int(count)):
        sid, labels, intensity = subjects[i % len(subjects)]
        yield generate_sample(labels, intensity, cfg, i, subject_id=sid)
