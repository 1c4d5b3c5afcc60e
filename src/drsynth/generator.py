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

import hashlib
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import augment
from .augment import AugmentProfile, draw_simple_plan
from .config import GenerationConfig, GeneratorMode
from .epg import draw_sequence, render_epg_volume, sample_relaxometry
from .errors import EmptySample, InvalidRange, MissingParams, NonFiniteIntensity
from .labels import NONBRAIN_META, SubclassPartition, build_meta_classes, split_meta_classes
from .rng import make_stream
from .volume import LabelMap, LabelScheme, Volume3D, require_same_grid


PHYSICS_MODES = (GeneratorMode.FABIAN, GeneratorMode.RANDFABIAN)


@dataclass(frozen=True)
class SamplePair:
    """A rendered training pair plus what was drawn for it."""

    image: Volume3D
    labels: LabelMap
    drawn: dict


def sample_gmm_params(
    subclass_ids,
    mu_range: tuple[float, float],
    sigma_range: tuple[float, float],
    rng: np.random.Generator,
) -> dict[int, tuple[float, float]]:
    """Draw mu ~ U(mu_range), sigma ~ U(sigma_range) per subclass id.

    Returns (mu, sigma) by subclass id, keyed in ascending order.  Ids are
    drawn in that order; background id 0 is pinned to (0, 0) without
    consuming draws.
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
    return by_id


def render_intensities(
    label_map: LabelMap, params: dict[int, tuple[float, float]], rng: np.random.Generator
) -> Volume3D:
    """Render voxel intensities: value ~ N(mu_s, sigma_s^2), clamped at 0.

    ``params`` maps each subclass id to its (mu, sigma).
    Every voxel draws independently; background (id 0) renders exactly 0.
    One standard-normal field covering the whole grid is drawn regardless
    of the partition, so the stream layout does not depend on anatomy.
    """
    ids = np.unique(label_map.data)
    missing = [int(i) for i in ids if int(i) not in params]
    if missing:
        raise MissingParams(f"no contrast parameters for subclass ids {missing}")
    top = int(ids.max()) if ids.size else 0
    mu_lut = np.zeros(top + 1, dtype=np.float32)
    sigma_lut = np.zeros(top + 1, dtype=np.float32)
    for sid in ids:
        mu, sigma = params[int(sid)]
        mu_lut[sid] = mu
        sigma_lut[sid] = sigma
    z = rng.standard_normal(label_map.dims, dtype=np.float32)
    out = mu_lut[label_map.data] + sigma_lut[label_map.data] * z
    np.maximum(out, 0.0, out=out)
    return Volume3D(out, label_map.spacing, label_map.affine)


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

    Per-tissue mode clusters the 7 tissue classes; the grouped modes build
    meta-classes (including image-derived non-brain tissue) and cluster
    those.  ``rng`` draws the component count per class; in the grouped
    modes the non-brain class draws from ``cfg.nonbrain_k_range`` when it
    is set.  A non-finite intensity voxel raises NonFiniteIntensity.
    """
    _require_finite(intensity)
    per_class = None
    if cfg.mode is not GeneratorMode.SYNTHSEG:
        labels = build_meta_classes(labels, intensity)
        if cfg.nonbrain_k_range is not None:
            per_class = {NONBRAIN_META: cfg.nonbrain_k_range}
    return split_meta_classes(labels, intensity, cfg.k_range, rng, k_range_by_class=per_class)


def render_physics(label_map: LabelMap, ids, reference: dict, cfg: GenerationConfig, stream, drawn: dict):
    """The physics modes' spin-echo stage; returns (volume, drawn sequence).

    Draws the sequence from ``stream("sequence")``, then a (T1, T2, pd)
    triple per id of ``ids``, ascending, from ``stream("relaxometry")``:
    within ``reference[id]`` in fabian mode, else the global ranges.  An id
    with no voxel still takes its draws, so ``ids`` is not read off
    ``label_map``.  Both draws are recorded in ``drawn``.
    """
    seq = draw_sequence(cfg.sequence, stream("sequence"))
    relax = sample_relaxometry(
        replace(cfg.relaxometry, reference=reference), ids, stream("relaxometry"),
        reference=cfg.mode is GeneratorMode.FABIAN,
    )
    image = render_epg_volume(label_map, relax, seq, voxelwise=cfg.epg_voxelwise)
    drawn["sequence"] = asdict(seq)
    drawn["relaxometry"] = {str(i): [r.t1_ms, r.t2_ms, r.pd] for i, r in sorted(relax.items())}
    return image, seq


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
    timings: dict | None = None,
) -> SamplePair:
    """Render one randomized training pair from a labeled subject.

    Deterministic in (labels, intensity, cfg, sample_index): every stage
    draws from its own stream keyed by (cfg.master_seed, sample_index,
    stage).  The returned labels are the deformed tissue labels, the image
    is min-max normalized to [0, 1], and ``drawn`` records every draw (the
    sidecar's "drawn" block).  The physics modes render the subclass map
    with ``render_physics``, a subclass drawing from its generation class's
    reference interval.  A label map with no foreground raises EmptySample,
    a NaN or infinite intensity voxel NonFiniteIntensity; anatomy deformed
    fully out of the field of view yields an all-zero (still valid) sample.
    A caller that passes its only references to ``labels`` and
    ``intensity`` (as ``cli._render_task`` does) lets the sample free them
    once they are warped.  The warp makes no volume-sized buffer beyond the
    grid and the warped labels: the labels are warped first, then the
    intensity into the grid's spent x-channel, which is copied out once the
    source is gone.
    """
    if labels.scheme is not LabelScheme.FETA7:
        raise InvalidRange(f"generation expects feta7 labels, got {labels.scheme.value}")
    require_same_grid(labels, intensity, "labels and intensity")
    _require_finite(intensity)
    if not np.any(labels.data):
        raise EmptySample("label map has no foreground voxels")

    stream = lambda stage: make_stream(cfg.master_seed, int(sample_index), stage)  # noqa: E731
    clock = _StageClock(timings)
    drawn: dict = {}

    # 1. joint spatial transform
    simple = cfg.profile is AugmentProfile.SIMPLE
    svf = None
    if simple:
        plan = draw_simple_plan(cfg.affine, cfg.corruption, stream("profile"))
        drawn["simple_plan"] = {k: v for k, v in asdict(plan).items() if v is not None}
        affine = plan.affine  # None when the affine gate is off
    else:
        affine = augment.draw_affine(cfg.affine, stream("spatial_affine"))
        ctrl = augment.draw_svf_control(cfg.svf, stream("spatial_svf"))
        svf = augment.svf_from_control(ctrl, labels.dims, labels.spacing, cfg.svf.integration_steps)
        drawn["affine"] = asdict(affine)
        drawn["svf_control_sha256"] = hashlib.sha256(ctrl.tobytes()).hexdigest()[:16]
    # Each large intermediate is dropped once no later stage reads it, so a
    # sample's peak memory is that of its largest stage, not of all of them.
    if affine is not None:
        # the grid is built in the SVF's own storage, which nothing reads after
        grid = None if svf is None else np.moveaxis(svf, -1, 0)
        coords = augment.transform_coordinates(labels.dims, labels.spacing, affine, svf, out=grid)
        del svf, grid
        labels = labels.with_data(augment.sample_at_voxels(labels.data, coords))
        # The labels are warped, so the grid's x-channel is read only by the
        # intensity warp, which writes each chunk behind its own reads.  The
        # source goes once it is warped, and the copy out lets the grid go.
        intensity = intensity.with_data(augment.sample_at_voxels(intensity.data, coords, out=coords[0]))
        intensity = intensity.with_data(intensity.data.copy())
        del coords
    clock.lap("deform")

    # 2. partition into subclasses
    partition = partition_subclasses(labels, intensity, cfg, stream("subclass"))
    del intensity
    drawn["k_by_class"] = {str(k): v for k, v in sorted(partition.k_by_class.items())}
    clock.lap("cluster")

    # 3. contrast rendering
    if cfg.mode in PHYSICS_MODES:
        by_class = cfg.relaxometry.reference
        reference = {s: by_class[c] for s, (c, _) in partition.subclass_to_class.items() if c in by_class}
        image, _ = render_physics(partition.subclass_map, partition.ids(), reference, cfg, stream, drawn)
    else:
        params = sample_gmm_params(partition.ids(), cfg.mu_range, cfg.sigma_range, stream("gmm"))
        image = render_intensities(partition.subclass_map, params, stream("gmm_noise"))
        drawn["gmm"] = {str(i): list(params[i]) for i in sorted(params)}
    del partition
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

    return SamplePair(image=image, labels=labels, drawn=drawn)
