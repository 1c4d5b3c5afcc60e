"""Microbenchmarks of the kernels that dominate a sample (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does
not collect it.  Run it by path, with one BLAS/OpenMP thread::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest tests/bench/bench_kernels.py \\
        --benchmark-json=kernels.json

The velocity fields are drawn and upsampled the way ``generate_sample``
does it (default ``SvfConfig``), so the displacements, and with them the
gather pattern, are those of a real sample.  The EPG render uses the
refocusing angle and relaxometry ``drsynth epg`` draws for the toy map at
seed 0 and renders a 64^3 toy map voxelwise, as the physics modes do: its
175,616 foreground spins fill many kernel batches.  It runs at echo
indices 15 and 49, the ends of the default TE_eff range, and 31 between
them, since the cost per spin grows with the echo index.  EM fits one
class of about 300k voxels with k=5, the size of a meta-class at 128^3.
The resampling and writing kernels run on the tests' toy subject at
128^3: the warp samples it through a drawn affine and SVF, the resolution
simulation blurs and resamples its intensity to a drawn target spacing,
``gaussian_blur`` blurs it at 1 mm on every axis (the middle of the light
profile's blur range), and ``write_nifti`` gzips the normalized image and
FeTA label map of one rendered sample.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_subject
from drsynth.augment import AffineRanges, ResolutionSim, SvfConfig, draw_affine, draw_resolution
from drsynth.augment import draw_svf_control, gaussian_blur, integrate_velocity, simulate_resolution
from drsynth.augment import svf_from_control
from drsynth.augment import transform_coordinates, upsample_control_grid
from drsynth.epg import RelaxometryMode, RelaxometryRanges, SequenceRanges, draw_sequence
from drsynth.epg import render_epg_volume, sample_relaxometry
from drsynth.generator import GenerationConfig, generate_sample
from drsynth.labels import em_cluster, toy_label_map
from drsynth.nifti import write_nifti
from drsynth.rng import make_stream
from drsynth.volume import Volume3D, sample_at_voxels

GRID = (128, 128, 128)


@pytest.fixture(scope="module")
def subject_128():
    return make_subject(GRID)


@pytest.fixture(scope="module")
def sample_128(subject_128):
    return generate_sample(*subject_128, GenerationConfig(), 0)


@pytest.mark.parametrize("n", [64, 128])
def test_integrate_velocity(benchmark, n):
    cfg = SvfConfig()
    ctrl = draw_svf_control(cfg, np.random.default_rng(n))
    vel = upsample_control_grid(ctrl, (n, n, n))

    def fresh_field():  # the kernel squares in place: a new channel-first copy each round
        field = np.moveaxis(np.ascontiguousarray(np.moveaxis(vel, -1, 0)), 0, -1)
        return (field, cfg.integration_steps), {}

    out = benchmark.pedantic(integrate_velocity, setup=fresh_field, rounds=7, warmup_rounds=1)
    assert out.shape == vel.shape and np.isfinite(out).all()


@pytest.mark.parametrize("echo", [15, 31, 49])
def test_render_epg_volume_voxelwise(benchmark, echo):
    labels = toy_label_map((64, 64, 64))
    drawn = draw_sequence(SequenceRanges(), make_stream(0, 0, "sequence"))
    seq = replace(drawn, te_eff_ms=echo * drawn.esp_ms)
    relax = sample_relaxometry(
        RelaxometryMode.RANDOMIZED, RelaxometryRanges(), range(1, 8), make_stream(0, 0, "relaxometry")
    )
    out = benchmark.pedantic(
        render_epg_volume, args=(labels, relax, seq), kwargs={"voxelwise": True}, rounds=5, warmup_rounds=1
    )
    assert seq.echo_index == echo
    assert out.dims == labels.dims and np.isfinite(out.data).all()


def test_em_cluster_one_class(benchmark):
    rng = np.random.default_rng(5)
    # three overlapping tissue modes plus texture, 300k voxels in one class
    data = rng.choice([30.0, 45.0, 80.0], size=(60, 50, 100)) + rng.normal(0.0, 6.0, (60, 50, 100))
    intensity = Volume3D(data.astype(np.float32), (1.0, 1.0, 1.0))
    mask = np.ones(intensity.dims, dtype=bool)
    fit = benchmark.pedantic(em_cluster, args=(intensity, mask, 5), rounds=7, warmup_rounds=1)
    assert fit.k == 5 and fit.assignments.size == mask.size


@pytest.fixture(scope="module")
def warp_coords_128():
    cfg = SvfConfig()
    ctrl = draw_svf_control(cfg, make_stream(0, 0, "spatial_svf"))
    svf = svf_from_control(ctrl, GRID, (1.0, 1.0, 1.0), cfg.integration_steps)
    affine = draw_affine(AffineRanges(), make_stream(0, 0, "spatial_affine"))
    return transform_coordinates(GRID, (1.0, 1.0, 1.0), affine, svf)


@pytest.mark.parametrize("kind", ["labels", "intensity"])
def test_sample_at_voxels_warp(benchmark, subject_128, warp_coords_128, kind):
    labels, intensity = subject_128
    data = labels.data if kind == "labels" else intensity.data
    out = benchmark.pedantic(sample_at_voxels, args=(data, warp_coords_128), rounds=7, warmup_rounds=1)
    assert out.shape == GRID and out.dtype == data.dtype


def test_simulate_resolution(benchmark, subject_128):
    intensity = subject_128[1]
    target, _ = draw_resolution(ResolutionSim(), intensity.spacing, make_stream(0, 0, "resolution"))
    out = benchmark.pedantic(simulate_resolution, args=(intensity, target), rounds=7, warmup_rounds=1)
    assert out.dims == GRID and np.isfinite(out.data).all()


def test_gaussian_blur(benchmark, subject_128):
    intensity = subject_128[1]
    out = benchmark.pedantic(gaussian_blur, args=(intensity, 1.0), rounds=7, warmup_rounds=1)
    assert out.dims == GRID and np.isfinite(out.data).all()


@pytest.mark.parametrize("kind", ["image", "labels"])
def test_write_nifti_gz(benchmark, sample_128, tmp_path, kind):
    vol = getattr(sample_128, kind)
    path = tmp_path / f"{kind}.nii.gz"
    benchmark.pedantic(write_nifti, args=(vol, path), rounds=7, warmup_rounds=1)
    assert path.stat().st_size > 0
