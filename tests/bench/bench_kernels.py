"""Microbenchmarks of the kernels that dominate a sample (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does
not collect it.  Run it by path, with one BLAS/OpenMP thread::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest tests/bench/bench_kernels.py \\
        --benchmark-json=kernels.json

The velocity fields are drawn and upsampled the way ``generate_sample``
does it (default ``SvfConfig``), so the displacements, and with them the
gather pattern, are those of a real sample.  The EPG render uses the
sequence and relaxometry ``drsynth epg`` draws for the toy map at seed 0,
voxelwise, as the physics modes render; EM fits one class of about 300k
voxels with k=5, the size of a meta-class at 128^3.
"""

import numpy as np
import pytest

from drsynth.augment import SvfConfig, draw_svf_control, integrate_velocity, upsample_control_grid
from drsynth.epg import RelaxometryMode, RelaxometryRanges, SequenceRanges, draw_sequence
from drsynth.epg import render_epg_volume, sample_relaxometry
from drsynth.labels import em_cluster, toy_label_map
from drsynth.rng import make_stream
from drsynth.volume import Volume3D


@pytest.mark.parametrize("n", [64, 128])
def test_integrate_velocity(benchmark, n):
    cfg = SvfConfig()
    ctrl = draw_svf_control(cfg, np.random.default_rng(n))
    vel = upsample_control_grid(ctrl, (n, n, n))
    out = benchmark.pedantic(
        integrate_velocity, args=(vel, cfg.integration_steps), rounds=7, warmup_rounds=1
    )
    assert out.shape == vel.shape and np.isfinite(out).all()


def test_render_epg_volume_voxelwise(benchmark):
    labels = toy_label_map((32, 32, 32))
    seq = draw_sequence(SequenceRanges(), make_stream(0, 0, "sequence"))
    relax = sample_relaxometry(
        RelaxometryMode.RANDOMIZED, RelaxometryRanges(), range(1, 8), make_stream(0, 0, "relaxometry")
    )
    out = benchmark.pedantic(
        render_epg_volume, args=(labels, relax, seq), kwargs={"voxelwise": True}, rounds=7, warmup_rounds=1
    )
    assert out.dims == labels.dims and np.isfinite(out.data).all()


def test_em_cluster_one_class(benchmark):
    rng = np.random.default_rng(5)
    # three overlapping tissue modes plus texture, 300k voxels in one class
    data = rng.choice([30.0, 45.0, 80.0], size=(60, 50, 100)) + rng.normal(0.0, 6.0, (60, 50, 100))
    intensity = Volume3D(data.astype(np.float32), (1.0, 1.0, 1.0))
    mask = np.ones(intensity.dims, dtype=bool)
    fit = benchmark.pedantic(em_cluster, args=(intensity, mask, 5), rounds=7, warmup_rounds=1)
    assert fit.k == 5 and fit.assignments.size == mask.size
