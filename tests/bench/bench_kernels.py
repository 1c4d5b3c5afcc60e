"""Microbenchmarks of the kernels that dominate a sample (pytest-benchmark).

The file name does not match ``test_*.py``, so the default test run does
not collect it.  Run it by path, with one BLAS/OpenMP thread::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python -m pytest tests/bench/bench_kernels.py \\
        --benchmark-json=kernels.json

The velocity fields are drawn and upsampled the way ``generate_sample``
does it (default ``SvfConfig``), so the displacements, and with them the
gather pattern, are those of a real sample.
"""

import numpy as np
import pytest

from drsynth.augment import SvfConfig, draw_svf_control, integrate_velocity, upsample_control_grid


@pytest.mark.parametrize("n", [64, 128])
def test_integrate_velocity(benchmark, n):
    cfg = SvfConfig()
    ctrl = draw_svf_control(cfg, np.random.default_rng(n))
    vel = upsample_control_grid(ctrl, (n, n, n))
    out = benchmark.pedantic(
        integrate_velocity, args=(vel, cfg.integration_steps), rounds=7, warmup_rounds=1
    )
    assert out.shape == vel.shape and np.isfinite(out).all()
