"""Acceptance gate: one test per shipped guarantee.

Each test pins a user-visible contract of the package at its stated
tolerance; the terminal summary prints one PASS/FAIL line per criterion.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from drsynth.augment import SvfConfig, draw_svf_deformation, jacobian_determinant
from drsynth.checkpoints import Checkpoint, interpolate, read_checkpoint, write_checkpoint
from drsynth.cli import main, render_from_sidecar
from drsynth.epg import EpgSequenceParams, TissueRelaxometry, epg_fse_echoes
from drsynth.errors import IncompatibleCheckpoints
from drsynth.generator import render_intensities, sample_gmm_params
from drsynth.labels import em_cluster, remap_drawem_to_feta, toy_label_map
from drsynth.metrics import dice, hd95, wilcoxon_rank_sum
from drsynth.nifti import read_nifti, write_nifti
from drsynth.volume import LabelMap, LabelScheme, Volume3D

from conftest import write_subject
from oracles import (
    average_f32_ref,
    cpmg_closed_form,
    dice_ref,
    hausdorff_percentile_ref,
    rank_sum_exact_ref,
)

DIMS16 = (16, 16, 16)


def _ellipsoid_labels(r):
    """Two overlapping random ellipsoids on a 16^3 grid, labels {0,1,2}."""
    grid = np.stack(np.meshgrid(*[np.arange(16.0)] * 3, indexing="ij"))
    out = np.zeros(DIMS16, dtype=np.int32)
    for value in (1, 2):
        center = r.uniform(3.0, 13.0, 3)
        radii = r.uniform(1.5, 6.0, 3)
        d2 = sum(((grid[i] - center[i]) / radii[i]) ** 2 for i in range(3))
        out[d2 <= 1.0] = value
    return out


def _speckle_labels(r, density):
    vals = r.integers(1, 3, DIMS16).astype(np.int32)
    return np.where(r.random(DIMS16) < density, vals, 0).astype(np.int32)


def test_c01_metrics_match_brute_force_oracle():
    spacings = [(1.0, 1.0, 1.0), (0.5, 1.0, 2.0), (0.8, 0.8, 2.5)]
    t0 = time.perf_counter()
    for i in range(200):
        r = np.random.default_rng(9100 + i)
        if i % 5 == 4:
            gt = _speckle_labels(r, 0.06)
            pred = _speckle_labels(r, 0.06)
        else:
            gt = _ellipsoid_labels(r)
            pred = _ellipsoid_labels(r)
        if i % 31 == 7:
            pred[:] = 0  # exercise the empty-mask conventions
        spacing = spacings[i % len(spacings)]
        for value in (1, 2):
            a, b = pred == value, gt == value
            assert dice(a, b) == dice_ref(a, b)
            got = hd95(a, b, spacing)
            want = hausdorff_percentile_ref(a, b, spacing, 95.0)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)
    assert time.perf_counter() - t0 < 60.0


def test_c02_rank_sum_small_samples_match_enumeration():
    r = np.random.default_rng(92)
    for n in range(1, 12):
        for m in range(1, 13 - n):
            for _ in range(3):
                x = np.round(r.normal(size=n), 1)  # rounding provokes ties
                y = np.round(r.normal(size=m), 1)
                _, p_ref = rank_sum_exact_ref(x, y)
                res = wilcoxon_rank_sum(x, y)
                assert abs(res.p_value - p_ref) <= 0.02
                # strictly monotone transforms leave the p-value unchanged
                assert wilcoxon_rank_sum(3 * x + 7, 3 * y + 7).p_value == res.p_value
                assert wilcoxon_rank_sum(np.exp(x), np.exp(y)).p_value == res.p_value


def test_c03_epg_cpmg_limit_matches_exponential_decay():
    def check(esp, t2, ks):
        seq = EpgSequenceParams(esp_ms=esp, etl=150, refocus_deg=180.0, te_eff_ms=esp)
        echoes = epg_fse_echoes(TissueRelaxometry(t1_ms=math.inf, t2_ms=t2), seq)
        for k in ks:
            assert echoes[k - 1] == pytest.approx(cpmg_closed_form(esp, t2, k), rel=1e-9)

    r = np.random.default_rng(93)
    for _ in range(100):
        check(float(r.uniform(1.0, 20.0)), float(r.uniform(20.0, 2000.0)), [int(r.integers(1, 151))])
    check(6.12, 80.0, range(1, 151))


def test_c04_em_recovers_moments_and_mixtures():
    full = np.ones(DIMS16, dtype=bool)
    for seed in range(30):
        r = np.random.default_rng(9400 + seed)
        vol = Volume3D(r.normal(50, 12, DIMS16).astype(np.float32), (1, 1, 1))
        fit = em_cluster(vol, full, 1)
        x = vol.data.astype(np.float64).ravel()
        assert fit.means[0] == pytest.approx(x.mean(), abs=1e-9)
        assert fit.variances[0] == pytest.approx(x.var(), abs=1e-9)

    for seed in range(10):
        r = np.random.default_rng(9500 + seed)
        low = np.arange(4096).reshape(DIMS16) < 1640
        data = np.where(low, r.normal(30, 3, DIMS16), r.normal(80, 3, DIMS16))
        fit = em_cluster(Volume3D(data.astype(np.float32), (1, 1, 1)), full, 2)
        order = np.argsort(fit.means)
        np.testing.assert_allclose(fit.means[order], [30.0, 80.0], atol=0.5)
        predicted_low = fit.assignments == order[0]
        assert np.array_equal(predicted_low, low.ravel())

    for seed in range(50):
        r = np.random.default_rng(9600 + seed)
        k = 1 + seed % 3
        data = r.normal(r.uniform(0, 100, k)[r.integers(0, k, 2000)], 5.0)
        vol = Volume3D(data.astype(np.float32).reshape(10, 10, 20), (1, 1, 1))
        fit = em_cluster(vol, np.ones(vol.dims, dtype=bool), k)
        ll = np.asarray(fit.ll_history)
        assert np.all(np.diff(ll) >= -1e-9 * np.maximum(1.0, np.abs(ll[:-1])))


def test_c05_rendered_statistics_match_drawn_parameters():
    slabs = np.repeat(np.arange(1, 5, dtype=np.int32), 10)[:, None, None]
    labels = LabelMap(np.ascontiguousarray(np.broadcast_to(slabs, (40, 40, 40))), (1, 1, 1), LabelScheme.SUBCLASS)
    n = 10 * 40 * 40
    assert n >= 10**4
    for seed in range(20):
        params = sample_gmm_params([1, 2, 3, 4], (80.0, 255.0), (1.0, 8.0), np.random.default_rng(9700 + seed))
        image = render_intensities(labels, params, np.random.default_rng(9800 + seed))
        for sid in (1, 2, 3, 4):
            mu, sigma = params[sid]
            vals = image.data[labels.data == sid].astype(np.float64)
            assert abs(vals.mean() - mu) <= 4.0 * sigma / math.sqrt(n)
            assert abs(vals.std() - sigma) <= 0.05 * sigma


def test_c06_generation_deterministic_across_workers_and_replay(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=DIMS16)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[synthgen]\nmaster_seed = 11\n")
    outputs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        assert main([
            "generate", "--config", str(cfg), "--in", str(in_dir), "--out", str(out_dir),
            "--count", "10", "--workers", str(workers),
        ]) == 0
        outputs[workers] = {n: (out_dir / n).read_bytes() for n in sorted(os.listdir(out_dir))}
    assert sorted(outputs[1]) == sorted(outputs[8])
    assert outputs[1] == outputs[8]

    base = tmp_path / "w1" / "toy_s00007_seed11"
    pair = render_from_sidecar(f"{base}.json")
    write_nifti(pair.image, str(tmp_path / "replay_image.nii.gz"))
    write_nifti(pair.labels, str(tmp_path / "replay_labels.nii.gz"))
    assert (tmp_path / "replay_image.nii.gz").read_bytes() == (base.parent / f"{base.name}_image.nii.gz").read_bytes()
    assert (tmp_path / "replay_labels.nii.gz").read_bytes() == (base.parent / f"{base.name}_labels.nii.gz").read_bytes()


def test_c07_svf_deformations_preserve_orientation():
    dims, spacing = (64, 64, 64), (1.0, 1.0, 1.0)
    worst = math.inf
    for seed in range(100):
        field = draw_svf_deformation(dims, spacing, SvfConfig(), np.random.default_rng(9900 + seed))
        worst = min(worst, float(jacobian_determinant(field, spacing).min()))
    assert worst > 0.0


def test_c08_interpolation_endpoints_and_midpoint():
    r = np.random.default_rng(98)
    a = Checkpoint({"w": r.normal(size=(7, 5)).astype(np.float32), "b": r.normal(size=(3,)).astype(np.float32)}, {})
    b = Checkpoint({"w": r.normal(size=(7, 5)).astype(np.float32), "b": r.normal(size=(3,)).astype(np.float32)}, {})
    for alpha, src in ((0.0, a), (1.0, b)):
        out = interpolate(a, b, alpha)
        for name in src.tensors:
            assert out.tensors[name].tobytes() == src.tensors[name].tobytes()
            assert out.tensors[name] is not src.tensors[name]
    mid = interpolate(a, b, 0.5)
    for name in a.tensors:
        assert mid.tensors[name].tobytes() == average_f32_ref(a.tensors[name], b.tensors[name]).tobytes()
    bad = Checkpoint({"w": np.zeros((7, 4), np.float32), "b": np.zeros(3, np.float32)}, {})
    with pytest.raises(IncompatibleCheckpoints):
        interpolate(a, bad, 0.5)


def test_c09_gmm_pipeline_at_least_10x_faster_than_epg(tmp_path):
    labels = toy_label_map((128, 128, 128))
    noise = np.random.default_rng(99).random(labels.dims, dtype=np.float32)
    write_nifti(labels, str(tmp_path / "big_labels.nii.gz"))
    write_nifti(Volume3D(labels.data * 11.0 + noise, (1, 1, 1)), str(tmp_path / "big_image.nii.gz"))
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[synthgen]\nmaster_seed = 1\n\n[epg]\nte_eff_ms = 300, 300\n")
    report_path = tmp_path / "report.json"

    exe = shutil.which("drsynth")
    if exe:
        argv = [exe]
    else:
        argv = [sys.executable, "-c", "import sys; from drsynth.cli import main; sys.exit(main(sys.argv[1:]))"]
    argv += [
        "bench", "--config", str(cfg), "--in", str(tmp_path),
        "--samples", "5", "--epg-samples", "1", "--out", str(report_path),
    ]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=590)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["gmm"]["wall_median_s"] < 5.0
    assert report["epg_over_gmm_wall_ratio"] >= 10.0
    assert elapsed < 600.0


def test_c10_drawem_remap_exhaustive():
    src = LabelMap(np.arange(10, dtype=np.int32).reshape(10, 1, 1), (1, 1, 1), LabelScheme.DRAWEM9)
    out = remap_drawem_to_feta(src)
    np.testing.assert_array_equal(out.data.ravel(), [0, 1, 2, 3, 0, 4, 5, 6, 7, 3])
    assert out.scheme is LabelScheme.FETA7


def test_c11_formats_round_trip_bit_exactly(tmp_path):
    payload = np.zeros((3, 4, 5), dtype=np.float32)
    payload.ravel()[:8] = [np.nan, np.inf, -np.inf, -0.0, 1e-40, -1e-40, 3.5, -2.25]
    vol = Volume3D(payload, (0.75, 1.0, 1.25))
    for name in ("v.nii", "v.nii.gz"):
        write_nifti(vol, str(tmp_path / name))
        back = read_nifti(str(tmp_path / name))
        assert back.data.tobytes() == vol.data.tobytes()
        assert back.spacing == vol.spacing

    tensors = {
        "w": payload.copy().reshape(3, 4, 5),
        "scalar": np.array(-0.0, dtype=np.float32),
    }
    write_checkpoint(Checkpoint(tensors, {"note": "uñicode ✓"}), str(tmp_path / "c.ckpt"))
    back = read_checkpoint(str(tmp_path / "c.ckpt"))
    assert set(back.tensors) == set(tensors)
    for name, arr in tensors.items():
        assert back.tensors[name].tobytes() == arr.tobytes()
        assert back.tensors[name].shape == arr.shape
    assert back.metadata == {"note": "uñicode ✓"}
