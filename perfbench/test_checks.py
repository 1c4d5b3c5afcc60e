"""Negative controls: every output check fails on a deliberately damaged sample.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench

One small sample is generated with the real CLI; each test damages a copy
of it in one way and asserts that the matching check reports it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import nii
import run
from subjects import write_subjects

ROOT = os.path.dirname(run.HERE)
SEED = 3  # master seed of the generated sample


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    made = write_subjects(str(base / "in"), 1, [((64, 64, 64), (1.0, 1.0, 1.0))])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "drsynth.cli", "generate", "--in", str(base / "in"), "--out", str(base / "out"),
         "--count", "1", "--seed", str(SEED)],
        env=env, check=True, capture_output=True,
    )
    src = checks.Source.load(made[0].sid, made[0].image_path, made[0].labels_path)
    return base, src


@pytest.fixture
def sample(generated, tmp_path):
    """A fresh copy of the generated sample's three files."""
    base, src = generated
    shutil.copytree(base / "out", tmp_path / "out")
    return checks.sample_paths(str(tmp_path / "out"), src.sid, 0, SEED), src


def _check(paths, src):
    return checks.check_sample(paths, src, index=0, seed=SEED, mode="fetalsynthseg", profile="synthseg")


def _rewrite(path, data):
    vol = nii.read(path)
    with open(path, "wb") as fh:
        fh.write(nii.encode(data.astype(vol.data.dtype), vol.spacing, vol.sform))


def _edit_sidecar(path, edit):
    with open(path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    edit(sidecar)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)


def _fails(bad, needle):
    assert any(needle in msg for msg in bad), bad


def test_untouched_sample_passes_every_check(sample, tmp_path):
    paths, src = sample
    assert _check(paths, src) == []
    assert checks.check_replay(paths, str(tmp_path / "replay")) == []


def test_relabelled_voxel_outside_the_source_labels(sample):
    paths, src = sample
    lab = nii.read(paths[1]).data.copy()
    lab[tuple(np.argwhere(lab != 0)[0])] = 9
    _rewrite(paths[1], lab)
    _fails(_check(paths, src), "subset")


def test_relabelled_voxel_inside_the_vocabulary_fails_replay(sample, tmp_path):
    paths, src = sample
    lab = nii.read(paths[1]).data.copy()
    lab[tuple(np.argwhere(lab == 3)[0])] = 2
    _rewrite(paths[1], lab)
    _fails(checks.check_replay(paths, str(tmp_path / "replay")), "labels.nii.gz differs")


def test_rescaled_image(sample):
    paths, src = sample
    _rewrite(paths[0], nii.read(paths[0]).data * np.float32(0.5))
    _fails(_check(paths, src), "is not exactly [0, 1]")


def test_non_finite_image(sample):
    paths, src = sample
    img = nii.read(paths[0]).data.copy()
    img[0, 0, 0] = np.nan
    _rewrite(paths[0], img)
    _fails(_check(paths, src), "not finite")


def test_sample_warped_with_the_wrong_affine(sample):
    paths, src = sample
    with open(paths[2], encoding="utf-8") as fh:
        aff = json.load(fh)["drawn"]["affine"]
    wrong = checks.affine_matrix(aff["rotation"], aff["scale"], np.add(aff["translation"], 8.0), aff["shear"])
    _rewrite(paths[1], checks.warp_labels(src.labels.data, src.labels.spacing, wrong))
    _fails(_check(paths, src), "Dice")


def test_altered_input_hash(sample):
    paths, src = sample
    _edit_sidecar(paths[2], lambda s: s["inputs"].update(image_sha256="0" * 64))
    _fails(_check(paths, src), "sha256")


def test_drawn_value_outside_its_range(sample):
    paths, src = sample
    _edit_sidecar(paths[2], lambda s: s["drawn"].update(gamma=2.0))
    _fails(_check(paths, src), "drawn gamma")


def test_truncated_gzip(sample):
    paths, src = sample
    with open(paths[0], "rb") as fh:
        blob = fh.read()
    with open(paths[0], "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    _fails(_check(paths, src), "unreadable")


def test_missing_sidecar(sample):
    paths, src = sample
    os.unlink(paths[2])
    _fails(_check(paths, src), "unreadable")


def test_grid_differs_from_the_source(sample):
    paths, src = sample
    vol = nii.read(paths[1])
    with open(paths[1], "wb") as fh:
        fh.write(nii.encode(vol.data, (1.0, 1.0, 2.0), vol.sform))
    _fails(_check(paths, src), "grid differs")


def test_command_that_exits_non_zero_fails_its_round(tmp_path):
    # the second subject's label map has no foreground, so generate stops
    # with an error after writing the first subject's sample
    grid = ((48, 48, 48), (1.0, 1.0, 1.0))
    made = write_subjects(str(tmp_path / "in"), 1, [grid, grid])
    empty = nii.read(made[1].labels_path)
    with open(made[1].labels_path, "wb") as fh:
        fh.write(nii.encode(np.zeros_like(empty.data), empty.spacing, empty.sform))
    wl = run.Workload("crash", "synthseg", "simple", (grid, grid), count=2, workers=1, master_seed=SEED)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    r = run.run_round(wl, str(tmp_path / "in"), str(tmp_path / "out"), env, None)
    assert r.returncode != 0
    assert os.path.exists(checks.sample_paths(r.out_dir, made[0].sid, 0, SEED)[2])
    sources = [checks.Source.load(s.sid, s.image_path, s.labels_path) for s in made]
    failed, bad_checks = run.check_rounds(wl, [r], sources, str(tmp_path), seed=0)
    # every sample of the round failed; the written one passed its checks
    assert (failed, bad_checks) == (2, 1)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
    assert {m["name"] for m in bench["end_to_end"]} == set(run.end_to_end(
        run.WORKLOADS["physics-96"], [run.Round("", False, wall_s=1.0)], 1.0))
