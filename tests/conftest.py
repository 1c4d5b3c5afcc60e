"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from drsynth.labels import toy_label_map
from drsynth.nifti import write_nifti
from drsynth.volume import LabelMap, LabelScheme, Volume3D

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def make_subject(dims=(24, 24, 24), seed=5, spacing=(1.0, 1.0, 1.0)):
    """A toy (labels, intensity) pair with distinct per-tissue intensities."""
    labels = toy_label_map(dims, spacing)
    r = np.random.default_rng(seed)
    data = labels.data.astype(np.float32) * 11.0 + r.random(labels.dims, dtype=np.float32)
    intensity = Volume3D(data, spacing)
    return labels, intensity


def write_subject(dirpath, sid="sub", dims=(24, 24, 24), seed=5):
    """Write a paired <sid>_image/_labels subject; returns the two paths."""
    labels, intensity = make_subject(dims, seed)
    lab_path = str(dirpath / f"{sid}_labels.nii.gz")
    img_path = str(dirpath / f"{sid}_image.nii.gz")
    write_nifti(labels, lab_path)
    write_nifti(intensity, img_path)
    return img_path, lab_path


@pytest.fixture
def subject():
    return make_subject()


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes ``fn(*args, **kwargs)`` holds at once beyond what was traced before.

    numpy reports every array buffer to tracemalloc, so the figure is
    deterministic for a given numpy, unlike the process's resident set.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def random_label_volume(r, dims=(16, 16, 16), n_labels=2, spacing=(1.0, 1.0, 1.0)):
    data = r.integers(0, n_labels + 1, size=dims, dtype=np.int32)
    return LabelMap(data, spacing, LabelScheme.FETA7)


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion test


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            if getattr(rep, "when", "call") not in ("call", "setup"):
                continue
            name = nodeid.split("::")[-1]
            status = "PASS" if outcome == "passed" else "FAIL"
            # a failed setup/call overrides an earlier pass record
            if rows.get(name) != "FAIL":
                rows[name] = status
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(rows):
        terminalreporter.write_line(f"{rows[name]}  {name}")
