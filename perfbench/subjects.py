"""Seeded synthetic fetal-head subjects for the benchmark.

Each subject is an (image, labels) pair on its own grid:

* zero intensity and label 0 outside an ellipsoidal head;
* a non-brain shell inside the head with label 0 and non-zero intensity,
  which the grouped generator modes turn into their non-brain class;
* a brain carrying all seven tissue labels: cortical CSF, a folded
  cortical grey-matter ribbon, white matter, two ventricles, deep grey
  matter, cerebellum and brainstem;
* within every tissue, intensity structure for EM to split: a smooth
  field, a two-level patch pattern and voxel noise.

The seed moves shapes and contrasts a few percent and draws the voxel
noise; the amount of anatomy and the texture patterns stay fixed, so the
work a sample costs barely depends on the seed.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from nii import encode

# Mean intensity per tissue label (T2-like ordering: fluid brightest).
TISSUE_MEAN = {1: 200.0, 2: 105.0, 3: 150.0, 4: 190.0, 5: 120.0, 6: 95.0, 7: 85.0}
NONBRAIN_MEAN = 60.0
LAYOUT_SEED = 20241111


@dataclass(frozen=True)
class Subject:
    sid: str
    image_path: str
    labels_path: str


def _smooth_field(rng, u, n_waves=4, freq=(1.5, 4.0)) -> np.ndarray:
    """Sum of random plane cosines over normalized coordinates, in [-1, 1]."""
    out = np.zeros(u[0].shape, dtype=np.float32)
    for _ in range(n_waves):
        k = rng.normal(size=3)
        k *= rng.uniform(*freq) * np.pi / np.linalg.norm(k)
        phase = rng.uniform(0, 2 * np.pi)
        out += np.cos(k[0] * u[0] + k[1] * u[1] + k[2] * u[2] + phase, dtype=np.float32)
    return out / np.float32(n_waves)


def _ellipsoid(b, centre, radii) -> np.ndarray:
    return sum(((b[i] - centre[i]) / radii[i]) ** 2 for i in range(3)) <= 1.0


def make_subject_arrays(rng: np.random.Generator, layout: np.random.Generator, dims, spacing):
    """(image float32, labels int16) for one subject on ``dims`` x ``spacing``.

    ``layout`` draws the cortical folds and the texture patterns, ``rng``
    the jitter of shapes and contrasts and the voxel noise.
    """
    dims = tuple(int(d) for d in dims)
    spacing = np.asarray(spacing, dtype=np.float64)
    half = (np.asarray(dims) - 1) / 2.0 * spacing
    extent = half.max()
    # normalized coordinates: +-1 at the border of the largest axis
    u = [
        ((np.arange(n, dtype=np.float32) * np.float32(s) - np.float32(h)) / np.float32(extent)).reshape(
            [n if a == i else 1 for a in range(3)]
        )
        for i, (n, s, h) in enumerate(zip(dims, spacing, half))
    ]
    u = np.broadcast_arrays(*u)
    fill = half / extent  # head fills ~80% of each axis
    head_r = 0.8 * fill * rng.uniform(0.98, 1.02, 3)
    centre = fill * rng.uniform(-0.02, 0.02, 3)
    b = [(u[i] - centre[i]) / np.float32(head_r[i] * 0.82) for i in range(3)]
    rho_head = np.sqrt(sum(((u[i] - centre[i]) / head_r[i]) ** 2 for i in range(3)))
    rho = np.sqrt(b[0] ** 2 + b[1] ** 2 + b[2] ** 2)

    labels = np.zeros(dims, dtype=np.int16)
    brain = rho <= 1.0
    folds = 0.06 * _smooth_field(layout, u, freq=(6.0, 9.0))
    labels[brain] = 3
    labels[brain & (rho > 0.74 + folds)] = 2
    labels[brain & (rho > 0.9)] = 1
    s = rng.uniform(0.95, 1.05)
    for side in (-1, 1):
        labels[_ellipsoid(b, (side * 0.3, -0.05, 0.0), (0.17 * s, 0.22, 0.17))] = 6
        labels[_ellipsoid(b, (side * 0.17, 0.05, 0.12), (0.11, 0.36 * s, 0.14))] = 4
    labels[_ellipsoid(b, (0.0, -0.55, -0.5), (0.42, 0.24 * s, 0.22)) & (rho <= 0.9)] = 5
    labels[_ellipsoid(b, (0.0, -0.18, -0.55), (0.13, 0.14, 0.38 * s))] = 7

    means = np.zeros(8, dtype=np.float32)
    for lab, m in TISSUE_MEAN.items():
        means[lab] = m * rng.uniform(0.97, 1.03)
    image = means[labels]
    head = rho_head <= 1.0
    shell = head & (labels == 0)
    image[shell] = NONBRAIN_MEAN * rng.uniform(0.97, 1.03)
    texture = 10.0 * _smooth_field(layout, u) + 16.0 * (_smooth_field(layout, u, freq=(3.0, 6.0)) > 0)
    image += texture.astype(np.float32)
    image += rng.normal(0.0, 3.0, dims).astype(np.float32)
    np.maximum(image, 1.0, out=image)  # inside the head nothing is exactly 0
    image[~head] = 0.0
    return image.astype(np.float32), labels


def sform_for(dims, spacing) -> np.ndarray:
    """Diagonal voxel-to-world map with the world origin at the grid centre."""
    spacing = np.asarray(spacing, dtype=np.float64)
    m = np.zeros((3, 4))
    m[:, :3] = np.diag(spacing)
    m[:, 3] = -(np.asarray(dims) - 1) / 2.0 * spacing
    return m


def subject_files(out_dir: str, n: int) -> list[Subject]:
    """The ``n`` subjects ``write_subjects`` makes in ``out_dir``; ids sort in order."""
    return [
        Subject(f"sub{i:03d}", *(os.path.join(out_dir, f"sub{i:03d}_{kind}.nii.gz") for kind in ("image", "labels")))
        for i in range(n)
    ]


def write_subjects(out_dir: str, seed: int, grids) -> list[Subject]:
    """Write one subject per (dims, spacing) in ``grids``."""
    os.makedirs(out_dir, exist_ok=True)
    subjects = subject_files(out_dir, len(grids))
    for i, (subject, (dims, spacing)) in enumerate(zip(subjects, grids)):
        # The seed moves everything but the fold and texture patterns,
        # whose histogram shapes set how long EM takes to converge.
        rng = np.random.default_rng([seed, i])
        image, labels = make_subject_arrays(rng, np.random.default_rng([LAYOUT_SEED, i]), dims, spacing)
        sform = sform_for(dims, spacing)
        for path, arr in ((subject.image_path, image), (subject.labels_path, labels)):
            with open(path, "wb") as fh:
                fh.write(encode(arr, spacing, sform))
    return subjects


if __name__ == "__main__":
    # python3 subjects.py OUT_DIR SEED GRIDS_JSON, GRIDS_JSON = [[dims, spacing], ...]
    write_subjects(sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]))
