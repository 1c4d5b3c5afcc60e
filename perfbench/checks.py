"""Output checks for ``drsynth generate`` that do not reuse the program's code.

Every check reads the written files with the benchmark's own NIfTI parser
and compares them with what the benchmark knows about the inputs it made.
``check_sample`` returns the list of failed checks for one sample; an empty
list means the sample passed.  ``check_replay`` is the one check that calls
into the program: it re-renders a sample from its sidecar and compares the
bytes of the files it would write.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

import nii

SIDECAR_FORMAT = "drsynth-sample/1"

# The package defaults the benchmark runs with (see ``config_text`` of a
# default GenerationConfig); every drawn value must lie inside them.
RANGES = {
    "mu": (0.0, 255.0),
    "sigma": (0.0, 35.0),
    "k": (1, 9),
    "rotation": (-0.2, 0.2),
    "scale": (0.9, 1.1),
    "translation": (-30.0, 30.0),
    "shear": (-0.1, 0.1),
    "gamma": (0.5, 1.5),
    "noise_sigma": (0.0, 0.1),
    "simple_noise_sigma": (0.1, 0.1),
    "blur_sigma_mm": (0.5, 1.5),
    "inplane_mm": (0.5, 1.5),
    "thickness_mm": (3.0, 4.5),
    "refocus_deg": (150.0, 180.0),
    "te_eff_ms": (90.0, 300.0),
    "t1_ms": (100.0, 5000.0),
    "t2_ms": (10.0, 2000.0),
    "pd": (0.2, 1.2),
}
# Foreground Dice against the source warped by the affine alone.  The
# velocity-field warp moves boundaries by up to ~3 voxels on top of the
# affine (sizing runs: 0.98-0.99); the simple profile has no such warp.
DICE_MIN = {"synthseg": 0.95, "simple": 0.999}


@dataclass(frozen=True)
class Source:
    """What the benchmark knows about one input subject."""

    sid: str
    image_path: str
    labels_path: str
    labels: nii.Nifti
    label_set: frozenset
    image_sha256: str
    labels_sha256: str

    @classmethod
    def load(cls, sid: str, image_path: str, labels_path: str) -> "Source":
        digests = []
        for path in (image_path, labels_path):
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        labels = nii.read(labels_path)
        return cls(sid, image_path, labels_path, labels,
                   frozenset(int(v) for v in np.unique(labels.data)), *digests)


def sample_paths(out_dir: str, sid: str, index: int, seed: int) -> tuple[str, str, str]:
    base = os.path.join(out_dir, f"{sid}_s{index:05d}_seed{seed}")
    return f"{base}_image.nii.gz", f"{base}_labels.nii.gz", f"{base}.json"


def affine_matrix(rotation, scale, translation, shear) -> np.ndarray:
    """T . R . Sh . Sc as documented by the program, R = Rz Ry Rx."""
    rx, ry, rz = rotation
    rot_x = np.array([[1, 0, 0], [0, np.cos(rx), -np.sin(rx)], [0, np.sin(rx), np.cos(rx)]])
    rot_y = np.array([[np.cos(ry), 0, np.sin(ry)], [0, 1, 0], [-np.sin(ry), 0, np.cos(ry)]])
    rot_z = np.array([[np.cos(rz), -np.sin(rz), 0], [np.sin(rz), np.cos(rz), 0], [0, 0, 1]])
    sxy, sxz, syx, syz, szx, szy = shear
    sh = np.array([[1, sxy, sxz], [syx, 1, syz], [szx, szy, 1]])
    m = np.eye(4)
    m[:3, :3] = rot_z @ rot_y @ rot_x @ sh @ np.diag(scale)
    m[:3, 3] = translation
    return m


def warp_labels(labels: np.ndarray, spacing, m: np.ndarray) -> np.ndarray:
    """Nearest-neighbour backward warp about the grid centre, 0 outside.

    Output voxel v samples the source at (M (v s - c) + c) / s, where s is
    the spacing and c the centre of the grid in mm.
    """
    dims = np.asarray(labels.shape)
    sp = np.asarray(spacing, dtype=np.float64)
    centre = (dims - 1) / 2.0 * sp
    axes = [np.arange(n) * sp[i] - centre[i] for i, n in enumerate(dims)]
    pos = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
    src = m[:3, :3] @ pos + (m[:3, 3] + centre)[:, None]
    idx = np.floor(src / sp[:, None] + 0.5).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < dims[:, None]), axis=0)
    flat = np.ravel_multi_index(tuple(np.clip(idx, 0, dims[:, None] - 1)), tuple(dims))
    return np.where(inside, labels.ravel()[flat], 0).reshape(labels.shape)


def foreground_dice(a: np.ndarray, b: np.ndarray) -> float:
    fa, fb = a != 0, b != 0
    total = int(fa.sum()) + int(fb.sum())
    return 1.0 if total == 0 else 2.0 * int((fa & fb).sum()) / total


def _within(value, key) -> bool:
    lo, hi = RANGES[key]
    return bool(np.all(np.isfinite(value))) and bool(np.all((lo <= np.asarray(value)) & (np.asarray(value) <= hi)))


def check_drawn(drawn: dict, profile: str, mode: str, spacing) -> list[str]:
    """Drawn parameters against the configured ranges."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(f"drawn {what} out of range")

    need(all(_within(int(k), "k") for k in drawn["k_by_class"].values()), "k")
    affine = drawn.get("simple_plan", {}).get("affine") if profile == "simple" else drawn["affine"]
    if affine is not None:
        for key in ("rotation", "scale", "translation", "shear"):
            need(_within(affine[key], key), f"affine {key}")
    if profile == "simple":
        plan = drawn["simple_plan"]
        need(_within(plan["noise_sigma"], "simple_noise_sigma"), "simple noise sigma")
        if plan["apply_gamma"]:
            need(_within(plan["gamma"], "gamma"), "gamma")
        if plan["apply_blur"]:
            need(_within(plan["blur_sigma_mm"], "blur_sigma_mm"), "blur sigma")
    else:
        need(_within(drawn["gamma"], "gamma"), "gamma")
        need(_within(drawn["noise_sigma"], "noise_sigma"), "noise sigma")
        axis = drawn["slice_axis"]
        target = drawn["resolution_target_mm"]
        ok = axis in (0, 1, 2)
        for i, (t, s) in enumerate(zip(target, spacing)):
            lo, hi = RANGES["thickness_mm" if i == axis else "inplane_mm"]
            ok = ok and max(lo, s) <= t <= max(hi, s)
        need(ok, "resolution")
    if mode in ("fabian", "randfabian"):
        seq = drawn["sequence"]
        need(_within(seq["te_eff_ms"], "te_eff_ms"), "TE")
        need(_within(seq["refocus_deg"], "refocus_deg"), "refocusing angle")
        relax = np.asarray(list(drawn["relaxometry"].values()), dtype=np.float64).reshape(-1, 3)
        need(relax.size > 0, "relaxometry (empty)")
        for col, key in enumerate(("t1_ms", "t2_ms", "pd")):
            need(_within(relax[:, col], key), key)
    else:
        gmm = {int(k): v for k, v in drawn["gmm"].items()}
        need(gmm.get(0, [0.0, 0.0]) == [0.0, 0.0], "gmm background")
        params = np.asarray([v for k, v in gmm.items() if k != 0], dtype=np.float64).reshape(-1, 2)
        need(_within(params[:, 0], "mu") and _within(params[:, 1], "sigma"), "gmm mu/sigma")
    return bad


def check_sample(paths, source: Source, *, index: int, seed: int, mode: str, profile: str) -> list[str]:
    """Every independent check of one written sample; returns the failures."""
    image_path, labels_path, sidecar_path = paths
    try:
        image = nii.read(image_path)
        labels = nii.read(labels_path)
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    bad = []
    src = source.labels
    for name, vol in (("image", image), ("labels", labels)):
        if vol.data.shape != src.data.shape or vol.spacing != src.spacing:
            bad.append(f"{name} grid differs from the source")
        elif not np.array_equal(vol.sform, src.sform):
            bad.append(f"{name} sform differs from the source")
    if bad:
        return bad

    img = image.data
    if image.datatype != 16 or not np.all(np.isfinite(img)):
        bad.append("image is not finite float32")
    elif img.min() != 0.0 or img.max() != 1.0:
        bad.append(f"image range [{img.min()}, {img.max()}] is not exactly [0, 1]")
    lab = labels.data
    if not set(np.unique(lab).tolist()) <= source.label_set:
        bad.append("labels not a subset of the source labels")

    inputs = sidecar.get("inputs", {})
    if (
        sidecar.get("format") != SIDECAR_FORMAT
        or sidecar.get("subject") != source.sid
        or sidecar.get("sample_index") != index
        or sidecar.get("master_seed") != seed
        or sidecar.get("outputs") != {"image": os.path.basename(image_path), "labels": os.path.basename(labels_path)}
        or sidecar.get("config", {}).get("synthgen", {}).get("mode") != mode
        or sidecar.get("config", {}).get("synthgen", {}).get("profile") != profile
    ):
        bad.append("sidecar does not describe this sample")
    if (
        inputs.get("image") != os.path.abspath(source.image_path)
        or inputs.get("labels") != os.path.abspath(source.labels_path)
    ):
        bad.append("sidecar input paths differ")
    if inputs.get("image_sha256") != source.image_sha256 or inputs.get("labels_sha256") != source.labels_sha256:
        bad.append("sidecar input sha256 differs from the input files")

    drawn = sidecar.get("drawn", {})
    try:
        bad += check_drawn(drawn, profile, mode, src.spacing)
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"sidecar drawn values incomplete: {exc!r}")
        return bad

    affine = drawn.get("simple_plan", {}).get("affine") if profile == "simple" else drawn["affine"]
    if affine is None:
        if not np.array_equal(lab, src.data):
            bad.append("labels changed without a drawn affine")
    else:
        m = affine_matrix(affine["rotation"], affine["scale"], affine["translation"], affine["shear"])
        dice = foreground_dice(lab, warp_labels(src.data, src.spacing, m))
        if dice < DICE_MIN[profile]:
            bad.append(f"foreground Dice {dice:.4f} against the affine-warped source < {DICE_MIN[profile]}")
    return bad


def check_replay(paths, scratch_dir: str) -> list[str]:
    """Re-render a sample from its sidecar; the files must match byte for byte."""
    from drsynth.cli import render_from_sidecar
    from drsynth.nifti import write_nifti

    image_path, labels_path, sidecar_path = paths
    pair = render_from_sidecar(sidecar_path)
    os.makedirs(scratch_dir, exist_ok=True)
    bad = []
    for vol, path in ((pair.image, image_path), (pair.labels, labels_path)):
        again = os.path.join(scratch_dir, os.path.basename(path))
        write_nifti(vol, again)
        with open(again, "rb") as a, open(path, "rb") as b:
            if a.read() != b.read():
                bad.append(f"replay of {os.path.basename(path)} differs from the written file")
    return bad
