import gzip
import hashlib
import json
import os
import re
import resource
import struct
import subprocess
import sys
import weakref
import zlib

import numpy as np
import pytest

import drsynth
import drsynth.cli
from drsynth.checkpoints import Checkpoint, read_checkpoint, write_checkpoint
from drsynth.cli import (
    SIDECAR_FORMAT,
    discover_subjects,
    main,
    read_manifest,
    render_from_sidecar,
)
from drsynth.config import load_config
from drsynth.errors import ConfigError, InputChanged, IoError
from drsynth.generator import generate_sample
from drsynth.nifti import read_nifti, write_nifti
from drsynth.volume import LabelMap, LabelScheme

from conftest import write_subject


SRC = os.path.dirname(os.path.dirname(drsynth.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_unloaded():
    # only `evaluate` needs the KD-tree, only `bench` scipy's version and only
    # `generate --workers N` the process pool; no command needs scipy.ndimage
    heavy = ["scipy", "scipy.spatial", "scipy.ndimage", "concurrent.futures.process"]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, drsynth.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# subject discovery


def test_discover_pairs_sorted_and_filtered(tmp_path):
    write_subject(tmp_path, "zeta", dims=(8, 8, 8))
    write_subject(tmp_path, "alpha", dims=(8, 8, 8))
    (tmp_path / "readme.txt").write_text("not a volume")
    (tmp_path / "stray.nii.gz").write_bytes(b"ignored: no _image/_labels suffix")
    triples = discover_subjects(str(tmp_path))
    assert [t[0] for t in triples] == ["alpha", "zeta"]
    assert triples[0][1].endswith("alpha_image.nii.gz")
    assert triples[0][2].endswith("alpha_labels.nii.gz")


def test_discover_missing_counterpart(tmp_path, capsys):
    write_subject(tmp_path, "good", dims=(8, 8, 8))
    img, _ = write_subject(tmp_path, "widow", dims=(8, 8, 8))
    os.unlink(img.replace("_image", "_labels"))
    with pytest.raises(IoError):
        discover_subjects(str(tmp_path))
    triples = discover_subjects(str(tmp_path), skip_unreadable=True)
    assert [t[0] for t in triples] == ["good"]
    assert "widow" in capsys.readouterr().err


def test_discover_skips_unreadable_volumes(tmp_path, capsys):
    write_subject(tmp_path, "good", dims=(8, 8, 8))
    (tmp_path / "bad_image.nii.gz").write_bytes(gzip.compress(b"garbage"))
    (tmp_path / "bad_labels.nii.gz").write_bytes(gzip.compress(b"garbage"))
    with pytest.raises(Exception):
        [read_nifti(p) for _, p, _ in discover_subjects(str(tmp_path))]
    triples = discover_subjects(str(tmp_path), skip_unreadable=True)
    assert [t[0] for t in triples] == ["good"]
    assert "bad" in capsys.readouterr().err


def test_discover_rejects_two_files_for_one_role(tmp_path, capsys):
    write_subject(tmp_path, "good", dims=(8, 8, 8))
    img, _ = write_subject(tmp_path, "x", dims=(8, 8, 8))
    write_nifti(read_nifti(img), str(tmp_path / "x_image.nii"))
    with pytest.raises(IoError, match="x_image.nii and .*x_image.nii.gz"):
        discover_subjects(str(tmp_path))
    triples = discover_subjects(str(tmp_path), skip_unreadable=True)
    assert [t[0] for t in triples] == ["good"]
    err = capsys.readouterr().err
    assert err.startswith("warning: subject 'x': two _image files") and err.count("\n") == 1


def test_discover_requires_directory(tmp_path):
    with pytest.raises(IoError):
        discover_subjects(str(tmp_path / "missing"))


@pytest.mark.parametrize(
    "name, sid",
    [
        ("a_labels_image.nii", "a_labels"),
        ("_image.nii", ""),
        ("a\nb_labels.nii.gz", "a\nb"),
        ("x_image.nii.gz.nii", None),
        ("x_IMAGE.nii", None),
        ("x_image.nii.GZ", None),
    ],
)
def test_discover_odd_file_names(tmp_path, name, sid):
    (tmp_path / name).write_bytes(b"")
    if sid is None:
        assert discover_subjects(str(tmp_path)) == []
    else:
        with pytest.raises(IoError, match=re.escape(f"subject {sid!r}: missing _")):
            discover_subjects(str(tmp_path))


def test_discover_accepts_plain_nii(tmp_path):
    img, lab = write_subject(tmp_path, "sub", dims=(8, 8, 8))
    # re-write uncompressed variants under a second subject id
    write_nifti(read_nifti(img), str(tmp_path / "plain_image.nii"))
    write_nifti(read_nifti(lab, scheme=LabelScheme.FETA7), str(tmp_path / "plain_labels.nii"))
    triples = discover_subjects(str(tmp_path))
    assert [t[0] for t in triples] == ["plain", "sub"]


# ---------------------------------------------------------------------------
# generate


def small_ini(tmp_path, **extra):
    lines = [
        "[synthgen]",
        "master_seed = 7",
        "subclasses = 1, 3",
        "[augment]",
        "translation_mm = 2.0",
        "rotation_rad = 0.05",
    ]
    for section_line in extra.get("lines", []):
        lines.append(section_line)
    p = tmp_path / "small.ini"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_generate_writes_samples_and_sidecars(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(16, 16, 16))
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys,
        "generate",
        "--config", small_ini(tmp_path),
        "--in", str(in_dir),
        "--out", str(out_dir),
        "--count", "2",
    )
    assert code == 0, err
    assert "wrote 2 samples" in out and "seed 7" in out
    for i in range(2):
        base = f"toy_s{i:05d}_seed7"
        assert (out_dir / f"{base}_image.nii.gz").exists()
        assert (out_dir / f"{base}_labels.nii.gz").exists()
        sidecar = json.loads((out_dir / f"{base}.json").read_text())
        assert sidecar["format"] == SIDECAR_FORMAT
        assert sidecar["subject"] == "toy"
        assert sidecar["sample_index"] == i
        assert sidecar["master_seed"] == 7
        assert set(sidecar["inputs"]) == {"image", "labels", "image_sha256", "labels_sha256"}
        assert sidecar["config"]["synthgen"]["master_seed"] == "7"
        assert "drawn" in sidecar and "k_by_class" in sidecar["drawn"]
    img = read_nifti(out_dir / "toy_s00000_seed7_image.nii.gz")
    assert img.data.min() == 0.0 and img.data.max() == 1.0
    read_nifti(out_dir / "toy_s00000_seed7_labels.nii.gz", scheme=LabelScheme.FETA7)


def test_generate_round_robins_over_subjects(tmp_path, capsys):
    # sample i renders subject i % n, and its sidecar is the one record of
    # who it is: subject, index, seed, mode and profile
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for seed, sid in enumerate("abc"):
        write_subject(in_dir, sid, dims=(12, 12, 12), seed=seed)
    out_dir = tmp_path / "out"
    cfg_path = small_ini(tmp_path)
    code, _, err = run(
        capsys, "generate", "--config", cfg_path, "--in", str(in_dir), "--out", str(out_dir), "--count", "5"
    )
    assert code == 0, err
    for i, sid in enumerate("abcab"):
        sidecar = json.loads((out_dir / f"{sid}_s{i:05d}_seed7.json").read_text())
        assert (sidecar["subject"], sidecar["sample_index"], sidecar["master_seed"]) == (sid, i, 7)
        assert sidecar["config"]["synthgen"]["mode"] == "fetalsynthseg"
        assert sidecar["config"]["synthgen"]["profile"] == "synthseg"
    assert len(os.listdir(out_dir)) == 15

    # the written sample 3 is the one generate_sample renders for (subject a, index 3)
    labels = read_nifti(in_dir / "a_labels.nii.gz", scheme=LabelScheme.FETA7)
    want = generate_sample(labels, read_nifti(in_dir / "a_image.nii.gz"), load_config(cfg_path), 3)
    assert read_nifti(out_dir / "a_s00003_seed7_image.nii.gz").data.tobytes() == want.image.data.tobytes()
    recorded = json.loads((out_dir / "a_s00003_seed7.json").read_text())["drawn"]
    assert json.loads(json.dumps(want.drawn)) == recorded


def test_generate_requires_subjects(tmp_path, capsys):
    # a directory whose files pair into no subject is EmptySample, and
    # nothing is written
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / "readme.txt").write_text("not a volume")
    (in_dir / "stray.nii.gz").write_bytes(b"ignored: no _image/_labels suffix")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--in", str(in_dir), "--out", str(out_dir))
    assert code == 1
    assert err.startswith("error: EmptySample: no usable (image, labels) subject pairs")
    assert not out_dir.exists()


def test_generate_identical_across_worker_counts(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "a", dims=(12, 12, 12), seed=1)
    write_subject(in_dir, "b", dims=(12, 12, 12), seed=2)
    cfgp = small_ini(tmp_path)
    outs = {}
    for workers in (1, 2):
        out_dir = tmp_path / f"w{workers}"
        code, _, err = run(
            capsys,
            "generate", "--config", cfgp, "--in", str(in_dir), "--out", str(out_dir),
            "--count", "4", "--workers", str(workers),
        )
        assert code == 0, err
        outs[workers] = {
            name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
        }
    assert outs[1] == outs[2]


def test_pool_is_capped_at_the_task_count(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    pools = []

    def spy(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "a", dims=(12, 12, 12))
    cfgp = small_ini(tmp_path)
    outs = {}
    for count, workers in (("1", "1"), ("1", "4"), ("2", "4")):
        out_dir = tmp_path / f"c{count}w{workers}"
        code, _, err = run(
            capsys,
            "generate", "--config", cfgp, "--in", str(in_dir), "--out", str(out_dir),
            "--count", count, "--workers", workers,
        )
        assert code == 0, err
        outs[count, workers] = {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
    # one task renders in-process whatever --workers says; two tasks get two workers
    assert pools == [2]
    assert outs["1", "4"] == outs["1", "1"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="older CPython holds call arguments until the call returns")
def test_render_task_frees_the_source_volumes_once_warped(tmp_path, monkeypatch):
    import drsynth.generator

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "s", dims=(16, 16, 16))
    refs, alive = [], []
    read, partition = drsynth.cli._read_subject, drsynth.generator.partition_subclasses

    def spy_read(*args):
        volumes = read(*args)
        refs.extend(weakref.ref(v.data) for v in volumes)
        return volumes

    def spy_partition(*args):
        alive.extend(r() is not None for r in refs)
        return partition(*args)

    monkeypatch.setattr(drsynth.cli, "_read_subject", spy_read)
    monkeypatch.setattr(drsynth.generator, "partition_subclasses", spy_partition)
    assert main(["generate", "--in", str(in_dir), "--out", str(tmp_path / "out")]) == 0
    # clustering runs on the warped volumes; the decoded sources are gone
    assert alive == [False, False]


def test_sidecar_rerenders_bit_exactly(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(16, 16, 16))
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--out", str(out_dir), "--count", "1",
    )
    assert code == 0, err
    sidecar = out_dir / "toy_s00000_seed7.json"
    pair = render_from_sidecar(str(sidecar))
    written = read_nifti(out_dir / "toy_s00000_seed7_image.nii.gz")
    assert pair.image.data.tobytes() == written.data.tobytes()
    labels = read_nifti(out_dir / "toy_s00000_seed7_labels.nii.gz", scheme=LabelScheme.FETA7)
    assert pair.labels.data.tobytes() == labels.data.tobytes()


def test_replay_of_a_missing_sidecar_is_an_io_error(tmp_path):
    p = tmp_path / "absent.json"
    with pytest.raises(IoError, match=re.escape(f"cannot read {p}: ")):
        render_from_sidecar(str(p))


def test_sidecar_format_is_checked(tmp_path):
    p = tmp_path / "bogus.json"
    p.write_text(json.dumps({"format": "something-else"}))
    want = f"{p}: sidecar format 'something-else', expected '{SIDECAR_FORMAT}'"
    with pytest.raises(ConfigError, match=re.escape(want)):
        render_from_sidecar(str(p))


def test_generate_seed_flag_overrides_config(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--seed", "99",
        "--in", str(in_dir), "--out", str(out_dir), "--count", "1",
    )
    assert code == 0, err
    assert "seed 99" in out
    assert (out_dir / "toy_s00000_seed99.json").exists()


@pytest.mark.parametrize("cmd", ["generate", "epg", "cluster-inspect"])
def test_negative_seed_is_config_error(tmp_path, capsys, cmd):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    image, labels = write_subject(in_dir, "toy", dims=(12, 12, 12))
    out = str(tmp_path / "out")
    cfg = tmp_path / "seed.ini"
    cfg.write_text("[synthgen]\nmaster_seed = -2\n")
    argv = {
        "generate": ["--in", str(in_dir), "--out", out, "--seed", "-1"],
        "epg": ["--out", out, "--seed", "-3"],
        "cluster-inspect": ["--config", str(cfg), "--image", image, "--labels", labels, "--out-prefix", out],
    }[cmd]
    code, _, err = run(capsys, cmd, *argv)
    assert code == 1
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("cmd", ["generate", "epg"])
def test_config_that_is_not_utf8_is_one_error_line(tmp_path, capsys, cmd):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(b"[synthgen]\nmaster_seed = 7  # caf\xe9\n")
    out = str(tmp_path / "out")
    argv = ["--in", str(in_dir), "--out", out] if cmd == "generate" else ["--out", out]
    code, _, err = run(capsys, cmd, "--config", str(cfg), *argv)
    assert code == 1
    assert err.startswith(f"error: ConfigError: cannot read config: {cfg}: not UTF-8 text (")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_generate_mode_and_profile_flags(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--out", str(out_dir), "--mode", "synthseg", "--profile", "simple",
    )
    assert code == 0, err
    sidecar = json.loads((out_dir / "toy_s00000_seed7.json").read_text())
    assert sidecar["config"]["synthgen"]["mode"] == "synthseg"
    assert sidecar["config"]["synthgen"]["profile"] == "simple"
    assert "simple_plan" in sidecar["drawn"]


def test_error_lines_are_machine_parsable(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "generate", "--in", str(empty), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: EmptySample:")

    code, _, err = run(capsys, "generate", "--in", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: IoError:")

    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[synthgen]\nmode = quantum\n")
    code, _, err = run(
        capsys, "generate", "--config", str(bad_cfg), "--in", str(empty), "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert err.startswith("error: ConfigError:")


def test_an_os_error_is_one_io_error_line(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(8, 8, 8))
    taken = tmp_path / "taken"
    taken.write_text("a regular file, not a directory\n")
    code, stdout, err = run(capsys, "generate", "--in", str(in_dir), "--out", str(taken))
    assert code == 1 and stdout == ""
    assert err.startswith("error: IoError: ") and str(taken) in err and err.count("\n") == 1


def subjects_with_a_truncated_image(tmp_path):
    """An input directory with subject "good" and subject "bad", whose _image.nii.gz is cut in half."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "good", dims=(12, 12, 12))
    img, _ = write_subject(in_dir, "bad", dims=(12, 12, 12))
    with open(img, "rb") as fh:
        blob = fh.read()
    with open(img, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    return in_dir, img


def test_a_truncated_gzip_input_is_one_error_line(tmp_path, capsys):
    in_dir, img = subjects_with_a_truncated_image(tmp_path)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--config", small_ini(tmp_path), "--in", str(in_dir), "--out", str(out_dir))
    assert code == 1
    assert err == (
        f"error: TruncatedFile: subject 'bad' sample 0: {img}: gzip stream ends before its end-of-stream marker\n"
    )


def test_skip_unreadable_skips_a_truncated_gzip_input(tmp_path, capsys):
    in_dir, img = subjects_with_a_truncated_image(tmp_path)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--out", str(out_dir), "--count", "2", "--skip-unreadable",
    )
    assert code == 0, err
    assert err == (
        f"warning: subject 'bad' unreadable ({img}: gzip stream ends before its end-of-stream marker), skipping\n"
    )
    assert {name.split("_s")[0] for name in os.listdir(out_dir)} == {"good"}


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--count", "0"),
        ("generate", "--count", "-3"),
        ("generate", "--workers", "0"),
        ("generate", "--workers", "-2"),
        ("bench", "--samples", "0"),
        ("bench", "--epg-samples", "0"),
    ],
)
def test_counts_below_one_are_config_errors(tmp_path, capsys, argv):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    out_dir = tmp_path / "out"
    where = ["--out", str(out_dir)] if argv[0] == "generate" else []
    code, _, err = run(capsys, argv[0], "--in", str(in_dir), *where, *argv[1:])
    assert code == 1
    assert err.startswith(f"error: ConfigError: {argv[1]} must be >= 1") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "line",
    [
        "subclasses = 0, 3", "subclasses = 3, 1", "svf_control_points = 0", "svf_steps = -1",
        "sigma = -5, -1", "op_probability = 7", "noise_sigma = -0.5, -0.4", "mu = 5, 1",
        "t2_ms = -5, -1", "master_seed = -2", "mu = 0, inf", "te_eff_ms = 1, 2",
    ],
)
def test_out_of_range_config_values_fail_at_load(tmp_path, capsys, line):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    key = line.split(" = ")[0]
    augment = ("svf_control_points", "svf_steps", "op_probability", "noise_sigma")
    section = "augment" if key in augment else "epg" if key in ("t2_ms", "te_eff_ms") else "synthgen"
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--config", str(cfg), "--in", str(in_dir), "--out", str(out_dir))
    assert code == 1
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_sample_names_subject_and_index(tmp_path, capsys, workers):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for sid in ("a", "b", "c"):
        write_subject(in_dir, sid, dims=(12, 12, 12))
    empty = read_nifti(in_dir / "b_labels.nii.gz", scheme=LabelScheme.FETA7)
    write_nifti(empty.with_data(np.zeros_like(empty.data)), in_dir / "b_labels.nii.gz")
    code, _, err = run(
        capsys,
        "generate", "--in", str(in_dir), "--out", str(tmp_path / "out"),
        "--count", "6", "--profile", "simple", "--workers", workers,
    )
    assert code == 1
    assert err.startswith("error: EmptySample: subject 'b' sample 1: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_non_finite_intensity_fails_the_sample(tmp_path, capsys, bad, workers):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for sid in ("a", "b"):
        write_subject(in_dir, sid, dims=(12, 12, 12))
    image = read_nifti(in_dir / "b_image.nii.gz")
    data = image.data.copy()
    data[6, 6, 6] = bad
    write_nifti(image.with_data(data), in_dir / "b_image.nii.gz")
    code, _, err = run(
        capsys,
        "generate", "--in", str(in_dir), "--out", str(tmp_path / "out"),
        "--count", "2", "--workers", workers,
    )
    assert code == 1
    assert err == "error: NonFiniteIntensity: subject 'b' sample 1: intensity volume has 1 non-finite voxel(s) (NaN or inf)\n"


def patch_header(path, offset, value):
    """Overwrite one float32 field of a gzipped NIfTI header."""
    blob = bytearray(gzip.decompress(path.read_bytes()))
    struct.pack_into("<f", blob, offset, value)
    path.write_bytes(gzip.compress(bytes(blob)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vox_offset_is_one_error_line(tmp_path, capsys, bad):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for sid in ("a", "b"):
        write_subject(in_dir, sid, dims=(8, 8, 8))
    labels = in_dir / "b_labels.nii.gz"
    patch_header(labels, 108, bad)  # vox_offset
    msg = f"{labels}: vox_offset {bad} is not a byte offset past the header"
    code, _, err = run(capsys, "epg", "--labels", str(labels), "--out", str(tmp_path / "e.nii.gz"))
    assert code == 1 and err == f"error: FormatError: {msg}\n"
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--in", str(in_dir), "--out", str(out), "--count", "2")
    assert code == 1 and err == f"error: FormatError: subject 'b' sample 1: {msg}\n"
    code, _, err = run(capsys, "generate", "--in", str(in_dir), "--out", str(out), "--count", "2",
                       "--skip-unreadable")
    assert code == 0 and err.startswith("warning: subject 'b' unreadable") and err.count("\n") == 1
    assert sorted(p.name for p in out.glob("*.json")) == ["a_s00000_seed0.json", "a_s00001_seed0.json"]


@pytest.mark.parametrize("offset, value, what", [(280, np.nan, "affine"), (80, np.inf, "spacing")])
def test_non_finite_geometry_names_the_file(tmp_path, capsys, offset, value, what):
    # srow_x[0] NaN in both inputs, or pixdim[1] infinite in the labels only
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "b", dims=(8, 8, 8))
    for kind in ("labels", "image") if what == "affine" else ("labels",):
        patch_header(in_dir / f"b_{kind}.nii.gz", offset, value)
    code, _, err = run(capsys, "generate", "--in", str(in_dir), "--out", str(tmp_path / "out"))
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: GeometryError: subject 'b' sample 0: {in_dir / 'b_labels.nii.gz'}: {what} must be")


def test_replay_rejects_changed_inputs(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    img_path, lab_path = write_subject(in_dir, "toy", dims=(12, 12, 12))
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--out", str(out_dir), "--count", "1",
    )
    assert code == 0, err
    sidecar = str(out_dir / "toy_s00000_seed7.json")
    written = read_nifti(out_dir / "toy_s00000_seed7_image.nii.gz").data.tobytes()
    image = read_nifti(img_path)
    labels = read_nifti(lab_path, scheme=LabelScheme.FETA7)
    edits = [
        (img_path, image.with_data(image.data * 2)),
        (lab_path, labels.with_data(np.where(labels.data == 1, 2, labels.data))),
    ]
    for path, edited in edits:
        original = open(path, "rb").read()
        write_nifti(edited, path)
        with pytest.raises(InputChanged, match=re.escape(path)):
            render_from_sidecar(sidecar)
        with open(path, "wb") as fh:
            fh.write(original)
        assert render_from_sidecar(sidecar).image.data.tobytes() == written


def generate_one(tmp_path, capsys):
    """Generate one 12^3 sample with small_ini; returns (image path, sidecar path)."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    img_path, _ = write_subject(in_dir, "toy", dims=(12, 12, 12))
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--out", str(out_dir), "--count", "1",
    )
    assert code == 0, err
    return img_path, str(out_dir / "toy_s00000_seed7.json")


def test_replay_compares_hashes_before_parsing_inputs(tmp_path, capsys):
    img_path, sidecar = generate_one(tmp_path, capsys)
    with open(img_path, "wb") as fh:
        fh.write(b"not a NIfTI file")
    with pytest.raises(InputChanged, match=re.escape(img_path)):
        render_from_sidecar(sidecar)


def test_replay_checks_the_recorded_config(tmp_path, capsys):
    _, sidecar = generate_one(tmp_path, capsys)
    record = json.loads(open(sidecar).read())
    record["config"]["synthgen"]["sigma"] = "-5.0, -1.0"
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(ConfigError, match=re.escape("synthgen.sigma: must be >= 0, got -5.0")):
        render_from_sidecar(sidecar)


def test_replay_rejects_a_sidecar_that_is_not_json(tmp_path):
    p = tmp_path / "s.json"
    for content in (b"{truncated", b"\xff\xfe not utf-8"):
        p.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"{p}: not a JSON sidecar")):
            render_from_sidecar(str(p))


@pytest.mark.parametrize("key", ["config", "inputs", "sample_index"])
def test_replay_names_a_missing_sidecar_key(tmp_path, capsys, key):
    _, sidecar = generate_one(tmp_path, capsys)
    record = json.loads(open(sidecar).read())
    del record[key]
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(ConfigError, match=re.escape(f"{sidecar}: sidecar has no '{key}'")):
        render_from_sidecar(sidecar)


# (edit of the record, the key the error must name)
MALFORMED_SIDECARS = {
    "no_labels_sha": (lambda r: r["inputs"].pop("labels_sha256"), "sidecar has no string 'inputs.labels_sha256'"),
    "sha_not_a_string": (lambda r: r["inputs"].update(image_sha256=7), "sidecar has no string 'inputs.image_sha256'"),
    "inputs_not_a_table": (lambda r: r.update(inputs=["in.nii"]), "sidecar 'inputs' is not a table"),
    "config_a_list": (lambda r: r.update(config=[1]), "sidecar 'config' is not a table of sections"),
    "section_not_a_table": (lambda r: r["config"].update(synthgen=1), "sidecar 'config.synthgen' is not a table"),
    "value_not_a_string": (
        lambda r: r["config"]["synthgen"].update(master_seed=7), "sidecar 'config.synthgen.master_seed' is not a string"
    ),
    "index_a_string": (lambda r: r.update(sample_index="0"), "sidecar 'sample_index' is not an integer >= 0"),
    "index_negative": (lambda r: r.update(sample_index=-1), "sidecar 'sample_index' is not an integer >= 0"),
    "index_a_bool": (lambda r: r.update(sample_index=True), "sidecar 'sample_index' is not an integer >= 0"),
}


@pytest.mark.parametrize("case", list(MALFORMED_SIDECARS))
def test_replay_names_a_malformed_sidecar_key(tmp_path, capsys, case):
    edit, want = MALFORMED_SIDECARS[case]
    _, sidecar = generate_one(tmp_path, capsys)
    record = json.loads(open(sidecar).read())
    edit(record)
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(ConfigError, match=re.escape(f"{sidecar}: {want}")):
        render_from_sidecar(sidecar)


def test_sidecar_hashes_the_input_bytes_that_were_rendered(tmp_path, capsys, monkeypatch):
    # an input replaced while its sample renders must not be recorded under
    # the new file's hash: the sidecar names the bytes that were decoded
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    img_path, _ = write_subject(in_dir, "toy", dims=(12, 12, 12))
    original = open(img_path, "rb").read()
    image = read_nifti(img_path)
    render = drsynth.cli.generate_sample

    def replace_then_render(*args, **kwargs):
        write_nifti(image.with_data(image.data * 2), img_path)
        return render(*args, **kwargs)

    monkeypatch.setattr(drsynth.cli, "generate_sample", replace_then_render)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        "generate", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--out", str(out_dir), "--count", "1",
    )
    assert code == 0, err
    sidecar = str(out_dir / "toy_s00000_seed7.json")
    assert json.loads(open(sidecar).read())["inputs"]["image_sha256"] == hashlib.sha256(original).hexdigest()
    monkeypatch.undo()
    with pytest.raises(InputChanged, match=re.escape(img_path)):
        render_from_sidecar(sidecar)
    with open(img_path, "wb") as fh:
        fh.write(original)
    written = read_nifti(out_dir / "toy_s00000_seed7_image.nii.gz").data.tobytes()
    assert render_from_sidecar(sidecar).image.data.tobytes() == written


def test_bad_seed_flag_names_the_config_key(tmp_path, capsys):
    code, _, err = run(capsys, "epg", "--seed", "-3", "--out", str(tmp_path / "epg.nii.gz"))
    assert code == 1
    assert err == "error: ConfigError: synthgen.master_seed: must be >= 0, got -3\n"


# ---------------------------------------------------------------------------
# interpolate


def write_pair_of_checkpoints(tmp_path):
    a = Checkpoint({"w": np.zeros((3, 2), np.float32)}, {"run": "a"})
    b = Checkpoint({"w": np.full((3, 2), 2.0, np.float32)}, {"run": "b"})
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_checkpoint(a, pa)
    write_checkpoint(b, pb)
    return str(pa), str(pb)


def test_interpolate_single_alpha_writes_one_file(tmp_path, capsys):
    pa, pb = write_pair_of_checkpoints(tmp_path)
    out = tmp_path / "mid.ckpt"
    # "--alpha" is argparse's unambiguous prefix of --alphas, so the old spelling still works
    code, stdout, err = run(capsys, "interpolate", pa, pb, "--alpha", "0.25", "--out", str(out))
    assert code == 0, err
    assert "alpha 0.25" in stdout
    np.testing.assert_allclose(read_checkpoint(out).tensors["w"], 0.5, atol=1e-7)


def test_interpolate_default_sweep_names_files_by_alpha(tmp_path, capsys):
    pa, pb = write_pair_of_checkpoints(tmp_path)
    out = tmp_path / "sweep"
    code, _, err = run(capsys, "interpolate", pa, pb, "--out", str(out))
    assert code == 0, err
    names = sorted(os.listdir(out))
    assert names == ["alpha_0.2.ckpt", "alpha_0.5.ckpt", "alpha_0.8.ckpt", "alpha_0.ckpt", "alpha_1.ckpt"]
    np.testing.assert_allclose(read_checkpoint(out / "alpha_0.8.ckpt").tensors["w"], 1.6, atol=1e-6)


def test_interpolate_custom_alphas(tmp_path, capsys):
    pa, pb = write_pair_of_checkpoints(tmp_path)
    out = tmp_path / "sweep"
    code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", "0, 0.5 ,1", "--out", str(out))
    assert code == 0, err
    assert sorted(os.listdir(out)) == ["alpha_0.5.ckpt", "alpha_0.ckpt", "alpha_1.ckpt"]


def test_interpolate_rejects_bad_alpha_values(tmp_path, capsys):
    pa, pb = write_pair_of_checkpoints(tmp_path)
    code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", "0,zebra", "--out", str(tmp_path / "x"))
    assert code == 1 and err.startswith("error: ConfigError:")
    for empty in ("", ",", " "):
        code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", empty, "--out", str(tmp_path / "x"))
        assert code == 1 and err.startswith("error: ConfigError: --alphas: no values")
    assert not (tmp_path / "x").exists()
    code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", "1.5", "--out", str(tmp_path / "x.ckpt"))
    assert code == 1 and err.startswith("error: InvalidAlpha:")


def test_interpolate_checks_every_alpha_before_writing(tmp_path, capsys):
    pa, pb = write_pair_of_checkpoints(tmp_path)
    out = tmp_path / "sweep"
    code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", "0,0.5,2", "--out", str(out))
    assert code == 1
    assert err == "error: InvalidAlpha: alpha must be in [0, 1], got 2.0\n"
    assert not out.exists() or not os.listdir(out)


def test_interpolate_rejects_alphas_that_name_one_file(tmp_path, capsys):
    # file names keep 6 significant digits, so these two would overwrite one file
    pa, pb = write_pair_of_checkpoints(tmp_path)
    out = tmp_path / "sw"
    code, stdout, err = run(capsys, "interpolate", pa, pb, "--alphas", "0.1234561,0.1234564", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: ConfigError: --alphas: ") and err.count("\n") == 1
    assert not out.exists()


def test_interpolate_checks_the_layout_before_writing(tmp_path, capsys):
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_checkpoint(Checkpoint({"w": np.zeros((3, 2), np.float32)}), pa)
    write_checkpoint(Checkpoint({"w": np.zeros((2, 2), np.float32)}), pb)
    out = tmp_path / "sweep"
    code, _, err = run(capsys, "interpolate", str(pa), str(pb), "--out", str(out))
    assert code == 1
    assert err == "error: IncompatibleCheckpoints: checkpoints differ in tensor names, order, or shapes\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate


def test_read_manifest_formats(tmp_path):
    man = tmp_path / "pairs.tsv"
    man.write_text(
        "# comment line\n"
        "\n"
        "s1\tpred1.nii.gz\tgt1.nii.gz\n"
        "s2, pred2.nii.gz , /abs/gt2.nii.gz\n"
    )
    triples = read_manifest(str(man))
    assert triples[0] == ("s1", str(tmp_path / "pred1.nii.gz"), str(tmp_path / "gt1.nii.gz"))
    assert triples[1] == ("s2", str(tmp_path / "pred2.nii.gz"), "/abs/gt2.nii.gz")

    man.write_text("s1\tonly_two_fields\n")
    with pytest.raises(Exception):
        read_manifest(str(man))


def test_read_manifest_splits_universal_newlines_only(tmp_path):
    man = tmp_path / "pairs.tsv"
    man.write_bytes(b"s1\tp1\tg1\r\ns2\tp2\tg2\rs\x0c3\tp3\tg3\r\n\r\n# done\r")
    assert [t[0] for t in read_manifest(str(man))] == ["s1", "s2", "s\x0c3"]


def test_evaluate_rejects_a_manifest_that_is_not_utf8(tmp_path, capsys):
    man = tmp_path / "pairs.tsv"
    man.write_bytes(b"caf\xe9\tgt.nii.gz\tgt.nii.gz\n")
    code, out, err = run(capsys, "evaluate", "--manifest", str(man))
    assert code == 1 and out == ""
    assert err.startswith(f"error: FormatError: {man}: not UTF-8 text (") and err.count("\n") == 1


def test_evaluate_end_to_end(tmp_path, capsys):
    r = np.random.default_rng(0)
    gt_data = r.integers(0, 8, (10, 10, 10), dtype=np.int32)
    pred_data = gt_data.copy()
    pred_data[0, 0, :] = 0  # small disagreement
    gt = LabelMap(gt_data, (1, 1, 1), LabelScheme.FETA7)
    pred = LabelMap(pred_data, (1, 1, 1), LabelScheme.FETA7)
    write_nifti(gt, str(tmp_path / "gt.nii.gz"))
    write_nifti(pred, str(tmp_path / "pred.nii.gz"))
    man = tmp_path / "pairs.tsv"
    man.write_text("subj\tpred.nii.gz\tgt.nii.gz\nperfect\tgt.nii.gz\tgt.nii.gz\n")

    report = tmp_path / "report.tsv"
    code, _, err = run(capsys, "evaluate", "--manifest", str(man), "--out", str(report))
    assert code == 0, err
    rows = [line.split("\t") for line in report.read_text().splitlines()]
    assert rows[0] == ["subject", "label", "dice", "hd95"]
    by_key = {(r0, r1): (r2, r3) for r0, r1, r2, r3 in rows[1:]}
    assert by_key[("perfect", "mean")] == ("1.000000", "0.000000")
    assert float(by_key[("subj", "mean")][0]) < 1.0
    assert ("all", "mean") in by_key and ("all", "std") in by_key

    # without --out the report goes to stdout
    code, out, err = run(capsys, "evaluate", "--manifest", str(man))
    assert code == 0, err
    assert out.startswith("subject\tlabel\tdice\thd95")


def test_evaluate_names_the_failing_subject(tmp_path, capsys):
    gt = LabelMap(np.ones((10, 10, 10), np.int32), (1, 1, 1), LabelScheme.FETA7)
    write_nifti(gt, str(tmp_path / "gt.nii.gz"))
    write_nifti(LabelMap(np.ones((10, 10, 9), np.int32), (1, 1, 1), LabelScheme.FETA7), str(tmp_path / "small.nii.gz"))
    man = tmp_path / "pairs.tsv"
    man.write_text("good\tgt.nii.gz\tgt.nii.gz\ncropped\tsmall.nii.gz\tgt.nii.gz\n")
    code, out, err = run(capsys, "evaluate", "--manifest", str(man))
    assert code == 1 and out == ""
    assert err == "error: GeometryError: subject 'cropped': pred and gt must share dims, spacing, and affine\n"


def test_evaluate_names_the_subject_and_file_it_cannot_read(tmp_path, capsys):
    gt = LabelMap(np.ones((10, 10, 10), np.int32), (1, 1, 1), LabelScheme.FETA7)
    write_nifti(gt, str(tmp_path / "gt.nii.gz"))
    pred = tmp_path / "nine.nii.gz"
    write_nifti(LabelMap(np.full((10, 10, 10), 9, np.int32), (1, 1, 1), LabelScheme.SUBCLASS), str(pred))
    man = tmp_path / "pairs.tsv"
    man.write_text("good\tgt.nii.gz\tgt.nii.gz\nbad\tnine.nii.gz\tgt.nii.gz\n")
    code, out, err = run(capsys, "evaluate", "--manifest", str(man))
    assert code == 1 and out == ""
    assert err == f"error: UnknownLabel: subject 'bad': {pred}: label value 9 outside scheme feta7 (max 7)\n"


def test_evaluate_missing_manifest(tmp_path, capsys):
    code, _, err = run(capsys, "evaluate", "--manifest", str(tmp_path / "none.tsv"))
    assert code == 1
    assert err.startswith("error: IoError:")


# ---------------------------------------------------------------------------
# epg


def test_epg_renders_toy_volume_deterministically(tmp_path, capsys):
    out1, out2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    code, stdout, err = run(capsys, "epg", "--seed", "5", "--out", str(out1))
    assert code == 0, err
    assert "wrote" in stdout and "TE_eff" in stdout
    code, _, err = run(capsys, "epg", "--seed", "5", "--out", str(out2))
    assert code == 0, err
    assert out1.read_bytes() == out2.read_bytes()
    vol = read_nifti(out1)
    assert vol.dims == (32, 32, 32)
    assert vol.data.max() > 0


def test_epg_fabian_needs_reference_intervals(tmp_path, capsys):
    code, _, err = run(capsys, "epg", "--mode", "fabian", "--out", str(tmp_path / "x.nii.gz"))
    assert code == 1
    assert err.startswith("error: MissingParams:")


def test_epg_rejects_a_gaussian_mode_from_the_config(tmp_path, capsys):
    ini, out = tmp_path / "g.ini", tmp_path / "e.nii.gz"
    for mode in ("fetalsynthseg", "synthseg"):
        ini.write_text(f"[synthgen]\nmode = {mode}\n")
        code, _, err = run(capsys, "epg", "--config", str(ini), "--out", str(out))
        assert code == 1
        assert err == f"error: ConfigError: synthgen.mode: epg needs one of fabian, randfabian, got '{mode}'\n"
        assert not out.exists()
    # --mode overrides the file, and a file without a mode keeps the default
    code, _, err = run(capsys, "epg", "--config", str(ini), "--mode", "randfabian", "--out", str(out))
    assert code == 0, err
    ini.write_text("[synthgen]\nmaster_seed = 5\n")
    code, _, err = run(capsys, "epg", "--config", str(ini), "--out", str(tmp_path / "f.nii.gz"))
    assert code == 0, err


@pytest.mark.parametrize(
    "text", ["[synthgen]\nmaster_seed = 5\n", "[synthgen]\nmode = randfabian\n"], ids=["no-mode", "mode"]
)
def test_epg_reads_its_config_once(tmp_path, capsys, monkeypatch, text):
    # the mode check reads the sections the config was built from, so a file
    # replaced meanwhile cannot be judged by bytes the run did not load
    import drsynth.config

    ini = tmp_path / "e.ini"
    ini.write_text(text)
    calls = []
    read_text = drsynth.config.read_text
    monkeypatch.setattr(drsynth.config, "read_text", lambda path: calls.append(path) or read_text(path))
    code, _, err = run(capsys, "epg", "--config", str(ini), "--out", str(tmp_path / "e.nii.gz"))
    assert code == 0, err
    assert calls == [str(ini)]


def test_epg_accepts_a_label_file(tmp_path, capsys):
    _, lab = write_subject(tmp_path, "toy", dims=(10, 10, 10))
    out = tmp_path / "r.nii.gz"
    code, _, err = run(capsys, "epg", "--labels", lab, "--out", str(out))
    assert code == 0, err
    assert read_nifti(out).dims == (10, 10, 10)


# ---------------------------------------------------------------------------
# cluster-inspect


def test_cluster_inspect_writes_map_and_fit(tmp_path, capsys):
    img, lab = write_subject(tmp_path, "toy", dims=(16, 16, 16))
    prefix = str(tmp_path / "insp")
    code, stdout, err = run(
        capsys, "cluster-inspect", "--image", img, "--labels", lab, "--out-prefix", prefix
    )
    assert code == 0, err
    assert "subclasses" in stdout
    sub = read_nifti(f"{prefix}_subclasses.nii.gz", scheme=LabelScheme.SUBCLASS)
    fit = json.loads(open(f"{prefix}_fit.json").read())
    assert fit["n_subclasses"] == int(sub.data.max())
    assert sum(fit["k_by_class"].values()) == fit["n_subclasses"]
    for block in fit["fits"].values():
        assert len(block["means"]) == block["k"]
        assert abs(sum(block["weights"]) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_both_pipelines(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    report_path = tmp_path / "bench.json"
    code, stdout, err = run(
        capsys,
        "bench", "--config", small_ini(tmp_path), "--in", str(in_dir),
        "--samples", "2", "--epg-samples", "1", "--out", str(report_path),
    )
    assert code == 0, err
    assert "gmm: median" in stdout and "epg: median" in stdout
    assert "epg/gmm wall ratio" in stdout
    report = json.loads(report_path.read_text())
    # ru_maxrss of this process: positive, and no more than its peak after the run
    assert 0 < report["peak_rss_mib"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert f"peak RSS: {report['peak_rss_mib']:.1f} MiB" in stdout.splitlines()
    assert report["grid"] == [12, 12, 12]
    assert report["subject"] == "toy"
    for pipeline in ("gmm", "epg"):
        block = report[pipeline]
        assert block["runs"] >= 1
        assert block["wall_median_s"] > 0
        assert block["wall_max_s"] >= block["wall_median_s"]
        assert {"deform", "cluster", "render"} <= set(block["stages"])
        assert all(s["max_s"] >= s["median_s"] for s in block["stages"].values())
    assert "p95" not in report_path.read_text() and "p95" not in stdout
    assert report["epg_over_gmm_wall_ratio"] > 0
    machine = report["machine"]
    assert machine["cpu_count"] == os.cpu_count()
    assert machine["numpy"] == np.__version__ and machine["python"].count(".") == 2
    assert machine["scipy"]
    assert machine["zlib"] == zlib.ZLIB_RUNTIME_VERSION
    assert f"zlib {zlib.ZLIB_RUNTIME_VERSION}," in stdout.splitlines()[0]
    assert machine["threads"] == {
        var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    assert "machine: " in stdout


# ---------------------------------------------------------------------------
# perfbench's trace hook


# the span of every wrapper perfbench/tracehook.py installs
TRACED_LAYERS = {
    "cli.render_task", "cli.file_sha", "nifti.read", "nifti.write", "generator.generate_sample",
    "labels.build_meta_classes", "labels.em_cluster", "augment.integrate_velocity",
    "augment.upsample_control_grid", "augment.transform_coordinates", "augment.simulate_resolution",
    "volume.sample_at_voxels", "epg.render_epg_volume", "epg.epg_fse_echoes_batch",
}


def test_tracehook_records_a_span_for_every_wrapped_layer(tmp_path):
    # the hook wraps names the CLI and the generator look up at call time; a
    # renamed or bypassed name would silently drop its layer from the benchmark
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "demo", dims=(16, 16, 16))
    hook = os.path.join(os.path.dirname(SRC), "perfbench", "tracehook.py")
    names = set()
    for run_id, mode in enumerate(([], ["--mode", "randfabian"])):
        trace = tmp_path / f"trace{run_id}"
        argv = [str(trace), "generate", "--in", str(in_dir), "--out", str(tmp_path / f"out{run_id}"), *mode]
        proc = subprocess.run(
            [sys.executable, hook, *argv],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        for spans in trace.glob("spans-*.jsonl"):
            names |= {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert names == TRACED_LAYERS
