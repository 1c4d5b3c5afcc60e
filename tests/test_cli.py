import gzip
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import drsynth
from drsynth.checkpoints import Checkpoint, read_checkpoint, write_checkpoint
from drsynth.cli import (
    SIDECAR_FORMAT,
    discover_subjects,
    main,
    read_manifest,
    render_from_sidecar,
)
from drsynth.errors import InputChanged, IoError
from drsynth.nifti import read_nifti, write_nifti
from drsynth.volume import LabelMap, LabelScheme

from conftest import write_subject


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_spatial_unloaded():
    # only `evaluate` needs the KD-tree; every other command skips its import cost
    src = os.path.dirname(os.path.dirname(drsynth.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, drsynth.cli; print('scipy.spatial' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_sidecar_format_is_checked(tmp_path):
    p = tmp_path / "bogus.json"
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(Exception) as exc_info:
        render_from_sidecar(str(p))
    assert "sidecar" in str(exc_info.value)


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
    ["subclasses = 0, 3", "subclasses = 3, 1", "svf_control_points = 0", "svf_steps = -1"],
)
def test_out_of_range_config_values_fail_at_load(tmp_path, capsys, line):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    section = "[synthgen]" if line.startswith("subclasses") else "[augment]"
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"{section}\n{line}\n")
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


def test_interpolate_flag_conflicts_and_bad_values(tmp_path, capsys):
    pa, pb = write_pair_of_checkpoints(tmp_path)
    code, _, err = run(
        capsys, "interpolate", pa, pb, "--alpha", "0.5", "--alphas", "0,1", "--out", str(tmp_path / "x")
    )
    assert code == 1 and err.startswith("error: ConfigError:")
    code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", "0,zebra", "--out", str(tmp_path / "x"))
    assert code == 1 and err.startswith("error: ConfigError:")
    for empty in ("", ",", " "):
        code, _, err = run(capsys, "interpolate", pa, pb, "--alphas", empty, "--out", str(tmp_path / "x"))
        assert code == 1 and err.startswith("error: ConfigError: --alphas: no values")
    assert not (tmp_path / "x").exists()
    code, _, err = run(
        capsys, "interpolate", pa, pb, "--alpha", "1.5", "--out", str(tmp_path / "x.ckpt")
    )
    assert code == 1 and err.startswith("error: InvalidAlpha:")


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
    assert report["grid"] == [12, 12, 12]
    assert report["subject"] == "toy"
    for pipeline in ("gmm", "epg"):
        block = report[pipeline]
        assert block["runs"] >= 1
        assert block["wall_median_s"] > 0
        assert {"deform", "cluster", "render"} <= set(block["stages"])
    assert report["epg_over_gmm_wall_ratio"] > 0
    machine = report["machine"]
    assert machine["cpu_count"] == os.cpu_count()
    assert machine["numpy"] == np.__version__ and machine["python"].count(".") == 2
    assert machine["scipy"]
    assert machine["threads"] == {
        var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    assert "machine: " in stdout
