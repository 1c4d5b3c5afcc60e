#!/usr/bin/env python3
"""Check that this checkout writes the same output bytes as an earlier revision.

Unpacks ``--base REV`` with ``git archive`` into a temporary directory,
writes two seeded subjects with ``perfbench/subjects.py`` (48x40x36 and
32^3 at 1 mm, each with a non-brain shell: label 0 with non-zero intensity
around the labelled anatomy), and runs ``python3 -m drsynth.cli`` from
both source trees over one command matrix:

* ``generate --count 4 --seed 3`` for each ``--mode`` of fetalsynthseg,
  synthseg and randfabian x ``--profile`` synthseg, simple x
  ``--workers`` 1, 2;
* ``cluster-inspect`` in the fetalsynthseg and synthseg modes;
* ``epg`` on the 32^3 subject's labels;
* ``evaluate`` on shifted copies of both label maps;
* ``generate --config scripts/nondefault.ini --profile synthseg``
  (every key of that file differs from its default);
* ``generate --config scripts/fabian.ini --mode fabian`` (reference
  relaxometry for every meta class);
* ``config_text(GenerationConfig())`` and
  ``config_text(load_config("scripts/nondefault.ini"))``.

It prints every output file whose content differs, or that only one tree
wrote, and exits 1 if there is any or if a command fails.  A ``.gz`` file's
content is its decompressed bytes, so a change of compression setting
alone is no difference; such files are counted on a separate line that
does not fail the run.  Every other file is compared by its SHA-256.
Usage:

    python3 scripts/compare_trees.py --base HEAD~1

Both trees run under the interpreter that runs this script, with one
BLAS/OpenMP thread.  Float output may differ across numpy/scipy builds,
so this is a tool for changes meant to keep every byte, not a test.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from drsynth.labels import LabelScheme  # noqa: E402
from drsynth.nifti import read_nifti, write_nifti  # noqa: E402
from subjects import write_subjects  # noqa: E402

GRIDS = [[[48, 40, 36], [1.0, 1.0, 1.0]], [[32, 32, 32], [1.0, 1.0, 1.0]]]
NONDEFAULT_INI = os.path.join(ROOT, "scripts", "nondefault.ini")
FABIAN_INI = os.path.join(ROOT, "scripts", "fabian.ini")
# config_text of the INI file named by the first argument, or of the defaults
CONFIG_TEXT = (
    "import sys; from drsynth.config import config_text, load_config; "
    "from drsynth.generator import GenerationConfig; "
    "sys.stdout.write(config_text(load_config(sys.argv[1]) if sys.argv[1:] else GenerationConfig()))"
)


def write_inputs(work: str) -> dict:
    """The benchmark's seeded subjects on ``GRIDS``, plus rolled label maps to evaluate."""
    in_dir = os.path.join(work, "in")
    eval_dir = os.path.join(work, "eval")
    os.makedirs(eval_dir)
    subjects = write_subjects(in_dir, 3, GRIDS)
    rows = []
    for i, subject in enumerate(subjects):
        label_map = read_nifti(subject.labels_path, LabelScheme.FETA7)
        pred = os.path.join(eval_dir, f"{subject.sid}_pred.nii.gz")
        write_nifti(label_map.with_data(np.roll(label_map.data, 1 + i, axis=i)), pred)
        rows.append(f"{subject.sid}\t{pred}\t{subject.labels_path}\n")
    manifest = os.path.join(eval_dir, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(rows)
    return {"in": in_dir, "subjects": subjects, "manifest": manifest}


def commands(inputs: dict, out: str):
    """(output directory, interpreter arguments) pairs; a ``-c`` entry's stdout is its output."""
    in_dir = inputs["in"]
    a, b = inputs["subjects"]
    cli = ["-m", "drsynth.cli"]
    for mode in ("fetalsynthseg", "synthseg", "randfabian"):
        for profile in ("synthseg", "simple"):
            for workers in ("1", "2"):
                d = os.path.join(out, f"generate-{mode}-{profile}-w{workers}")
                yield d, [*cli, "generate", "--in", in_dir, "--out", d, "--count", "4", "--seed", "3",
                          "--mode", mode, "--profile", profile, "--workers", workers]
    d = os.path.join(out, "generate-nondefault")
    yield d, [*cli, "generate", "--config", NONDEFAULT_INI, "--profile", "synthseg", "--in", in_dir,
              "--out", d, "--count", "4"]
    d = os.path.join(out, "generate-fabian")
    yield d, [*cli, "generate", "--config", FABIAN_INI, "--mode", "fabian", "--in", in_dir, "--out", d,
              "--count", "4"]
    for mode in ("fetalsynthseg", "synthseg"):
        d = os.path.join(out, f"cluster-inspect-{mode}")
        yield d, [*cli, "cluster-inspect", "--image", a.image_path, "--labels", a.labels_path, "--mode", mode,
                  "--out-prefix", os.path.join(d, a.sid)]
    d = os.path.join(out, "epg")
    yield d, [*cli, "epg", "--labels", b.labels_path, "--out", os.path.join(d, f"{b.sid}_epg.nii.gz")]
    d = os.path.join(out, "evaluate")
    yield d, [*cli, "evaluate", "--manifest", inputs["manifest"], "--out", os.path.join(d, "report.tsv")]
    yield os.path.join(out, "config-default"), ["-c", CONFIG_TEXT]
    yield os.path.join(out, "config-nondefault"), ["-c", CONFIG_TEXT, NONDEFAULT_INI]


def run_tree(src: str, inputs: dict, out: str, cwd: str) -> bool:
    """Run the matrix with the package under ``src``; False if a command failed."""
    env = dict(os.environ, PYTHONPATH=src)
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    ok = True
    for out_dir, args in commands(inputs, out):
        os.makedirs(out_dir, exist_ok=True)
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            shown = args[2:] if args[0] == "-m" else ["config_text", *args[2:]]
            print(f"{src}: {' '.join(shown)} exited {proc.returncode}: {proc.stderr.strip()}")
            ok = False
        elif args[0] == "-c":
            with open(os.path.join(out_dir, "config.ini"), "w", encoding="utf-8") as fh:
                fh.write(proc.stdout)
    return ok


def digests(root: str) -> dict[str, tuple[str, str]]:
    """Relative path -> (SHA-256 of the content, SHA-256 of the file's bytes)."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            content = gzip.decompress(blob) if name.endswith(".gz") else blob
            out[os.path.relpath(path, root)] = (hashlib.sha256(content).hexdigest(), hashlib.sha256(blob).hexdigest())
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare this checkout against")
    args = ap.parse_args()

    work = tempfile.mkdtemp(prefix="compare_trees-")
    try:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", args.base], capture_output=True)
        if archive.returncode != 0:
            print(f"git archive {args.base}: {archive.stderr.decode().strip()}")
            return 1
        base = os.path.join(work, "base")
        os.makedirs(base)
        subprocess.run(["tar", "-x", "-C", base], input=archive.stdout, check=True)
        inputs = write_inputs(work)
        ok = run_tree(os.path.join(base, "src"), inputs, os.path.join(work, "out-base"), work)
        ok &= run_tree(os.path.join(ROOT, "src"), inputs, os.path.join(work, "out-tree"), work)
        old, new = digests(os.path.join(work, "out-base")), digests(os.path.join(work, "out-tree"))
        bad = container = 0
        for rel in sorted(old.keys() | new.keys()):
            if rel not in new or rel not in old:
                print(f"only in {'base' if rel in old else 'this tree'}: {rel}")
            elif old[rel][0] != new[rel][0]:
                print(f"differs: {rel}")
            else:
                container += old[rel][1] != new[rel][1]
                continue
            bad += 1
        print(f"{len(old.keys() | new.keys())} files compared against {args.base}: {bad} differ")
        print(f"{container} .gz files differ only in their gzip container (decompressed bytes equal)")
        return 0 if ok and bad == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
