"""Command-line entry points.

Subcommands: ``generate`` (randomized dataset synthesis), ``bench``
(generation throughput report), ``interpolate`` (checkpoint blending),
``evaluate`` (segmentation scoring from a pairing manifest), ``epg``
(standalone spin-echo rendering), and ``cluster-inspect`` (subclass
partition inspection).

Generation is deterministic in (inputs, config, master seed): every
random draw comes from a counter-based stream keyed by (seed, sample
index, stage), so the worker count never changes outputs.  All files are
written to a temporary name and renamed into place, and each sample gets
a JSON provenance sidecar from which it can be re-rendered bit-exactly.

Failures exit nonzero after printing one machine-parsable line to
stderr: ``error: <ErrorType>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import sys
import time
import zlib
from dataclasses import replace

import numpy as np

from .augment import AugmentProfile
from .checkpoints import (
    DEFAULT_SWEEP,
    check_alpha,
    interpolate,
    read_checkpoint,
    require_same_layout,
    write_checkpoint,
)
from .config import apply_sections, config_sections, read_sections
from .epg import draw_sequence, render_epg_volume, sample_relaxometry
from .errors import ConfigError, DrsynthError, EmptySample, InputChanged, IoError, prefixed
from .fileio import atomic_write, read_file, read_text
from .generator import (
    PHYSICS_MODES,
    GenerationConfig,
    GeneratorMode,
    generate_sample,
    partition_subclasses,
)
from .labels import toy_label_map
from .metrics import batch_evaluate, report_rows
from .nifti import read_nifti, write_nifti
from .rng import make_stream
from .volume import LabelScheme

SIDECAR_FORMAT = "drsynth-sample/1"


# ---------------------------------------------------------------------------
# shared plumbing


def _file_sha(raw: bytes) -> str:
    """SHA-256 of an input file's bytes, as ``_read_subject`` read them."""
    return hashlib.sha256(raw).hexdigest()


def _require_positive(**counts) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _read_subject(image_path: str, labels_path: str, on_hash=None) -> list:
    """A subject's [FETA7 labels, intensity], labels read first.

    A list, so that a caller can hand both volumes over by popping them.
    Each file is read once.  With ``on_hash``, ``on_hash(kind, sha256)``
    sees the hash of a file's bytes before they are decoded, so a hash it
    records or checks is that of the bytes rendered, even if the file is
    replaced meanwhile.
    """
    volumes = []
    for kind, path, scheme in (("labels", labels_path, LabelScheme.FETA7), ("image", image_path, None)):
        raw = [read_file(path)]
        if on_hash is not None:
            on_hash(kind, _file_sha(raw[0]))
        # handed over, not kept here, so read_nifti frees it once inflated
        volumes.append(read_nifti(path, scheme=scheme, raw=raw.pop()))
    return volumes


def _load_generation_config(args, cfg: GenerationConfig = GenerationConfig()) -> GenerationConfig:
    """The --config file over ``cfg``, then the --seed, --mode and --profile flags."""
    if args.config:
        cfg = apply_sections(cfg, read_sections(args.config))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "mode", None):
        cfg = replace(cfg, mode=GeneratorMode(args.mode))
    if getattr(args, "profile", None):
        cfg = replace(cfg, profile=AugmentProfile(args.profile))
    return cfg


def discover_subjects(in_dir: str, skip_unreadable: bool = False):
    """Pair ``<subject>_image.nii[.gz]`` with ``<subject>_labels.nii[.gz]``.

    Returns sorted (subject_id, image_path, labels_path) triples.  A
    subject missing one file, or with two files for one role (``.nii`` and
    ``.nii.gz``), is an IoError.  With ``skip_unreadable`` such subjects
    are skipped instead, and every pair is test-read and broken ones are
    dropped, each with a warning; otherwise the first broken pair aborts.
    """
    if not os.path.isdir(in_dir):
        raise IoError(f"input directory {in_dir!r} does not exist")
    stems: dict[str, dict[str, list[str]]] = {}
    for name in sorted(os.listdir(in_dir)):
        if m := re.fullmatch(r"(?s)(.*)_(image|labels)\.nii(?:\.gz)?", name):
            stems.setdefault(m[1], {}).setdefault(m[2], []).append(os.path.join(in_dir, name))
    triples = []
    for sid in sorted(stems):
        files = stems[sid]
        problems = [
            f"two _{kind} files: {' and '.join(files[kind])}" if kind in files else f"missing _{kind} file"
            for kind in ("image", "labels")
            if len(files.get(kind, ())) != 1
        ]
        if problems:
            msg = f"subject {sid!r}: {'; '.join(problems)}"
            if skip_unreadable:
                print(f"warning: {msg}, skipping", file=sys.stderr)
                continue
            raise IoError(msg)
        (image,), (labels,) = files["image"], files["labels"]
        if skip_unreadable:
            try:
                _read_subject(image, labels)
            except DrsynthError as exc:
                print(f"warning: subject {sid!r} unreadable ({exc}), skipping", file=sys.stderr)
                continue
        triples.append((sid, image, labels))
    return triples


def _sample_basename(sid: str, index: int, seed: int) -> str:
    return f"{sid}_s{index:05d}_seed{seed}"


def _render_task(task):
    """One generation unit, safe to run in a worker process.

    A package error is re-raised as the same type with the subject and
    sample index prefixed to its message.
    """
    sid, image_path, labels_path, cfg, index, out_dir = task
    with prefixed(f"subject '{sid}' sample {index}: "):
        sha: dict[str, str] = {}
        subject = _read_subject(image_path, labels_path, sha.__setitem__)
        # handed over, not kept here, so the sample frees each source volume once warped
        pair = generate_sample(subject.pop(0), subject.pop(0), cfg, index)

        base = _sample_basename(sid, index, cfg.master_seed)
        out_image = os.path.join(out_dir, f"{base}_image.nii.gz")
        out_labels = os.path.join(out_dir, f"{base}_labels.nii.gz")
        out_sidecar = os.path.join(out_dir, f"{base}.json")
        write_nifti(pair.image, out_image)
        write_nifti(pair.labels, out_labels)

        sidecar = {
            "format": SIDECAR_FORMAT,
            "subject": sid,
            "sample_index": index,
            "master_seed": cfg.master_seed,
            "inputs": {
                "image": os.path.abspath(image_path),
                "labels": os.path.abspath(labels_path),
                "image_sha256": sha["image"],
                "labels_sha256": sha["labels"],
            },
            "config": config_sections(cfg),
            "outputs": {
                "image": os.path.basename(out_image),
                "labels": os.path.basename(out_labels),
            },
            "drawn": pair.drawn,
        }
        atomic_write(out_sidecar, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return base


def _read_sidecar(path: str):
    """A replayable sidecar's (config sections, inputs, sample index).

    Its shape is checked once: anything replay cannot use raises
    ConfigError naming the file and the key.
    """
    try:
        sidecar = json.loads(read_file(path))  # undecodable bytes are a ValueError too
    except ValueError as exc:
        raise ConfigError(f"{path}: not a JSON sidecar ({exc})") from None
    found = sidecar.get("format") if isinstance(sidecar, dict) else None
    if found != SIDECAR_FORMAT:
        raise ConfigError(f"{path}: sidecar format {found!r}, expected {SIDECAR_FORMAT!r}")
    for key in ("config", "inputs", "sample_index"):
        if key not in sidecar:
            raise ConfigError(f"{path}: sidecar has no {key!r}")
    config, inputs, index = sidecar["config"], sidecar["inputs"], sidecar["sample_index"]
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: sidecar 'config' is not a table of sections, got {config!r}")
    for section, kv in config.items():
        if not isinstance(kv, dict):
            raise ConfigError(f"{path}: sidecar 'config.{section}' is not a table of keys, got {kv!r}")
        for key, value in kv.items():
            if not isinstance(value, str):
                raise ConfigError(f"{path}: sidecar 'config.{section}.{key}' is not a string, got {value!r}")
    if not isinstance(inputs, dict):
        raise ConfigError(f"{path}: sidecar 'inputs' is not a table, got {inputs!r}")
    for key in ("image", "labels", "image_sha256", "labels_sha256"):
        if not isinstance(inputs.get(key), str):
            raise ConfigError(f"{path}: sidecar has no string 'inputs.{key}'")
    if type(index) is not int or index < 0:
        raise ConfigError(f"{path}: sidecar 'sample_index' is not an integer >= 0, got {index!r}")
    return config, inputs, index


def render_from_sidecar(sidecar_path: str):
    """Re-render the exact sample a provenance sidecar describes.

    Reads the recorded config and inputs, replays generation at the
    recorded (seed, sample index), and returns the SamplePair.  Output
    volumes are bit-identical to the originally written files.  An input
    whose SHA-256 differs from the recorded one raises InputChanged before
    it is parsed; a file that is not JSON, has another format or a key
    replay cannot use raises ConfigError naming the file.
    """
    config, inputs, index = _read_sidecar(sidecar_path)
    cfg = apply_sections(GenerationConfig(), config)

    def check(kind: str, sha: str) -> None:
        if sha != inputs[f"{kind}_sha256"]:
            raise InputChanged(f"{inputs[kind]}: SHA-256 differs from the one recorded in {sidecar_path}")

    subject = _read_subject(inputs["image"], inputs["labels"], check)
    return generate_sample(subject.pop(0), subject.pop(0), cfg, index)  # handed over, as in _render_task


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    _require_positive(count=args.count, workers=args.workers)
    cfg = _load_generation_config(args)
    subjects = discover_subjects(args.in_dir, skip_unreadable=args.skip_unreadable)
    if not subjects:
        raise EmptySample(f"no usable (image, labels) subject pairs in {args.in_dir!r}")
    os.makedirs(args.out, exist_ok=True)

    tasks = [
        (*subjects[i % len(subjects)], cfg, i, args.out)
        for i in range(args.count)
    ]
    workers = min(args.workers, len(tasks))  # a worker beyond the task count would idle
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            names = list(pool.map(_render_task, tasks))
    else:
        names = [_render_task(t) for t in tasks]
    print(f"wrote {len(names)} samples to {args.out} (seed {cfg.master_seed}, mode {cfg.mode.value})")
    return 0


# ---------------------------------------------------------------------------
# bench


def _summaries(per_run: list[dict], wall: list[float]) -> dict:
    """Median and maximum per stage and of the wall time over ``runs`` runs."""
    stages = {}
    for name in dict.fromkeys(n for run in per_run for n in run):
        vals = [run.get(name, 0.0) for run in per_run]
        stages[name] = {"median_s": float(np.median(vals)), "max_s": float(max(vals))}
    median_wall = float(np.median(wall))
    stage_sum = sum(s["median_s"] for s in stages.values())
    return {
        "runs": len(per_run),
        "stages": stages,
        "wall_median_s": median_wall,
        "wall_max_s": float(max(wall)),
        "stage_sum_over_wall": stage_sum / median_wall if median_wall > 0 else float("nan"),
        "volumes_per_sec": 1.0 / median_wall if median_wall > 0 else float("inf"),
    }


def _time_pipeline(labels, intensity, cfg, runs: int) -> dict:
    per_run, wall = [], []
    for i in range(runs):
        timings: dict = {}
        t0 = time.perf_counter()
        generate_sample(labels, intensity, cfg, i, timings=timings)
        wall.append(time.perf_counter() - t0)
        per_run.append(timings)
    return _summaries(per_run, wall)


def _machine_info() -> dict:
    """What a timing depends on besides the code: CPUs, versions, thread caps."""
    import scipy  # only this report needs it; keeps CLI import light

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,  # sets write_nifti's time and .gz bytes
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def bench_report(labels, intensity, cfg: GenerationConfig, samples: int, epg_samples: int) -> dict:
    """Time the Gaussian-rendering and physics-rendering pipelines.

    ``peak_rss_mib`` is the process's peak resident set so far
    (``ru_maxrss``), which includes the inputs and both pipelines.
    """
    import resource  # only this report needs it; Unix-only

    gmm_cfg = replace(cfg, mode=GeneratorMode.FETALSYNTHSEG)
    epg_cfg = replace(cfg, mode=GeneratorMode.RANDFABIAN)
    gmm = _time_pipeline(labels, intensity, gmm_cfg, samples)
    epg = _time_pipeline(labels, intensity, epg_cfg, epg_samples)
    return {
        "grid": list(labels.dims),
        "spacing_mm": [float(s) for s in labels.spacing],
        "gmm": gmm,
        "epg": epg,
        "epg_over_gmm_wall_ratio": epg["wall_median_s"] / gmm["wall_median_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        "machine": _machine_info(),
    }


def cmd_bench(args) -> int:
    _require_positive(samples=args.samples, epg_samples=args.epg_samples)
    cfg = _load_generation_config(args)
    subjects = discover_subjects(args.in_dir)
    if not subjects:
        raise EmptySample(f"no usable subject pairs in {args.in_dir!r}")
    sid, image_path, labels_path = subjects[0]
    report = bench_report(*_read_subject(image_path, labels_path), cfg, args.samples, args.epg_samples)
    report["subject"] = sid
    m = report["machine"]
    threads = " ".join(f"{k}={v}" for k, v in m["threads"].items())
    print(f"machine: {m['cpu_count']} CPUs, Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, zlib {m['zlib']}, {threads}")
    for pipeline in ("gmm", "epg"):
        block = report[pipeline]
        print(f"{pipeline}: median {block['wall_median_s']:.3f} s/volume "
              f"({block['volumes_per_sec']:.2f} volumes/s, {block['runs']} runs)")
        for stage, s in block["stages"].items():
            print(f"  {stage:<12} median {s['median_s']:.3f} s  max {s['max_s']:.3f} s")
    print(f"epg/gmm wall ratio: {report['epg_over_gmm_wall_ratio']:.1f}x")
    print(f"peak RSS: {report['peak_rss_mib']:.1f} MiB")
    if args.out:
        atomic_write(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# interpolate / evaluate / epg / cluster-inspect


def _parse_alphas(args) -> dict[str, float]:
    """The blend coefficients by sweep file name, checked before anything is read or written."""
    if args.alphas is None:
        alphas = list(DEFAULT_SWEEP)
    else:
        try:
            alphas = [float(t) for t in args.alphas.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"--alphas: expected numbers, got {args.alphas!r}") from None
        if not alphas:
            raise ConfigError(f"--alphas: no values in {args.alphas!r}")
    sweep = {f"alpha_{check_alpha(alpha):g}.ckpt": alpha for alpha in alphas}
    if len(sweep) < len(alphas):
        raise ConfigError(f"--alphas: two of {args.alphas!r} name one file (alpha_<6 significant digits>.ckpt)")
    return sweep


def cmd_interpolate(args) -> int:
    sweep = _parse_alphas(args)
    a = read_checkpoint(args.a)
    b = read_checkpoint(args.b)
    require_same_layout(a, b)
    if len(sweep) == 1 and not os.path.isdir(args.out) and args.out.endswith(".ckpt"):
        (alpha,) = sweep.values()
        write_checkpoint(interpolate(a, b, alpha), args.out)
        print(f"wrote {args.out} (alpha {alpha:g})")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for name, alpha in sweep.items():
        path = os.path.join(args.out, name)
        write_checkpoint(interpolate(a, b, alpha), path)
        print(f"wrote {path}")
    return 0


def read_manifest(path: str):
    """Tab- or comma-separated rows: subject, prediction path, truth path.

    Relative paths resolve against the manifest's directory; blank lines
    and '#' comments are skipped.
    """
    root = os.path.dirname(os.path.abspath(path))
    triples = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split(",")
        parts = [p.strip() for p in parts]
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 'subject<TAB>pred<TAB>gt', got {line!r}")
        sid, pred, gt = parts
        pred = pred if os.path.isabs(pred) else os.path.join(root, pred)
        gt = gt if os.path.isabs(gt) else os.path.join(root, gt)
        triples.append((sid, pred, gt))
    return triples


def cmd_evaluate(args) -> int:
    triples = read_manifest(args.manifest)
    if not triples:
        raise EmptySample(f"manifest {args.manifest!r} lists no pairs")
    pairs = []
    for sid, pred, gt in triples:
        with prefixed(f"subject '{sid}': "):  # batch_evaluate names it in a scoring error
            pairs.append((sid, read_nifti(pred, LabelScheme.FETA7), read_nifti(gt, LabelScheme.FETA7)))
    batch = batch_evaluate(pairs)
    text = "\n".join("\t".join(row) for row in report_rows(batch)) + "\n"
    if args.out:
        atomic_write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_epg(args) -> int:
    # epg starts from a physics mode, so only a Gaussian mode set in the file fails
    cfg = _load_generation_config(args, GenerationConfig(mode=GeneratorMode.RANDFABIAN))
    if cfg.mode not in PHYSICS_MODES:
        valid = ", ".join(m.value for m in PHYSICS_MODES)
        raise ConfigError(f"synthgen.mode: epg needs one of {valid}, got {cfg.mode.value!r}")
    if args.labels:
        labels = read_nifti(args.labels, scheme=LabelScheme.FETA7)
    else:
        labels = toy_label_map()
    ids = [int(i) for i in np.unique(labels.data) if i != 0]
    seq = draw_sequence(cfg.sequence, make_stream(cfg.master_seed, 0, "sequence"))
    relax = sample_relaxometry(
        cfg.relaxometry, ids, make_stream(cfg.master_seed, 0, "relaxometry"),
        reference=cfg.mode is GeneratorMode.FABIAN,
    )
    image = render_epg_volume(labels, relax, seq, voxelwise=cfg.epg_voxelwise)
    write_nifti(image, args.out)
    print(
        f"wrote {args.out} (refocus {seq.refocus_schedule()[0]:.1f} deg, "
        f"TE_eff {seq.te_eff_ms:.1f} ms, echo {seq.echo_index})"
    )
    return 0


def cmd_cluster_inspect(args) -> int:
    cfg = _load_generation_config(args)
    part = partition_subclasses(
        *_read_subject(args.image, args.labels), cfg, make_stream(cfg.master_seed, 0, "subclass")
    )

    out_map = f"{args.out_prefix}_subclasses.nii.gz"
    write_nifti(part.subclass_map, out_map)
    summary = {
        "mode": cfg.mode.value,
        "master_seed": cfg.master_seed,
        "n_subclasses": part.n_subclasses,
        "k_by_class": {str(k): v for k, v in sorted(part.k_by_class.items())},
        "fits": {
            str(cls): {
                name: np.asarray(getattr(fit, name)).tolist()
                for name in ("k", "means", "variances", "weights", "log_likelihood", "n_iter", "converged")
            }
            for cls, fit in sorted(part.fits.items())
        },
    }
    out_json = f"{args.out_prefix}_fit.json"
    atomic_write(out_json, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out_map} and {out_json} ({part.n_subclasses} subclasses)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsynth",
        description="Domain-randomized synthesis of MR-like volumes from tissue label maps.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    modes = [m.value for m in GeneratorMode]
    profiles = [p.value for p in AugmentProfile]

    def add_common(p):
        p.add_argument("--config", help="INI config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")

    g = sub.add_parser("generate", help="render randomized samples from (image, labels) subjects")
    add_common(g)
    g.add_argument("--in", dest="in_dir", required=True, help="directory of *_image/*_labels NIfTI pairs")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--count", type=int, default=1, help="number of samples (round-robin over subjects)")
    g.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    g.add_argument("--mode", choices=modes, help="contrast/partition mode (overrides config)")
    g.add_argument("--profile", choices=profiles, help="augmentation profile (overrides config)")
    g.add_argument(
        "--skip-unreadable",
        action="store_true",
        help="skip unreadable subject pairs instead of aborting",
    )
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bench", help="time the generation pipelines on one subject")
    add_common(b)
    b.add_argument("--in", dest="in_dir", required=True, help="directory with at least one subject pair")
    b.add_argument("--samples", type=int, default=10, help="Gaussian-pipeline runs to time")
    b.add_argument("--epg-samples", type=int, default=2, help="physics-pipeline runs to time")
    b.add_argument("--out", help="also write the report as JSON")
    b.set_defaults(func=cmd_bench)

    i = sub.add_parser("interpolate", help="blend two checkpoints")
    i.add_argument("a", help="first checkpoint (alpha 0)")
    i.add_argument("b", help="second checkpoint (alpha 1)")
    i.add_argument("--alphas", help="comma-separated blend coefficients (default sweep 0,0.2,0.5,0.8,1)")
    i.add_argument("--out", required=True, help=".ckpt path for one alpha, directory for a sweep")
    i.set_defaults(func=cmd_interpolate)

    e = sub.add_parser("evaluate", help="score predictions against ground truth")
    e.add_argument("--manifest", required=True, help="rows: subject<TAB>pred<TAB>gt")
    e.add_argument("--out", help="report path (stdout when omitted)")
    e.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("epg", help="render a spin-echo volume from a label map")
    add_common(p)
    p.add_argument("--labels", help="label map NIfTI (built-in toy map when omitted)")
    p.add_argument("--mode", choices=[m.value for m in PHYSICS_MODES], help="relaxometry source")
    p.add_argument("--out", required=True, help="output NIfTI path")
    p.set_defaults(func=cmd_epg)

    c = sub.add_parser("cluster-inspect", help="partition one subject into intensity subclasses")
    add_common(c)
    c.add_argument("--image", required=True, help="intensity NIfTI")
    c.add_argument("--labels", required=True, help="tissue label NIfTI")
    c.add_argument("--mode", choices=modes, help="partition mode (overrides config)")
    c.add_argument("--out-prefix", required=True, help="prefix for _subclasses.nii.gz and _fit.json")
    c.set_defaults(func=cmd_cluster_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DrsynthError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
