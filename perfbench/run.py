#!/usr/bin/env python3
"""Benchmark of ``drsynth generate``, end to end and layer by layer.

Usage, from the root of a source checkout (the package need not be
installed)::

    python3 perfbench/run.py --workload gmm-128-repeat --seed 1 --seconds 20 --trace 0

The benchmark writes seeded synthetic subjects, then runs rounds of one
``python3 -m drsynth.cli generate`` command each (a closed loop: the next
round starts when the previous command exits) until ``--seconds`` have
passed.  Every round of a run is the same command on the same subjects.  It then
checks every written sample with its own code (``checks.py``) and prints
one JSON line: ``correct``, ``attempted`` and ``failed`` samples, and the
metrics.  ``--trace 0`` reports the end-to-end metrics as medians over
rounds; ``--trace 1`` alternates untraced rounds with rounds run through
``tracehook.py`` and reports the per-layer metrics.  Scratch files live
under ``.perfbench/`` and are removed at exit, apart from the per-run
detail in ``.perfbench/results/``.  See README.md for the metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checks  # noqa: E402
from subjects import subject_files  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GENERATE_TIMEOUT_S = 150  # whole seconds, for signal.alarm
SETUP_IMPORTS = 5  # fixed, whatever the number of rounds; each costs about 0.6 s


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    profile: str
    grids: tuple  # ((dims, spacing), ...), one subject each
    count: int  # samples per generate command, round-robin over subjects
    workers: int
    # The program's draws (k per class, echo time, translation) change the
    # work in a sample several-fold, so the master seed is fixed per
    # workload and the benchmark seed varies the subjects instead.
    master_seed: int


_ISO1 = (1.0, 1.0, 1.0)
# Distinct grids with anisotropic spacing; every subject is used once.
_SIMPLE_GRIDS = (
    ((96, 96, 56), (0.8, 0.8, 2.0)),
    ((100, 80, 60), (0.9, 1.0, 1.8)),
    ((80, 100, 48), (1.0, 0.8, 2.4)),
    ((112, 88, 44), (0.7, 0.9, 2.5)),
    ((72, 72, 72), (1.2, 1.2, 1.2)),
    ((88, 112, 40), (0.9, 0.7, 3.0)),
    ((84, 84, 84), (1.0, 1.0, 1.0)),
    ((56, 96, 96), (2.0, 0.8, 0.8)),
    ((96, 56, 96), (0.8, 2.2, 0.8)),
    ((100, 100, 52), (0.8, 0.8, 2.0)),
    ((76, 96, 64), (1.1, 0.85, 1.5)),
    ((96, 76, 56), (0.85, 1.1, 1.9)),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("gmm-128-repeat", "fetalsynthseg", "synthseg", (((128,) * 3, _ISO1),) * 2,
                 count=3, workers=1, master_seed=11),
        # One worker: on a 2-CPU machine two pool workers and their parent
        # spread the time metrics past their bounds (see README.md).
        Workload("simple-distinct", "synthseg", "simple", _SIMPLE_GRIDS * 2,
                 count=2 * len(_SIMPLE_GRIDS), workers=1, master_seed=12),
        Workload("physics-96", "randfabian", "synthseg", (((96,) * 3, _ISO1),),
                 count=1, workers=1, master_seed=19),
    )
}


@dataclass
class Round:
    out_dir: str
    traced: bool
    returncode: int = 0
    wall_s: float = 0.0
    first_sample_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    output_bytes: int = 0
    trace_dir: str = ""
    stderr: str = ""
    spans: list = field(default_factory=list)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_round(wl: Workload, in_dir: str, out_dir: str, env: dict, trace_dir: str | None) -> Round:
    """One ``generate`` command: wall, first sample, CPU and peak RSS of its tree."""
    args = [
        "generate", "--in", in_dir, "--out", out_dir, "--count", str(wl.count),
        "--workers", str(wl.workers), "--seed", str(wl.master_seed),
        "--mode", wl.mode, "--profile", wl.profile,
    ]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "drsynth.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracehook.py"), trace_dir, *args]
    r = Round(out_dir, traced=trace_dir is not None, trace_dir=trace_dir or "")
    err_path = out_dir + ".stderr"
    with open(err_path, "w+", encoding="utf-8") as err:
        launch_ns = time.time_ns()
        t0 = time.perf_counter()
        # own session, so that a timeout or an interrupt can stop the
        # command together with its pool workers
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(GENERATE_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            # a timeout or an interrupt: stop the command and its workers
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        r.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        r.stderr = err.read()
    r.returncode = proc.returncode
    # The sidecar is written after its image and labels and moved into
    # place whole, so the earliest sidecar's mtime is the first complete
    # sample on disk.
    sidecars = [e.stat().st_mtime_ns for e in _files(out_dir) if e.name.endswith(".json")]
    r.first_sample_s = (min(sidecars) - launch_ns) / 1e9 if sidecars else r.wall_s
    # wait4 reports the command plus every worker it reaped
    r.cpu_s = usage.ru_utime + usage.ru_stime
    r.maxrss_kib = usage.ru_maxrss
    r.output_bytes = sum(e.stat().st_size for e in _files(out_dir))
    return r


def _files(path: str) -> list:
    return [e for e in os.scandir(path) if e.is_file()] if os.path.isdir(path) else []


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter importing ``drsynth.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import drsynth.cli"], env=env, check=True)
    return time.perf_counter() - t0


def end_to_end(wl: Workload, rounds: list[Round], setup_s: float) -> dict:
    med = lambda xs: statistics.median(xs)  # noqa: E731
    return {
        "samples_per_s": (med([wl.count / r.wall_s for r in rounds]), "samples/s"),
        "first_sample_s": (med([r.first_sample_s for r in rounds]), "s"),
        "cpu_s_per_sample": (med([r.cpu_s / wl.count for r in rounds]), "s"),
        "peak_rss_mib": (med([r.maxrss_kib / 1024.0 for r in rounds]), "MiB"),
        "output_mib_per_sample": (med([r.output_bytes / wl.count / 2**20 for r in rounds]), "MiB"),
        "setup_s": (setup_s, "s"),
    }


# Per-layer metrics in report order: name -> (unit, better).  Times and
# counts are per sample unless the name says otherwise; a layer the
# workload never calls reads 0.
PER_LAYER = {
    **{f"generator.stage.{st}_s": ("s", "lower")
       for st in ("deform", "cluster", "render", "corrupt", "resolution", "normalize")},
    "augment.integrate_velocity_s": ("s", "lower"),
    "augment.integrate_velocity.voxel_steps": ("count", "lower"),
    "augment.upsample_control_grid_s": ("s", "lower"),
    "augment.transform_coordinates_s": ("s", "lower"),
    "augment.simulate_resolution_s": ("s", "lower"),
    "volume.sample_at_voxels_s": ("s", "lower"),
    "volume.sample_at_voxels.voxels": ("count", "lower"),
    "labels.em_cluster_s": ("s", "lower"),
    "labels.em_cluster.calls": ("count", "lower"),
    "labels.em_cluster.iterations": ("count", "lower"),
    "labels.em_cluster.voxel_components": ("count", "lower"),
    "labels.em_cluster.converged_per_fit": ("ratio", "higher"),
    "labels.build_meta_classes_s": ("s", "lower"),
    "nifti.read_s": ("s", "lower"),
    "nifti.read.bytes": ("bytes", "lower"),
    "nifti.write_s": ("s", "lower"),
    "nifti.write.bytes": ("bytes", "lower"),
    "cli.file_sha_s": ("s", "lower"),
    "cli.render_task_s": ("s", "lower"),
    "cli.render_task_busy_share": ("ratio", "higher"),
    "epg.epg_fse_echoes_batch_s": ("s", "lower"),
    "epg.voxel_echoes": ("count", "lower"),
    "epg.render_epg_volume_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# span name -> metric of its total time; (span name, count key) -> metric
SPAN_TIMES = {
    "augment.integrate_velocity": "augment.integrate_velocity_s",
    "augment.upsample_control_grid": "augment.upsample_control_grid_s",
    "augment.transform_coordinates": "augment.transform_coordinates_s",
    "augment.simulate_resolution": "augment.simulate_resolution_s",
    "volume.sample_at_voxels": "volume.sample_at_voxels_s",
    "labels.em_cluster": "labels.em_cluster_s",
    "labels.build_meta_classes": "labels.build_meta_classes_s",
    "nifti.read": "nifti.read_s",
    "nifti.write": "nifti.write_s",
    "cli.file_sha": "cli.file_sha_s",
    "epg.epg_fse_echoes_batch": "epg.epg_fse_echoes_batch_s",
    "epg.render_epg_volume": "epg.render_epg_volume_s",
}
SPAN_COUNTS = {
    ("augment.integrate_velocity", "voxel_steps"): "augment.integrate_velocity.voxel_steps",
    ("volume.sample_at_voxels", "voxels"): "volume.sample_at_voxels.voxels",
    ("labels.em_cluster", "iterations"): "labels.em_cluster.iterations",
    ("labels.em_cluster", "voxel_components"): "labels.em_cluster.voxel_components",
    ("nifti.read", "bytes"): "nifti.read.bytes",
    ("nifti.write", "bytes"): "nifti.write.bytes",
    ("epg.epg_fse_echoes_batch", "voxel_echoes"): "epg.voxel_echoes",
}


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def per_layer(wl: Workload, r: Round) -> dict[str, float]:
    """Per-layer metrics of one traced round, all but ``trace.overhead_s``."""
    n = wl.count
    by_name: dict[str, list[dict]] = {}
    for s in r.spans:
        by_name.setdefault(s["name"], []).append(s)
    dur = lambda s: s["t1"] - s["t0"]  # noqa: E731
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    out = {}
    for span, metric in SPAN_TIMES.items():
        out[metric] = sum(dur(s) for s in by_name.get(span, [])) / n
    for (span, key), metric in SPAN_COUNTS.items():
        out[metric] = sum(s["counts"][key] for s in by_name.get(span, [])) / n
    fits = by_name.get("labels.em_cluster", [])
    out["labels.em_cluster.calls"] = len(fits) / n
    out["labels.em_cluster.converged_per_fit"] = (
        sum(s["counts"]["converged"] for s in fits) / len(fits) if fits else 0.0
    )
    samples = by_name.get("generator.generate_sample", [])
    for metric in PER_LAYER:
        if metric.startswith("generator.stage."):
            key = "stage." + metric[len("generator.stage."):-2]
            out[metric] = med([s["counts"].get(key, 0.0) for s in samples])
    tasks = [dur(s) for s in by_name.get("cli.render_task", [])]
    out["cli.render_task_s"] = med(tasks)
    out["cli.render_task_busy_share"] = sum(tasks) / (wl.workers * r.wall_s)
    return out


def check_rounds(wl: Workload, rounds: list[Round], sources: list, work: str, seed: int):
    """Independent checks of every sample; returns (failed, check_failures).

    A round whose command exited non-zero counts all its samples failed and
    is itself a check failure; the samples it did write are checked too.
    """
    failed, bad_checks, reference = 0, 0, None
    for r in rounds:
        crashed = r.returncode != 0
        if crashed:
            print(f"perfbench: generate exited {r.returncode}: {r.stderr.strip()}", file=sys.stderr)
        bad_samples = 0
        for i in range(wl.count):
            src = sources[i % len(sources)]
            paths = checks.sample_paths(r.out_dir, src.sid, i, wl.master_seed)
            if crashed and not os.path.exists(paths[2]):
                continue  # never written; counted below
            if reference is None:
                bad = checks.check_sample(paths, src, index=i, seed=wl.master_seed,
                                          mode=wl.mode, profile=wl.profile)
            else:
                # every round runs the same command: its files must equal
                # the first round's, which had every check
                ref = checks.sample_paths(reference, src.sid, i, wl.master_seed)
                bad = [f"{os.path.basename(p)} differs between rounds"
                       for p, q in zip(paths, ref) if not _same_bytes(p, q)]
            if i == seed % wl.count and reference is None:
                bad += checks.check_replay(paths, os.path.join(work, "replay"))
            if bad:
                print(f"perfbench: {os.path.basename(paths[2])}: {'; '.join(bad)}", file=sys.stderr)
                bad_samples += 1
        failed += wl.count if crashed else bad_samples
        bad_checks += bad_samples + crashed
        if reference is None and not crashed:
            reference = r.out_dir
    return failed, bad_checks


def _same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    # let a termination request run the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "drsynth", "cli.py")):
        print("perfbench: src/drsynth/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in THREAD_VARS})
    sys.path.insert(0, src)  # for the replay check
    work = os.path.join(root, ".perfbench", "work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    results = os.path.join(root, ".perfbench", "results")
    try:
        in_dir = os.path.join(work, "subjects")
        # A child's ru_maxrss starts at its parent's peak, so the subjects
        # are made in a process of their own and this one stays small until
        # the rounds are done.
        subprocess.run([sys.executable, os.path.join(HERE, "subjects.py"), in_dir, str(args.seed),
                        json.dumps(wl.grids)], check=True)
        made = subject_files(in_dir, len(wl.grids))
        own_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        time_import(env)  # compiles bytecode on a fresh checkout; not timed
        # setup_s is the fastest of SETUP_IMPORTS cold imports, whatever the
        # number of rounds: one before the first round, one after each
        # round, and the rest after the last.  Contention from other
        # processes only ever adds time and comes in episodes, so the
        # fastest import is the steadiest reading within a run.
        imports = [time_import(env)]

        rounds: list[Round] = []
        traced: list[Round] = []
        t_start = time.perf_counter()
        while True:
            k = len(rounds)
            rounds.append(run_round(wl, in_dir, os.path.join(work, f"out{k}"), env, None))
            if args.trace:
                trace_dir = os.path.join(work, f"trace{k}")
                traced.append(run_round(wl, in_dir, os.path.join(work, f"tout{k}"), env, trace_dir))
            if len(imports) < SETUP_IMPORTS:
                imports.append(time_import(env))
            if rounds[-1].returncode != 0 or time.perf_counter() - t_start >= args.seconds:
                break
        while len(imports) < SETUP_IMPORTS:
            imports.append(time_import(env))

        if any(r.maxrss_kib <= own_peak_kib for r in rounds + traced):
            print("perfbench: peak_rss_mib may show the benchmark's own peak", file=sys.stderr)
        sources = [checks.Source.load(s.sid, s.image_path, s.labels_path) for s in made]
        failed, bad_checks = check_rounds(wl, rounds + traced, sources, work, args.seed)
        attempted = wl.count * (len(rounds) + len(traced))

        if args.trace:
            for r in traced:
                r.spans = load_spans(r.trace_dir) if os.path.isdir(r.trace_dir) else []
            good = [r for r in traced if r.returncode == 0]
            layers = [per_layer(wl, r) for r in good]
            for d, (t, u) in zip(layers, ((t, u) for t, u in zip(traced, rounds) if t.returncode == 0)):
                d["trace.overhead_s"] = t.wall_s - u.wall_s
            metrics = {m: (statistics.median(d[m] for d in layers), unit)
                       for m, (unit, _) in PER_LAYER.items() if layers}
        else:
            metrics = end_to_end(wl, [r for r in rounds if r.returncode == 0] or rounds, min(imports))

        result = {
            "correct": bad_checks == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        os.makedirs(results, exist_ok=True)
        detail = dict(result, workload=wl.name, seed=args.seed, benchmark_peak_kib=own_peak_kib, rounds=[
            {k: v for k, v in vars(r).items() if k not in ("spans", "stderr")} for r in rounds + traced
        ])
        with open(os.path.join(results, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(detail, fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
