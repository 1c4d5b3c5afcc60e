"""Run the drsynth CLI with a span recorded around each call into a layer.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/tracehook.py TRACE_DIR generate --in ... --out ...

The program's source is not edited.  Each wrapper is installed at the name
its caller looks up (``drsynth.cli.read_nifti``, ``drsynth.labels.em_cluster``
and so on) before ``drsynth.cli.main`` runs.  A span records its name, start
and end (``time.perf_counter``, one clock for every process on the host)
and counts taken from the call's arguments and return value.  ``generate_sample`` also receives ``timings=`` so the
generator's own stage clock is recorded.

Spans stay in memory and are appended to ``TRACE_DIR/spans-<pid>.jsonl``
after every render task and when the command ends.  Worker processes of
``generate --workers N`` inherit the wrappers when the pool forks them
(the default start method on Linux up to Python 3.13); the pickled task
function is the wrapper itself, so workers flush their own spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

import drsynth.augment
import drsynth.cli
import drsynth.epg
import drsynth.generator
import drsynth.labels

_spans: list[dict] = []
_trace_dir = ""


def _flush() -> None:
    if not _spans:
        return
    with open(os.path.join(_trace_dir, f"spans-{os.getpid()}.jsonl"), "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in _spans)
    _spans.clear()


def _wrap(module, attr: str, name: str, counts=None, before=None, after=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        rec = {"name": name, "t0": t0, "t1": time.perf_counter()}
        if counts is not None:
            rec["counts"] = counts(args, kwargs, out)
        _spans.append(rec)
        if after is not None:
            after()
        return out

    setattr(module, attr, wrapper)


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _with_timings(args, kwargs):
    kwargs.setdefault("timings", {})
    return args, kwargs


def install() -> None:
    cli, gen, lab, aug, epg = (drsynth.cli, drsynth.generator, drsynth.labels, drsynth.augment, drsynth.epg)
    _wrap(cli, "_render_task", "cli.render_task", after=_flush)
    _wrap(cli, "read_nifti", "nifti.read",
          counts=lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))})
    _wrap(cli, "write_nifti", "nifti.write",
          counts=lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))})
    _wrap(cli, "_file_sha", "cli.file_sha")
    _wrap(cli, "generate_sample", "generator.generate_sample", before=_with_timings,
          counts=lambda a, k, out: {f"stage.{s}": v for s, v in k["timings"].items()})
    _wrap(gen, "build_meta_classes", "labels.build_meta_classes")
    _wrap(gen, "render_epg_volume", "epg.render_epg_volume")
    _wrap(lab, "em_cluster", "labels.em_cluster",
          counts=lambda a, k, out: {
              "iterations": out.n_iter,
              "converged": int(out.converged),
              "voxel_components": int(out.assignments.size) * out.k,
          })
    _wrap(aug, "integrate_velocity", "augment.integrate_velocity",
          counts=lambda a, k, out: {
              "voxel_steps": int(np.prod(out.shape[:3])) * int(_arg(a, k, 1, "steps", 7)),
          })
    _wrap(aug, "upsample_control_grid", "augment.upsample_control_grid")
    _wrap(aug, "transform_coordinates", "augment.transform_coordinates")
    _wrap(aug, "simulate_resolution", "augment.simulate_resolution")
    _wrap(aug, "sample_at_voxels", "volume.sample_at_voxels",
          counts=lambda a, k, out: {"voxels": int(out.size)})
    _wrap(epg, "epg_fse_echoes_batch", "epg.epg_fse_echoes_batch",
          counts=lambda a, k, out: {"voxel_echoes": int(out.size)})


def main(argv: list[str]) -> int:
    global _trace_dir
    _trace_dir = argv[0]
    os.makedirs(_trace_dir, exist_ok=True)
    install()
    try:
        return drsynth.cli.main(argv[1:])
    finally:
        _flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
