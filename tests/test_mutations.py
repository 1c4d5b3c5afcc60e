"""Seeded mutation loop over every reader: a corrupt input raises only DrsynthError.

Each reader gets a few hundred mutated copies of a valid file, drawn from
a fixed seed: byte flips, truncation, and an extreme value written into
one numeric header field (NIfTI header, checkpoint counts, lengths and
dims) or one number of a text file.  Warnings are turned into errors, so
a numpy warning printed on the way to a silent result counts as an
escape too.
"""

from __future__ import annotations

import gzip
import os
import re
import struct
import warnings

import numpy as np
import pytest

from drsynth.checkpoints import Checkpoint, read_checkpoint, write_checkpoint
from drsynth.cli import main, read_manifest, render_from_sidecar
from drsynth.config import load_config
from drsynth.errors import DrsynthError
from drsynth.nifti import _HEADER, HEADER_SIZE, read_nifti, write_nifti
from drsynth.volume import LabelMap, LabelScheme, Volume3D

from conftest import write_subject

CASES = 300
# one fixed seed per reader, chosen before any fix the loop led to
SEEDS = {
    "nii": 8101,
    "nii_gz": 8102,
    "hdr_img": 8103,
    "checkpoint": 8104,
    "sidecar": 8105,
    "manifest": 8106,
    "config": 8107,
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_EXTREMES = {
    "b": (0, -1, 127, -128),
    "h": (0, -1, 1, 32767, -32768),
    "i": (0, -1, 2**31 - 1, -(2**31)),
    "f": (0.0, -0.0, np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e-45, 1e30),
    "B": (0, 1, 32, 255),
    "I": (0, 1, 2**31 - 1, 2**31, 2**32 - 1),
    "Q": (0, 1, 2**32, 2**62, 2**63, 2**64 - 1),
}
_TEXT_EXTREMES = ("nan", "inf", "-inf", "-1", "0", "-0", "1e309", "1e-400", "99999999999999999999")


def _nifti_fields():
    """(offset, struct code) of every numeric element of the NIfTI-1 header."""
    out, pos = [], 0
    for _, code, count in _HEADER:
        if code in "sc":
            pos += count if code == "s" else 1
            continue
        size = struct.calcsize(code)
        out.extend((pos + k * size, code) for k in range(count))
        pos += count * size
    assert pos == HEADER_SIZE
    return out


def _checkpoint_fields(blob):
    """(offset, struct code) of every count, length, rank and dim of a checkpoint."""
    out, pos = [], 8

    def field(code):
        nonlocal pos
        out.append((pos, code))
        (value,) = struct.unpack_from("<" + code, blob, pos)
        pos += struct.calcsize(code)
        return value

    for _ in range(field("I")):
        name_length = field("I")
        pos += name_length
        count = 1
        for _ in range(field("B")):
            count *= field("Q")
        pos += 4 * count
    for _ in range(2 * field("I")):
        length = field("I")
        pos += length
    assert pos == len(blob)
    return out


def _flip(blob, rng):
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        out[int(rng.integers(len(out)))] = int(rng.integers(256))
    return bytes(out)


def _truncate(blob, rng):
    return blob[: int(rng.integers(len(blob)))]


def _extreme(blob, rng, fields):
    offset, code = fields[int(rng.integers(len(fields)))]
    values = _EXTREMES[code]
    out = bytearray(blob)
    struct.pack_into("<" + code, out, offset, values[int(rng.integers(len(values)))])
    return bytes(out)


def _mutate(blob, rng, fields=None):
    """One of: byte flips, truncation, an extreme value in one of ``fields``."""
    kind = int(rng.integers(3 if fields else 2))
    return (_flip, _truncate, lambda b, r: _extreme(b, r, fields))[kind](blob, rng)


def _mutate_text(blob, rng):
    """Byte flips, truncation, or one number of the text replaced by an extreme."""
    numbers = list(re.finditer(rb"-?\d+(\.\d+)?", blob))
    if not numbers or rng.integers(3) < 2:
        return _mutate(blob, rng)
    m = numbers[int(rng.integers(len(numbers)))]
    value = _TEXT_EXTREMES[int(rng.integers(len(_TEXT_EXTREMES)))].encode()
    return blob[: m.start()] + value + blob[m.end() :]


def _label_map():
    data = np.random.default_rng(1).integers(0, 8, (6, 5, 4), dtype=np.int16)
    return LabelMap(data, (1.0, 1.0, 1.0), LabelScheme.FETA7)


def _float_volume():
    data = np.random.default_rng(2).uniform(0.0, 100.0, (6, 5, 4)).astype(np.float32)
    return Volume3D(data, (0.5, 1.0, 1.5))


def _nii_bytes(tmp_path, vol, name="v.nii"):
    p = tmp_path / name
    write_nifti(vol, p)
    return p.read_bytes()


def _read_both_ways(path, raw=None):
    for scheme in (LabelScheme.FETA7, None):
        try:
            read_nifti(path, scheme=scheme, raw=raw)
        except DrsynthError:
            pass


def _cases_nii(tmp_path, rng):
    fields = _nifti_fields()
    blobs = [_nii_bytes(tmp_path, _label_map()), _nii_bytes(tmp_path, _float_volume())]
    for i in range(CASES):
        blob = _mutate(blobs[i % 2], rng, fields)
        yield lambda blob=blob: _read_both_ways(tmp_path / "m.nii", raw=blob)


def _cases_nii_gz(tmp_path, rng):
    fields = _nifti_fields()
    blobs = [_nii_bytes(tmp_path, _label_map()), _nii_bytes(tmp_path, _float_volume())]
    for i in range(CASES):
        blob = blobs[i % 2]
        if rng.integers(3) == 0:  # an extreme header value inside a well-formed stream
            blob = gzip.compress(_extreme(blob, rng, fields), mtime=0)
        else:  # a damaged stream
            blob = _mutate(gzip.compress(blob, mtime=0), rng)
        yield lambda blob=blob: _read_both_ways(tmp_path / "m.nii.gz", raw=blob)


def _cases_hdr_img(tmp_path, rng):
    fields = _nifti_fields()
    pairs = []
    for vol in (_label_map(), _float_volume()):
        blob = bytearray(_nii_bytes(tmp_path, vol))
        blob[344:348] = b"ni1\x00"
        pairs.append((bytes(blob[:HEADER_SIZE]), bytes(blob[HEADER_SIZE + 4 :])))
    for i in range(CASES):
        hdr, img = pairs[i % 2]
        gz = (i // 2) % 2 == 1  # the gzipped .img.gz sibling every other pair
        if gz:
            img = gzip.compress(img, mtime=0)
        if rng.integers(2):
            hdr = _mutate(hdr, rng, fields)
        else:
            img = _mutate(img, rng)

        def case(hdr=hdr, img=img, gz=gz):
            for name in ("m.img", "m.img.gz"):
                if (tmp_path / name).exists():
                    os.unlink(tmp_path / name)
            (tmp_path / "m.hdr").write_bytes(hdr)
            (tmp_path / ("m.img.gz" if gz else "m.img")).write_bytes(img)
            _read_both_ways(tmp_path / "m.hdr")

        yield case


def _cases_checkpoint(tmp_path, rng):
    ckpt = Checkpoint(
        {
            "w": np.arange(6, dtype=np.float32).reshape(3, 2),
            "empty": np.zeros((0, 3), np.float32),
            "scalar": np.float32(2.5),
        },
        {"run": "a", "step": "100"},
    )
    p = tmp_path / "m.ckpt"
    write_checkpoint(ckpt, p)
    blob = p.read_bytes()
    fields = _checkpoint_fields(blob)
    for _ in range(CASES):
        mutated = _mutate(blob, rng, fields)

        def case(mutated=mutated):
            p.write_bytes(mutated)
            read_checkpoint(p)

        yield case


def _cases_sidecar(tmp_path, rng):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    write_subject(in_dir, "toy", dims=(12, 12, 12))
    ini = tmp_path / "small.ini"
    ini.write_text("[synthgen]\nmaster_seed = 7\nsubclasses = 1, 3\n")
    argv = ["generate", "--config", str(ini), "--in", str(in_dir), "--out", str(out_dir)]
    assert main(argv) == 0
    blob = (out_dir / "toy_s00000_seed7.json").read_bytes()
    p = tmp_path / "m.json"
    for _ in range(CASES):
        mutated = _mutate_text(blob, rng)

        def case(mutated=mutated):
            p.write_bytes(mutated)
            render_from_sidecar(str(p))

        yield case


def _cases_manifest(tmp_path, rng):
    blob = b"# subject, prediction, truth\n\ns1\tpred1.nii.gz\tgt1.nii.gz\ns2, p2.nii , /abs/gt2.nii\n"
    p = tmp_path / "m.tsv"
    for _ in range(CASES):
        mutated = _mutate_text(blob, rng)

        def case(mutated=mutated):
            p.write_bytes(mutated)
            read_manifest(str(p))

        yield case


def _cases_config(tmp_path, rng):
    with open(os.path.join(ROOT, "scripts", "nondefault.ini"), "rb") as fh:
        blob = fh.read()
    p = tmp_path / "m.ini"
    for _ in range(CASES):
        mutated = _mutate_text(blob, rng)

        def case(mutated=mutated):
            p.write_bytes(mutated)
            load_config(p)

        yield case


READERS = {
    "nii": _cases_nii,
    "nii_gz": _cases_nii_gz,
    "hdr_img": _cases_hdr_img,
    "checkpoint": _cases_checkpoint,
    "sidecar": _cases_sidecar,
    "manifest": _cases_manifest,
    "config": _cases_config,
}


@pytest.mark.parametrize("reader", list(READERS))
def test_mutated_input_raises_only_package_errors(tmp_path, reader):
    escapes = []
    cases = READERS[reader](tmp_path, np.random.default_rng(SEEDS[reader]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, case in enumerate(cases):
            try:
                case()
            except DrsynthError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other escape is the finding
                escapes.append(f"case {i}: {type(exc).__name__}: {exc}")
    assert i == CASES - 1
    assert not escapes, f"{len(escapes)} of {CASES} escaped:\n" + "\n".join(escapes[:10])
