import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drsynth.checkpoints import (
    MAGIC,
    Checkpoint,
    interpolate,
    read_checkpoint,
    require_same_layout,
    write_checkpoint,
)
from drsynth.errors import (
    DuplicateTensor,
    FormatError,
    IncompatibleCheckpoints,
    InvalidAlpha,
    IoError,
    TruncatedFile,
)

from oracles import average_f32_ref


def tricky_tensors():
    w = np.array([[1.5, -2.25], [np.nan, np.inf]], dtype=np.float32)
    b = np.array([-0.0, 0.0, 1e-40], dtype=np.float32)
    s = np.float32(3.0).reshape(())
    return {"layer.weight": w, "layer.bias": b, "scale": s}


def hand_packed_blob():
    """The same checkpoint serialized by hand, field by field."""
    t = tricky_tensors()
    parts = [MAGIC, struct.pack("<I", 3)]
    for name in ("layer.weight", "layer.bias", "scale"):
        arr = t[name]
        enc = name.encode()
        parts += [struct.pack("<I", len(enc)), enc, struct.pack("<B", arr.ndim)]
        parts += [struct.pack("<Q", d) for d in arr.shape]
        parts.append(arr.astype("<f4").tobytes())
    parts.append(struct.pack("<I", 2))
    for k, v in (("run", "baseline"), ("note", "uñicode ✓")):
        for s in (k, v):
            enc = s.encode("utf-8")
            parts += [struct.pack("<I", len(enc)), enc]
    return b"".join(parts)


def test_writer_emits_the_documented_layout(tmp_path):
    ckpt = Checkpoint(tricky_tensors(), {"run": "baseline", "note": "uñicode ✓"})
    p = tmp_path / "a.ckpt"
    write_checkpoint(ckpt, p)
    assert p.read_bytes() == hand_packed_blob()


def test_reader_parses_hand_packed_bytes(tmp_path):
    p = tmp_path / "hand.ckpt"
    p.write_bytes(hand_packed_blob())
    ckpt = read_checkpoint(p)
    assert list(ckpt.tensors) == ["layer.weight", "layer.bias", "scale"]
    want = tricky_tensors()
    for name, arr in ckpt.tensors.items():
        assert arr.dtype == np.float32
        assert arr.shape == want[name].shape
        assert arr.tobytes() == want[name].tobytes()
    assert ckpt.metadata == {"run": "baseline", "note": "uñicode ✓"}


def test_round_trip_is_bit_exact(tmp_path):
    ckpt = Checkpoint(tricky_tensors(), {"k": "v"})
    p = tmp_path / "rt.ckpt"
    write_checkpoint(ckpt, p)
    back = read_checkpoint(p)
    for name in ckpt.tensors:
        assert back.tensors[name].tobytes() == ckpt.tensors[name].tobytes()
    assert back.metadata == ckpt.metadata


@given(
    arrays(
        np.float32,
        st.tuples(st.integers(0, 3), st.integers(1, 4)),
        elements=st.floats(width=32, allow_nan=True, allow_infinity=True),
    )
)
def test_round_trip_any_payload(tmp_path_factory, arr):
    p = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
    write_checkpoint(Checkpoint({"t": arr}), p)
    back = read_checkpoint(p).tensors["t"]
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMAGIC" + hand_packed_blob()[8:])
    with pytest.raises(FormatError):
        read_checkpoint(p)


def test_truncation_detected_everywhere(tmp_path):
    blob = hand_packed_blob()
    p = tmp_path / "cut.ckpt"
    for cut in (4, 11, 30, len(blob) - 1):
        p.write_bytes(blob[:cut])
        with pytest.raises(TruncatedFile):
            read_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "extra.ckpt"
    p.write_bytes(hand_packed_blob() + b"\x00")
    with pytest.raises(FormatError):
        read_checkpoint(p)


def test_duplicate_tensor_names_rejected(tmp_path):
    arr = np.zeros(2, dtype="<f4")
    enc = b"t"
    one = struct.pack("<I", len(enc)) + enc + struct.pack("<B", 1) + struct.pack("<Q", 2) + arr.tobytes()
    blob = MAGIC + struct.pack("<I", 2) + one + one + struct.pack("<I", 0)
    p = tmp_path / "dup.ckpt"
    p.write_bytes(blob)
    with pytest.raises(DuplicateTensor):
        read_checkpoint(p)


def empty_tensor_blob(dims):
    """A checkpoint holding one tensor "e" of ``dims`` (one of them 0, so no payload)."""
    head = struct.pack("<I", 1) + b"e" + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    return MAGIC + struct.pack("<I", 1) + head + struct.pack("<I", 0)


@pytest.mark.parametrize("dims", [(0, 2**62), (2**63, 0), (0,) * 65], ids=["huge-dim", "huge-first", "rank-65"])
def test_an_empty_tensor_numpy_cannot_hold_is_a_format_error(tmp_path, dims):
    # count is 0, so the payload check passes; the shape itself is the fault
    p = tmp_path / "e.ckpt"
    p.write_bytes(empty_tensor_blob(dims))
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: tensor 'e' has shape"):
        read_checkpoint(p)


def test_an_empty_tensor_with_a_large_dim_round_trips(tmp_path):
    p = tmp_path / "e.ckpt"
    write_checkpoint(Checkpoint({"e": np.zeros((0, 1000), np.float32)}), p)
    assert p.read_bytes() == empty_tensor_blob((0, 1000))
    assert read_checkpoint(p).tensors["e"].shape == (0, 1000)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_checkpoint(tmp_path / "nope.ckpt")


def test_interpolation_endpoints_are_exact_copies():
    a = Checkpoint(tricky_tensors(), {"run": "a"})
    b = Checkpoint({n: t + 1.0 for n, t in tricky_tensors().items()}, {"run": "b"})
    at0 = interpolate(a, b, 0.0)
    at1 = interpolate(a, b, 1.0)
    for name in a.tensors:
        assert at0.tensors[name].tobytes() == a.tensors[name].tobytes()
        assert at0.tensors[name] is not a.tensors[name]
        assert at1.tensors[name].tobytes() == b.tensors[name].tobytes()


def test_midpoint_is_the_float32_rounded_average(rng):
    a = Checkpoint({"w": rng.normal(size=(7, 5)).astype(np.float32)})
    b = Checkpoint({"w": rng.normal(size=(7, 5)).astype(np.float32)})
    mid = interpolate(a, b, 0.5).tensors["w"]
    want = average_f32_ref(a.tensors["w"], b.tensors["w"])
    assert mid.tobytes() == want.tobytes()


@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_blend_stays_between_endpoints(alpha, seed):
    r = np.random.default_rng(seed)
    a = Checkpoint({"w": r.normal(size=8).astype(np.float32)})
    b = Checkpoint({"w": r.normal(size=8).astype(np.float32)})
    out = interpolate(a, b, alpha).tensors["w"]
    lo = np.minimum(a.tensors["w"], b.tensors["w"])
    hi = np.maximum(a.tensors["w"], b.tensors["w"])
    assert np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6)


def test_alpha_validation():
    a = Checkpoint({"w": np.zeros(2, np.float32)})
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(InvalidAlpha):
            interpolate(a, a, bad)


def test_layout_mismatches_rejected():
    a = Checkpoint({"w": np.zeros((2, 2), np.float32)})
    for other in (
        Checkpoint({"v": np.zeros((2, 2), np.float32)}),  # name
        Checkpoint({"w": np.zeros((2, 3), np.float32)}),  # shape
        Checkpoint({"w": np.zeros((2, 2), np.float32), "x": np.zeros(1, np.float32)}),
    ):
        with pytest.raises(IncompatibleCheckpoints):
            require_same_layout(a, other)
        with pytest.raises(IncompatibleCheckpoints):
            interpolate(a, other, 0.5)
    reordered_a = Checkpoint({"x": np.zeros(1, np.float32), "w": np.zeros(2, np.float32)})
    reordered_b = Checkpoint({"w": np.zeros(2, np.float32), "x": np.zeros(1, np.float32)})
    with pytest.raises(IncompatibleCheckpoints):
        require_same_layout(reordered_a, reordered_b)
    require_same_layout(a, Checkpoint({"w": np.ones((2, 2), np.float32)}))


def test_metadata_records_sources_and_alpha():
    a = Checkpoint({"w": np.zeros(2, np.float32)}, {"run": "night", "step": "100"})
    b = Checkpoint({"w": np.ones(2, np.float32)}, {"run": "day"})
    out = interpolate(a, b, 0.25)
    assert out.metadata["a.run"] == "night"
    assert out.metadata["a.step"] == "100"
    assert out.metadata["b.run"] == "day"
    assert out.metadata["alpha"] == repr(0.25)


def test_checkpoint_casts_to_float32_and_validates_names():
    ck = Checkpoint({"w": np.arange(4, dtype=np.float64)})
    assert ck.tensors["w"].dtype == np.float32
    with pytest.raises(FormatError):
        Checkpoint({"": np.zeros(1)})
