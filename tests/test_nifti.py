import gzip
import hashlib
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drsynth.errors import (
    FormatError,
    GeometryError,
    TruncatedFile,
    UnsupportedDatatype,
    UnsupportedShape,
)
from conftest import make_subject, random_label_volume
from drsynth.generator import GenerationConfig, generate_sample
from drsynth.nifti import _STRUCT, HEADER_SIZE, read_nifti, write_nifti
from drsynth.volume import LabelMap, LabelScheme, Volume3D

# byte offsets of the NIfTI-1 header fields poked by these tests
OFF_DIM = 40
OFF_DATATYPE = 70
OFF_PIXDIM = 76
OFF_VOX_OFFSET = 108
OFF_SCL_SLOPE = 112
OFF_SCL_INTER = 116
OFF_QFORM_CODE = 252
OFF_SFORM_CODE = 254
OFF_QOFFSET = 268
OFF_SROW_X = 280
OFF_MAGIC = 344


def patch(path, offset, fmt, *values):
    blob = bytearray(path.read_bytes())
    struct.pack_into("<" + fmt, blob, offset, *values)
    path.write_bytes(bytes(blob))


def tricky_volume():
    # spacings exactly representable in the header's float32 pixdim
    data = np.zeros((3, 4, 5), dtype=np.float32)
    data.flat[:8] = [np.nan, np.inf, -np.inf, -0.0, 1e-40, -1e-40, 3.14159, -2.5]
    aff = np.eye(4)
    aff[:3, 3] = (-7.5, 3.25, 0.125)
    return Volume3D(data, (0.75, 1.0, 1.25), affine=aff)


def test_round_trip_is_bit_exact(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "vol.nii"
    write_nifti(vol, p)
    back = read_nifti(p)
    assert back.data.tobytes() == vol.data.tobytes()
    assert back.spacing == vol.spacing
    np.testing.assert_allclose(back.affine, vol.affine, atol=1e-6)


def test_gzip_round_trip_and_determinism(tmp_path):
    vol = tricky_volume()
    p1, p2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_nifti(vol, p1)
    write_nifti(vol, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_nifti(p1).data.tobytes() == vol.data.tobytes()


@pytest.mark.parametrize("dims, bound", [((24,) * 3, 0.05), ((96,) * 3, 0.02)])
def test_sample_gzip_is_exact_deterministic_and_near_level_9(tmp_path, dims, bound):
    # Run-length deflate cannot use the 3-byte matches that smooth float
    # content offers LZ77, so a tiny grid pays up to about 4% over level 9;
    # from 96^3, the smallest grid the benchmark renders, it pays under 2%.
    labels, intensity = make_subject(dims)
    pair = generate_sample(labels, intensity, GenerationConfig(), 0)
    size = level_9 = 0
    for kind, vol in (("image", pair.image), ("labels", pair.labels)):
        plain, packed = tmp_path / f"{kind}.nii", tmp_path / f"{kind}.nii.gz"
        write_nifti(vol, plain)
        write_nifti(vol, packed)
        raw, first = plain.read_bytes(), packed.read_bytes()
        assert gzip.decompress(first) == raw
        write_nifti(vol, packed)
        assert packed.read_bytes() == first
        size += len(first)
        level_9 += len(gzip.compress(raw, 9))
    assert size <= (1 + bound) * level_9


@given(
    arrays(
        np.float32,
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(width=32, allow_nan=True, allow_infinity=True),
    )
)
def test_round_trip_any_float32_payload(tmp_path_factory, arr):
    p = tmp_path_factory.mktemp("rt") / "v.nii"
    write_nifti(Volume3D(arr, (1, 1, 1)), p)
    assert read_nifti(p).data.tobytes() == np.ascontiguousarray(arr).tobytes()


def test_labelmap_round_trip_small_values(tmp_path, rng):
    lm = random_label_volume(rng, n_labels=7)
    p = tmp_path / "lab.nii.gz"
    write_nifti(lm, p)
    hdr = gzip.decompress(p.read_bytes())
    (code,) = struct.unpack_from("<h", hdr, OFF_DATATYPE)
    assert code == 4  # int16 on disk
    back = read_nifti(p, scheme=LabelScheme.FETA7)
    assert isinstance(back, LabelMap)
    assert back.scheme is LabelScheme.FETA7
    np.testing.assert_array_equal(back.data, lm.data)


def test_a_label_map_holding_300_keeps_16_bits_and_its_file_bytes(tmp_path):
    data = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
    data[1, 2, 3] = 300
    lm = LabelMap(data, (1.0, 0.5, 2.0), LabelScheme.SUBCLASS)
    assert lm.data.dtype == np.uint16
    p = tmp_path / "lab.nii"
    write_nifti(lm, p)
    # the digest int32 label storage wrote: int16 on disk either way
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "101ad47fe955b43b996d966e177e3cd10d0d194eed65aa936dfa6720d2ecd43d"
    )
    back = read_nifti(p, scheme=LabelScheme.SUBCLASS)
    assert back.data.dtype == np.uint16
    np.testing.assert_array_equal(back.data, data)


def test_labelmap_wide_values_use_int32(tmp_path):
    data = np.full((2, 2, 2), 40000, dtype=np.int32)
    p = tmp_path / "lab.nii"
    write_nifti(LabelMap(data, (1, 1, 1), LabelScheme.SUBCLASS), p)
    (code,) = struct.unpack_from("<h", p.read_bytes(), OFF_DATATYPE)
    assert code == 8
    back = read_nifti(p, scheme=LabelScheme.SUBCLASS)
    np.testing.assert_array_equal(back.data, data)


def test_float_on_disk_labels(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(Volume3D(np.full((2, 2, 2), 3.0, np.float32), (1, 1, 1)), p)
    lm = read_nifti(p, scheme=LabelScheme.FETA7)
    assert lm.data.dtype == np.uint8  # the narrowest unsigned type that holds 3
    assert int(lm.data.max()) == 3

    write_nifti(Volume3D(np.full((2, 2, 2), 3.5, np.float32), (1, 1, 1)), p)
    with pytest.raises(FormatError):
        read_nifti(p, scheme=LabelScheme.FETA7)


def test_scl_scaling_applied(tmp_path):
    data = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    p = tmp_path / "lab.nii"
    write_nifti(LabelMap(data, (1, 1, 1), LabelScheme.DRAWEM9), p)
    patch(p, OFF_SCL_SLOPE, "ff", 2.0, -1.0)
    vol = read_nifti(p)
    np.testing.assert_allclose(vol.data, data * 2.0 - 1.0)


def test_scl_slope_zero_means_no_scaling(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_SCL_SLOPE, "ff", 0.0, 0.0)
    assert read_nifti(p).data.tobytes() == vol.data.tobytes()


@pytest.mark.parametrize("slope", [0.0, np.nan, np.inf, -np.inf])
def test_unusable_scl_slope_means_no_scaling(tmp_path, slope):
    # NIfTI-1: a zero or non-finite slope leaves the data unscaled, intercept included
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_SCL_SLOPE, "ff", slope, 5.0)
    assert read_nifti(p).data.tobytes() == vol.data.tobytes()


@pytest.mark.parametrize("inter", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slope", [1.0, 2.0])
def test_non_finite_scl_inter_is_a_format_error(tmp_path, slope, inter):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    patch(p, OFF_SCL_SLOPE, "ff", slope, inter)
    with pytest.raises(FormatError, match=re.escape(f"{p}: scl_inter {inter} is not finite")):
        read_nifti(p)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    patch(p, OFF_MAGIC, "4s", b"bad\x00")
    with pytest.raises(FormatError):
        read_nifti(p)


def test_truncated_header_and_payload(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    blob = p.read_bytes()
    short = tmp_path / "short.nii"
    short.write_bytes(blob[:200])
    with pytest.raises(TruncatedFile):
        read_nifti(short)
    short.write_bytes(blob[:-10])
    with pytest.raises(TruncatedFile):
        read_nifti(short)


def test_a_truncated_gzip_stream_is_a_truncated_file(tmp_path):
    p = tmp_path / "v.nii.gz"
    write_nifti(tricky_volume(), p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFile, match=f"^{re.escape(str(p))}: gzip stream ends before"):
        read_nifti(p)


def test_a_corrupt_deflate_block_is_a_format_error(tmp_path):
    p = tmp_path / "v.nii.gz"
    write_nifti(tricky_volume(), p)
    blob = bytearray(p.read_bytes())
    blob[10] = 0b111  # the first deflate block: final, of the reserved type 3
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"^bad gzip stream in {re.escape(str(p))}: .*invalid block type"):
        read_nifti(p)


def test_a_damaged_img_gz_sibling_names_the_img_file(tmp_path):
    vol = tricky_volume()
    single = tmp_path / "v.nii"
    write_nifti(vol, single)
    hdr = bytearray(single.read_bytes()[:HEADER_SIZE])
    struct.pack_into("<4s", hdr, OFF_MAGIC, b"ni1\x00")
    (tmp_path / "pair.hdr").write_bytes(bytes(hdr))
    img = tmp_path / "pair.img.gz"
    packed = gzip.compress(vol.data.tobytes(order="F"), mtime=0)
    img.write_bytes(packed[:-12])
    with pytest.raises(TruncatedFile, match=f"^{re.escape(str(img))}: gzip stream ends before"):
        read_nifti(tmp_path / "pair.hdr")
    img.write_bytes(packed[:10] + b"\x07" + packed[11:])
    with pytest.raises(FormatError, match=f"^bad gzip stream in {re.escape(str(img))}"):
        read_nifti(tmp_path / "pair.hdr")


def test_scaling_past_float32_is_rejected_naming_both_fields(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(Volume3D(np.full((3, 4, 5), 10.0, np.float32), (1, 1, 1)), p)
    patch(p, OFF_SCL_SLOPE, "ff", 3e38, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would be a second report
        want = f"^{re.escape(str(p))}: scl_slope .* and scl_inter 0.0 scale 60 finite voxel"
        with pytest.raises(FormatError, match=want):
            read_nifti(p)


def test_scaling_keeps_non_finite_voxels_stored_on_disk(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_SCL_SLOPE, "ff", 2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_nifti(p).data
    np.testing.assert_array_equal(back, (vol.data.astype(np.float64) * 2.0 + 1.0).astype(np.float32))
    assert np.isnan(back.flat[0]) and back.flat[1] == np.inf and back.flat[2] == -np.inf


def test_unsupported_datatype_code(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    patch(p, OFF_DATATYPE, "h", 32)  # complex64
    with pytest.raises(UnsupportedDatatype):
        read_nifti(p)


def test_four_dimensional_single_frame_is_accepted(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_DIM, "h", 4)  # dim[0]=4, nt already 1
    assert read_nifti(p).data.tobytes() == vol.data.tobytes()
    patch(p, OFF_DIM + 4 * 2, "h", 2)  # nt=2
    with pytest.raises(UnsupportedShape):
        read_nifti(p)


def test_vox_offset_inside_header_rejected(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    patch(p, OFF_VOX_OFFSET, "f", 100.0)
    with pytest.raises(FormatError):
        read_nifti(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vox_offset_is_a_format_error(tmp_path, bad):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    patch(p, OFF_VOX_OFFSET, "f", bad)
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: vox_offset"):
        read_nifti(p)


@pytest.mark.parametrize("offset, value", [(OFF_SROW_X, np.nan), (OFF_PIXDIM + 4, np.inf)])
@pytest.mark.parametrize("scheme", [None, LabelScheme.FETA7])
def test_non_finite_geometry_fails_at_read_naming_the_file(tmp_path, offset, value, scheme):
    p = tmp_path / "v.nii"
    write_nifti(LabelMap(np.ones((3, 4, 5), np.int32), (1, 1, 1), LabelScheme.FETA7), p)
    patch(p, offset, "f", value)  # srow_x[0], or pixdim[1]
    with pytest.raises(GeometryError, match=f"^{re.escape(str(p))}: .*finite"):
        read_nifti(p, scheme)


def test_nonpositive_pixdim_defaults_to_unit(tmp_path):
    p = tmp_path / "v.nii"
    write_nifti(tricky_volume(), p)
    patch(p, OFF_PIXDIM + 4, "f", 0.0)  # pixdim[1]
    assert read_nifti(p).spacing[0] == 1.0


def test_sform_wins_over_qform(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_QFORM_CODE, "h", 1)
    patch(p, OFF_QOFFSET, "fff", 99.0, 99.0, 99.0)
    np.testing.assert_allclose(read_nifti(p).affine, vol.affine, atol=1e-6)


def test_qform_fallback_identity_rotation(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_SFORM_CODE, "h", 0)
    patch(p, OFF_QFORM_CODE, "h", 1)
    patch(p, OFF_QOFFSET, "fff", 1.0, 2.0, 3.0)
    aff = read_nifti(p).affine
    # b=c=d=0 quaternion: direction block is diag(spacing), offset from qoffset
    np.testing.assert_allclose(np.diag(aff)[:3], vol.spacing, atol=1e-6)
    np.testing.assert_allclose(aff[:3, 3], (1.0, 2.0, 3.0), atol=1e-6)


def test_diagonal_spacing_fallback(tmp_path):
    vol = tricky_volume()
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    patch(p, OFF_SFORM_CODE, "h", 0)
    aff = read_nifti(p).affine
    np.testing.assert_allclose(aff, np.diag(list(vol.spacing) + [1.0]), atol=1e-6)


def test_big_endian_files_are_readable(tmp_path):
    vol = tricky_volume()
    le = tmp_path / "le.nii"
    write_nifti(vol, le)
    blob = le.read_bytes()
    fields = struct.unpack(_STRUCT, blob[:HEADER_SIZE])
    be_blob = struct.pack(">" + _STRUCT[1:], *fields) + blob[HEADER_SIZE : HEADER_SIZE + 4]
    be_blob += vol.data.byteswap().tobytes(order="F")
    be = tmp_path / "be.nii"
    be.write_bytes(be_blob)
    back = read_nifti(be)
    assert back.data.tobytes() == vol.data.tobytes()
    assert back.spacing == vol.spacing


def test_header_pair_variant(tmp_path):
    vol = tricky_volume()
    single = tmp_path / "v.nii"
    write_nifti(vol, single)
    blob = single.read_bytes()
    hdr = bytearray(blob[:HEADER_SIZE])
    struct.pack_into("<4s", hdr, OFF_MAGIC, b"ni1\x00")
    (tmp_path / "pair.hdr").write_bytes(bytes(hdr))
    (tmp_path / "pair.img").write_bytes(vol.data.tobytes(order="F"))
    back = read_nifti(tmp_path / "pair.hdr")
    assert back.data.tobytes() == vol.data.tobytes()

    # gzipped sibling picked up when the plain .img is absent
    (tmp_path / "pair2.hdr").write_bytes(bytes(hdr))
    (tmp_path / "pair2.img.gz").write_bytes(gzip.compress(vol.data.tobytes(order="F")))
    back = read_nifti(tmp_path / "pair2.hdr")
    assert back.data.tobytes() == vol.data.tobytes()


def test_write_rejects_plain_arrays(tmp_path):
    with pytest.raises(TypeError):
        write_nifti(np.zeros((2, 2, 2)), tmp_path / "x.nii")
