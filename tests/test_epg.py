import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsynth import epg
from drsynth.epg import (
    EpgSequenceParams,
    ReferenceInterval,
    RelaxometryMode,
    RelaxometryRanges,
    SequenceRanges,
    TissueRelaxometry,
    draw_sequence,
    epg_fse_echoes,
    epg_fse_echoes_batch,
    render_epg_volume,
    sample_relaxometry,
)
from drsynth.errors import InvalidRange, InvalidRelaxometry, MissingParams
from drsynth.volume import LabelMap, LabelScheme

from oracles import cpmg_closed_form, epg_echoes_dense, epg_fse_complex64_ref


def test_sequence_validation():
    with pytest.raises(InvalidRange):
        EpgSequenceParams(esp_ms=0.0)
    with pytest.raises(InvalidRange):
        EpgSequenceParams(etl=0)
    with pytest.raises(InvalidRange):
        EpgSequenceParams(etl=4, refocus_deg=(180.0, 180.0), te_eff_ms=12.0)
    with pytest.raises(InvalidRange):
        EpgSequenceParams(esp_ms=10.0, etl=5, te_eff_ms=60.0)  # beyond the train
    with pytest.raises(InvalidRange):
        EpgSequenceParams(esp_ms=10.0, etl=5, te_eff_ms=5.0)  # before first echo


def test_echo_index_rounds_and_clamps():
    assert EpgSequenceParams(esp_ms=10.0, etl=10, te_eff_ms=40.0).echo_index == 4
    assert EpgSequenceParams(esp_ms=10.0, etl=10, te_eff_ms=44.0).echo_index == 4
    assert EpgSequenceParams(esp_ms=10.0, etl=10, te_eff_ms=46.0).echo_index == 5
    assert EpgSequenceParams(esp_ms=10.0, etl=10, te_eff_ms=100.0).echo_index == 10
    assert EpgSequenceParams(esp_ms=10.0, etl=10, te_eff_ms=10.0).echo_index == 1


def test_relaxometry_validation():
    TissueRelaxometry(math.inf, 80.0)  # no longitudinal relaxation is legal
    TissueRelaxometry(1000.0, 80.0, pd=0.0)
    with pytest.raises(InvalidRelaxometry):
        TissueRelaxometry(0.0, 80.0)
    with pytest.raises(InvalidRelaxometry):
        TissueRelaxometry(1000.0, -5.0)
    with pytest.raises(InvalidRelaxometry):
        TissueRelaxometry(1000.0, 80.0, pd=-0.1)


def test_cpmg_train_matches_closed_form():
    # 180-degree refocusing with no T1 recovery is pure T2 decay
    seq = EpgSequenceParams(esp_ms=6.12, etl=150, te_eff_ms=90.0)
    echoes = epg_fse_echoes(TissueRelaxometry(math.inf, 80.0), seq)
    want = [cpmg_closed_form(6.12, 80.0, k) for k in range(1, 151)]
    np.testing.assert_allclose(echoes, want, rtol=1e-12)


@given(
    flip=st.floats(90.0, 180.0),
    t1=st.floats(200.0, 4000.0),
    t2=st.floats(20.0, 900.0),
    etl=st.integers(1, 24),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30)
def test_windowed_recursion_matches_dense_lattice(flip, t1, t2, etl, seed):
    esp = 5.0 + (seed % 7)
    seq = EpgSequenceParams(esp_ms=esp, etl=etl, refocus_deg=flip, te_eff_ms=esp)
    got = epg_fse_echoes_batch(np.array([t1]), np.array([t2]), seq)[:, 0]
    want = epg_echoes_dense(t1, t2, esp, 90.0, flip, etl)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-10)


def test_variable_flip_schedule_matches_dense_lattice():
    sched = (160.0, 120.0, 95.0, 140.0, 180.0, 110.0)
    seq = EpgSequenceParams(esp_ms=8.0, etl=6, refocus_deg=sched, te_eff_ms=8.0)
    got = epg_fse_echoes_batch(np.array([900.0]), np.array([70.0]), seq)[:, 0]
    want = epg_echoes_dense(900.0, 70.0, 8.0, 90.0, list(sched), 6)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_long_train_spot_check_against_dense():
    seq = EpgSequenceParams(esp_ms=6.12, etl=150, refocus_deg=155.0, te_eff_ms=90.0)
    got = epg_fse_echoes_batch(np.array([1800.0]), np.array([120.0]), seq)[:, 0]
    want = epg_echoes_dense(1800.0, 120.0, 6.12, 90.0, 155.0, 150)
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_batch_matches_single_tissue_runs(rng):
    t1 = rng.uniform(300, 3000, 8)
    t2 = rng.uniform(30, 500, 8)
    seq = EpgSequenceParams(esp_ms=7.0, etl=12, refocus_deg=150.0, te_eff_ms=21.0)
    batch = epg_fse_echoes_batch(t1, t2, seq)
    for j in range(8):
        single = epg_fse_echoes(TissueRelaxometry(t1[j], t2[j]), seq)
        np.testing.assert_array_equal(batch[:, j], single)


def test_single_precision_tracks_double():
    t1 = np.array([1400.0, 2200.0])
    t2 = np.array([90.0, 250.0])
    seq = EpgSequenceParams(esp_ms=6.12, etl=150, refocus_deg=160.0, te_eff_ms=300.0)
    lo = epg_fse_echoes_batch(t1, t2, seq, dtype=np.complex64)
    hi = epg_fse_echoes_batch(t1, t2, seq, dtype=np.complex128)
    np.testing.assert_allclose(lo, hi, rtol=2e-5, atol=1e-7)


@pytest.mark.parametrize("refocus", [150.2, 180.0])
@pytest.mark.parametrize("n_echoes", [1, 3, 31, 49])
def test_complex64_kernel_matches_untruncated_recursion_bitwise(n_echoes, refocus):
    # Every spin is elementwise over the batch, so neither the window nor
    # the batch size (one spin, a few, more than one render batch) may move
    # a bit; distinct spins show one spin differing, which the per-class
    # render comparison cannot.
    seq = EpgSequenceParams(esp_ms=6.12, etl=150, refocus_deg=refocus, te_eff_ms=90.0)
    rng = np.random.default_rng(n_echoes)
    n = epg._SPIN_BATCH + 5
    t1, t2 = rng.uniform(100.0, 5000.0, n), rng.uniform(10.0, 2000.0, n)
    want = epg_fse_complex64_ref(t1, t2, seq.esp_ms, seq.excitation_deg, refocus, n_echoes)

    def bits(lo, hi):
        got = epg_fse_echoes_batch(t1[lo:hi], t2[lo:hi], seq, n_echoes=n_echoes, dtype=np.complex64)
        np.testing.assert_array_equal(got.view(np.uint64), want[:, lo:hi].view(np.uint64))

    bits(0, n)
    bits(0, 17)
    for j in range(17):
        bits(j, j + 1)


def test_batch_input_validation():
    seq = EpgSequenceParams(esp_ms=10.0, etl=3, te_eff_ms=10.0)
    with pytest.raises(InvalidRange):
        epg_fse_echoes_batch(np.ones((2, 2)), np.ones((2, 2)), seq)
    with pytest.raises(InvalidRange):
        epg_fse_echoes_batch(np.ones(3), np.ones(2), seq)
    with pytest.raises(InvalidRelaxometry):
        epg_fse_echoes_batch(np.array([0.0]), np.array([80.0]), seq)
    with pytest.raises(InvalidRange):
        epg_fse_echoes_batch(np.array([1e3]), np.array([80.0]), seq, dtype=np.float64)
    with pytest.raises(InvalidRange):
        epg_fse_echoes_batch(np.array([1e3]), np.array([80.0]), seq, n_echoes=0)


def test_truncated_train_matches_prefix():
    seq = EpgSequenceParams(esp_ms=6.0, etl=20, refocus_deg=140.0, te_eff_ms=36.0)
    t1, t2 = np.array([1200.0]), np.array([110.0])
    full = epg_fse_echoes_batch(t1, t2, seq)
    head = epg_fse_echoes_batch(t1, t2, seq, n_echoes=6)
    np.testing.assert_array_equal(head, full[:6])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_drawn_sequence_respects_ranges(seed):
    ranges = SequenceRanges()
    seq = draw_sequence(ranges, np.random.default_rng(seed))
    assert seq.esp_ms == ranges.esp_ms
    assert seq.etl == ranges.etl
    assert seq.excitation_deg == ranges.excitation_deg
    assert 150.0 <= seq.refocus_deg <= 180.0
    assert 90.0 <= seq.te_eff_ms <= 300.0


def test_reference_relaxometry_draws_inside_intervals(rng):
    ranges = RelaxometryRanges(
        reference={
            1: ReferenceInterval((1500.0, 1900.0), (100.0, 200.0)),
            2: ReferenceInterval((2800.0, 3300.0), (1100.0, 2000.0), pd=(0.9, 1.0)),
        }
    )
    table = sample_relaxometry(RelaxometryMode.REFERENCE, ranges, [0, 1, 2], rng)
    assert set(table) == {1, 2}
    assert 1500.0 <= table[1].t1_ms <= 1900.0
    assert 100.0 <= table[1].t2_ms <= 200.0
    assert table[1].pd == 1.0
    assert 0.9 <= table[2].pd <= 1.0
    with pytest.raises(MissingParams):
        sample_relaxometry(RelaxometryMode.REFERENCE, ranges, [1, 2, 3], rng)


def test_randomized_relaxometry_uses_global_ranges(rng):
    ranges = RelaxometryRanges()
    table = sample_relaxometry(RelaxometryMode.RANDOMIZED, ranges, [2, 1], rng)
    for relax in table.values():
        assert 100.0 <= relax.t1_ms <= 5000.0
        assert 10.0 <= relax.t2_ms <= 2000.0
        assert 0.2 <= relax.pd <= 1.2


def test_relaxometry_draws_in_ascending_id_order(rng):
    ranges = RelaxometryRanges()
    a = sample_relaxometry(RelaxometryMode.RANDOMIZED, ranges, [3, 1, 2], np.random.default_rng(7))
    b = sample_relaxometry(RelaxometryMode.RANDOMIZED, ranges, [1, 2, 3], np.random.default_rng(7))
    assert a == b


def small_label_map():
    data = np.zeros((6, 6, 6), dtype=np.int32)
    data[1:3] = 1
    data[3:5] = 2
    return LabelMap(data, (1, 1, 1), LabelScheme.SUBCLASS)


EXAMPLE_TABLE = {
    1: TissueRelaxometry(1800.0, 150.0, pd=0.8),
    2: TissueRelaxometry(2500.0, 1200.0, pd=1.1),
}


def test_rendered_background_is_exactly_zero():
    seq = EpgSequenceParams(te_eff_ms=91.8)
    vol = render_epg_volume(small_label_map(), EXAMPLE_TABLE, seq)
    lab = small_label_map()
    assert not vol.data[lab.data == 0].any()
    assert vol.data[lab.data != 0].min() > 0


def test_rendered_value_is_pd_times_echo():
    seq = EpgSequenceParams(esp_ms=6.12, etl=150, refocus_deg=160.0, te_eff_ms=91.8)
    vol = render_epg_volume(small_label_map(), EXAMPLE_TABLE, seq)
    k = seq.echo_index
    t1, t2 = np.array([EXAMPLE_TABLE[1].t1_ms]), np.array([EXAMPLE_TABLE[1].t2_ms])
    echo = epg_fse_echoes_batch(t1, t2, seq, n_echoes=k, dtype=np.complex64)[k - 1, 0]
    want = np.float32(0.8) * np.float32(echo)
    assert vol.data[1, 0, 0] == want


def test_per_class_and_voxelwise_routes_agree_bitwise(monkeypatch):
    seq = EpgSequenceParams(esp_ms=6.12, etl=150, refocus_deg=155.0, te_eff_ms=150.0)
    lab = small_label_map()
    monkeypatch.setattr(epg, "_SPIN_BATCH", 17)  # several batches over the 144 voxels
    by_class = render_epg_volume(lab, EXAMPLE_TABLE, seq)
    by_voxel = render_epg_volume(lab, EXAMPLE_TABLE, seq, voxelwise=True)
    assert by_class.data.tobytes() == by_voxel.data.tobytes()


def test_render_requires_full_relaxometry_table():
    seq = EpgSequenceParams(te_eff_ms=91.8)
    with pytest.raises(MissingParams):
        render_epg_volume(small_label_map(), {1: EXAMPLE_TABLE[1]}, seq)
