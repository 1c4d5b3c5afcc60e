import numpy as np
import pytest

from drsynth.rng import STAGE_IDS, make_stream


def test_stage_table_is_frozen():
    assert STAGE_IDS == {
        "spatial_affine": 1,
        "spatial_svf": 2,
        "subclass": 3,
        "gmm": 4,
        "bias": 5,
        "gamma": 6,
        "noise": 7,
        "resolution": 8,
        "relaxometry": 9,
        "profile": 10,
        "sequence": 11,
        "gmm_noise": 12,
        "noise_field": 13,
    }


def test_same_triple_same_stream():
    a = make_stream(7, 3, "gmm").random(16)
    b = make_stream(7, 3, "gmm").random(16)
    assert np.array_equal(a, b)


def test_distinct_triples_differ():
    base = make_stream(7, 3, "gmm").random(8)
    assert not np.array_equal(base, make_stream(8, 3, "gmm").random(8))
    assert not np.array_equal(base, make_stream(7, 4, "gmm").random(8))
    assert not np.array_equal(base, make_stream(7, 3, "bias").random(8))


def test_streams_do_not_interact():
    # Drawing from one stage cannot shift what another stage sees.
    a = make_stream(1, 0, "gamma")
    b = make_stream(1, 0, "noise")
    b_alone = make_stream(1, 0, "noise").random(4)
    a.random(100)
    assert np.array_equal(b.random(4), b_alone)


def test_unknown_stage_rejected():
    with pytest.raises(KeyError):
        make_stream(0, 0, "not-a-stage")
