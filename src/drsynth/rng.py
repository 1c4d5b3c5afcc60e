"""Deterministic, counter-based random streams.

Every randomized stage of the pipeline draws from its own stream keyed by
``(master_seed, sample_index, stage)``.  Streams are built on the Philox
counter-based bit generator, so the draws a stage makes are a pure function
of the key: worker scheduling, batching, or stage reordering cannot change
what any one stage sees.
"""

from __future__ import annotations

import numpy as np

# Frozen stage-name table.  Appending is fine; renumbering is not, because
# stage ids feed the stream keys recorded in provenance sidecars.
STAGE_IDS = {
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


def make_stream(master_seed: int, sample_index: int, stage: str) -> np.random.Generator:
    """Return the random stream for one (seed, sample, stage) triple.

    The same triple always yields the same sequence of draws; distinct
    triples yield statistically independent sequences.
    """
    if stage not in STAGE_IDS:
        raise KeyError(f"unknown rng stage {stage!r}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(sample_index, STAGE_IDS[stage]))
    return np.random.Generator(np.random.Philox(seq))
