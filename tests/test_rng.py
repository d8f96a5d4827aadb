"""Bulk seeding: `rng.seeded` starts each Generator where `default_rng` does."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasflat.rng import seeded

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def _draws(rng) -> str:
    """repr of a mix of draws. The first float32 draw reads the bit generator's
    buffered 32-bit half-word, which every seed must start without; the third
    leaves one buffered for the next Generator state to clear."""
    return repr((
        rng.random(3, dtype=np.float32).tolist(), rng.normal(), rng.uniform(0.0, 1.0),
        rng.integers(0, 5, size=3).tolist(), rng.integers(0, 9, size=22).tolist(),
        rng.normal(size=3).tolist(),
    ))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seeds=st.lists(st.integers(0, 2**63 - 1), max_size=8))
@example(seeds=EDGE_SEEDS)
@example(seeds=[])
def test_seeded_matches_default_rng_bit_for_bit(seeds):
    assert [_draws(rng) for rng in seeded(seeds)] == [_draws(np.random.default_rng(s)) for s in seeds]
