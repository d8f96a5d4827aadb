"""Bulk draws: `rng.seeded` starts each Generator where `default_rng` does, the
bulk stream's words, bounded ints and uniforms are `default_rng`'s draws, and
`stable_seed` and `stable_seeds` give the SHA-256 seed of the ':'-joined parts."""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasflat.rng import bounded_draws, raw_stream, seeded, stable_seed, stable_seeds, uniform_draws

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
NEAR_2_31 = 2**31 + 1  # 2**32 mod it is 2**31 - 1: about half of all halves are rejected
SEEDS = st.lists(st.integers(0, 2**64 - 1), max_size=8)
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)


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


@PROPERTY
@given(seeds=SEEDS, k=st.integers(0, 12))
@example(seeds=EDGE_SEEDS, k=11)
@example(seeds=[], k=3)
def test_raw_stream_is_each_bit_generators_raw_output(seeds, k):
    words = raw_stream(seeds, k)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), k)
    assert words.tolist() == [np.random.default_rng(s).bit_generator.random_raw(k).tolist() for s in seeds]


@PROPERTY
@given(seeds=SEEDS, bound=st.one_of(st.integers(2, 12), st.just(NEAR_2_31)), size=st.integers(0, 23))
@example(seeds=EDGE_SEEDS, bound=9, size=22)
@example(seeds=EDGE_SEEDS, bound=5, size=6)
@example(seeds=EDGE_SEEDS, bound=NEAR_2_31, size=7)
@example(seeds=[], bound=5, size=6)
def test_bounded_draws_are_default_rng_integers(seeds, bound, size):
    got = bounded_draws(seeds, bound, size)
    assert got.shape == (len(seeds), size)
    assert repr(got.tolist()) == repr([np.random.default_rng(s).integers(bound, size=size).tolist() for s in seeds])


def test_bounded_draws_near_2_31_take_the_rejection_fallback():
    """Lemire's rejection zone is met, by the halves numpy reads low half first,
    in some EDGE_SEEDS rows of three draws and missed in another, so both the
    bulk path and the fallback are checked."""
    threshold = 2**32 % NEAR_2_31
    rejected = []
    for s in EDGE_SEEDS:
        words = np.random.default_rng(s).bit_generator.random_raw(2).tolist()
        halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)][:3]
        rejected.append(any(h * NEAR_2_31 % 2**32 < threshold for h in halves))
    assert any(rejected) and not all(rejected)
    want = [np.random.default_rng(s).integers(NEAR_2_31, size=3).tolist() for s in EDGE_SEEDS]
    assert bounded_draws(EDGE_SEEDS, NEAR_2_31, 3).tolist() == want


@PROPERTY
@given(seeds=SEEDS)
@example(seeds=EDGE_SEEDS)
@example(seeds=[])
def test_uniform_draws_are_default_rng_uniform(seeds):
    got = uniform_draws(seeds)
    assert got.dtype == np.float64
    assert repr(got.tolist()) == repr([np.random.default_rng(s).uniform(0.0, 1.0) for s in seeds])


def _sha256_seed(*parts) -> int:
    key = ":".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big") >> 1


@PROPERTY
@given(prefix=st.lists(st.one_of(st.integers(), st.text()), max_size=3),
       keys=st.lists(st.one_of(st.integers(0, 2**40), st.text()), max_size=8))
@example(prefix=["noise", 7], keys=["3f2a", "", "é:∂"])
@example(prefix=[], keys=[0, "arch"])
def test_stable_seeds_are_stable_seed_of_prefix_and_key(prefix, keys):
    want = [_sha256_seed(*prefix, key) for key in keys]
    assert stable_seeds(prefix, keys) == want
    assert [stable_seed(*prefix, key) for key in keys] == want
