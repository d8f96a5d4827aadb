"""Deterministic seed derivation.

All randomness in the package flows from integer seeds. Sub-seeds are derived
by hashing (master seed, name) with SHA-256, never with Python's salted
hash(), so runs reproduce byte-for-byte across processes and machines.

`seeded` puts one Generator, seed after seed, in the state that
`np.random.default_rng(seed)` starts in, hashing the seeds in bulk.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator, Sequence

import numpy as np

_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def stable_seed(*parts: object) -> int:
    """Derive a 63-bit seed from an arbitrary tuple of printable parts."""
    key = ":".join(map(str, parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy Generator seeded from stable_seed(*parts)."""
    return np.random.default_rng(stable_seed(*parts))


def _consts(init: int, mult: int, n: int) -> list[np.uint32]:
    out = [init]
    while len(out) <= n:
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in out]


# numpy SeedSequence's hash constants: pool fills and cross-mixes, output words.
_A = _consts(0x43B0D7E5, 0x931E8875, 16)
_B = _consts(0x8B51F9DD, 0x58F38DED, 8)


def _hash(v: np.ndarray, consts: list[np.uint32], i: int) -> np.ndarray:
    v = (v ^ consts[i]) * consts[i + 1]
    return v ^ (v >> np.uint32(16))


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for each uint64 seed: the
    seed's two 32-bit words as entropy in a pool of four, as an (n, 4) array."""
    with np.errstate(over="ignore"):
        zero = np.zeros(len(seeds), dtype=np.uint32)
        low, high = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
        pool = [_hash(w.astype(np.uint32), _A, i) for i, w in enumerate((low, high, zero, zero))]
        for i, (src, dst) in enumerate(itertools.permutations(range(4), 2), start=4):
            r = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _A, i)
            pool[dst] = r ^ (r >> np.uint32(16))
        words = np.stack([_hash(pool[i % 4], _B, i) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8")


def seeded(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed in order (each in 0..2**64 - 1), one reused Generator in
    the state that `np.random.default_rng(seed)` starts in."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for row in _pcg64_words(np.asarray(seeds, dtype=np.uint64)):
        s_hi, s_lo, i_hi, i_lo = row.tolist()  # row by row: no list of every seed's words
        # PCG64's seeding: inc = 2i + 1, then two LCG steps from 0 with s added between.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield gen
