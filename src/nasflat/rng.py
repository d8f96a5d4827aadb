"""Deterministic seed derivation.

All randomness in the package flows from integer seeds. Sub-seeds are derived
by hashing (master seed, name) with SHA-256, never with Python's salted
hash(), so runs reproduce byte-for-byte across processes and machines.

The bulk draws compute, for a whole block of seeds at once, what
`np.random.default_rng(seed)` would: `raw_stream` steps every seed's PCG64
stream in numpy uint64 arithmetic, and `bounded_draws` and `uniform_draws`
turn its words into `integers` and `uniform` draws the way numpy does.
`seeded` puts one Generator, seed after seed, in the state that
`default_rng(seed)` starts in, for the draws that need a real Generator.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# PCG64's 128-bit LCG multiplier: its high word, and its low word's two 32-bit limbs.
_MULT_HI, _MULT_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)
_MULT_L0, _MULT_L1 = _U64(0x9FCCF645), _U64(0x4385DF64)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def stable_seed(*parts: object) -> int:
    """Derive a 63-bit seed from a non-empty tuple of printable parts."""
    return stable_seeds(parts[:-1], parts[-1:])[0]


def stable_seeds(prefix: Sequence[object], keys: Iterable[object]) -> list[int]:
    """`[stable_seed(*prefix, key) for key in keys]`: the top 63 bits of the
    first 8 bytes of the SHA-256 of the ':'-joined parts, with the shared
    prefix hashed once."""
    base = hashlib.sha256("".join(f"{p}:" for p in prefix).encode("utf-8"))
    seeds = []
    for key in keys:
        h = base.copy()
        h.update(str(key).encode("utf-8"))
        seeds.append(int.from_bytes(h.digest()[:8], "big") >> 1)
    return seeds


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


def _mul_hi(a: np.ndarray) -> np.ndarray:
    """The high 64 bits of each `a * _MULT_LO`, from 32-bit limb products."""
    a0, a1 = a & _LOW32, a >> _U64(32)
    p00, p01, p10, p11 = a0 * _MULT_L0, a0 * _MULT_L1, a1 * _MULT_L0, a1 * _MULT_L1
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return p11 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * mult + inc mod 2**128, on (high, low) uint64 words."""
    new_lo = lo * _MULT_LO + inc_lo
    carry = new_lo < inc_lo
    return _mul_hi(lo) + hi * _MULT_LO + lo * _MULT_HI + inc_hi + carry, new_lo


def _start_states(seeds: Sequence[int]):
    """(state high, state low, inc high, inc low) uint64 arrays: the PCG64 state
    `np.random.default_rng(seed)` starts in, for each seed (each in 0..2**64 - 1)."""
    s_hi, s_lo, i_hi, i_lo = _pcg64_words(np.asarray(seeds, dtype=np.uint64)).T
    # PCG64's seeding: inc = 2i + 1, then two LCG steps from 0 with s added between.
    inc_hi, inc_lo = (i_hi << _U64(1)) | (i_lo >> _U64(63)), (i_lo << _U64(1)) | _U64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    return (*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def raw_stream(seeds: Sequence[int], k: int) -> np.ndarray:
    """The first k raw 64-bit outputs of each `default_rng(seed).bit_generator`,
    as a (len(seeds), k) uint64 array: every seed's PCG64 stream stepped at once."""
    hi, lo, inc_hi, inc_lo = _start_states(seeds)
    out = np.empty((len(hi), k), dtype=np.uint64)
    for t in range(k):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U64(58)  # XSL-RR: xor the halves, rotate by the top 6 bits
        out[:, t] = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return out


def bounded_draws(seeds: Sequence[int], bound: int, size: int) -> np.ndarray:
    """`np.random.default_rng(seed).integers(bound, size=size)` for each seed
    (bound in 1..2**32), as a (len(seeds), size) int64 array.

    numpy draws each value by Lemire's method from the next 32-bit half of the
    stream, low half first. A half whose leftover falls below 2**32 mod bound is
    rejected and drawn again; a row that meets one is drawn by a real Generator.
    """
    k = (size + 1) // 2
    words = raw_stream(seeds, k)
    halves = np.stack([words & _LOW32, words >> _U64(32)], axis=2).reshape(len(words), 2 * k)
    m = halves[:, :size] * _U64(bound)
    out = (m >> _U64(32)).astype(np.int64)
    for i in np.flatnonzero(((m & _LOW32) < _U64(2**32 % bound)).any(axis=1)).tolist():
        out[i] = np.random.default_rng(int(seeds[i])).integers(bound, size=size)
    return out


def uniform_draws(seeds: Sequence[int]) -> np.ndarray:
    """`np.random.default_rng(seed).uniform(0.0, 1.0)` for each seed: the top 53
    bits of its first output over 2**53."""
    return (raw_stream(seeds, 1)[:, 0] >> _U64(11)) * 2.0**-53


def seeded(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed in order (each in 0..2**64 - 1), one reused Generator in
    the state that `np.random.default_rng(seed)` starts in."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for row in np.stack(_start_states(seeds), axis=1):
        s_hi, s_lo, i_hi, i_lo = row.tolist()  # row by row: no list of every seed's words
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                      "has_uint32": 0, "uinteger": 0}
        yield gen
