"""Deterministic seed derivation and keyed draws.

All randomness in the package flows from integer seeds. Sub-seeds are derived
by hashing (master seed, name) with SHA-256, never with Python's salted
hash(), so runs reproduce byte-for-byte across processes and machines.

The synthetic world's draws (architectures, accuracies, latency noise) are
keyed: a key's draws are read straight from the SHAKE-128 digest of the
':'-joined (*prefix, key), so each depends on that key alone and on no
Generator. Draw i is the digest's 64-bit big-endian word i, and the first j of
k draws are a j-draw request.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np


def stable_seed(*parts: object) -> int:
    """A 63-bit seed: the top 63 bits of the first 8 bytes of the SHA-256 of
    the ':'-joined parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy Generator seeded from stable_seed(*parts)."""
    return np.random.default_rng(stable_seed(*parts))


def _keyed_words(prefix: Sequence[object], keys: Iterable[object], k: int) -> np.ndarray:
    """(len(keys), k) uint64: the first k big-endian 64-bit words of the SHAKE-128
    digest of each key's ':'-joined (*prefix, key), the prefix hashed once."""
    base = hashlib.shake_128("".join(f"{p}:" for p in prefix).encode("utf-8"))
    digests = []
    for key in keys:
        h = base.copy()
        h.update(str(key).encode("utf-8"))
        digests.append(h.digest(8 * k))
    return np.frombuffer(b"".join(digests), dtype=">u8").reshape(len(digests), k)


def keyed_ints(prefix: Sequence[object], keys: Iterable[object], bound: int, k: int) -> np.ndarray:
    """(len(keys), k) int64 draws in [0, bound) (bound in 1..2**32): each word's
    top 32 bits times bound, shifted down 32 bits."""
    return ((_keyed_words(prefix, keys, k) >> 32) * np.uint64(bound) >> 32).astype(np.int64)


def keyed_uniforms(prefix: Sequence[object], keys: Iterable[object], k: int) -> np.ndarray:
    """(len(keys), k) float64 draws in (0, 1): each word's top 52 bits as an odd
    multiple of 2**-53, so neither 0 nor 1 is ever drawn."""
    return (_keyed_words(prefix, keys, k) >> 11 | 1) * 2.0**-53


def keyed_normals(prefix: Sequence[object], keys: Iterable[object]) -> list[float]:
    """One standard normal draw per key: the inverse normal CDF of its first
    uniform, computed value by value."""
    from statistics import NormalDist  # imported here: only `synth` draws noise

    return list(map(NormalDist().inv_cdf, keyed_uniforms(prefix, keys, 1)[:, 0].tolist()))
