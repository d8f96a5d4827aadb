"""Keyed draws: each key's ints, uniforms and normals are read from the SHAKE-128
digest of its ':'-joined (*prefix, key) alone, and `stable_seed` gives the
SHA-256 seed of the ':'-joined parts."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasflat import archspace as asp
from nasflat import cli
from nasflat import synthbench as sb
from nasflat.rng import keyed_ints, keyed_normals, keyed_uniforms, stable_seed

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)
PREFIXES = st.lists(st.one_of(st.integers(), st.text()), max_size=3)
KEYS = st.lists(st.one_of(st.integers(0, 2**40), st.text()), max_size=8)
FREQUENCY_KEYS = 20_000


def _shake_words(prefix, key, k) -> list[int]:
    """The first k big-endian 64-bit words of the SHAKE-128 of the ':'-joined parts."""
    digest = hashlib.shake_128(":".join(map(str, [*prefix, key])).encode("utf-8")).digest(8 * k)
    return [int.from_bytes(digest[8 * i : 8 * i + 8], "big") for i in range(k)]


@PROPERTY
@given(prefix=PREFIXES, keys=KEYS, k=st.integers(0, 23))
@example(prefix=["noise", 7], keys=["3f2a", "", "é:∂"], k=22)
@example(prefix=[], keys=[], k=3)
def test_draws_are_read_from_each_keys_digest(prefix, keys, k):
    words = [_shake_words(prefix, key, k) for key in keys]
    ints = keyed_ints(prefix, keys, 2**32, k)
    assert ints.dtype == np.int64 and ints.shape == (len(keys), k)
    assert ints.tolist() == [[w >> 32 for w in row] for row in words]
    uniforms = keyed_uniforms(prefix, keys, k)
    assert uniforms.dtype == np.float64 and uniforms.shape == (len(keys), k)
    assert uniforms.tolist() == [[((w >> 11) | 1) / 2**53 for w in row] for row in words]


@PROPERTY
@given(prefix=PREFIXES, keys=KEYS, k=st.integers(1, 12), bound=st.integers(1, 12))
@example(prefix=["arch", 0], keys=[0, 1, 0, 2], k=6, bound=5)
def test_a_keys_draws_depend_on_no_other_key_in_the_call(prefix, keys, k, bound):
    alone = {str(key): (keyed_ints(prefix, [key], bound, k)[0].tolist(),
                        keyed_uniforms(prefix, [key], k)[0].tolist()) for key in keys}
    for call in (keys, keys[::-1], keys + keys[:3]):  # other keys, another order, duplicates
        ints, uniforms = keyed_ints(prefix, call, bound, k), keyed_uniforms(prefix, call, k)
        assert [alone[str(key)] for key in call] == list(zip(ints.tolist(), uniforms.tolist()))
    normals = keyed_normals(prefix, keys)
    assert normals == [keyed_normals(prefix, [key])[0] for key in keys]


@PROPERTY
@given(prefix=PREFIXES, keys=KEYS, k=st.integers(0, 23), j=st.integers(0, 23), bound=st.integers(1, 12))
def test_the_first_j_of_k_draws_are_a_j_draw_request(prefix, keys, k, j, bound):
    j = min(j, k)
    uniforms, ints = keyed_uniforms(prefix, keys, k), keyed_ints(prefix, keys, bound, k)
    assert uniforms[:, :j].tolist() == keyed_uniforms(prefix, keys, j).tolist()
    assert ints[:, :j].tolist() == keyed_ints(prefix, keys, bound, j).tolist()


@pytest.mark.parametrize("bound", [1, 2, 5, 9, 13])
def test_ints_are_in_range_and_each_value_about_equally_frequent(bound):
    """Over 20,000 keys x 3 draws, every draw lies in [0, bound), and in each draw
    column each value's count lies within 5 binomial standard deviations of
    keys / bound."""
    ints = keyed_ints(("frequency", bound), range(FREQUENCY_KEYS), bound, 3)
    assert ints.min() >= 0 and ints.max() < bound
    p = 1 / bound
    slack = 5 * math.sqrt(FREQUENCY_KEYS * p * (1 - p))
    for column in ints.T:
        counts = np.bincount(column, minlength=bound)
        assert np.all(np.abs(counts - FREQUENCY_KEYS * p) <= slack), counts


def test_uniforms_lie_strictly_inside_the_unit_interval():
    u = keyed_uniforms(("unit",), range(FREQUENCY_KEYS), 4)
    assert 0.0 < u.min() and u.max() < 1.0
    assert abs(float(u.mean()) - 0.5) <= 5 * math.sqrt(1 / 12 / u.size)


def test_normals_have_mean_0_and_std_1():
    """Over 20,000 keys the mean lies within 5 standard errors (0.035) of 0 and
    the sample std within 0.02 of 1 (its standard error is about 0.005)."""
    z = np.array(keyed_normals(("normal",), range(FREQUENCY_KEYS)))
    assert abs(float(z.mean())) <= 5 / math.sqrt(FREQUENCY_KEYS)
    assert abs(float(z.std()) - 1.0) <= 0.02
    assert np.isfinite(z).all()


def test_synthetic_draws_use_no_numpy_generator(monkeypatch):
    """Architectures, accuracies and latency noise are drawn with numpy's
    Generator out of reach; the device itself is drawn before."""
    space = asp.nb201_space()
    device = sb.gen_device(3, space, sigma=0.05)

    def refuse(*args, **kwargs):
        raise AssertionError("a keyed draw reached numpy's Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    archs = sb.distinct_random_architectures(space, 300, seed=5)
    assert len({a.arch_id for a in archs}) == 300
    accuracy = cli.synthetic_accuracies(archs, seed=5)
    assert all(0.0 < v < 1.0 for v in accuracy.values())
    noisy = sb.latencies(archs, device, space)
    assert np.isfinite(noisy).all() and (noisy > 0).all()
    assert asp.random_architecture(space, 5).arch_id == archs[0].arch_id


def _sha256_seed(*parts) -> int:
    key = ":".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big") >> 1


@PROPERTY
@given(parts=st.lists(st.one_of(st.integers(), st.text()), min_size=1, max_size=4))
@example(parts=["noise", 7, "3f2a"])
@example(parts=["é:∂"])
def test_stable_seed_is_the_sha256_of_the_joined_parts(parts):
    assert stable_seed(*parts) == _sha256_seed(*parts)
