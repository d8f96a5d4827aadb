"""Sampler determinism, coverage, and failure-mode tests."""

from __future__ import annotations

import numpy as np
import pytest

from nasflat import archspace as asp
from nasflat import sampler as smp
from nasflat.devicesets import LatencyTable
from nasflat.errors import (
    DegenerateEncoding,
    MissingEncoding,
    MissingReference,
    PoolTooSmall,
)


@pytest.fixture(scope="module")
def nb201():
    return asp.nb201_space()


@pytest.fixture(scope="module")
def pool(nb201):
    seen, archs = set(), []
    seed = 0
    while len(archs) < 40:
        a = asp.random_architecture(nb201, seed)
        seed += 1
        if a.arch_id not in seen:
            seen.add(a.arch_id)
            archs.append(a)
    return archs


def _encoding_for(pool, vectors):
    return asp.EncodingTable(
        dim=vectors.shape[1],
        rows={a.arch_id: vectors[i] for i, a in enumerate(pool)},
    )


def _proxy_encoding(pool, space):
    return asp.proxy_table(pool, space)


def _mean_pairwise_cosine(ids, encoding):
    vecs = encoding.matrix(ids)
    norms = np.linalg.norm(vecs, axis=1)
    unit = vecs / np.where(norms > 0, norms, 1.0)[:, None]
    sims = unit @ unit.T
    iu = np.triu_indices(len(ids), 1)
    return float(sims[iu].mean())


def test_all_samplers_basic_contract(pool, nb201):
    encoding = _proxy_encoding(pool, nb201)
    reference = LatencyTable()
    rng = np.random.default_rng(0)
    for a in pool:
        reference.add(a.arch_id, "ref0", float(rng.uniform(1, 10)))
    for method in smp.METHODS:
        out = smp.run_sampler(
            method, pool, 7, seed=5, space=nb201,
            encoding=encoding, reference_latencies=reference,
        )
        assert len(out) == 7
        assert len(set(out)) == 7
        assert set(out) <= {a.arch_id for a in pool}
        again = smp.run_sampler(
            method, pool, 7, seed=5, space=nb201,
            encoding=encoding, reference_latencies=reference,
        )
        assert out == again, f"{method} must be deterministic under a fixed seed"


def test_pool_order_does_not_matter(pool, nb201):
    encoding = _proxy_encoding(pool, nb201)
    shuffled = list(reversed(pool))
    for method in ("random", "cosine", "kmeans"):
        a = smp.run_sampler(method, pool, 6, seed=3, space=nb201, encoding=encoding)
        b = smp.run_sampler(method, shuffled, 6, seed=3, space=nb201, encoding=encoding)
        assert a == b


def test_random_full_pool_is_permutation(pool):
    out = smp.sample_random(pool, len(pool), seed=1)
    assert sorted(out) == sorted(a.arch_id for a in pool)


def test_random_frequencies_binomial(pool):
    subset = pool[:10]
    n, trials = 3, 1000
    counts = {a.arch_id: 0 for a in subset}
    for seed in range(trials):
        for arch_id in smp.sample_random(subset, n, seed):
            counts[arch_id] += 1
    expected = trials * n / len(subset)
    sigma = np.sqrt(trials * (n / len(subset)) * (1 - n / len(subset)))
    for arch_id, count in counts.items():
        assert abs(count - expected) <= 3 * sigma


def test_pool_too_small(pool):
    with pytest.raises(PoolTooSmall):
        smp.sample_random(pool, len(pool) + 1, seed=0)
    with pytest.raises(PoolTooSmall):
        smp.sample_random(pool, 0, seed=0)


def test_params_single_and_identity(pool, nb201):
    assert len(smp.sample_params(pool, 1, nb201, seed=0)) == 1
    # distinct param proxies; requesting the whole pool selects everything
    out = smp.sample_params(pool, len(pool), nb201, seed=0)
    assert sorted(out) == sorted(a.arch_id for a in pool)


def test_params_spread_beats_random(pool, nb201):
    proxies = {a.arch_id: asp.graph_proxies(a, nb201)[9] for a in pool}

    def spread(ids):
        vals = [proxies[i] for i in ids]
        return max(vals) - min(vals)

    params_spreads, random_spreads = [], []
    for seed in range(50):
        params_spreads.append(spread(smp.sample_params(pool, 5, nb201, seed)))
        random_spreads.append(spread(smp.sample_random(pool, 5, seed)))
    assert np.mean(params_spreads) >= np.mean(random_spreads)


def test_cosine_orthogonal_selects_all(pool):
    subset = pool[:6]
    encoding = _encoding_for(subset, np.eye(6))
    out = smp.sample_cosine(subset, encoding, 6, seed=2)
    assert sorted(out) == sorted(a.arch_id for a in subset)


def test_cosine_never_selects_both_duplicates(pool):
    subset = pool[:3]
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    encoding = _encoding_for(subset, np.stack([v, v, w]))
    dup_ids = {subset[0].arch_id, subset[1].arch_id}
    for seed in range(30):
        out = set(smp.sample_cosine(subset, encoding, 2, seed=seed))
        assert len(out & dup_ids) == 1, "one duplicate and the orthogonal vector"


def test_cosine_diversity_beats_random(pool, nb201):
    encoding = _proxy_encoding(pool, nb201)
    cos_means, rand_means = [], []
    for seed in range(20):
        cos_means.append(_mean_pairwise_cosine(smp.sample_cosine(pool, encoding, 6, seed), encoding))
        rand_means.append(_mean_pairwise_cosine(smp.sample_random(pool, 6, seed), encoding))
    assert np.mean(cos_means) <= np.mean(rand_means)


def test_cosine_scale_invariance(pool):
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(len(pool), 8))
    scales = rng.uniform(0.1, 10.0, size=len(pool))
    base = smp.sample_cosine(pool, _encoding_for(pool, vectors), 6, seed=9)
    scaled = smp.sample_cosine(pool, _encoding_for(pool, vectors * scales[:, None]), 6, seed=9)
    assert base == scaled


def test_cosine_missing_encoding(pool):
    encoding = _encoding_for(pool[:5], np.eye(5))
    with pytest.raises(MissingEncoding):
        smp.sample_cosine(pool, encoding, 3, seed=0)


def test_kmeans_recovers_planted_blobs(pool):
    rng = np.random.default_rng(8)
    n_blobs = 4
    members = len(pool) // n_blobs
    centers = np.array([[0, 0], [40, 0], [0, 40], [40, 40]], dtype=float)
    vectors = np.concatenate(
        [centers[b] + 0.5 * rng.normal(size=(members, 2)) for b in range(n_blobs)]
    )
    subset = pool[: n_blobs * members]
    encoding = _encoding_for(subset, vectors)
    blob_of = {subset[i].arch_id: i // members for i in range(len(subset))}
    for seed in range(10):
        out = smp.sample_kmeans(subset, encoding, n_blobs, seed=seed)
        assert sorted(blob_of[i] for i in out) == list(range(n_blobs))


def test_kmeans_single_cluster_returns_central_point(pool):
    subset = pool[:5]
    vectors = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
    encoding = _encoding_for(subset, vectors)
    out = smp.sample_kmeans(subset, encoding, 1, seed=0)
    # global centroid is 3.2; the nearest member is 3.0 (index 3)
    assert out == [subset[3].arch_id]


def test_kmeans_degenerate_identical_vectors(pool):
    subset = pool[:6]
    encoding = _encoding_for(subset, np.ones((6, 3)))
    with pytest.raises(DegenerateEncoding):
        smp.sample_kmeans(subset, encoding, 2, seed=0)
    # a single cluster over identical vectors is still well-defined
    assert len(smp.sample_kmeans(subset, encoding, 1, seed=0)) == 1


def test_kmeans_cost_rotation_invariant(pool):
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(len(pool), 4))
    theta = 0.7
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = np.cos(theta)
    rot[0, 1], rot[1, 0] = -np.sin(theta), np.sin(theta)
    out = smp.sample_kmeans(pool, _encoding_for(pool, vectors), 5, seed=3)
    chosen_idx = [i for i, a in enumerate(pool) if a.arch_id in set(out)]
    centroids = vectors[chosen_idx]
    cost_orig = (( vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).min(axis=1).sum()
    rotated = vectors @ rot.T
    cost_rot = ((rotated[:, None, :] - rotated[chosen_idx][None, :, :]) ** 2).sum(axis=2).min(axis=1).sum()
    assert cost_rot == pytest.approx(cost_orig, abs=1e-9)


def _reference_table(pool, fn):
    table = LatencyTable()
    for i, a in enumerate(pool):
        table.add(a.arch_id, "ref0", fn(i))
    return table


def test_latency_oracle_spans_quantiles(pool):
    table = _reference_table(pool, lambda i: 1.0 + i)
    out = smp.sample_latency_oracle(pool, table, 5, seed=1)
    latency = dict(zip(*table.measured("ref0")))
    lats = sorted(latency[i] for i in out)
    all_lats = sorted(latency[a.arch_id] for a in pool)
    # the monotone reference forces coverage of both extremes
    assert lats[0] <= np.quantile(all_lats, 0.25)
    assert lats[-1] >= np.quantile(all_lats, 0.75)


def test_latency_oracle_all_equal_falls_back_to_seeded_choice(pool):
    table = _reference_table(pool, lambda i: 5.0)
    first = smp.sample_latency_oracle(pool, table, 4, seed=0)
    assert len(set(first)) == 4
    distinct = {tuple(smp.sample_latency_oracle(pool, table, 4, seed=s)) for s in range(6)}
    assert len(distinct) > 1, "ties must be broken by the seed"


def test_latency_oracle_spread_beats_random(pool):
    rng = np.random.default_rng(17)
    values = rng.uniform(1, 100, size=len(pool))
    table = _reference_table(pool, lambda i: float(values[i]))
    latency = dict(zip(*table.measured("ref0")))

    def spread(ids):
        lats = [latency[i] for i in ids]
        return max(lats) - min(lats)

    oracle_spreads, random_spreads = [], []
    for seed in range(30):
        oracle_spreads.append(spread(smp.sample_latency_oracle(pool, table, 5, seed)))
        random_spreads.append(spread(smp.sample_random(pool, 5, seed)))
    assert np.mean(oracle_spreads) >= np.mean(random_spreads)


def test_latency_oracle_missing_reference(pool):
    table = _reference_table(pool[:5], lambda i: 1.0 + i)
    with pytest.raises(MissingReference):
        smp.sample_latency_oracle(pool, table, 3, seed=0)


def test_run_sampler_unknown_method(pool):
    with pytest.raises(ValueError, match="random"):
        smp.run_sampler("bogus", pool, 3, seed=0)
