"""Architecture selection for few-shot transfer measurement budgets.

Five strategies over a candidate pool: uniform random, parameter-stratified,
two encoding-driven methods (greedy farthest-point under cosine similarity,
and k-means cluster medoids), and a reference-latency variant that runs the
cosine procedure on standardized per-device latency vectors.

All samplers return arch_id lists with no duplicates, length exactly n, and
are deterministic for a fixed seed: candidates are canonicalized by sorting
on arch_id before any seeded choice, so pool order never matters. Exact ties
are resolved by a seeded draw over the tied candidates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import SAMPLER_METHODS as METHODS
from .archspace import Architecture, EncodingTable, SearchSpace, graph_proxies
from .devicesets import LatencyTable
from .errors import (
    DegenerateEncoding,
    MissingEncoding,
    MissingReference,
    PoolTooSmall,
)
from .rng import rng_for

_PARAM_PROXY_INDEX = 9  # graph_proxies feature order: param_estimate


def _canonical_pool(pool: Sequence[Architecture], n: int) -> list[Architecture]:
    by_id = {a.arch_id: a for a in pool}
    if n < 1 or n > len(by_id):
        raise PoolTooSmall(f"requested {n} from a pool of {len(by_id)}")
    return [by_id[k] for k in sorted(by_id)]


def sample_random(pool: Sequence[Architecture], n: int, seed: int) -> list[str]:
    """Uniform selection without replacement."""
    archs = _canonical_pool(pool, n)
    rng = rng_for("sample", "random", seed)
    picks = rng.permutation(len(archs))[:n]
    return [archs[i].arch_id for i in picks]


def sample_params(pool: Sequence[Architecture], n: int, space: SearchSpace, seed: int) -> list[str]:
    """One pick per equal-quantile bin of the parameter-estimate proxy."""
    archs = _canonical_pool(pool, n)
    rng = rng_for("sample", "params", seed)
    params = np.array([graph_proxies(a, space)[_PARAM_PROXY_INDEX] for a in archs])
    order = np.argsort(params, kind="stable")
    bins = np.array_split(order, n)
    return [archs[int(rng.choice(b))].arch_id for b in bins]


def _cosine_matrix(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity; zero vectors get similarity 0 everywhere."""
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = vectors / safe[:, None]
    sims = unit @ unit.T
    zero = norms == 0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims


def _farthest_point(sims: np.ndarray, n: int, rng: np.random.Generator) -> list[int]:
    """Greedy max-min selection: minimize max similarity to the chosen set."""
    count = sims.shape[0]
    start = int(rng.integers(count))
    chosen = [start]
    max_sim = sims[start].copy()
    max_sim[start] = np.inf
    for _ in range(n - 1):
        lo = max_sim.min()
        ties = np.flatnonzero(max_sim <= lo + 1e-12)
        pick = int(rng.choice(ties)) if len(ties) > 1 else int(ties[0])
        chosen.append(pick)
        max_sim = np.maximum(max_sim, sims[pick])
        max_sim[pick] = np.inf
    return chosen


def sample_cosine(pool: Sequence[Architecture], encoding: EncodingTable, n: int, seed: int) -> list[str]:
    """Farthest-point selection under cosine similarity of the encoding."""
    archs = _canonical_pool(pool, n)
    vectors = encoding.matrix([a.arch_id for a in archs])
    rng = rng_for("sample", "cosine", seed)
    chosen = _farthest_point(_cosine_matrix(vectors), n, rng)
    return [archs[i].arch_id for i in chosen]


def sample_kmeans(pool: Sequence[Architecture], encoding: EncodingTable, n: int, seed: int) -> list[str]:
    """k-means (k = n, k-means++ seeding) returning each cluster's medoid.

    Lloyd iterations run until centroid shift < 1e-9 or 300 rounds. Clusters
    left empty are backfilled with the unchosen points farthest from any
    centroid. All-identical encodings cannot be segmented and raise
    DegenerateEncoding.
    """
    archs = _canonical_pool(pool, n)
    vectors = encoding.matrix([a.arch_id for a in archs])
    if n > 1 and np.all(vectors == vectors[0]):
        raise DegenerateEncoding("all encoding vectors identical; cannot form n > 1 clusters")
    rng = rng_for("sample", "kmeans", seed)

    centroids = _kmeanspp_init(vectors, n, rng)
    for _ in range(300):
        dists = _sq_dists(vectors, centroids)
        labels = np.argmin(dists, axis=1)
        new_centroids = centroids.copy()
        for c in range(n):
            members = vectors[labels == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < 1e-9:
            break

    dists = _sq_dists(vectors, centroids)
    labels = np.argmin(dists, axis=1)
    chosen: list[int] = []
    for c in range(n):
        members = np.flatnonzero(labels == c)
        if len(members) == 0:
            continue
        best = members[np.argmin(dists[members, c])]
        chosen.append(int(best))
    if len(chosen) < n:
        # farthest-from-any-centroid backfill for empty clusters
        remaining = [i for i in range(len(archs)) if i not in set(chosen)]
        min_dist = dists.min(axis=1)
        remaining.sort(key=lambda i: (-min_dist[i], archs[i].arch_id))
        chosen.extend(remaining[: n - len(chosen)])
    return [archs[i].arch_id for i in chosen]


def _kmeanspp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    count = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[int(rng.integers(count))]
    closest = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            # all remaining points coincide with a centroid; any point works
            centroids[c] = vectors[int(rng.integers(count))]
            continue
        probs = closest / total
        pick = int(rng.choice(count, p=probs))
        centroids[c] = vectors[pick]
        closest = np.minimum(closest, ((vectors - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _sq_dists(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def sample_latency_oracle(
    pool: Sequence[Architecture], reference_latencies: LatencyTable, n: int, seed: int
) -> list[str]:
    """Farthest-point selection on standardized reference-device latencies.

    Uses every reference device that covers the whole pool; each device's
    column is standardized so no single device's scale dominates. A constant
    homogeneous coordinate is appended before the cosine step: without it a
    single reference device degenerates to sign comparison (cosine of 1-D
    z-scores is +/-1) and the selection cannot spread over quantiles.
    """
    archs = _canonical_pool(pool, n)
    ids = [a.arch_id for a in archs]
    cols = []
    for d in sorted(reference_latencies.devices()):
        got, v = reference_latencies.measured(d, ids)
        if len(got) == len(ids):  # the device covers the pool: ids are sorted and distinct
            std = v.std()
            cols.append((v - v.mean()) / std if std > 0 else np.zeros_like(v))
    if not cols:
        raise MissingReference(f"no reference device covers the candidate pool of {len(ids)} archs")
    cols.append(np.ones(len(ids)))
    vectors = np.stack(cols, axis=1)
    rng = rng_for("sample", "latency_oracle", seed)
    chosen = _farthest_point(_cosine_matrix(vectors), n, rng)
    return [ids[i] for i in chosen]


def run_sampler(
    method: str,
    pool: Sequence[Architecture],
    n: int,
    seed: int,
    space: SearchSpace | None = None,
    encoding: EncodingTable | None = None,
    reference_latencies: LatencyTable | None = None,
) -> list[str]:
    """Dispatch a sampler by its CLI-facing name."""
    if method == "random":
        return sample_random(pool, n, seed)
    if method == "params":
        if space is None:
            raise ValueError("params sampler needs the search space")
        return sample_params(pool, n, space, seed)
    if method == "cosine":
        if encoding is None:
            raise MissingEncoding("cosine sampler needs an encoding table")
        return sample_cosine(pool, encoding, n, seed)
    if method == "kmeans":
        if encoding is None:
            raise MissingEncoding("kmeans sampler needs an encoding table")
        return sample_kmeans(pool, encoding, n, seed)
    if method == "latency_oracle":
        if reference_latencies is None:
            raise MissingReference("latency_oracle sampler needs reference latencies")
        return sample_latency_oracle(pool, reference_latencies, n, seed)
    raise ValueError(f"unknown sampler {method!r}; valid: {', '.join(METHODS)}")
