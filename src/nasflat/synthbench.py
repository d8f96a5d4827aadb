"""Synthetic device-latency oracle.

Stands in for on-device measurement benches at desk scale. A device is a
per-op base cost vector plus a pairwise fusion-discount matrix: an
architecture's latency is the layerwise cost sum minus a discount for every
adjacent op pair (two slot nodes joined by an edge of the space's lowered
DAG), scaled by multiplicative log-normal noise. Noise is keyed by (device
seed, arch_id) so repeated queries return identical values regardless of
call order.

Families of correlated devices are built by cloning: a clone shares the
parent's cost structure, optionally jittered, which plants a controllable
cross-device rank correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .archspace import Architecture, SearchSpace, random_ops, write_architectures
from .devicesets import LatencyTable
from .errors import NoiseOutOfRange, PoolTooSmall
from .rng import keyed_normals, rng_for, stable_seed

DRAW_BLOCK = 1024  # random-architecture draws per call of `random_ops`


@dataclass(frozen=True)
class SyntheticDevice:
    device_id: str
    space_id: str
    base_costs: np.ndarray        # per-op, ms, strictly positive
    fusion_discounts: np.ndarray  # (V, V) in [0, 1)
    noise_sigma: float
    seed: int

    def __post_init__(self):
        costs = np.asarray(self.base_costs, dtype=np.float64)
        disc = np.asarray(self.fusion_discounts, dtype=np.float64)
        if np.any(costs <= 0):
            raise ValueError("base costs must be positive")
        if np.any(disc < 0) or np.any(disc >= 1):
            raise ValueError("fusion discounts must lie in [0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        costs.flags.writeable = False
        disc.flags.writeable = False
        object.__setattr__(self, "base_costs", costs)
        object.__setattr__(self, "fusion_discounts", disc)


def gen_device(
    seed: int,
    space: SearchSpace,
    device_id: str | None = None,
    max_discount: float = 0.2,
    sigma: float = 0.0,
    clone_of: SyntheticDevice | None = None,
    cost_jitter: float = 0.0,
) -> SyntheticDevice:
    """Seeded draw of a synthetic device for the given space.

    With clone_of, the parent's base costs and discounts are reused (jittered
    log-normally by cost_jitter) while the noise stream stays independent, so
    correlation to the parent is dialed by cost_jitter and sigma.
    """
    rng = rng_for("device", seed)
    vocab = len(space.op_vocab)
    if clone_of is not None:
        costs = clone_of.base_costs.copy()
        if cost_jitter > 0:
            costs = costs * np.exp(rng.normal(0.0, cost_jitter, size=vocab))
        discounts = clone_of.fusion_discounts.copy()
    else:
        costs = np.exp(rng.uniform(math.log(0.1), math.log(8.0), size=vocab))  # ms
        discounts = rng.uniform(0.0, max_discount, size=(vocab, vocab))
    if device_id is None:
        device_id = f"dev_{seed}"
    return SyntheticDevice(
        device_id=device_id,
        space_id=space.space_id,
        base_costs=costs,
        fusion_discounts=discounts,
        noise_sigma=sigma,
        seed=seed,
    )


def latencies(archs: Sequence[Architecture], device: SyntheticDevice, space: SearchSpace) -> np.ndarray:
    """Deterministic latency in ms of each architecture on one device: op costs
    summed along the slot axis, minus discounts added edge by edge in
    `space.slot_edges` order, times the noise factor keyed by (device seed, arch_id).
    Raises NoiseOutOfRange if the noise takes a latency to 0 or infinity."""
    costs = device.base_costs
    ops = np.array([a.ops for a in archs], dtype=np.intp).reshape(len(archs), space.slot_count)
    op_costs = costs[ops]
    discount = np.zeros(len(archs))
    for su, sv in space.slot_edges:
        pair = device.fusion_discounts[ops[:, su], ops[:, sv]]
        discount += pair * np.minimum(op_costs[:, su], op_costs[:, sv])
    values = op_costs.sum(axis=1) - discount
    if device.noise_sigma > 0:
        z = keyed_normals(("noise", device.seed), [a.arch_id for a in archs])
        try:
            values *= [math.exp(device.noise_sigma * v) for v in z]
        except OverflowError:
            values[:] = math.inf
        bad = values[(values <= 0) | (values == math.inf)]
        if len(bad):
            raise NoiseOutOfRange(f"noise sigma {device.noise_sigma} takes a latency of device "
                                  f"{device.device_id!r} to {float(bad[0])!r}; use a smaller sigma")
    return values


def measure(
    archs: Sequence[Architecture], devices: Sequence[SyntheticDevice], space: SearchSpace
) -> LatencyTable:
    """Latency table covering every (arch, device) pair."""
    ids = [a.arch_id for a in archs]
    return LatencyTable({d.device_id: dict(zip(ids, latencies(archs, d, space))) for d in devices})


def distinct_random_architectures(space: SearchSpace, n: int, seed: int) -> list[Architecture]:
    """n architectures with distinct ops: draw d is `random_ops` keyed by
    ("arch", seed, d), skipped if an earlier draw gave its ops."""
    size = len(space.op_vocab) ** space.slot_count
    if n > size:
        raise PoolTooSmall(f"space {space.space_id!r} has {size} architectures; cannot draw {n} distinct ones")
    archs: list[Architecture] = []
    seen: set[tuple[int, ...]] = set()
    start = 0
    while len(archs) < n:
        for ops in random_ops(space, ("arch", seed), range(start, start + DRAW_BLOCK)):
            if ops not in seen:
                seen.add(ops)
                archs.append(Architecture(space.space_id, ops))
                if len(archs) == n:
                    break
        start += DRAW_BLOCK
    return archs


def mixed_family(
    space: SearchSpace, n_devices: int, seed: int, sigma: float = 0.03
) -> list[SyntheticDevice]:
    """A device family with a spread of planted cross-correlations.

    Two independent parents; the remaining devices are clones of alternating
    parents with increasing cost jitter, giving pairwise rank correlations
    from near-independent to near-identical.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    jitters = (0.08, 0.25, 0.6, 1.2)
    devices = []
    parents = []
    for i in range(min(2, n_devices)):
        parent = gen_device(
            stable_seed("family", seed, "parent", i), space,
            device_id=f"d{i:02d}", sigma=sigma,
        )
        parents.append(parent)
        devices.append(parent)
    for i in range(len(devices), n_devices):
        parent = parents[i % len(parents)]
        jitter = jitters[(i // len(parents)) % len(jitters)]
        devices.append(
            gen_device(
                stable_seed("family", seed, "clone", i), space,
                device_id=f"d{i:02d}", sigma=sigma,
                clone_of=parent, cost_jitter=jitter,
            )
        )
    return devices


def gen_dataset(
    space: SearchSpace,
    devices: Sequence[SyntheticDevice],
    n_archs: int,
    seed: int,
    out_dir: str | Path | None = None,
) -> tuple[LatencyTable, list[Architecture]]:
    """Measure n distinct random architectures on every device.

    When out_dir is given, writes archs.jsonl and latency.csv (rows sorted by
    (device_id, arch_id); byte-identical across reruns).
    """
    archs = distinct_random_architectures(space, n_archs, seed)
    table = measure(archs, devices, space)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_architectures(archs, out_dir / "archs.jsonl")
        table.save_csv(out_dir / "latency.csv")
    return table, archs
