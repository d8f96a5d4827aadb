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

from .archspace import Architecture, SearchSpace, random_architecture, write_architectures
from .devicesets import LatencyTable
from .rng import rng_for, stable_seed


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


def latency_of(arch: Architecture, device: SyntheticDevice, space: SearchSpace) -> float:
    """Deterministic latency in ms for one architecture on one device."""
    costs = device.base_costs
    ops = arch.ops
    total = float(costs[list(ops)].sum())
    discount = 0.0
    for su, sv in space.slot_edges:
        a, b = ops[su], ops[sv]
        discount += device.fusion_discounts[a, b] * min(costs[a], costs[b])
    value = total - discount
    if device.noise_sigma > 0:
        z = rng_for("noise", device.seed, arch.arch_id).normal()
        value *= math.exp(device.noise_sigma * z)
    return value


def measure(
    archs: Sequence[Architecture], devices: Sequence[SyntheticDevice], space: SearchSpace
) -> LatencyTable:
    """Latency table covering every (arch, device) pair."""
    table = LatencyTable()
    for device in devices:
        for arch in archs:
            table.add(arch.arch_id, device.device_id, latency_of(arch, device, space))
    return table


def distinct_random_architectures(space: SearchSpace, n: int, seed: int) -> list[Architecture]:
    """n architectures with distinct arch_ids, deterministically seeded."""
    archs: list[Architecture] = []
    seen: set[str] = set()
    draw = 0
    while len(archs) < n:
        arch = random_architecture(space, stable_seed("arch", seed, draw))
        draw += 1
        if arch.arch_id in seen:
            continue
        seen.add(arch.arch_id)
        archs.append(arch)
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
