"""Latency tables, rank correlation, and device-set partitioning.

`partition` splits devices into low-mutual-correlation source/target pools:
it bisects their Spearman correlation matrix with Kernighan-Lin on the
negated correlations (minimizing the cut weight pushes correlated devices
onto opposite sides), then prunes each side down to the requested size by
repeatedly dropping the device with the highest total cross-side correlation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadField,
    ConstantInput,
    InsufficientOverlap,
    LengthMismatch,
    NonFiniteValue,
    ParseError,
    SideTooSmall,
    TooFewDevices,
)
from .inputs import is_finite_number, load_json, open_text
from .rng import rng_for


class LatencyTable:
    """(arch_id, device_id, latency_ms) records, indexed both ways."""

    def __init__(self):
        self._by_device: dict[str, dict[str, float]] = {}

    def add(self, arch_id: str, device_id: str, latency_ms: float) -> None:
        if not (math.isfinite(latency_ms) and latency_ms > 0):
            raise ValueError(
                f"latency must be finite and positive, got {latency_ms} for {arch_id}/{device_id}"
            )
        rows = self._by_device.setdefault(device_id, {})
        if arch_id in rows:
            raise ValueError(f"duplicate measurement for ({arch_id}, {device_id})")
        rows[arch_id] = float(latency_ms)

    def devices(self) -> list[str]:
        return list(self._by_device)

    def __len__(self) -> int:
        return sum(len(r) for r in self._by_device.values())

    def measured(self, device_id: str, arch_ids: Iterable[str] | None = None) -> tuple[list[str], np.ndarray]:
        """The distinct archs of `arch_ids` (all when None) measured on the
        device, sorted by arch_id, and their float64 latencies in that order."""
        rows = self._by_device.get(device_id, {})
        wanted = rows if arch_ids is None else set(arch_ids)
        ids = sorted(a for a in rows if a in wanted)
        return ids, np.array([rows[a] for a in ids], dtype=np.float64)

    def subset(self, device_ids: Iterable[str] | None = None, arch_ids: Iterable[str] | None = None) -> "LatencyTable":
        device_set = None if device_ids is None else set(device_ids)
        arch_set = None if arch_ids is None else set(arch_ids)
        out = LatencyTable()
        for device, rows in self._by_device.items():
            if device_set is not None and device not in device_set:
                continue
            for arch, lat in rows.items():
                if arch_set is not None and arch not in arch_set:
                    continue
                out.add(arch, device, lat)
        return out

    def save_csv(self, path) -> None:
        """Write `arch_id,device_id,latency_ms` sorted by (device, arch)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("arch_id,device_id,latency_ms\n")
            for device in sorted(self._by_device):
                rows = self._by_device[device]
                for arch in sorted(rows):
                    fh.write(f"{arch},{device},{repr(rows[arch])}\n")

    @classmethod
    def load_csv(cls, path) -> "LatencyTable":
        path = Path(path)
        table = cls()
        with open_text(path) as fh:
            header = fh.readline().strip()
            if header != "arch_id,device_id,latency_ms":
                raise ParseError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ParseError(f"{path}:{lineno}: expected 3 columns")
                try:
                    table.add(parts[0], parts[1], float(parts[2]))
                except ValueError as e:
                    raise ParseError(f"{path}:{lineno}: {e}") from None
        return table


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Average-fractional ranks (ties get the mean of their rank range)."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # A tie group is a run of equal sorted values, positions first..last.
    first = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    last = np.append(first[1:], len(x)) - 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of fractional ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue("rank correlation undefined for non-finite input")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ConstantInput("rank correlation undefined for constant input")
    rx = _fractional_ranks(x)
    ry = _fractional_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def correlation_matrix(table: LatencyTable, devices: Sequence[str]) -> np.ndarray:
    """Pairwise Spearman over each pair's shared archs; diagonal is 1."""
    k = len(devices)
    corr = np.eye(k)
    ids = [table.measured(d)[0] for d in devices]
    for i in range(k):
        for j in range(i + 1, k):
            shared, xb = table.measured(devices[j], ids[i])
            _, xa = table.measured(devices[i], shared)
            pair = f"devices {devices[i]!r} and {devices[j]!r}"
            if len(shared) < 2:
                raise InsufficientOverlap(f"{pair} share {len(shared)} archs (need >= 2)")
            try:
                corr[i, j] = corr[j, i] = spearman(xa, xb)
            except ConstantInput as e:
                raise ConstantInput(f"{pair} over {len(shared)} shared archs: {e}") from None
    return corr


@dataclass(frozen=True)
class DeviceSplit:
    """Disjoint source/target device pools plus the achieved objective."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    objective: float  # mean source<->target correlation

    def to_json(self) -> str:
        return json.dumps(
            {"source": list(self.source), "target": list(self.target), "objective": self.objective},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DeviceSplit":
        """Parse `to_json` output. A missing key raises KeyError; a field that
        is not a non-empty list of distinct device ids, a device in both
        pools, or an objective that is not a finite number raises BadField
        with the value's JSON pointer."""
        obj = load_json(text)
        pools = {key: _device_ids(obj[key], key) for key in ("source", "target")}
        for i, device in enumerate(pools["target"]):
            if device in pools["source"]:
                raise BadField(f"/target/{i}: device {device!r} is also a source device")
        objective = obj["objective"]
        if not is_finite_number(objective):
            raise BadField(f"/objective: must be a finite number, got {objective!r}")
        return cls(pools["source"], pools["target"], float(objective))


def _device_ids(value, key: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise BadField(f"/{key}: must be a non-empty list of device ids, got {value!r}")
    for i, device in enumerate(value):
        if not isinstance(device, str):
            raise BadField(f"/{key}/{i}: must be a device id string, got {device!r}")
        if device in value[:i]:
            raise BadField(f"/{key}/{i}: device {device!r} is listed twice")
    return tuple(value)


def _kl_pass(weights: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, float]:
    """One Kernighan-Lin pass: best prefix of greedy locked pair swaps."""
    n = weights.shape[0]
    side = side.copy()
    locked = np.zeros(n, dtype=bool)
    swaps: list[tuple[int, int]] = []
    gains: list[float] = []
    # D[v] = external - internal cost of v under the current side labels
    for _ in range(n // 2):
        ext = np.zeros(n)
        for v in range(n):
            same = side == side[v]
            ext[v] = weights[v, ~same].sum() - weights[v, same].sum()
        best = None
        for a in range(n):
            if locked[a] or not side[a]:
                continue
            for b in range(n):
                if locked[b] or side[b]:
                    continue
                gain = ext[a] + ext[b] - 2.0 * weights[a, b]
                if best is None or gain > best[0]:
                    best = (gain, a, b)
        if best is None:
            break
        gain, a, b = best
        side[a], side[b] = side[b], side[a]
        locked[a] = locked[b] = True
        swaps.append((a, b))
        gains.append(gain)
    if not gains:
        return side, 0.0
    prefix = np.cumsum(gains)
    k = int(np.argmax(prefix))
    best_gain = float(prefix[k])
    # Sub-epsilon "gains" are rounding noise on exactly-zero swap cycles and
    # would spin the pass loop forever.
    if best_gain <= 1e-12:
        for a, b in reversed(swaps):
            side[a], side[b] = side[b], side[a]
        return side, 0.0
    for a, b in reversed(swaps[k + 1 :]):
        side[a], side[b] = side[b], side[a]
    return side, best_gain


def kl_bisect(corr: np.ndarray, seed: int) -> tuple[list[int], list[int]]:
    """Balanced bipartition of the rows of a device correlation matrix,
    locally minimizing cut weight.

    Weights are negative correlations (zero on the diagonal), so minimizing
    the cut maximizes the correlation severed between the two sides and
    leaves each side internally decorrelated. Odd device counts are handled
    with a phantom zero-weight vertex, so the sides hold floor(k/2) and
    ceil(k/2) rows. Eight seeded restarts are run and the best final cut kept.
    """
    n = len(corr)
    if n < 2:
        raise TooFewDevices(f"need >= 2 devices, got {n}")
    weights = -np.asarray(corr, dtype=np.float64)
    np.fill_diagonal(weights, 0.0)
    if n % 2 == 1:
        weights = np.pad(weights, ((0, 1), (0, 1)))

    best_side, best_cut = None, np.inf
    for r in range(8):
        rng = rng_for("kl", seed, r)
        side = np.zeros(len(weights), dtype=bool)
        side[rng.permutation(len(weights))[: len(weights) // 2]] = True
        prev_cut = _cut_of(weights, side)
        for _ in range(200):  # gains are bounded away from 0, so this never binds
            side, gain = _kl_pass(weights, side)
            new_cut = _cut_of(weights, side)
            assert new_cut <= prev_cut + 1e-9, "KL pass must not worsen the cut"
            if gain <= 0:
                break
            prev_cut = new_cut
        if new_cut < best_cut - 1e-12:
            best_cut, best_side = new_cut, side
    return [i for i in range(n) if best_side[i]], [i for i in range(n) if not best_side[i]]


def _cut_of(weights: np.ndarray, side: np.ndarray) -> float:
    ia = np.flatnonzero(side)
    ib = np.flatnonzero(~side)
    return float(weights[np.ix_(ia, ib)].sum())


def prune_to_sizes(
    bipartite: tuple[Sequence[int], Sequence[int]], m: int, n: int, corr: np.ndarray
) -> tuple[list[int], list[int]]:
    """Trim a bipartition of the rows of `corr` to exactly (m, n) rows.

    While a side is oversized, remove from it the row with the highest total
    correlation to the current opposite side (ties to the lowest row). The
    first side becomes the source pool; if the sides only fit the requested
    sizes after swapping roles, they are swapped.
    """
    side_a, side_b = list(bipartite[0]), list(bipartite[1])
    if len(side_a) < m or len(side_b) < n:
        if len(side_b) >= m and len(side_a) >= n:
            side_a, side_b = side_b, side_a
        else:
            raise SideTooSmall(
                f"sides of sizes ({len(side_a)}, {len(side_b)}) cannot provide ({m}, {n})"
            )

    def cross_corr(i: int, other_side: list[int]) -> float:
        return float(sum(corr[i, o] for o in other_side))

    while len(side_a) > m or len(side_b) > n:
        if len(side_a) > m:
            victim = max(sorted(side_a), key=lambda i: cross_corr(i, side_b))
            side_a.remove(victim)
        if len(side_b) > n:
            victim = max(sorted(side_b), key=lambda i: cross_corr(i, side_a))
            side_b.remove(victim)
    return side_a, side_b


def partition(table: LatencyTable, m: int, n: int, seed: int) -> DeviceSplit:
    """Split the table's devices into m source and n target devices: bisect
    the correlation matrix of the sorted device ids, then prune the sides.
    The objective is the mean source<->target correlation."""
    devices = sorted(table.devices())
    corr = correlation_matrix(table, devices)
    source, target = prune_to_sizes(kl_bisect(corr, seed), m, n, corr)
    return DeviceSplit(
        source=tuple(devices[i] for i in source),
        target=tuple(devices[i] for i in target),
        objective=float(np.mean([corr[a, b] for a in source for b in target])),
    )
