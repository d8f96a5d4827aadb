"""Latency tables, rank correlation, and device-set partitioning.

A `LatencyTable` is one device x arch float64 matrix, NaN where a device did
not measure an arch, so a pair of devices finds its shared archs in the NaN
mask and each device is ranked once for all its pairs.

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
from typing import Iterable, Mapping, Sequence

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
    """Latencies in ms as one float64 matrix `ms`, built once from
    `{device_id: {arch_id: ms}}`: a row per device with a latency, in the order
    given, a column per id of the sorted `arch_ids`, and NaN where the pair is
    unmeasured. Latencies are finite and positive, so NaN is never one."""

    def __init__(self, rows: Mapping[str, Mapping[str, float]] | None = None):
        rows = {device: row for device, row in (rows or {}).items() if row}
        self._devices = list(rows)
        self.arch_ids = sorted(set().union(*rows.values()))
        self._column = dict(zip(self.arch_ids, range(len(self.arch_ids))))
        self.ms = np.full((len(rows), len(self.arch_ids)), np.nan)
        for i, (device, row) in enumerate(rows.items()):
            values = np.fromiter(row.values(), np.float64, len(row))
            if not (np.isfinite(values) & (values > 0)).all():
                arch, ms = next((a, ms) for a, ms in row.items() if not 0 < ms < math.inf)
                raise ValueError(f"latency must be finite and positive, got {ms} for {arch}/{device}")
            self.ms[i, np.fromiter(map(self._column.__getitem__, row), np.intp, len(row))] = values

    def devices(self) -> list[str]:
        return list(self._devices)

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.ms)))

    def row(self, device_id: str) -> np.ndarray:
        """The device's latencies over `arch_ids`; all NaN for an unknown device."""
        if device_id in self._devices:
            return self.ms[self._devices.index(device_id)]
        return np.full(len(self.arch_ids), np.nan)

    def measured(self, device_id: str, arch_ids: Iterable[str] | None = None) -> tuple[list[str], np.ndarray]:
        """The distinct archs of `arch_ids` (all when None) measured on the
        device, sorted by arch_id, and their float64 latencies in that order."""
        row = self.row(device_id)
        wanted = np.full(len(self.arch_ids), arch_ids is None)
        wanted[[self._column[a] for a in ([] if arch_ids is None else arch_ids) if a in self._column]] = True
        cols = np.flatnonzero(wanted & ~np.isnan(row))
        return [self.arch_ids[j] for j in cols], row[cols]

    def subset(self, device_ids: Iterable[str] | None = None, arch_ids: Iterable[str] | None = None) -> "LatencyTable":
        keep = self._devices if device_ids is None else set(device_ids)
        wanted = None if arch_ids is None else set(arch_ids)
        return LatencyTable({d: dict(zip(*self.measured(d, wanted))) for d in self._devices if d in keep})

    def save_csv(self, path) -> None:
        """Write `arch_id,device_id,latency_ms` sorted by (device, arch)."""
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("arch_id,device_id,latency_ms\n")
            for device in sorted(self._devices):
                ids, ms = self.measured(device)
                fh.writelines(f"{arch},{device},{value!r}\n" for arch, value in zip(ids, ms.tolist()))

    @classmethod
    def load_csv(cls, path) -> "LatencyTable":
        path = Path(path)
        rows: dict[str, dict[str, float]] = {}
        with open_text(path) as fh:
            header = fh.readline().strip()
            if header != "arch_id,device_id,latency_ms":
                raise ParseError(f"{path}: unexpected header {header!r}")
            device_of = row = None
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    arch, device, text = line.split(",")
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: expected 3 columns") from None
                try:
                    if not arch or not device:
                        raise ValueError("empty arch_id" if not arch else "empty device_id")
                    ms = float(text)
                    if not 0 < ms < math.inf:
                        raise ValueError(f"latency must be finite and positive, got {ms} for {arch}/{device}")
                    if device != device_of:  # a device's lines are usually consecutive
                        device_of, row = device, rows.setdefault(device, {})
                    if arch in row:
                        raise ValueError(f"duplicate measurement for ({arch}, {device})")
                    row[arch] = ms
                except ValueError as e:
                    raise ParseError(f"{path}:{lineno}: {e}") from None
        return cls(rows)


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
    return _rank_correlation(_centred_ranks(x), _centred_ranks(y))


def _centred_ranks(x: np.ndarray) -> np.ndarray:
    ranks = _fractional_ranks(x)
    return ranks - ranks.mean()


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def correlation_matrix(table: LatencyTable, devices: Sequence[str]) -> np.ndarray:
    """Pairwise Spearman over each pair's shared archs; diagonal is 1. A device
    is ranked once, and a pair sharing all its archs reuses that ranking: ranks
    are multiples of 0.5, so the sums are exact and the bits are `spearman`'s."""
    k = len(devices)
    corr = np.eye(k)
    rows = [table.row(d) for d in devices]
    seen = [~np.isnan(r) for r in rows]
    own = [_centred_ranks(r[s]) if np.count_nonzero(s) >= 2 else None for r, s in zip(rows, seen)]
    for i in range(k):
        for j in range(i + 1, k):
            shared = seen[i] & seen[j]
            n = int(np.count_nonzero(shared))
            pair = f"devices {devices[i]!r} and {devices[j]!r}"
            if n < 2:
                raise InsufficientOverlap(f"{pair} share {n} archs (need >= 2)")
            rx, ry = (own[d] if n == len(own[d]) else _centred_ranks(rows[d][shared]) for d in (i, j))
            if not (rx.any() and ry.any()):
                raise ConstantInput(f"{pair} over {n} shared archs: rank correlation undefined for constant input")
            corr[i, j] = corr[j, i] = _rank_correlation(rx, ry)
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
        is not a non-empty list of distinct non-empty device ids, a device in both
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
        if not device:
            raise BadField(f"/{key}/{i}: empty device id")
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
        # Gains of swapping a (side True) with b; argmax takes the first best pair in row-major order.
        gain = ext[:, None] + ext[None, :] - 2.0 * weights
        gain[~side | locked] = -np.inf
        gain[:, side | locked] = -np.inf
        a, b = divmod(int(np.argmax(gain)), n)
        side[a], side[b] = side[b], side[a]
        locked[a] = locked[b] = True
        swaps.append((a, b))
        gains.append(gain[a, b])
    prefix = np.cumsum(gains)
    k = int(np.argmax(prefix))
    # Sub-epsilon "gains" are rounding noise on exactly-zero swap cycles and
    # would spin the pass loop forever, so such a pass keeps no swap.
    keep = k + 1 if prefix[k] > 1e-12 else 0
    side[[v for pair in swaps[keep:] for v in pair]] ^= True  # undo the swaps after the best prefix
    return side, float(prefix[k]) if keep else 0.0


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
