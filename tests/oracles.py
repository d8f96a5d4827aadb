"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written straight-line (python loops, counting
formulas) so it shares no code path with the implementations under test. Four
exceptions: the finite-difference checker reuses the library's tape to get the
analytic gradients it checks; the dense forward pass reuses the layer
functions to check the row plan that `predictor._forward` runs them on; the
two synthetic-world oracles draw through `rng.keyed_ints` and
`rng.keyed_uniforms`, one call per key, as the reference for the library's
calls over whole key lists (the latency oracle turns its uniform into a
normal with `NormalDist` itself); and the dict-of-dicts latency table with its
pairwise correlation matrix and nested-scan KL bisection, at the end, are the
library's own earlier code, kept as the reference its matrix code must match
bit for bit, so they share `_fractional_ranks`, `prune_to_sizes` and
`DeviceSplit` with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Iterable, Sequence

import numpy as np

from nasflat import autodiff as ad
from nasflat import archspace as asp
from nasflat import devicesets as ds
from nasflat import predictor as pred
from nasflat.errors import (
    ConstantInput,
    InsufficientOverlap,
    LengthMismatch,
    NonFiniteValue,
    ParseError,
    TooFewDevices,
)
from nasflat.inputs import open_text
from nasflat.rng import keyed_ints, keyed_uniforms, rng_for


def rank_by_counting(x):
    """Brute-force fractional ranks: 1 + #smaller + (#equal - 1)/2."""
    x = np.asarray(x, dtype=float)
    ranks = np.empty(len(x))
    for i, v in enumerate(x):
        smaller = np.sum(x < v)
        equal = np.sum(x == v)
        ranks[i] = 1.0 + smaller + (equal - 1) / 2.0
    return ranks


def fractional_ranks_by_scan(x):
    """Fractional ranks by walking each tie group of the stable sort: the
    group at sorted positions i..j gets (i + j) / 2 + 1."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    sorted_x = x[order]
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson_explicit(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def spearman_oracle(x, y):
    return pearson_explicit(rank_by_counting(x), rank_by_counting(y))


def balanced_bipartitions(n):
    """All balanced 2-colorings of range(n), up to side swap."""
    nodes = list(range(n))
    seen = set()
    for side_a in itertools.combinations(nodes, n // 2):
        key = frozenset(side_a)
        other = frozenset(nodes) - key
        if frozenset([key, other]) in seen:
            continue
        seen.add(frozenset([key, other]))
        yield list(side_a), sorted(other)


def cut_weight(weights, side_a, side_b):
    """Total weight of edges crossing the bipartition."""
    ia = np.asarray(list(side_a), dtype=np.intp)
    ib = np.asarray(list(side_b), dtype=np.intp)
    return float(weights[np.ix_(ia, ib)].sum())


def prune_oracle(side_a, side_b, m, n, devices, corr):
    """Independent greedy re-implementation of the device-pruning loop."""
    index = {d: i for i, d in enumerate(devices)}
    a, b = list(side_a), list(side_b)
    removed = []
    while len(a) > m or len(b) > n:
        if len(a) > m:
            scored = sorted(a, key=lambda d: (-sum(corr[index[d], index[o]] for o in b), d))
            victim = scored[0]
            a.remove(victim)
            removed.append(victim)
        if len(b) > n:
            scored = sorted(b, key=lambda d: (-sum(corr[index[d], index[o]] for o in a), d))
            victim = scored[0]
            b.remove(victim)
            removed.append(victim)
    return a, b, removed


def dgf_reference(x, adj, op_feat, w_gate, w_feat, bias):
    """Straight-line dense reimplementation of the gated flow layer."""
    n, d_in = x.shape
    d_out = w_feat.shape[1]
    gate = np.empty((n, d_out))
    for i in range(n):
        for j in range(d_out):
            s = sum(op_feat[i][k] * w_gate[k][j] for k in range(op_feat.shape[1]))
            gate[i][j] = 1.0 / (1.0 + math.exp(-s))
    h = np.empty((n, d_out))
    for i in range(n):
        for j in range(d_out):
            h[i][j] = sum(x[i][k] * w_feat[k][j] for k in range(d_in))
    agg = np.empty((n, d_out))
    for i in range(n):
        for j in range(d_out):
            agg[i][j] = sum(adj[i][k] * h[k][j] for k in range(n))
    return gate * agg + h + bias


def gat_reference(x, adj, op_feat, w, slope=0.2, eps=1e-5):
    """Straight-line graph-attention layer; returns (output, attention)."""
    n = x.shape[0]
    h = x @ w.w_proj.data
    d = h.shape[1]
    scores = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            s = sum(h[i][k] * w.attn.data[k] * h[j][k] for k in range(d))
            scores[i][j] = s if s > 0 else slope * s
    attn = np.zeros((n, n))
    for i in range(n):
        support = [j for j in range(n) if adj[i][j]]
        if not support:
            continue
        mx = max(scores[i][j] for j in support)
        exps = {j: math.exp(scores[i][j] - mx) for j in support}
        z = sum(exps.values())
        for j in support:
            attn[i][j] = exps[j] / z
    agg = attn @ h
    gate = 1.0 / (1.0 + np.exp(-(op_feat @ w.w_gate.data)))
    pre = gate * agg
    mu = pre.mean(axis=1, keepdims=True)
    var = ((pre - mu) ** 2).mean(axis=1, keepdims=True)
    out = (pre - mu) / np.sqrt(var + eps) * w.ln_gain.data + w.ln_bias.data
    return out, attn


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    n_checked: int


def finite_diff_check(
    model_eval: Callable[[], ad.Tensor],
    params: dict[str, ad.Tensor],
    n_samples: int = 100,
    h: float = 1e-5,
    seed: int = 0,
    denom_floor: float = 1e-6,
) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    model_eval must be a pure function of the current parameter values: it is
    re-run with individual entries perturbed by +/-step. Coordinates are sampled
    uniformly over all parameter entries. Each coordinate tries the steps h and
    100h and keeps the central difference of the step whose forward and backward
    difference quotients agree best: they part by about step * f'' where the
    curvature dominates and by about roundoff / step where a small gradient
    drowns in the loss's rounding, so the pick follows whichever error is smaller.
    """
    with ad.recording() as tape:
        loss = model_eval()
    analytic = ad.named_grads(params, ad.backward(tape, loss))
    f_0 = float(loss.data)

    rng = np.random.default_rng(seed)
    names = sorted(params)
    sizes = np.array([params[n].data.size for n in names])
    total = int(sizes.sum())
    n_samples = min(n_samples, total)
    flat_choices = rng.choice(total, size=n_samples, replace=False)

    report = FiniteDiffReport(0.0, "", -1, n_samples)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for flat in sorted(flat_choices):
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[which]
        idx = int(flat - offsets[which])
        pdata = params[name].data
        orig = pdata.flat[idx]
        estimates = []
        for step in (h, 100.0 * h):
            pdata.flat[idx] = orig + step
            f_plus = float(model_eval().data)
            pdata.flat[idx] = orig - step
            f_minus = float(model_eval().data)
            pdata.flat[idx] = orig
            disagreement = abs((f_plus - f_0) - (f_0 - f_minus)) / step
            estimates.append((disagreement, (f_plus - f_minus) / (2.0 * step)))
        numeric = min(estimates, key=lambda e: e[0])[1]
        a = float(analytic[name].flat[idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
        if rel > report.max_rel_err:
            report.max_rel_err = rel
            report.worst_param = name
            report.worst_index = idx
    return report


def dense_forward(state, ops_rows, device_row, supplementary=None):
    """The predictor's forward pass computing every node row in every layer.

    The reference for the row-planned `predictor._forward`: it runs each
    layer over the full square adjacency and reads out the sink row at the
    end. It shares the layer functions and primitives, not the row plan.
    """
    config, views, params, space = state.config, state._views, state.params, state.space
    n = space.graph_size
    agg = np.asarray(space.template_adjacency().T, dtype=np.float64)
    node_ops = np.full((len(ops_rows), n), len(space.op_vocab), dtype=np.intp)
    node_ops[:, list(space.slot_nodes)] = ops_rows

    def node_rows():
        return ad.gather(params["node_embed"], np.arange(n)[None, :])

    joint = ad.concat([
        ad.gather(params["op_embed"], node_ops),
        ad.gather(params["hw_embed"], np.full(node_ops.shape, device_row, dtype=np.intp)),
    ], axis=-1)
    x = node_rows()
    for w in views.ophw_layers:
        x = pred.dgf_layer(x, agg, joint, w)
    refined = pred._mlp(x, views.ophw_mlp)

    sinks = []
    if config.gnn_kind in ("dgf", "ensemble"):
        x = node_rows()
        for w in views.dgf_layers:
            x = pred.dgf_layer(x, agg, refined, w)
        sinks.append(ad.take_rows(x, n - 1))
    if config.gnn_kind in ("gat", "ensemble"):
        x = node_rows()
        for w in views.gat_layers:
            x = pred.gat_layer(x, agg, refined, w, config.leaky_slope)
        sinks.append(ad.take_rows(x, n - 1))
    sink = sinks[0] if len(sinks) == 1 else ad.scale(ad.add(sinks[0], sinks[1]), 0.5)
    if config.supplementary_dim:
        sink = ad.concat([sink, np.asarray(supplementary, dtype=np.float64)], axis=-1)
    return pred._mlp(sink, views.head)


def latency_oracle(arch, device, space):
    """One architecture's synthetic latency, one scalar step at a time, with
    its noise from one keyed uniform per (device, arch)."""
    costs = device.base_costs
    ops = arch.ops
    total = float(costs[list(ops)].sum())
    discount = 0.0
    for su, sv in space.slot_edges:
        a, b = ops[su], ops[sv]
        discount += device.fusion_discounts[a, b] * min(costs[a], costs[b])
    value = total - discount
    if device.noise_sigma > 0:
        u = float(keyed_uniforms(("noise", device.seed), [arch.arch_id], 1)[0, 0])
        z = NormalDist().inv_cdf(u)
        value *= math.exp(device.noise_sigma * z)
    return value


def distinct_architectures_oracle(space, n, seed):
    """(n distinct architectures, draws made): draw d builds an Architecture from
    the ints keyed by ("arch", seed, d) and keeps it if its arch_id is new."""
    archs, seen, draw = [], set(), 0
    while len(archs) < n:
        ops = keyed_ints(("arch", seed), [draw], len(space.op_vocab), space.slot_count)[0]
        arch = asp.Architecture(space.space_id, ops.tolist())
        draw += 1
        if arch.arch_id not in seen:
            seen.add(arch.arch_id)
            archs.append(arch)
    return archs, draw


def epoch_batches(rng, device_ids, ids_by_device, batch_size):
    """One epoch's minibatch plan as (device, arch ids) lists, built id by id:
    per device one permutation cut into `batch_size` chunks, a chunk of fewer
    than 2 ids dropped, then one permutation over all the batches. The
    reference for `pipeline._epoch_batches`, which plans on row indices."""
    batches = []
    for device in device_ids:
        ids = list(ids_by_device[device])
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        for i in range(0, len(shuffled), batch_size):
            chunk = shuffled[i : i + batch_size]
            if len(chunk) >= 2:
                batches.append((device, chunk))
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


# --- the dict-of-dicts latency table and the pairwise device-set code ------------
# `nasflat.devicesets` before its table became one device x arch matrix, kept
# verbatim (only renamed) as the reference the matrix code must match bit for bit.

class DictLatencyTable:
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

    def subset(self, device_ids: Iterable[str] | None = None, arch_ids: Iterable[str] | None = None) -> "DictLatencyTable":
        device_set = None if device_ids is None else set(device_ids)
        arch_set = None if arch_ids is None else set(arch_ids)
        out = DictLatencyTable()
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
    def load_csv(cls, path) -> "DictLatencyTable":
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


def pairwise_spearman(x: Sequence[float], y: Sequence[float]) -> float:
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
    rx = ds._fractional_ranks(x)
    ry = ds._fractional_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def pairwise_correlation_matrix(table: DictLatencyTable, devices: Sequence[str]) -> np.ndarray:
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
                corr[i, j] = corr[j, i] = pairwise_spearman(xa, xb)
            except ConstantInput as e:
                raise ConstantInput(f"{pair} over {len(shared)} shared archs: {e}") from None
    return corr


def scan_kl_pass(weights: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, float]:
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


def scan_kl_bisect(corr: np.ndarray, seed: int) -> tuple[list[int], list[int]]:
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
            side, gain = scan_kl_pass(weights, side)
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


def pairwise_partition(table: DictLatencyTable, m: int, n: int, seed: int) -> DeviceSplit:
    """Split the table's devices into m source and n target devices: bisect
    the correlation matrix of the sorted device ids, then prune the sides.
    The objective is the mean source<->target correlation."""
    devices = sorted(table.devices())
    corr = pairwise_correlation_matrix(table, devices)
    source, target = ds.prune_to_sizes(scan_kl_bisect(corr, seed), m, n, corr)
    return ds.DeviceSplit(
        source=tuple(devices[i] for i in source),
        target=tuple(devices[i] for i in target),
        objective=float(np.mean([corr[a, b] for a in source for b in target])),
    )
