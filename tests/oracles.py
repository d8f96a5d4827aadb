"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written straight-line (python loops, counting
formulas) so it shares no code path with the implementations under test. Two
exceptions: the finite-difference checker reuses the library's tape to get the
analytic gradients it checks, and the dense forward pass reuses the layer
functions to check the row plan that `predictor._forward` runs them on.
The synthetic-world oracles seed a fresh `np.random.default_rng` per draw,
the reference for the bulk `rng.seeded` path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nasflat import autodiff as ad
from nasflat import archspace as asp
from nasflat import predictor as pred
from nasflat.rng import stable_seed


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
    re-run with individual entries perturbed by +/-h. Coordinates are sampled
    uniformly over all parameter entries.
    """
    with ad.recording() as tape:
        loss = model_eval()
    analytic = ad.named_grads(params, ad.backward(tape, loss))

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
        pdata.flat[idx] = orig + h
        f_plus = float(model_eval().data)
        pdata.flat[idx] = orig - h
        f_minus = float(model_eval().data)
        pdata.flat[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
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
    its noise from a fresh Generator per (device, arch)."""
    costs = device.base_costs
    ops = arch.ops
    total = float(costs[list(ops)].sum())
    discount = 0.0
    for su, sv in space.slot_edges:
        a, b = ops[su], ops[sv]
        discount += device.fusion_discounts[a, b] * min(costs[a], costs[b])
    value = total - discount
    if device.noise_sigma > 0:
        z = np.random.default_rng(stable_seed("noise", device.seed, arch.arch_id)).normal()
        value *= math.exp(device.noise_sigma * z)
    return value


def distinct_architectures_oracle(space, n, seed):
    """(n distinct architectures, draws made): draw d builds an Architecture from
    a fresh `default_rng(stable_seed("arch", seed, d))` and keeps it if its
    arch_id is new."""
    archs, seen, draw = [], set(), 0
    while len(archs) < n:
        rng = np.random.default_rng(stable_seed("arch", seed, draw))
        arch = asp.Architecture(space.space_id, rng.integers(0, len(space.op_vocab), size=space.slot_count))
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
