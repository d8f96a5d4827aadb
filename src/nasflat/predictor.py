"""The latency predictor: embeddings, graph layers, refinement, and head.

Per architecture, each slot's operation embedding is concatenated with the
device's hardware embedding; a small graph network over the architecture DAG
refines these joint features, and a per-node MLP produces the operation
features consumed by the main graph network. The main network runs a dense
graph flow (DGF) stack, a graph attention (GAT) stack, or their ensemble
(mean of sink embeddings). The sink-node embedding, optionally concatenated
with a supplementary encoding vector, feeds an MLP head that outputs the
scalar latency score.

Both layer types gate their aggregation with sigmoid(op_features @ w_gate):

    DGF:  x' = gate * (A @ x @ w_feat) + x @ w_feat + bias
    GAT:  scores_ij = leaky_relu(sum_k attn_k * h_ik * h_jk), h = x @ w_proj;
          row-softmax over in-neighbors, aggregate, gate, then LayerNorm.

Layers treat row i of the given adjacency as node i's aggregation mask, so
the predictor feeds the transposed (edge-reversed) template: messages flow
from the source toward the sink whose embedding is read out.

Only the sink row is read out, so each layer computes only the rows that
reach it. The row plan, built once from the space's adjacency and the
config's depths, walks back from the sink: the last main layer outputs the
sink row, and every earlier layer outputs the rows its successor reads,
which are the successor's output rows plus their in-neighbours. The op+hw
refinement ends at the rows main layer 0 gates on and is walked back the
same way. Each layer gets a rectangular (output rows x input rows) slice of
the adjacency. The op slots inside the refinement's first layer's output
rows are the live slots: the only ones whose op can change a score.

A refinement gate depends only on a node's op and the device, not on the
arch, so each refinement layer computes it once per op, on the V+1 rows of
the op table (each op_embed row, null op included, joined with the device's
hw_embed row), and gathers it by node op. `predict_batch` runs one forward
per PREDICT_CHUNK archs.

Scores are a deterministic function of (inputs, parameters): identical calls
are bitwise reproducible. Different batch partitionings of the same inputs
agree closely but not always bitwise, because BLAS rounds a product's rows
differently for some row counts (README "Determinism" gives the bounds).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .archspace import Architecture, EncodingTable, SearchSpace, get_space
from .autodiff import Tensor
from .devicesets import LatencyTable, spearman
from .errors import (
    BadField,
    BadSupplementaryDim,
    BadCheckpoint,
    ConstantInput,
    InsufficientOverlap,
    NonFiniteValue,
    SpaceMismatch,
    UnknownDevice,
)
from .inputs import is_finite_number, is_integer, load_json, read_input

CHECKPOINT_VERSION = 5

PREDICT_CHUNK = 128  # archs per inference forward in predict_batch

GNN_KINDS = ("dgf", "gat", "ensemble")


def require_number_fields(config) -> None:
    """Raise BadField unless each `int` field of dataclass `config` holds an
    int, each `float` field a finite int or float, and each `tuple[int, ...]`
    field a list or tuple of ints. Bools are not numbers here. (The
    annotations are strings under `from __future__ import annotations`.)"""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", "float"):
            items = [(f.name, value)]
        elif f.type == "tuple[int, ...]":
            if not isinstance(value, (list, tuple)):
                raise BadField(f"{f.name}: must be a list of integers, got {value!r}")
            items = [(f"{f.name}/{i}", v) for i, v in enumerate(value)]
        else:
            continue
        for pointer, v in items:
            if f.type == "float":
                if not is_finite_number(v):
                    raise BadField(f"{pointer}: must be a finite number, got {v!r}")
            elif not is_integer(v):
                raise BadField(f"{pointer}: must be an integer, got {v!r}")


@dataclass(frozen=True)
class PredictorConfig:
    op_embed_dim: int = 48
    node_embed_dim: int = 48
    hw_embed_dim: int = 48
    ophw_gcn_dims: tuple[int, ...] = (128, 128)
    ophw_mlp_dims: tuple[int, ...] = (128,)
    gcn_dims: tuple[int, ...] = (128, 128, 128)
    head_mlp_dims: tuple[int, ...] = (200, 200, 200)
    gnn_kind: str = "ensemble"
    supplementary_dim: int = 0
    leaky_slope: float = 0.2

    def __post_init__(self):
        require_number_fields(self)
        dims = (
            (self.op_embed_dim, self.node_embed_dim, self.hw_embed_dim)
            + tuple(self.ophw_gcn_dims)
            + tuple(self.ophw_mlp_dims)
            + tuple(self.gcn_dims)
            + tuple(self.head_mlp_dims)
        )
        if any(d <= 0 for d in dims):
            raise ValueError("all layer dims must be positive")
        for name in ("gcn_dims", "ophw_gcn_dims"):  # ops and devices enter through ophw_gcn
            if not getattr(self, name):
                raise ValueError(f"{name} needs at least one layer")
        if self.gnn_kind not in GNN_KINDS:
            raise ValueError(f"gnn_kind must be one of {GNN_KINDS}")
        if self.supplementary_dim < 0:
            raise ValueError("supplementary_dim must be >= 0")
        object.__setattr__(self, "ophw_gcn_dims", tuple(self.ophw_gcn_dims))
        object.__setattr__(self, "ophw_mlp_dims", tuple(self.ophw_mlp_dims))
        object.__setattr__(self, "gcn_dims", tuple(self.gcn_dims))
        object.__setattr__(self, "head_mlp_dims", tuple(self.head_mlp_dims))


@dataclass
class DgfWeights:
    w_gate: Tensor
    w_feat: Tensor
    bias: Tensor


@dataclass
class GatWeights:
    w_proj: Tensor
    attn: Tensor
    w_gate: Tensor
    ln_gain: Tensor
    ln_bias: Tensor


def dgf_layer(x, adjacency: np.ndarray, op_feat, weights: DgfWeights, self_rows=None) -> Tensor:
    """Gated dense graph flow: gate * (A x W) + x W + b, gate = sigmoid(O Wg).

    With `self_rows`, x holds the input rows and op_feat the output rows,
    `adjacency` is (output rows x input rows), and self_rows[i] is output
    row i's position among the input rows.
    """
    return _dgf_update(x, adjacency, ad.sigmoid(ad.matmul(op_feat, weights.w_gate)), weights, self_rows)


def _dgf_update(x, adjacency: np.ndarray, gate, weights: DgfWeights, self_rows=None) -> Tensor:
    """`dgf_layer` after its gate: gate * (A x W) + x W + b, for a given gate."""
    h = ad.matmul(x, weights.w_feat)
    agg = ad.matmul(np.asarray(adjacency, dtype=np.float64), h)
    if self_rows is not None:
        h = ad.take_rows(h, self_rows)
    return ad.add(ad.add(ad.mul(gate, agg), h), weights.bias)


def gat_layer(
    x, adjacency: np.ndarray, op_feat, weights: GatWeights, leaky_slope: float = 0.2, self_rows=None
) -> Tensor:
    """Attention aggregation over in-neighbors, op-gated, LayerNormed.

    Row i of `adjacency` marks the nodes i may attend to; rows with empty
    support aggregate the zero vector. `self_rows` selects the query rows
    among x's rows, as in `dgf_layer`.
    """
    h = ad.matmul(x, weights.w_proj)
    query = h if self_rows is None else ad.take_rows(h, self_rows)
    scores = ad.matmul(ad.mul(query, weights.attn), ad.transpose_last2(h))
    scores = ad.leaky_relu(scores, leaky_slope)
    attn = ad.masked_softmax(scores, np.asarray(adjacency, dtype=bool))
    agg = ad.matmul(attn, h)
    gate = ad.sigmoid(ad.matmul(op_feat, weights.w_gate))
    return ad.layer_norm(ad.mul(gate, agg), weights.ln_gain, weights.ln_bias)


@dataclass(frozen=True)
class _LayerRows:
    """The node rows one graph layer reads and writes under the row plan.

    `self_pos` places the output rows among the input rows, and `gate_pos`
    among the output rows of the stack's first layer, where the gate
    features are computed. Each is None where the two row sets are equal.
    """

    out: np.ndarray    # node indices the layer outputs, ascending
    inp: np.ndarray    # out plus their in-neighbours, ascending
    agg: np.ndarray    # agg[out][:, inp]
    self_pos: np.ndarray | None
    gate_pos: np.ndarray | None


def _plan_layers(agg: np.ndarray, last_out: np.ndarray, n_layers: int) -> tuple[_LayerRows, ...]:
    """Rows of each layer of an n_layers stack whose last layer outputs `last_out`.

    Walks back from the last layer: a layer reads its output rows plus their
    in-neighbours, and those are the rows the layer before it outputs.
    """
    rows = []
    out = np.asarray(last_out, dtype=np.intp)
    for _ in range(n_layers):
        mask = agg[out].any(axis=0)
        mask[out] = True
        inp = np.flatnonzero(mask)
        rows.insert(0, (out, inp))
        out = inp
    first = rows[0][0]
    return tuple(
        _LayerRows(
            out=out,
            inp=inp,
            agg=agg[np.ix_(out, inp)],
            self_pos=None if len(out) == len(inp) else np.searchsorted(inp, out),
            gate_pos=None if len(out) == len(first) else np.searchsorted(first, out),
        )
        for out, inp in rows
    )


@dataclass(frozen=True)
class _SpaceTemplate:
    """The space's constants the forward pass needs."""

    node_ops: np.ndarray           # per-node op index, null-op at structural nodes
    slot_nodes: np.ndarray         # node position of each op slot
    main: tuple[_LayerRows, ...]   # row plan of the DGF/GAT stack
    ophw: tuple[_LayerRows, ...]   # row plan of the op+hw refinement
    live_slots: tuple[int, ...]    # slots whose op can change a score


class PredictorState:
    """All learnable tensors plus the device registry, for one search space."""

    def __init__(
        self,
        config: PredictorConfig,
        space: SearchSpace,
        params: dict[str, Tensor],
        device_index: dict[str, int],
    ):
        self.config = config
        self.space = space
        self.params = params
        self.device_index = device_index
        self._template = _make_template(space, config)
        self._views = _build_views(config, params)

    @property
    def live_slots(self) -> tuple[int, ...]:
        """The slot indices whose op can change a score."""
        return self._template.live_slots

    def device_row(self, device_id: str) -> int:
        try:
            return self.device_index[device_id]
        except KeyError:
            raise UnknownDevice(f"device {device_id!r} not registered") from None

    def check_space(self, archs: Iterable[Architecture]) -> None:
        """Raise SpaceMismatch unless every arch is from this predictor's space."""
        ids = {a.space_id for a in archs}
        if ids != {self.space.space_id}:
            raise SpaceMismatch(
                f"architectures from space(s) {sorted(ids)}; predictor built for {self.space.space_id!r}"
            )


def _make_template(space: SearchSpace, config: PredictorConfig) -> _SpaceTemplate:
    agg = np.asarray(space.template_adjacency().T, dtype=np.float64)
    n = space.graph_size
    slot_nodes = np.asarray(space.slot_nodes, dtype=np.intp)
    main = _plan_layers(agg, [n - 1], len(config.gcn_dims))
    ophw = _plan_layers(agg, main[0].out, len(config.ophw_gcn_dims))
    # Ops enter only through the refinement's gates, and its first layer
    # gates on the most rows.
    live = np.flatnonzero(np.isin(slot_nodes, ophw[0].out))
    return _SpaceTemplate(
        node_ops=np.full(n, len(space.op_vocab), dtype=np.intp),  # the null-op row
        slot_nodes=slot_nodes,
        main=main,
        ophw=ophw,
        live_slots=tuple(int(s) for s in live),
    )


@dataclass
class _Views:
    ophw_layers: list[DgfWeights]
    ophw_mlp: list[tuple[Tensor, Tensor]]
    dgf_layers: list[DgfWeights]
    gat_layers: list[GatWeights]
    head: list[tuple[Tensor, Tensor]]


def _build_views(config: PredictorConfig, params: dict[str, Tensor]) -> _Views:
    ophw_layers = [
        DgfWeights(params[f"ophw_gcn{i}.w_gate"], params[f"ophw_gcn{i}.w_feat"], params[f"ophw_gcn{i}.bias"])
        for i in range(len(config.ophw_gcn_dims))
    ]
    ophw_mlp = [
        (params[f"ophw_mlp{i}.w"], params[f"ophw_mlp{i}.b"])
        for i in range(len(config.ophw_mlp_dims))
    ]
    dgf_layers = [
        DgfWeights(params[f"dgf{i}.w_gate"], params[f"dgf{i}.w_feat"], params[f"dgf{i}.bias"])
        for i in range(len(config.gcn_dims))
        if f"dgf{i}.w_feat" in params
    ]
    gat_layers = [
        GatWeights(
            params[f"gat{i}.w_proj"], params[f"gat{i}.attn"], params[f"gat{i}.w_gate"],
            params[f"gat{i}.ln_gain"], params[f"gat{i}.ln_bias"],
        )
        for i in range(len(config.gcn_dims))
        if f"gat{i}.w_proj" in params
    ]
    head = [
        (params[f"head{i}.w"], params[f"head{i}.b"])
        for i in range(len(config.head_mlp_dims) + 1)
    ]
    return _Views(ophw_layers, ophw_mlp, dgf_layers, gat_layers, head)


def _param_specs(
    config: PredictorConfig, space: SearchSpace, n_devices: int
) -> dict[str, tuple[str, tuple[int, ...], int]]:
    """Name -> (init kind, shape, glorot fan_in + fan_out), in draw order.

    The one definition of the parameter layout: `init_predictor` draws from
    it and `load_checkpoint` lays a file's bytes out by it.
    """
    specs: dict[str, tuple[str, tuple[int, ...], int]] = {}

    def embedding(name: str, rows: int, dim: int) -> None:
        specs[name] = ("normal", (rows, dim), 0)

    def glorot(name: str, fan_in: int, fan_out: int, shape=None) -> None:
        specs[name] = ("glorot", shape or (fan_in, fan_out), fan_in + fan_out)

    def zeros(name: str, shape) -> None:
        specs[name] = ("zeros", shape, 0)

    def ones(name: str, shape) -> None:
        specs[name] = ("ones", shape, 0)

    embedding("op_embed", len(space.op_vocab) + 1, config.op_embed_dim)  # + the null-op row
    embedding("node_embed", space.graph_size, config.node_embed_dim)
    embedding("hw_embed", n_devices, config.hw_embed_dim)

    oh_dim = config.op_embed_dim + config.hw_embed_dim
    prev = config.node_embed_dim
    for i, dim in enumerate(config.ophw_gcn_dims):
        glorot(f"ophw_gcn{i}.w_gate", oh_dim, dim)
        glorot(f"ophw_gcn{i}.w_feat", prev, dim)
        zeros(f"ophw_gcn{i}.bias", (dim,))
        prev = dim
    for i, dim in enumerate(config.ophw_mlp_dims):
        glorot(f"ophw_mlp{i}.w", prev, dim)
        zeros(f"ophw_mlp{i}.b", (dim,))
        prev = dim
    refined_dim = prev

    if config.gnn_kind in ("dgf", "ensemble"):
        prev = config.node_embed_dim
        for i, dim in enumerate(config.gcn_dims):
            glorot(f"dgf{i}.w_gate", refined_dim, dim)
            glorot(f"dgf{i}.w_feat", prev, dim)
            zeros(f"dgf{i}.bias", (dim,))
            prev = dim
    if config.gnn_kind in ("gat", "ensemble"):
        prev = config.node_embed_dim
        for i, dim in enumerate(config.gcn_dims):
            glorot(f"gat{i}.w_proj", prev, dim)
            glorot(f"gat{i}.attn", dim, 1, shape=(dim,))
            glorot(f"gat{i}.w_gate", refined_dim, dim)
            ones(f"gat{i}.ln_gain", (dim,))
            zeros(f"gat{i}.ln_bias", (dim,))
            prev = dim

    prev = config.gcn_dims[-1] + config.supplementary_dim
    for i, dim in enumerate(tuple(config.head_mlp_dims) + (1,)):
        glorot(f"head{i}.w", prev, dim)
        zeros(f"head{i}.b", (dim,))
        prev = dim
    return specs


def init_predictor(
    config: PredictorConfig,
    spaces: Sequence[SearchSpace],
    device_ids: Sequence[str],
    seed: int,
) -> PredictorState:
    """Seeded parameter initialization: Glorot-uniform weights, zero biases,
    N(0, 0.1) embedding rows, unit LayerNorm gains. `spaces` holds the one
    search space the predictor serves."""
    if len(spaces) != 1:
        raise ValueError(f"a predictor serves one search space, got {len(spaces)}")
    device_index = {d: i for i, d in enumerate(device_ids)}
    if len(device_index) != len(device_ids):
        raise ValueError("duplicate device ids")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, (kind, shape, fans) in _param_specs(config, spaces[0], len(device_ids)).items():
        if kind == "normal":
            data = rng.normal(0.0, 0.1, size=shape)
        elif kind == "glorot":
            limit = np.sqrt(6.0 / fans)
            data = rng.uniform(-limit, limit, size=shape)
        elif kind == "zeros":
            data = np.zeros(shape)
        else:
            data = np.ones(shape)
        params[name] = ad.param(data)
    return PredictorState(config, spaces[0], params, device_index)


def register_device(state: PredictorState, device_id: str) -> int:
    """Add a zero-initialized hardware row for a new device; idempotent."""
    if device_id in state.device_index:
        return state.device_index[device_id]
    hw = state.params["hw_embed"]
    hw.data = np.vstack([hw.data, np.zeros((1, hw.data.shape[1]))])
    idx = hw.data.shape[0] - 1
    state.device_index[device_id] = idx
    return idx


def _mlp(x, layers: list[tuple[Tensor, Tensor]]) -> Tensor:
    for i, (w, b) in enumerate(layers):
        x = ad.add(ad.matmul(x, w), b)
        if i + 1 < len(layers):
            x = ad.relu(x)
    return x


def _refined_op_features(
    state: PredictorState,
    plan: tuple[_LayerRows, ...],
    node_ops: np.ndarray,
    device_row: int,
) -> Tensor:
    """Joint op+hw embedding refined over the DAG along the row plan `plan`:
    one feature row per output row of its last layer.

    A refinement gate depends only on a node's op and the device, so each
    layer computes it once per op (null op included) on the op table
    [op_embed | device's hw_embed row] and gathers it by the nodes' ops.
    """
    op_embed = state.params["op_embed"]
    n_ops = op_embed.data.shape[0]
    table = ad.concat([
        op_embed, ad.gather(state.params["hw_embed"], np.full(n_ops, device_row, dtype=np.intp))
    ], axis=-1)
    # Layer 0 starts from node rows shared by every arch, so at batch 1 it
    # runs its x @ W and A @ h once and broadcasts against the per-arch gate.
    x = ad.gather(state.params["node_embed"], plan[0].inp[None, :])
    for rows, w in zip(plan, state._views.ophw_layers):
        gate = ad.gather(ad.sigmoid(ad.matmul(table, w.w_gate)), node_ops[:, rows.out])
        x = _dgf_update(x, rows.agg, gate, w, rows.self_pos)
    return _mlp(x, state._views.ophw_mlp)


def _forward(
    state: PredictorState,
    ops_rows: np.ndarray,
    device_row: int,
    supplementary: np.ndarray | None,
) -> Tensor:
    """Batched forward pass over the row plan; ops_rows is (batch, slot_count) int indices.
    Unchecked: `supplementary` is None for supplementary_dim 0, else the
    (batch, supplementary_dim) float64 rows of `_supplementary_rows`."""
    tpl = state._template
    batch = ops_rows.shape[0]
    node_ops = np.tile(tpl.node_ops, (batch, 1))
    node_ops[:, tpl.slot_nodes] = ops_rows
    refined = _refined_op_features(state, tpl.ophw, node_ops, device_row)
    gate_feats = [
        refined if rows.gate_pos is None else ad.take_rows(refined, rows.gate_pos)
        for rows in tpl.main
    ]

    # Layer 0 of each stack gates with the per-arch `refined`, so its output
    # has the batch's leading dimension. The last layer outputs the sink row.
    x0 = ad.gather(state.params["node_embed"], tpl.main[0].inp[None, :])
    sinks = []
    if state.config.gnn_kind in ("dgf", "ensemble"):
        x = x0
        for rows, feats, w in zip(tpl.main, gate_feats, state._views.dgf_layers):
            x = dgf_layer(x, rows.agg, feats, w, rows.self_pos)
        sinks.append(ad.take_rows(x, 0))
    if state.config.gnn_kind in ("gat", "ensemble"):
        x = x0
        for rows, feats, w in zip(tpl.main, gate_feats, state._views.gat_layers):
            x = gat_layer(x, rows.agg, feats, w, state.config.leaky_slope, rows.self_pos)
        sinks.append(ad.take_rows(x, 0))
    sink = sinks[0] if len(sinks) == 1 else ad.scale(ad.add(sinks[0], sinks[1]), 0.5)
    head_in = sink if supplementary is None else ad.concat([sink, supplementary], axis=-1)
    return _mlp(head_in, state._views.head)


def _supplementary_rows(
    state: PredictorState, encodings: EncodingTable | None, arch_ids: Iterable[str]
) -> np.ndarray | None:
    """`encodings`' rows of `arch_ids` as `_forward` takes them (None without a
    supplementary input). The table's width, 0 for no table, must be the
    config's supplementary_dim, or BadSupplementaryDim names both."""
    width = 0 if encodings is None else encodings.dim
    want = state.config.supplementary_dim
    if width != want:
        none = " (none given)" if encodings is None else ""
        raise BadSupplementaryDim(
            f"encodings of width {width}{none} for a predictor with supplementary_dim {want}"
        )
    return encodings.matrix(arch_ids) if width else None


def predict_batch(
    state: PredictorState,
    archs: Sequence[Architecture],
    device_id: str,
    encodings: EncodingTable | None = None,
) -> np.ndarray:
    """Latency scores for architectures from one space on one device.

    Scores in forwards of PREDICT_CHUNK (128) archs. `encodings` holds each
    arch's supplementary row and must be as wide as the config's
    supplementary_dim (no table is width 0). Raises NonFiniteValue if a
    score is NaN or infinite, as extreme finite parameters can make one; the
    forward's overflow raises no numpy warning before it.
    """
    if not archs:
        return np.zeros(0)
    state.check_space(archs)
    row = state.device_row(device_id)
    out = np.empty(len(archs))
    for start in range(0, len(archs), PREDICT_CHUNK):
        chunk = archs[start : start + PREDICT_CHUNK]
        ops_rows = np.array([a.ops for a in chunk], dtype=np.intp)
        supp = _supplementary_rows(state, encodings, [a.arch_id for a in chunk])
        with np.errstate(all="ignore"):
            out[start : start + len(chunk)] = _forward(state, ops_rows, row, supp).data[:, 0]
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise NonFiniteValue(f"{bad} of {len(archs)} scores on device {device_id!r} are NaN or infinite")
    return out


def init_target_hw_embedding(
    state: PredictorState, target_samples: LatencyTable, target: str, source_device_ids: Sequence[str]
) -> str:
    """Warm-start the `target` device's hardware row from its best-correlated source.

    Spearman correlation is computed over architectures measured on the
    target and on every source; the argmax source's row is copied (ties to
    the earliest source in the list). Returns the chosen source id.
    """
    sources = list(source_device_ids)
    target_row = state.device_row(target)

    rows = np.array([target_samples.row(d) for d in [target, *sources]])
    shared = ~np.isnan(rows).any(axis=0)
    n_shared = int(np.count_nonzero(shared))
    if n_shared < 2:
        raise InsufficientOverlap(f"only {n_shared} archs shared between target and all sources (need >= 2)")
    t_vec = rows[0, shared]
    best_rho, best_src = -np.inf, None
    for src, row in zip(sources, rows[1:]):
        try:
            rho = spearman(t_vec, row[shared])
        except ConstantInput:
            continue
        if rho > best_rho:
            best_rho, best_src = rho, src
    if best_src is None:
        raise ConstantInput(f"no source device has a defined correlation with target {target!r} "
                            f"over {n_shared} shared archs (constant latencies)")
    hw = state.params["hw_embed"]
    hw.data[target_row] = hw.data[state.device_row(best_src)]
    return best_src


def checkpoint_meta_path(path) -> Path:
    """Where `save_checkpoint(state, path)` writes the config/registry document."""
    return Path(str(path) + ".meta.json")


def save_checkpoint(state: PredictorState, path, extra: dict | None = None) -> None:
    """Write parameters to `path` and config/registry to its meta path.

    `path` holds the parameters' row-major little-endian float64 bytes,
    concatenated in `_param_specs` order, and nothing else: the meta's
    config, space and device registry fix the layout, and loading returns
    the saved values bit for bit. Each parameter's buffer goes to the file
    and to the SHA-256 the meta records, with no copy. `extra` is an
    arbitrary JSON-serializable annotation block (e.g. the transfer stage's
    target device and sample list).
    """
    path = Path(path)
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for name in _param_specs(state.config, state.space, len(state.device_index)):
            data = np.ascontiguousarray(state.params[name].data, dtype="<f8")
            f.write(data)
            digest.update(data)
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(state.config),
        "space": state.space.space_id,
        "devices": sorted(state.device_index, key=state.device_index.get),  # in row order
        "params_sha256": digest.hexdigest(),
        "extra": extra or {},
    }
    checkpoint_meta_path(path).write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")


def _read_meta(path: Path, keys: tuple[str, ...]) -> dict:
    """The parsed meta document at `path`, version and keys checked."""
    try:
        doc = load_json(read_input(path)[0])
    except OSError as e:
        raise BadCheckpoint(f"{path}: cannot read: {e.strerror or e}") from None
    except ValueError as e:
        raise BadCheckpoint(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise BadCheckpoint(f"{path}: not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise BadCheckpoint(
            f"{path}: checkpoint version {doc.get('version')!r}; only version "
            f"{CHECKPOINT_VERSION} is readable, re-run pretrain/transfer to rewrite it"
        )
    missing = [k for k in keys if k not in doc]
    if missing:
        raise BadCheckpoint(f"{path}: missing keys {missing}")
    return doc


# The `extra` fields a transfer checkpoint records for `eval` and `search`: (what, check).
_EXTRA_FIELDS = {
    "target_device": ("a string", lambda v: isinstance(v, str)),
    "samples": ("an integer", is_integer),
    "sampled_ids": ("a list of strings",
                    lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v)),
}


def load_checkpoint(path) -> tuple[PredictorState, dict]:
    """Read a checkpoint written by `save_checkpoint`; returns (state, extra).

    Raises BadCheckpoint naming the file if the meta is unreadable, of
    another version or missing keys (config fields included: a default would
    silently stand in for the trained value); if `space` is not a known
    space id or `devices` not a list of distinct device-id strings (device
    i owns hw_embed row i); if `extra` is not an object or holds a
    `target_device`, `samples` or `sampled_ids` of the wrong type
    (`/extra/<key>`); if the parameter file's SHA-256 differs from the
    meta's `params_sha256`; if its byte length differs from what the meta's
    config, space and device count imply; or if a parameter holds a NaN or
    an infinity. The parameters are views of the one buffer the file was
    read and hashed into.
    """
    path = Path(path)
    meta_path = checkpoint_meta_path(path)
    meta = _read_meta(meta_path, ("config", "space", "devices", "params_sha256", "extra"))
    try:
        missing = sorted({f.name for f in fields(PredictorConfig)} - set(meta["config"]))
        if missing:
            raise BadCheckpoint(f"{meta_path}: config is missing {missing}")
        config = PredictorConfig(**meta["config"])
        if not isinstance(meta["space"], str):
            raise TypeError(f"/space: must be a space id, got {meta['space']!r}")
        space = get_space(meta["space"])
        devices = meta["devices"]
        if (not isinstance(devices, list) or not all(isinstance(d, str) for d in devices)
                or len(set(devices)) != len(devices)):
            raise TypeError(f"/devices: must be a list of distinct device ids, got {devices!r}")
        expected = _param_specs(config, space, len(devices))
        if not isinstance(meta["extra"], dict):
            raise TypeError("extra is not an object")
    except KeyError as e:  # the keys are checked: only get_space raises it
        raise BadCheckpoint(f"{meta_path}: /space: {e.args[0]}") from None
    except BadField as e:
        raise BadCheckpoint(f"{meta_path}: /config/{e}") from None
    except (TypeError, ValueError, AttributeError) as e:
        raise BadCheckpoint(f"{meta_path}: {e}") from None
    for key, (what, ok) in _EXTRA_FIELDS.items():
        if key in meta["extra"] and not ok(meta["extra"][key]):
            raise BadCheckpoint(f"{meta_path}: /extra/{key}: must be {what}")

    try:
        buf, digest = read_input(path)
    except OSError as e:
        raise BadCheckpoint(f"{path}: cannot read: {e.strerror or e}") from None
    if digest != meta["params_sha256"]:
        raise BadCheckpoint(f"{path}: SHA-256 differs from params_sha256 in {meta_path}")
    sizes = [math.prod(shape) for _, shape, _ in expected.values()]
    if len(buf) != 8 * sum(sizes):
        raise BadCheckpoint(
            f"{path}: holds {len(buf)} bytes, the layout {meta_path} implies needs {8 * sum(sizes)}"
        )
    flat = np.frombuffer(buf, dtype="<f8")
    params, start = {}, 0
    for (name, (_, shape, _)), size in zip(expected.items(), sizes):
        data = flat[start : start + size]
        if not np.isfinite(data).all():  # per parameter: no file-sized mask
            raise BadCheckpoint(f"{path}: parameter {name} holds a non-finite value")
        params[name] = Tensor(data.reshape(shape))
        start += size
    return PredictorState(config, space, params, {d: i for i, d in enumerate(devices)}), meta["extra"]
