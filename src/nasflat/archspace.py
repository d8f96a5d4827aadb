"""Architecture search spaces, validation, serialization, and encodings.

Two space kinds are supported. Micro-cell spaces put operations on the edges
of a small complete DAG; they are lowered to a line-graph form where each
original edge becomes an operation slot node, bracketed by explicit input and
output nodes so the lowered DAG has a single source and a single sink.
Macro-chain spaces are a fixed linear chain with one operation per position.

Architectures are immutable; arch_id is a content hash over the canonical
serialization (space_id, row-major adjacency, ops) and is the join key used
by every table in the package.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadOpIndex,
    CycleDetected,
    DimMismatch,
    InvalidArchitecture,
    KeyMismatch,
    MultipleSinks,
    MultipleSources,
    NonFiniteValue,
    ParseError,
    UnreachableSink,
)

MICRO_CELL = "micro_cell"
MACRO_CHAIN = "macro_chain"

# Default widths for encoding tables loaded from files.
ENCODING_DIMS = {"zcp": 13, "arch2vec": 32, "cate": 32}

GRAPH_PROXY_DIM = 13

# Fixed order of the 13 graph-derived proxy features; see graph_proxies().
GRAPH_PROXY_NAMES = (
    "slot_count",
    "graph_nodes",
    "graph_edges",
    "longest_path",
    "density",
    "distinct_ops",
    "op_entropy",
    "max_op_multiplicity",
    "compute_op_count",
    "param_estimate",
    "flop_estimate",
    "critical_path_cost",
    "mean_flop_per_slot",
)


@dataclass(frozen=True)
class SearchSpace:
    """A NAS search space plus its lowered graph template.

    node_count is the cell node count for micro-cell spaces and the chain
    length for macro chains. The lowered graph template (adjacency, slot
    positions) is derived once at construction.
    """

    space_id: str
    kind: str
    node_count: int
    op_vocab: tuple[str, ...]
    slot_count: int
    param_costs: tuple[float, ...]
    flop_costs: tuple[float, ...]
    _template: np.ndarray = field(repr=False, compare=False, default=None)
    _slot_nodes: tuple[int, ...] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in (MICRO_CELL, MACRO_CHAIN):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if len(self.param_costs) != len(self.op_vocab) or len(self.flop_costs) != len(self.op_vocab):
            raise ValueError("op cost tables must match vocab size")
        if self.kind == MICRO_CELL:
            expected = self.node_count * (self.node_count - 1) // 2
            if self.slot_count != expected:
                raise ValueError(f"micro cell with {self.node_count} nodes has {expected} slots")
            adj, slots = _micro_cell_template(self.node_count)
        else:
            if self.slot_count != self.node_count:
                raise ValueError("macro chain slot_count must equal node_count")
            adj, slots = _macro_chain_template(self.node_count)
        adj.flags.writeable = False
        object.__setattr__(self, "_template", adj)
        object.__setattr__(self, "_slot_nodes", slots)

    @property
    def graph_size(self) -> int:
        """Node count of the lowered DAG."""
        return self._template.shape[0]

    @property
    def slot_nodes(self) -> tuple[int, ...]:
        """Indices of lowered-DAG nodes that carry an operation, slot order."""
        return self._slot_nodes

    def template_adjacency(self) -> np.ndarray:
        """The fixed, strictly upper-triangular lowered adjacency (read-only)."""
        return self._template


def _micro_cell_template(cell_nodes: int) -> tuple[np.ndarray, tuple[int, ...]]:
    # Cell edges in canonical order (a,b), a<b; each becomes a slot node.
    edges = [(a, b) for a in range(cell_nodes) for b in range(a + 1, cell_nodes)]
    n = len(edges) + 2  # + global input and output nodes
    adj = np.zeros((n, n), dtype=np.int8)
    node_of = {e: i + 1 for i, e in enumerate(edges)}
    src, sink = 0, n - 1
    for (a, b), u in ((e, node_of[e]) for e in edges):
        if a == 0:
            adj[src, u] = 1
        if b == cell_nodes - 1:
            adj[u, sink] = 1
        for (c, d), v in ((e2, node_of[e2]) for e2 in edges):
            if c == b:
                adj[u, v] = 1
    slots = tuple(node_of[e] for e in edges)
    return adj, slots


def _macro_chain_template(length: int) -> tuple[np.ndarray, tuple[int, ...]]:
    adj = np.zeros((length, length), dtype=np.int8)
    for i in range(length - 1):
        adj[i, i + 1] = 1
    return adj, tuple(range(length))


NB201_OPS = ("none", "skip_connect", "conv_1x1", "conv_3x3", "avg_pool_3x3")
# Per-op cost stand-ins used by the proxy features and nowhere else.
NB201_PARAM_COSTS = (0.0, 0.0, 0.04, 0.36, 0.0)
NB201_FLOP_COSTS = (0.0, 0.0, 0.65, 5.8, 0.02)

FBNET_OPS = (
    "k3_e1", "k3_e1_g2", "k3_e3", "k3_e6",
    "k5_e1", "k5_e1_g2", "k5_e3", "k5_e6",
    "skip",
)
FBNET_PARAM_COSTS = (0.12, 0.08, 0.34, 0.66, 0.18, 0.11, 0.52, 1.02, 0.0)
FBNET_FLOP_COSTS = (1.1, 0.7, 3.2, 6.3, 1.7, 1.0, 4.9, 9.7, 0.0)


def nb201_space() -> SearchSpace:
    return SearchSpace(
        space_id="nb201",
        kind=MICRO_CELL,
        node_count=4,
        op_vocab=NB201_OPS,
        slot_count=6,
        param_costs=NB201_PARAM_COSTS,
        flop_costs=NB201_FLOP_COSTS,
    )


def fbnet_space() -> SearchSpace:
    return SearchSpace(
        space_id="fbnet",
        kind=MACRO_CHAIN,
        node_count=22,
        op_vocab=FBNET_OPS,
        slot_count=22,
        param_costs=FBNET_PARAM_COSTS,
        flop_costs=FBNET_FLOP_COSTS,
    )


_REGISTRY = {"nb201": nb201_space, "fbnet": fbnet_space}


def get_space(space_id: str) -> SearchSpace:
    try:
        return _REGISTRY[space_id]()
    except KeyError:
        raise KeyError(f"unknown space {space_id!r}; known: {sorted(_REGISTRY)}") from None


@dataclass(frozen=True, eq=False)
class Architecture:
    """An immutable architecture: lowered adjacency + per-slot op indices."""

    space_id: str
    adjacency: np.ndarray
    ops: tuple[int, ...]
    arch_id: str = ""

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.int8)
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "ops", tuple(int(o) for o in self.ops))
        object.__setattr__(self, "arch_id", _content_hash(self.space_id, adj, self.ops))


def _content_hash(space_id: str, adj: np.ndarray, ops: tuple[int, ...]) -> str:
    payload = "{};{};{}".format(
        space_id,
        ",".join(str(int(v)) for v in adj.reshape(-1)),
        ",".join(str(o) for o in ops),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def make_architecture(space: SearchSpace, ops: Sequence[int]) -> Architecture:
    """Build an architecture on the space's fixed topology from op indices."""
    return Architecture(space.space_id, space.template_adjacency().copy(), tuple(ops))


def random_architecture(space: SearchSpace, seed: int) -> Architecture:
    """Uniformly sample op indices on the space's fixed topology."""
    rng = np.random.default_rng(seed)
    ops = rng.integers(0, len(space.op_vocab), size=space.slot_count)
    return make_architecture(space, [int(o) for o in ops])


def validation_errors(arch: Architecture, space: SearchSpace) -> list:
    """All invariant violations for arch within space (empty list = valid)."""
    errors = []
    adj = np.asarray(arch.adjacency)
    n = space.graph_size
    if adj.shape != (n, n):
        errors.append(CycleDetected(f"adjacency shape {adj.shape}, expected {(n, n)}"))
        return errors
    if np.any(np.tril(adj) != 0):
        errors.append(CycleDetected("adjacency has entries on or below the diagonal"))
    in_deg = adj.sum(axis=0)
    out_deg = adj.sum(axis=1)
    sources = np.flatnonzero(in_deg == 0)
    sinks = np.flatnonzero(out_deg == 0)
    if len(sources) != 1:
        errors.append(MultipleSources(f"{len(sources)} source nodes, expected 1"))
    if len(sinks) != 1:
        errors.append(MultipleSinks(f"{len(sinks)} sink nodes, expected 1"))
    if len(sources) >= 1 and len(sinks) >= 1:
        reach = _reachable(adj, int(sources[0]))
        if not reach[int(sinks[-1])]:
            errors.append(UnreachableSink("sink not reachable from source"))
    if len(arch.ops) != space.slot_count:
        errors.append(BadOpIndex(f"{len(arch.ops)} ops, expected {space.slot_count}"))
    else:
        vocab = len(space.op_vocab)
        for slot, op in enumerate(arch.ops):
            if not (0 <= op < vocab):
                errors.append(BadOpIndex(f"op {op} at slot {slot} outside vocab of {vocab}"))
    return errors


def _reachable(adj: np.ndarray, start: int) -> np.ndarray:
    # Plain lists: on graphs this small, a numpy call per node costs more
    # than the whole search.
    rows = adj.tolist()
    seen = [False] * len(rows)
    stack = [start]
    seen[start] = True
    while stack:
        u = stack.pop()
        for v, edge in enumerate(rows[u]):
            if edge and not seen[v]:
                seen[v] = True
                stack.append(v)
    return np.array(seen)


def validate(arch: Architecture, space: SearchSpace) -> None:
    """Raise InvalidArchitecture if any invariant fails."""
    errors = validation_errors(arch, space)
    if errors:
        raise InvalidArchitecture(errors)


def graph_proxies(arch: Architecture, space: SearchSpace) -> np.ndarray:
    """13 deterministic per-architecture features, in GRAPH_PROXY_NAMES order.

    These stand in for externally computed zero-cost-proxy vectors: graph
    shape statistics plus parameter/FLOP estimates from the space's per-op
    cost table. Depends only on architecture content.
    """
    validate(arch, space)
    adj = np.asarray(arch.adjacency, dtype=np.int64)
    n = adj.shape[0]
    n_edges = int(adj.sum())
    ops = arch.ops
    counts = np.bincount(np.array(ops), minlength=len(space.op_vocab))
    probs = counts[counts > 0] / len(ops)
    entropy = float(-(probs * np.log(probs)).sum())
    flops = np.array(space.flop_costs)
    params = np.array(space.param_costs)

    # Longest source->sink path in edges, by DP over the topological order.
    longest = np.zeros(n, dtype=np.int64)
    for v in range(n):
        preds = np.flatnonzero(adj[:, v])
        if preds.size:
            longest[v] = longest[preds].max() + 1

    # Critical path cost: max path sum of per-slot flop costs.
    node_cost = np.zeros(n)
    for slot, node in enumerate(space.slot_nodes):
        node_cost[node] = flops[ops[slot]]
    best = np.full(n, -np.inf)
    src = int(np.flatnonzero(adj.sum(axis=0) == 0)[0])
    best[src] = node_cost[src]
    for v in range(n):
        preds = np.flatnonzero(adj[:, v])
        if preds.size:
            best[v] = best[preds].max() + node_cost[v]
    sink = int(np.flatnonzero(adj.sum(axis=1) == 0)[0])

    flop_est = float(flops[list(ops)].sum())
    return np.array(
        [
            float(space.slot_count),
            float(n),
            float(n_edges),
            float(longest.max()),
            n_edges / (n * (n - 1) / 2.0),
            float(np.count_nonzero(counts)),
            entropy,
            float(counts.max()),
            float(sum(1 for o in ops if flops[o] > 0.0)),
            float(params[list(ops)].sum()),
            flop_est,
            float(best[sink]),
            flop_est / space.slot_count,
        ],
        dtype=np.float64,
    )


@dataclass
class EncodingTable:
    """Fixed-width per-architecture real vectors keyed by arch_id."""

    kind: str
    dim: int
    rows: dict[str, np.ndarray]

    def __post_init__(self):
        for arch_id, vec in self.rows.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise DimMismatch(f"row {arch_id}: length {vec.shape}, expected ({self.dim},)")
            if not np.all(np.isfinite(vec)):
                raise NonFiniteValue(f"row {arch_id} contains NaN/Inf")
            self.rows[arch_id] = vec

    def vector(self, arch_id: str) -> np.ndarray:
        return self.rows[arch_id]

    def __contains__(self, arch_id: str) -> bool:
        return arch_id in self.rows

    def __len__(self) -> int:
        return len(self.rows)


def proxy_table(archs: Iterable[Architecture], space: SearchSpace) -> EncodingTable:
    """Graph-proxy encoding table for a pool of architectures (kind 'zcp')."""
    rows = {a.arch_id: graph_proxies(a, space) for a in archs}
    return EncodingTable(kind="zcp", dim=GRAPH_PROXY_DIM, rows=rows)


def load_encoding_table(path, kind: str, expected_dim: int | None = None) -> EncodingTable:
    """Read an encoding CSV (header arch_id,e0,e1,...) into a validated table."""
    if expected_dim is None:
        expected_dim = ENCODING_DIMS.get(kind)
    path = Path(path)
    rows: dict[str, np.ndarray] = {}
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "arch_id":
            raise ParseError(f"{path}: first header column must be arch_id, got {cols[:1]}")
        dim = len(cols) - 1
        if dim < 1:
            raise ParseError(f"{path}: no encoding columns")
        if expected_dim is not None and dim != expected_dim:
            raise DimMismatch(f"{path}: {dim} columns declared {kind} (expected {expected_dim})")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 1:
                raise ParseError(f"{path}:{lineno}: {len(parts) - 1} values, expected {dim}")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            if not np.all(np.isfinite(vec)):
                raise NonFiniteValue(f"{path}:{lineno}: non-finite value")
            if parts[0] in rows:
                raise ParseError(f"{path}:{lineno}: second row for arch {parts[0]!r}")
            rows[parts[0]] = vec
    return EncodingTable(kind=kind, dim=dim, rows=rows)


def save_encoding_table(table: EncodingTable, path) -> None:
    """Write the CSV form, rows sorted by arch_id for byte-stable output."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("arch_id," + ",".join(f"e{i}" for i in range(table.dim)) + "\n")
        for arch_id in sorted(table.rows):
            vec = table.rows[arch_id]
            fh.write(arch_id + "," + ",".join(repr(float(v)) for v in vec) + "\n")


def concat_caz(zcp: EncodingTable, arch2vec: EncodingTable, cate: EncodingTable) -> EncodingTable:
    """Concatenate per-architecture rows in the order [cate | arch2vec | zcp]."""
    keys = set(zcp.rows)
    if set(arch2vec.rows) != keys or set(cate.rows) != keys:
        raise KeyMismatch("encoding tables cover different architecture sets")
    dim = cate.dim + arch2vec.dim + zcp.dim
    rows = {
        k: np.concatenate([cate.rows[k], arch2vec.rows[k], zcp.rows[k]])
        for k in keys
    }
    return EncodingTable(kind="caz", dim=dim, rows=rows)


def write_architectures(archs: Iterable[Architecture], path) -> None:
    """JSON-lines serialization: {"space", "adj", "ops"} per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for arch in archs:
            fh.write(
                json.dumps(
                    {
                        "space": arch.space_id,
                        "adj": [[int(v) for v in row] for row in arch.adjacency],
                        "ops": list(arch.ops),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def read_architectures(path) -> list[Architecture]:
    """Parse a JSONL architecture file, validating each line against its space.

    Any malformed or invalid line raises ParseError with `path:line`.
    """
    path = Path(path)
    archs = []
    spaces: dict[str, SearchSpace] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                arch = Architecture(obj["space"], np.array(obj["adj"]), tuple(obj["ops"]))
                if arch.space_id not in spaces:
                    spaces[arch.space_id] = get_space(arch.space_id)
                validate(arch, spaces[arch.space_id])
            except (KeyError, TypeError, ValueError, InvalidArchitecture) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            archs.append(arch)
    return archs
