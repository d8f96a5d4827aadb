"""Architecture search spaces, serialization, and encodings.

Two space kinds are supported. Micro-cell spaces put operations on the edges
of a small complete DAG; they are lowered to a line-graph form where each
original edge becomes an operation slot node, bracketed by explicit input and
output nodes so the lowered DAG has a single source and a single sink.
Macro-chain spaces are a fixed linear chain with one operation per position.

The space owns the topology: every architecture of a space has the same
lowered DAG, and an architecture is only its per-slot op indices (a missing
micro-cell edge is its `none` op). Ops are checked once, where an
Architecture is built. arch_id is a content hash over the canonical
serialization (space_id, row-major template adjacency, ops) and is the join
key used by every table in the package.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadOpIndex, DimMismatch, MissingEncoding, NonFiniteValue, ParseError
from .inputs import load_json, open_text
from .rng import keyed_ints

MICRO_CELL = "micro_cell"
MACRO_CHAIN = "macro_chain"

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
    positions, slot-to-slot edges, the op indices as strings, its JSONL
    forms), the SHA-256 pre-fed with what the space fixes of each arch_id's
    hashed string, and the topology that graph_proxies reads (per-node
    predecessors, edge count, longest path, sink) are derived once at
    construction. A space pickles by reference: unpickling gives the shared
    `get_space` instance.
    """

    space_id: str
    kind: str
    node_count: int
    op_vocab: tuple[str, ...]
    slot_count: int
    param_costs: tuple[float, ...]
    flop_costs: tuple[float, ...]
    _template: np.ndarray = field(init=False, repr=False, compare=False)
    _slot_nodes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _slot_edges: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _op_strs: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _adj_list: list = field(init=False, repr=False, compare=False)
    _jsonl_head: str = field(init=False, repr=False, compare=False)
    _id_hash: object = field(init=False, repr=False, compare=False)
    _preds: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _edge_count: int = field(init=False, repr=False, compare=False)
    _longest_path: int = field(init=False, repr=False, compare=False)
    _sink: int = field(init=False, repr=False, compare=False)

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
        slot_of = {node: slot for slot, node in enumerate(slots)}
        edges = zip(*(nz.tolist() for nz in np.nonzero(adj)))  # row-major
        object.__setattr__(self, "_template", adj)
        object.__setattr__(self, "_slot_nodes", slots)
        object.__setattr__(self, "_slot_edges", tuple(
            (slot_of[u], slot_of[v]) for u, v in edges if u in slot_of and v in slot_of
        ))
        object.__setattr__(self, "_op_strs", tuple(map(str, range(len(self.op_vocab)))))
        object.__setattr__(self, "_adj_list", adj.tolist())
        object.__setattr__(self, "_jsonl_head", '{"space":%s,"adj":%s,"ops":[' % (
            json.dumps(self.space_id), json.dumps(self._adj_list, separators=(",", ":"))
        ))
        # An arch_id hashes `space_id;row-major template adjacency;ops` from a copy of this.
        adj_csv = ",".join(str(v) for row in self._adj_list for v in row)
        prefix = f"{self.space_id};{adj_csv};".encode("utf-8")
        object.__setattr__(self, "_id_hash", hashlib.sha256(prefix))
        preds = tuple(tuple(np.flatnonzero(col).tolist()) for col in adj.T)
        longest = [0] * len(preds)  # edges on the longest path into each node
        for v, p in enumerate(preds):  # node order is a topological order
            longest[v] = max((longest[u] + 1 for u in p), default=0)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_edge_count", int(adj.sum()))
        object.__setattr__(self, "_longest_path", max(longest))
        object.__setattr__(self, "_sink", int(np.flatnonzero(~adj.any(axis=1))[0]))

    @property
    def graph_size(self) -> int:
        """Node count of the lowered DAG."""
        return self._template.shape[0]

    @property
    def slot_nodes(self) -> tuple[int, ...]:
        """Indices of lowered-DAG nodes that carry an operation, slot order."""
        return self._slot_nodes

    @property
    def slot_edges(self) -> tuple[tuple[int, int], ...]:
        """(slot u, slot v) for each lowered-DAG edge joining two slot nodes,
        in row-major order of the adjacency."""
        return self._slot_edges

    def template_adjacency(self) -> np.ndarray:
        """The fixed, strictly upper-triangular lowered adjacency (read-only)."""
        return self._template

    def __reduce__(self):
        return get_space, (self.space_id,)


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


@functools.cache
def get_space(space_id: str) -> SearchSpace:
    """The one shared SearchSpace for space_id."""
    try:
        factory = _REGISTRY[space_id]
    except KeyError:
        raise KeyError(f"unknown space {space_id!r}; known: {sorted(_REGISTRY)}") from None
    return factory()


@dataclass(frozen=True, eq=False)
class Architecture:
    """An immutable architecture: per-slot op indices on its space's fixed topology.

    The ops must fit the space, one index within the vocabulary per slot;
    anything else raises BadOpIndex naming each bad slot.
    """

    space_id: str
    ops: tuple[int, ...]
    arch_id: str = field(init=False)

    def __post_init__(self):
        space = get_space(self.space_id)
        ops = tuple(self.ops)
        vocab = len(space.op_vocab)
        if len(ops) != space.slot_count:
            raise BadOpIndex(f"{len(ops)} ops, expected {space.slot_count}")
        if not all(type(op) is int and 0 <= op < vocab for op in ops):
            bad = [
                f"op {op!r} at slot {slot}" for slot, op in enumerate(ops)
                if isinstance(op, bool) or not isinstance(op, (int, np.integer)) or not 0 <= op < vocab
            ]
            if bad:
                raise BadOpIndex(f"{', '.join(bad)}: not an op index in 0..{vocab - 1}")
            ops = tuple(int(o) for o in ops)
        op_strs = space._op_strs
        digest = space._id_hash.copy()
        digest.update(",".join([op_strs[op] for op in ops]).encode("utf-8"))
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "arch_id", digest.hexdigest()[:32])


def make_architecture(space: SearchSpace, ops: Sequence[int]) -> Architecture:
    """Build an architecture on the space's fixed topology from op indices."""
    return Architecture(space.space_id, ops)


def random_ops(
    space: SearchSpace, prefix: Sequence[object], keys: Iterable[object]
) -> Iterator[tuple[int, ...]]:
    """For each key in order, uniformly drawn op indices: its `keyed_ints` draws
    over the op vocabulary, one per slot."""
    return map(tuple, keyed_ints(prefix, keys, len(space.op_vocab), space.slot_count).tolist())


def random_architecture(space: SearchSpace, seed: int) -> Architecture:
    """Uniformly sample op indices on the space's fixed topology: the first
    draw of `synthbench.distinct_random_architectures(space, n, seed)`."""
    return make_architecture(space, next(random_ops(space, ("arch", seed), [0])))


def graph_proxies(arch: Architecture, space: SearchSpace) -> np.ndarray:
    """13 deterministic per-architecture features, in GRAPH_PROXY_NAMES order.

    These stand in for externally computed zero-cost-proxy vectors: graph
    shape statistics plus parameter/FLOP estimates from the space's per-op
    cost table. Depends only on architecture content.
    """
    n = space.graph_size
    n_edges = space._edge_count
    ops = arch.ops
    counts = np.bincount(np.array(ops), minlength=len(space.op_vocab))
    probs = counts[counts > 0] / len(ops)
    entropy = float(-(probs * np.log(probs)).sum())
    flops = np.array(space.flop_costs)
    params = np.array(space.param_costs)

    # Critical path cost: max path sum of per-slot flop costs, by DP over the
    # topological order.
    node_cost = [0.0] * n
    for slot, node in enumerate(space.slot_nodes):
        node_cost[node] = space.flop_costs[ops[slot]]
    best = [0.0] * n
    for v, preds in enumerate(space._preds):
        best[v] = max((best[u] for u in preds), default=0.0) + node_cost[v]

    flop_est = float(flops[list(ops)].sum())
    return np.array(
        [
            float(space.slot_count),
            float(n),
            float(n_edges),
            float(space._longest_path),
            n_edges / (n * (n - 1) / 2.0),
            float(np.count_nonzero(counts)),
            entropy,
            float(counts.max()),
            float(sum(1 for o in ops if flops[o] > 0.0)),
            float(params[list(ops)].sum()),
            flop_est,
            float(best[space._sink]),
            flop_est / space.slot_count,
        ],
        dtype=np.float64,
    )


@dataclass
class EncodingTable:
    """Fixed-width per-architecture real vectors keyed by arch_id."""

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

    def matrix(self, arch_ids: Iterable[str]) -> np.ndarray:
        """The rows of `arch_ids` stacked in order, one per id; an id without a
        row raises MissingEncoding."""
        try:
            return np.stack([self.rows[a] for a in arch_ids])
        except KeyError as e:
            raise MissingEncoding(f"no encoding row for arch {e.args[0]}") from None

    def __contains__(self, arch_id: str) -> bool:
        return arch_id in self.rows


def proxy_table(archs: Iterable[Architecture], space: SearchSpace) -> EncodingTable:
    """Graph-proxy encoding table for a pool of architectures."""
    rows = {a.arch_id: graph_proxies(a, space) for a in archs}
    return EncodingTable(dim=GRAPH_PROXY_DIM, rows=rows)


def load_encoding_table(path) -> EncodingTable:
    """Read an encoding CSV (header arch_id,e0,e1,...) of any width into a validated table."""
    path = Path(path)
    rows: dict[str, np.ndarray] = {}
    with open_text(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "arch_id":
            raise ParseError(f"{path}: first header column must be arch_id, got {cols[:1]}")
        dim = len(cols) - 1
        if dim < 1:
            raise ParseError(f"{path}: no encoding columns")
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
    return EncodingTable(dim=dim, rows=rows)


def save_encoding_table(table: EncodingTable, path) -> None:
    """Write the CSV form, rows sorted by arch_id for byte-stable output."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("arch_id," + ",".join(f"e{i}" for i in range(table.dim)) + "\n")
        for arch_id in sorted(table.rows):
            vec = table.rows[arch_id]
            fh.write(arch_id + "," + ",".join(repr(float(v)) for v in vec) + "\n")


def write_architectures(archs: Iterable[Architecture], path) -> None:
    """JSON-lines serialization: {"space", "adj", "ops"} per line, "adj" being
    the space's template adjacency."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for arch in archs:
            space = get_space(arch.space_id)
            fh.write(space._jsonl_head + ",".join([space._op_strs[op] for op in arch.ops]) + "]}\n")


def read_architectures(path) -> list[Architecture]:
    """Parse a JSONL architecture file.

    Each line's "adj" must be its space's template adjacency and its ops must
    fit the space. Any malformed or invalid line raises ParseError with
    `path:line`.
    """
    path = Path(path)
    archs = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = load_json(line)
                space = get_space(obj["space"])
                if obj["adj"] != space._adj_list:
                    raise ValueError(f"adj is not the fixed topology of space {space.space_id!r}")
                archs.append(Architecture(space.space_id, obj["ops"]))
            except (KeyError, TypeError, ValueError, BadOpIndex) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
    return archs
