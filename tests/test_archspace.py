"""Search space, architecture validation, and encoding tests."""

from __future__ import annotations

import json
import pickle
import re

import numpy as np
import pytest

from nasflat import archspace as asp
from nasflat import synthbench as sb
from nasflat import predictor as pred
from nasflat.errors import BadOpIndex, MissingEncoding, NonFiniteValue, ParseError


@pytest.fixture(scope="module")
def nb201():
    return asp.nb201_space()


@pytest.fixture(scope="module")
def fbnet():
    return asp.fbnet_space()


def test_space_shapes(nb201, fbnet):
    assert nb201.node_count == 4 and nb201.slot_count == 6 and len(nb201.op_vocab) == 5
    assert fbnet.slot_count == 22 and len(fbnet.op_vocab) == 9
    # lowered templates: single source, single sink, strictly upper-triangular
    for space in (nb201, fbnet):
        adj = space.template_adjacency()
        assert np.all(np.tril(adj) == 0)
        assert (adj.sum(axis=0) == 0).sum() == 1
        assert (adj.sum(axis=1) == 0).sum() == 1
    assert nb201.graph_size == 8  # input + 6 edge slots + output
    assert fbnet.graph_size == 22


def test_random_architecture_shape_and_determinism(nb201):
    arch = asp.random_architecture(nb201, 7)
    assert len(arch.ops) == 6
    assert all(0 <= o < 5 for o in arch.ops)
    again = asp.random_architecture(nb201, 7)
    assert arch.arch_id == again.arch_id


def test_random_architecture_covers_all_ops_per_slot(nb201):
    seen = np.zeros((6, 5), dtype=bool)
    for seed in range(10_000):
        arch = asp.random_architecture(nb201, seed)
        for slot, op in enumerate(arch.ops):
            seen[slot, op] = True
        if seen.all():
            break
    assert seen.all(), "10k draws must hit every op value at every slot"


def test_validate_accepts_valid(nb201, tmp_path):
    arch = asp.random_architecture(nb201, 0)
    path = tmp_path / "archs.jsonl"
    asp.write_architectures([arch], path)
    assert json.loads(path.read_text())["adj"] == nb201.template_adjacency().tolist()
    assert [a.arch_id for a in asp.read_architectures(path)] == [arch.arch_id]


def test_get_space_is_shared():
    assert asp.get_space("nb201") is asp.get_space("nb201")
    with pytest.raises(KeyError, match="unknown space 'nope'"):
        asp.get_space("nope")


def test_a_space_pickles_by_reference():
    """Unpickling a space, or a predictor state holding one, gives the shared instance."""
    for space_id in ("nb201", "fbnet"):
        space = asp.get_space(space_id)
        assert pickle.loads(pickle.dumps(space)) is space
        state = pred.init_predictor(pred.PredictorConfig(), [space], ["d0"], seed=0)
        assert pickle.loads(pickle.dumps(state)).space is space
    assert not hasattr(asp, "_id_hash")


def test_validate_bad_op_index(nb201):
    """Ops are checked where an Architecture is built, naming every bad slot."""
    for ops, why in (
        ([0, 1, 2, 3, 4, 5], "op 5 at slot 5: not an op index in 0..4"),
        ([-1, 0, 0, 9, 0, 0], "op -1 at slot 0, op 9 at slot 3: not an op index in 0..4"),
        ([0, 1.0, 0, 0, "2", 0], "op 1.0 at slot 1, op '2' at slot 4"),
        ([0, 0, True, 0, None, 0], "op True at slot 2, op None at slot 4"),
        ([0] * 5, "5 ops, expected 6"),
        ([0] * 7, "7 ops, expected 6"),
    ):
        with pytest.raises(BadOpIndex, match=re.escape(why)):
            asp.make_architecture(nb201, ops)
        with pytest.raises(BadOpIndex, match=re.escape(why)):
            asp.Architecture("nb201", ops)


@pytest.mark.parametrize("ops, message", [
    ((True, 0, 0, 0, 0, 0), "op True at slot 0: not an op index in 0..4"),
    ((np.int64(7), 0, 0, 0, 0, 0), "op np.int64(7) at slot 0: not an op index in 0..4"),
    ((1.0, 0, 0, 0, 0, 0), "op 1.0 at slot 0: not an op index in 0..4"),
    ((-1, 0, 0, 0, 0, 0), "op -1 at slot 0: not an op index in 0..4"),
    ((5, 0, 0, 0, 0, 0), "op 5 at slot 0: not an op index in 0..4"),
    ((0, np.int32(-2), 2.5, False, 9, "a"),
     "op np.int32(-2) at slot 1, op 2.5 at slot 2, op False at slot 3, op 9 at slot 4, "
     "op 'a' at slot 5: not an op index in 0..4"),
], ids=["bool", "numpy_int", "float", "negative", "out_of_range", "mixed"])
def test_bad_op_index_messages_are_exact(ops, message):
    """Ops that are not all plain in-range ints get the per-slot check and its message."""
    with pytest.raises(BadOpIndex) as exc:
        asp.Architecture("nb201", ops)
    assert str(exc.value) == message


def test_numpy_int_ops_build_the_plain_int_architecture():
    arch = asp.Architecture("nb201", tuple(np.int64(o) for o in (3, 1, 2, 3, 4, 0)))
    assert arch.arch_id == asp.Architecture("nb201", (3, 1, 2, 3, 4, 0)).arch_id
    assert all(type(o) is int for o in arch.ops)


def _archs_with_edited_line_2(tmp_path, space, edit):
    """A 3-arch archs.jsonl whose second line's object went through `edit`."""
    path = tmp_path / "archs.jsonl"
    asp.write_architectures([asp.random_architecture(space, s) for s in range(3)], path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    return path


def _cycle(adj):
    adj[4][1] = 1  # below the diagonal


def _multiple_sinks(adj):
    adj[6][7] = 0  # e23 loses its edge to the output node


def _unreachable_sink(adj):
    # fbnet: break the chain at 10 -> 11 and patch node 11's source status;
    # node 10 now dead-ends, so there are 2 sinks and node 11 keeps an in-edge
    adj[10][11] = adj[0][11] = adj[10][12] = 0
    adj[9][11] = 1


def _extra_forward_edge(adj):
    adj[1][6] = 1  # between two slot nodes; still a DAG with one source and sink


def _dropped_edge(adj):
    adj[1][4] = 0


@pytest.mark.parametrize("space_id, rewire", [
    ("nb201", _cycle), ("nb201", _multiple_sinks), ("fbnet", _unreachable_sink),
    ("nb201", _extra_forward_edge), ("nb201", _dropped_edge),
], ids=lambda v: v.__name__.strip("_") if callable(v) else v)
def test_read_architectures_rejects_other_topologies(tmp_path, space_id, rewire):
    """An adj other than the space's template, DAG or not, is a ParseError at its line."""
    path = _archs_with_edited_line_2(tmp_path, asp.get_space(space_id), lambda obj: rewire(obj["adj"]))
    why = f"{path}:2: adj is not the fixed topology of space {space_id!r}"
    with pytest.raises(ParseError, match=re.escape(why)):
        asp.read_architectures(path)


def test_macro_chain_architecture_depends_only_on_ops(fbnet):
    a = asp.make_architecture(fbnet, [1] * 22)
    b = asp.make_architecture(fbnet, np.ones(22, dtype=np.int64))
    assert a.ops == b.ops and all(type(o) is int for o in b.ops)
    assert a.arch_id == b.arch_id
    assert a.arch_id != asp.make_architecture(fbnet, [1] * 21 + [2]).arch_id


def test_graph_proxies_all_skip_has_zero_compute(nb201):
    skip = nb201.op_vocab.index("skip_connect")
    vec = asp.graph_proxies(asp.make_architecture(nb201, [skip] * 6), nb201)
    names = asp.GRAPH_PROXY_NAMES
    assert vec[names.index("compute_op_count")] == 0.0
    assert vec[names.index("param_estimate")] == 0.0
    assert vec[names.index("flop_estimate")] == 0.0


def test_graph_proxies_hand_counts(nb201):
    ops = [3, 3, 2, 1, 0, 4]
    vec = asp.graph_proxies(asp.make_architecture(nb201, ops), nb201)
    names = asp.GRAPH_PROXY_NAMES
    assert vec[names.index("slot_count")] == 6.0
    assert vec[names.index("distinct_ops")] == 5.0
    assert vec[names.index("max_op_multiplicity")] == 2.0
    # compute ops carry nonzero flop cost: both convs and the avg-pool
    assert vec[names.index("compute_op_count")] == 4.0
    assert vec[names.index("param_estimate")] == pytest.approx(0.36 + 0.36 + 0.04)
    assert vec[names.index("flop_estimate")] == pytest.approx(5.8 + 5.8 + 0.65 + 0.02)


def test_graph_proxies_content_determinism(nb201):
    ops = (2, 0, 1, 4, 3, 2)
    a = asp.Architecture("nb201", ops)
    b = asp.make_architecture(nb201, np.array(ops))
    assert a.arch_id == b.arch_id
    assert np.array_equal(asp.graph_proxies(a, nb201), asp.graph_proxies(b, nb201))


def test_proxy_table_and_csv_roundtrip(nb201, tmp_path):
    archs = [asp.random_architecture(nb201, s) for s in range(10)]
    table = asp.proxy_table(archs, nb201)
    assert table.dim == 13
    path = tmp_path / "zcp.csv"
    asp.save_encoding_table(table, path)
    loaded = asp.load_encoding_table(path)
    assert set(loaded.rows) == set(table.rows)
    for key in table.rows:
        assert np.array_equal(loaded.rows[key], table.rows[key])


def test_encoding_matrix_stacks_rows_in_order_and_names_a_missing_id(nb201):
    archs = [asp.random_architecture(nb201, s) for s in range(4)]
    table = asp.proxy_table(archs[:3], nb201)
    ids = [archs[2].arch_id, archs[0].arch_id]
    assert np.array_equal(table.matrix(ids), np.stack([table.rows[i] for i in ids]))
    with pytest.raises(MissingEncoding, match=f"no encoding row for arch {archs[3].arch_id}"):
        table.matrix([archs[0].arch_id, archs[3].arch_id])


def test_load_encoding_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("arch_id,e0,e1\nabc,1.0,inf\n")
    with pytest.raises(NonFiniteValue):
        asp.load_encoding_table(path)


def test_load_encoding_parse_error(tmp_path):
    path = tmp_path / "garbled.csv"
    path.write_text("arch_id,e0\nabc,notanumber\n")
    with pytest.raises(ParseError):
        asp.load_encoding_table(path)


def test_load_encoding_second_row_for_an_arch_is_parse_error(tmp_path):
    """A repeated arch id fails at its line instead of replacing the first row's values."""
    path = tmp_path / "dup.csv"
    path.write_text("arch_id,e0,e1\nabc,1.0,2.0\nxyz,0.0,0.0\nabc,3.0,4.0\n")
    with pytest.raises(ParseError, match=f"{path}:4: second row for arch 'abc'"):
        asp.load_encoding_table(path)


def test_architecture_jsonl_roundtrip(nb201, tmp_path):
    archs = [asp.random_architecture(nb201, s) for s in range(5)]
    path = tmp_path / "archs.jsonl"
    asp.write_architectures(archs, path)
    loaded = asp.read_architectures(path)
    assert [a.arch_id for a in loaded] == [a.arch_id for a in archs]


@pytest.mark.parametrize("op", [5, 9, -1])
def test_read_architectures_rejects_invalid_archs(nb201, tmp_path, op):
    path = _archs_with_edited_line_2(tmp_path, nb201, lambda obj: obj["ops"].__setitem__(0, op))
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: op {op} at slot 0")):
        asp.read_architectures(path)


# Captured from the version whose architectures carried their own adjacency:
# ids, proxies and latencies must not move when the space owns the topology.
_PINNED = {
    "nb201": {
        "ids": {
            (0, 0, 0, 0, 0, 0): "2696ad3648b23bcf1af8bf5cafa579b2",
            (0, 1, 2, 3, 4, 0): "28c65760f0dbb5f9d62faf9c271ee90d",
            (4, 3, 2, 1, 0, 4): "52495da278f2323f5dcbf0f8b46fe395",
        },
        "proxies": [
            6.0, 8.0, 10.0, 4.0, 0.35714285714285715, 5.0, 1.5607104090414063, 2.0, 4.0,
            0.39999999999999997, 6.489999999999999, 5.819999999999999, 1.0816666666666666,
        ],
        "latency": 9.388054459585515,
    },
    "fbnet": {
        "ids": {
            (8,) * 22: "4e3aac7bc5b3e11a13ac2b98e2397782",
            tuple(range(9)) * 2 + (0, 1, 2, 3): "79ba63d97b42f3eebd958f422fed866a",
            (3, 7, 1, 0, 5, 2, 8, 6, 4, 4, 1, 3, 0, 7, 2, 6, 5, 8, 1, 1, 0, 3):
                "ba22787a988222fac28f41996c2b5ae8",
        },
        "proxies": [
            22.0, 22.0, 21.0, 21.0, 0.09090909090909091, 9.0, 2.161287119576154, 4.0, 20.0,
            7.000000000000001, 66.00000000000001, 66.0, 3.0000000000000004,
        ],
        "latency": 39.052143062445786,
    },
}


@pytest.mark.parametrize("space_id", sorted(_PINNED))
def test_ids_proxies_and_latency_are_pinned(space_id):
    """arch_id, graph_proxies and latencies keep their bits; the last op list is the probe."""
    space, pinned = asp.get_space(space_id), _PINNED[space_id]
    archs = [asp.make_architecture(space, ops) for ops in pinned["ids"]]
    assert [a.arch_id for a in archs] == list(pinned["ids"].values())
    assert asp.graph_proxies(archs[-1], space).tolist() == pinned["proxies"]
    device = sb.gen_device(11, space, sigma=0.05)
    assert sb.latencies(archs[-1:], device, space).tolist() == [pinned["latency"]]
