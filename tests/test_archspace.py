"""Search space, architecture validation, and encoding tests."""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest

from nasflat import archspace as asp
from nasflat.errors import (
    BadOpIndex,
    CycleDetected,
    DimMismatch,
    InvalidArchitecture,
    KeyMismatch,
    MultipleSinks,
    NonFiniteValue,
    ParseError,
    UnreachableSink,
)


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


def test_validate_accepts_valid(nb201):
    asp.validate(asp.random_architecture(nb201, 0), nb201)


def test_validate_cycle(nb201):
    adj = nb201.template_adjacency().copy()
    adj[4, 1] = 1  # below the diagonal
    arch = asp.Architecture("nb201", adj, (0,) * 6)
    with pytest.raises(InvalidArchitecture) as exc:
        asp.validate(arch, nb201)
    assert any(isinstance(e, CycleDetected) for e in exc.value.errors)


def test_invalid_architecture_survives_pickling(nb201):
    arch = asp.make_architecture(nb201, [0, 1, 2, 3, 4, 5])
    with pytest.raises(InvalidArchitecture) as exc:
        asp.validate(arch, nb201)
    again = pickle.loads(pickle.dumps(exc.value))
    assert str(again) == str(exc.value)
    assert [str(e) for e in again.errors] == [str(e) for e in exc.value.errors]


def test_validate_bad_op_index(nb201):
    arch = asp.make_architecture(nb201, [0, 1, 2, 3, 4, 5])  # 5 outside vocab
    with pytest.raises(InvalidArchitecture) as exc:
        asp.validate(arch, nb201)
    assert any(isinstance(e, BadOpIndex) for e in exc.value.errors)


def test_validate_multiple_sinks(nb201):
    adj = nb201.template_adjacency().copy()
    adj[6, 7] = 0  # e23 loses its edge to the output node
    arch = asp.Architecture("nb201", adj, (0,) * 6)
    errs = asp.validation_errors(arch, nb201)
    assert any(isinstance(e, MultipleSinks) for e in errs)


def test_validate_unreachable_sink(fbnet):
    adj = fbnet.template_adjacency().copy()
    adj[10, 11] = 0
    adj[0, 11] = 0  # break the chain, then patch node 11's source status
    adj[9, 11] = 1
    adj[10, 12] = 0
    # node 10 now dead-ends; there are 2 sinks and node 11 keeps an in-edge
    arch = asp.Architecture("fbnet", adj, (0,) * 22)
    errs = asp.validation_errors(arch, fbnet)
    assert errs, "broken chain must fail validation"


def test_macro_chain_architecture_depends_only_on_ops(fbnet):
    a = asp.make_architecture(fbnet, [1] * 22)
    b = asp.make_architecture(fbnet, [1] * 22)
    assert np.array_equal(a.adjacency, b.adjacency)
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
    a = asp.Architecture("nb201", nb201.template_adjacency().copy(), ops)
    b = asp.Architecture("nb201", [list(r) for r in nb201.template_adjacency()], list(ops))
    assert a.arch_id == b.arch_id
    assert np.array_equal(asp.graph_proxies(a, nb201), asp.graph_proxies(b, nb201))


def test_proxy_table_and_csv_roundtrip(nb201, tmp_path):
    archs = [asp.random_architecture(nb201, s) for s in range(10)]
    table = asp.proxy_table(archs, nb201)
    assert table.dim == 13
    path = tmp_path / "zcp.csv"
    asp.save_encoding_table(table, path)
    loaded = asp.load_encoding_table(path, "zcp")
    assert set(loaded.rows) == set(table.rows)
    for key in table.rows:
        assert np.array_equal(loaded.rows[key], table.rows[key])


def test_load_encoding_arch2vec_width(tmp_path):
    path = tmp_path / "a2v.csv"
    header = "arch_id," + ",".join(f"e{i}" for i in range(32))
    path.write_text(header + "\nabc," + ",".join(["0.5"] * 32) + "\n")
    table = asp.load_encoding_table(path, "arch2vec")
    assert table.dim == 32


def test_load_encoding_dim_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    header = "arch_id," + ",".join(f"e{i}" for i in range(13))
    path.write_text(header + "\nabc," + ",".join(["1.0"] * 13) + "\n")
    with pytest.raises(DimMismatch):
        asp.load_encoding_table(path, "arch2vec")


def test_load_encoding_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("arch_id,e0,e1\nabc,1.0,inf\n")
    with pytest.raises(NonFiniteValue):
        asp.load_encoding_table(path, "custom")


def test_load_encoding_parse_error(tmp_path):
    path = tmp_path / "garbled.csv"
    path.write_text("arch_id,e0\nabc,notanumber\n")
    with pytest.raises(ParseError):
        asp.load_encoding_table(path, "custom")


def test_load_encoding_second_row_for_an_arch_is_parse_error(tmp_path):
    """A repeated arch id fails at its line instead of replacing the first row's values."""
    path = tmp_path / "dup.csv"
    path.write_text("arch_id,e0,e1\nabc,1.0,2.0\nxyz,0.0,0.0\nabc,3.0,4.0\n")
    with pytest.raises(ParseError, match=f"{path}:4: second row for arch 'abc'"):
        asp.load_encoding_table(path, "custom")


def _table(kind, dim, keys, offset=0.0):
    return asp.EncodingTable(
        kind=kind, dim=dim,
        rows={k: np.arange(dim, dtype=float) + offset + i for i, k in enumerate(keys)},
    )


def test_concat_caz_dims_and_order():
    keys = ["a", "b"]
    zcp = _table("zcp", 13, keys, offset=100.0)
    a2v = _table("arch2vec", 32, keys, offset=200.0)
    cate = _table("cate", 32, keys, offset=300.0)
    caz = asp.concat_caz(zcp, a2v, cate)
    assert caz.dim == 77
    row = caz.rows["a"]
    assert np.array_equal(row[:32], cate.rows["a"])
    assert np.array_equal(row[32:64], a2v.rows["a"])
    assert np.array_equal(row[64:], zcp.rows["a"])


def test_concat_caz_key_mismatch():
    with pytest.raises(KeyMismatch):
        asp.concat_caz(_table("zcp", 13, ["a"]), _table("arch2vec", 32, ["a", "b"]), _table("cate", 32, ["a"]))


def test_architecture_jsonl_roundtrip(nb201, tmp_path):
    archs = [asp.random_architecture(nb201, s) for s in range(5)]
    path = tmp_path / "archs.jsonl"
    asp.write_architectures(archs, path)
    loaded = asp.read_architectures(path)
    assert [a.arch_id for a in loaded] == [a.arch_id for a in archs]


@pytest.mark.parametrize("op", [5, 9, -1])
def test_read_architectures_rejects_invalid_archs(nb201, tmp_path, op):
    archs = [asp.random_architecture(nb201, s) for s in range(3)]
    bad = asp.Architecture(nb201.space_id, archs[1].adjacency, (op,) + archs[1].ops[1:])
    path = tmp_path / "archs.jsonl"
    asp.write_architectures([archs[0], bad, archs[2]], path)
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: op {op} at slot 0")):
        asp.read_architectures(path)
