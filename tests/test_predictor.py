"""Predictor architecture tests: layer oracles, gradients, embeddings, io."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_forward, dgf_reference, finite_diff_check, gat_reference

from nasflat import archspace as asp
from nasflat import autodiff as ad
from nasflat import predictor as pred
from nasflat.devicesets import LatencyTable
from nasflat.errors import (
    BadCheckpoint,
    BadSupplementaryDim,
    InsufficientOverlap,
    MissingEncoding,
    SpaceMismatch,
    UnknownDevice,
)


@pytest.fixture(scope="module")
def nb201():
    return asp.nb201_space()


@pytest.fixture()
def state(nb201):
    return pred.init_predictor(pred.PredictorConfig(), [nb201], ["d0", "d1", "d2"], seed=3)


def test_config_defaults_match_published_table():
    c = pred.PredictorConfig()
    assert c.op_embed_dim == 48
    assert c.node_embed_dim == 48
    assert c.hw_embed_dim == 48
    assert c.ophw_gcn_dims == (128, 128)
    assert c.ophw_mlp_dims == (128,)
    assert c.gcn_dims == (128, 128, 128)
    assert c.head_mlp_dims == (200, 200, 200)
    assert c.gnn_kind == "ensemble"


def test_config_validation():
    with pytest.raises(ValueError):
        pred.PredictorConfig(gnn_kind="transformer")
    with pytest.raises(ValueError):
        pred.PredictorConfig(gcn_dims=(128, 0))
    with pytest.raises(ValueError, match="^gcn_dims needs at least one layer"):
        pred.PredictorConfig(gcn_dims=())
    with pytest.raises(ValueError, match="^ophw_gcn_dims needs at least one layer"):
        pred.PredictorConfig(ophw_gcn_dims=())


def test_init_deterministic_and_shapes(nb201):
    config = pred.PredictorConfig()
    a = pred.init_predictor(config, [nb201], ["d0", "d1", "d2", "d3", "d4"], seed=9)
    b = pred.init_predictor(config, [nb201], ["d0", "d1", "d2", "d3", "d4"], seed=9)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    # 5 real ops + one reserved null-op row for structural nodes
    assert a.params["op_embed"].data.shape == (6, 48)
    assert a.params["hw_embed"].data.shape == (5, 48)
    assert a.params["node_embed"].data.shape == (8, 48)


def test_a_predictor_serves_one_space(nb201):
    for spaces in ([], [nb201, asp.fbnet_space()]):
        with pytest.raises(ValueError, match=f"^a predictor serves one search space, got {len(spaces)}$"):
            pred.init_predictor(pred.PredictorConfig(), spaces, ["d0"], seed=0)


# --- dgf_layer ------------------------------------------------------------------

def _random_dgf_instance(rng, n=5, d_in=4, d_out=6, op_dim=3):
    x = rng.normal(size=(n, d_in))
    adj = (rng.random((n, n)) < 0.4).astype(float)
    op_feat = rng.normal(size=(n, op_dim))
    weights = pred.DgfWeights(
        w_gate=ad.param(rng.normal(size=(op_dim, d_out))),
        w_feat=ad.param(rng.normal(size=(d_in, d_out))),
        bias=ad.param(rng.normal(size=(d_out,))),
    )
    return x, adj, op_feat, weights


def test_dgf_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, adj, op_feat, w = _random_dgf_instance(rng)
        got = pred.dgf_layer(ad.param(x), adj, ad.param(op_feat), w).data
        want = dgf_reference(x, adj, op_feat, w.w_gate.data, w.w_feat.data, w.bias.data)
        assert np.max(np.abs(got - want)) < 1e-12


def test_dgf_zero_wfeat_gives_bias_rows():
    rng = np.random.default_rng(1)
    x, adj, op_feat, w = _random_dgf_instance(rng)
    w.w_feat.data[:] = 0.0
    out = pred.dgf_layer(ad.param(x), adj, ad.param(op_feat), w).data
    assert np.allclose(out, np.broadcast_to(w.bias.data, out.shape))


def test_dgf_zero_adjacency_drops_aggregation():
    rng = np.random.default_rng(2)
    x, adj, op_feat, w = _random_dgf_instance(rng)
    out = pred.dgf_layer(ad.param(x), np.zeros_like(adj), ad.param(op_feat), w).data
    assert np.allclose(out, x @ w.w_feat.data + w.bias.data, atol=1e-12)


def test_dgf_gate_decomposition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, adj, op_feat, w = _random_dgf_instance(rng)
        full = pred.dgf_layer(ad.param(x), adj, ad.param(op_feat), w).data
        no_agg = pred.dgf_layer(ad.param(x), np.zeros_like(adj), ad.param(op_feat), w).data
        gate = 1.0 / (1.0 + np.exp(-(op_feat @ w.w_gate.data)))
        expected = gate * (adj @ (x @ w.w_feat.data))
        assert np.max(np.abs((full - no_agg) - expected)) < 1e-12


# --- gat_layer ------------------------------------------------------------------

def _random_gat_instance(rng, n=5, d_in=4, d_out=6, op_dim=3):
    x = rng.normal(size=(n, d_in))
    adj = (rng.random((n, n)) < 0.5).astype(float)
    op_feat = rng.normal(size=(n, op_dim))
    weights = pred.GatWeights(
        w_proj=ad.param(rng.normal(size=(d_in, d_out))),
        attn=ad.param(rng.normal(size=(d_out,))),
        w_gate=ad.param(rng.normal(size=(op_dim, d_out))),
        ln_gain=ad.param(rng.uniform(0.5, 1.5, size=(d_out,))),
        ln_bias=ad.param(rng.normal(size=(d_out,))),
    )
    return x, adj, op_feat, weights


def test_gat_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, adj, op_feat, w = _random_gat_instance(rng)
        got = pred.gat_layer(ad.param(x), adj, ad.param(op_feat), w).data
        want, _ = gat_reference(x, adj, op_feat, w)
        assert np.max(np.abs(got - want)) < 1e-10


def test_gat_attention_rows_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, adj, op_feat, w = _random_gat_instance(rng, n=7)
        _, attn = gat_reference(x, adj, op_feat, w)
        for i in range(7):
            if adj[i].sum() > 0:
                assert attn[i].sum() == pytest.approx(1.0, abs=1e-12)
            else:
                assert attn[i].sum() == 0.0


def test_gat_single_in_neighbor_weight_one():
    rng = np.random.default_rng(7)
    x, _, op_feat, w = _random_gat_instance(rng, n=3)
    adj = np.zeros((3, 3))
    adj[1, 0] = 1  # node 1 attends only to node 0
    _, attn = gat_reference(x, adj, op_feat, w)
    assert attn[1, 0] == 1.0
    out = pred.gat_layer(ad.param(x), adj, ad.param(op_feat), w).data
    want, _ = gat_reference(x, adj, op_feat, w)
    assert np.allclose(out, want, atol=1e-10)


def test_gat_isolated_node_gets_layernormed_zero():
    rng = np.random.default_rng(8)
    x, _, op_feat, w = _random_gat_instance(rng, n=3)
    adj = np.zeros((3, 3))
    out = pred.gat_layer(ad.param(x), adj, ad.param(op_feat), w).data
    # zero aggregation -> LayerNorm of a zero row -> affine bias only
    assert np.allclose(out, np.broadcast_to(w.ln_bias.data, out.shape))


# --- refinement -------------------------------------------------------------------

def test_refine_identical_hw_rows_identical_features(state, nb201):
    """The device enters only through its hardware row: equal rows give equal scores."""
    hw = state.params["hw_embed"].data
    hw[1] = hw[0]
    archs = [asp.random_architecture(nb201, s) for s in range(8)]
    scores = pred.predict_batch(state, archs, "d0")
    assert len(set(scores)) == len(archs)
    assert scores.tobytes() == pred.predict_batch(state, archs, "d1").tobytes()
    assert not np.array_equal(scores, pred.predict_batch(state, archs, "d2"))


def test_refine_zeroed_mlp_gives_zero_features(state, nb201):
    """Ops and the device enter only through the refined features: zeroed, every arch scores the same."""
    state.params["ophw_mlp0.w"].data[:] = 0.0
    state.params["ophw_mlp0.b"].data[:] = 0.0
    archs = [asp.random_architecture(nb201, s) for s in range(8)]
    scores = {pred.predict_batch(state, [a], d)[0] for a in archs for d in ("d0", "d1")}
    assert len(scores) == 1


def test_refine_perturbation_is_device_local(state, nb201):
    """Moving d0's hardware row changes every d0 score and no bit of d1's."""
    archs = [asp.random_architecture(nb201, s) for s in range(8)]
    before = {d: pred.predict_batch(state, archs, d) for d in ("d0", "d1")}
    state.params["hw_embed"].data[0] += 0.5
    assert np.all(pred.predict_batch(state, archs, "d0") != before["d0"])
    assert pred.predict_batch(state, archs, "d1").tobytes() == before["d1"].tobytes()


# --- predict ---------------------------------------------------------------------

def test_predict_deterministic_and_batch_independent(state, nb201):
    archs = [asp.random_architecture(nb201, s) for s in range(6)]
    batch = pred.predict_batch(state, archs, "d0")
    assert np.array_equal(batch, pred.predict_batch(state, archs, "d0"))
    # repartitioning agrees to 1e-12; BLAS picks differently blocked kernels
    # per batch shape, so bitwise equality only holds for identical batches
    first = pred.predict_batch(state, archs[:2], "d0")
    rest = pred.predict_batch(state, archs[2:], "d0")
    assert np.allclose(np.concatenate([first, rest]), batch, rtol=0, atol=1e-12)
    singles = np.array([pred.predict_batch(state, [a], "d0")[0] for a in archs])
    assert np.allclose(batch, singles, rtol=0, atol=1e-12)


def test_predict_batch_scores_in_fixed_chunks(state, nb201):
    archs = [asp.random_architecture(nb201, s) for s in range(150)]
    chunk = pred.PREDICT_CHUNK
    want = np.concatenate([
        pred.predict_batch(state, archs[i : i + chunk], "d0")
        for i in range(0, len(archs), chunk)
    ])
    assert np.array_equal(pred.predict_batch(state, archs, "d0"), want)
    with pytest.raises(BadSupplementaryDim):
        pred.predict_batch(state, archs[:3], "d0", asp.proxy_table(archs[:3], nb201))


def test_predict_unknown_device(state, nb201):
    with pytest.raises(UnknownDevice):
        pred.predict_batch(state, [asp.random_architecture(nb201, 0)], "nope")


def test_predict_batch_rejects_archs_from_another_space(state, nb201):
    fbnet = asp.fbnet_space()
    fb = [asp.random_architecture(fbnet, s) for s in range(2)]
    nb = [asp.random_architecture(nb201, s) for s in range(2)]
    with pytest.raises(SpaceMismatch, match=r"\['fbnet'\]; predictor built for \['nb201'\]"):
        pred.predict_batch(state, fb, "d0")
    with pytest.raises(SpaceMismatch, match=r"\['fbnet', 'nb201'\]; predictor built for"):
        pred.predict_batch(state, nb + fb, "d0")
    assert pred.predict_batch(state, nb, "d0").shape == (2,)


_SECOND_BATCH_FAULTS = """
import resource
from nasflat import archspace, predictor, synthbench
space = archspace.get_space("fbnet")
archs = synthbench.distinct_random_architectures(space, 500, 0)
state = predictor.init_predictor(predictor.PredictorConfig(), [space], ["d0"], seed=0)
predictor.predict_batch(state, archs, "d0")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
predictor.predict_batch(state, archs, "d0")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _second_batch_minor_faults(**malloc_env) -> int:
    """Minor page faults of a warm 500-arch fbnet predict_batch in a fresh process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    src = str(Path(pred.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    env.update(malloc_env)
    done = subprocess.run([sys.executable, "-c", _SECOND_BATCH_FAULTS], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are set on glibc only")
def test_inference_reuses_heap_memory_unless_malloc_is_configured():
    """Importing nasflat.autodiff keeps freed temporaries in the heap; the user's setting wins."""
    assert _second_batch_minor_faults() < 1_000
    assert _second_batch_minor_faults(MALLOC_MMAP_THRESHOLD_="131072") > 10_000


def test_supplementary_dim_zero_rejects_payload_but_not_empty(state, nb201):
    archs = [asp.random_architecture(nb201, 0)]
    base = pred.predict_batch(state, archs, "d0")
    empty = asp.EncodingTable(0, {archs[0].arch_id: np.zeros(0)})
    assert np.array_equal(pred.predict_batch(state, archs, "d0", empty), base)
    with pytest.raises(BadSupplementaryDim):
        pred.predict_batch(state, archs, "d0", asp.EncodingTable(4, {archs[0].arch_id: np.ones(4)}))


def test_supplementary_only_touches_head(nb201, monkeypatch):
    """The supplementary rows join the sink embedding at the head's input and nowhere before."""
    config = pred.PredictorConfig(supplementary_dim=3)
    st = pred.init_predictor(config, [nb201], ["d0"], seed=4)
    head_inputs = []
    real = pred._mlp

    def spy(x, layers):
        if layers is st._views.head:
            head_inputs.append(ad._data(x).copy())
        return real(x, layers)

    monkeypatch.setattr(pred, "_mlp", spy)
    archs = [asp.random_architecture(nb201, 5)]
    supps = np.array([[1.0, 2.0, 3.0]]), np.array([[-9.0, 0.0, 4.0]])
    tables = [asp.EncodingTable(3, {archs[0].arch_id: s[0]}) for s in supps]
    out_a, out_b = (pred.predict_batch(st, archs, "d0", table) for table in tables)
    sink_a, sink_b = (x[:, : config.gcn_dims[-1]] for x in head_inputs)
    assert np.array_equal(sink_a, sink_b)
    assert [x[:, config.gcn_dims[-1]:].tolist() for x in head_inputs] == [s.tolist() for s in supps]
    assert out_a[0] != out_b[0]


def test_missing_supplementary_rejected(nb201):
    config = pred.PredictorConfig(supplementary_dim=3)
    st = pred.init_predictor(config, [nb201], ["d0"], seed=4)
    with pytest.raises(BadSupplementaryDim):
        pred.predict_batch(st, [asp.random_architecture(nb201, 0)], "d0")


def test_supplementary_row_missing_from_the_table_is_named(nb201):
    """An arch without a row raises MissingEncoding naming it."""
    st = pred.init_predictor(pred.PredictorConfig(supplementary_dim=13), [nb201], ["d0"], seed=4)
    archs = [asp.random_architecture(nb201, s) for s in range(3)]
    with pytest.raises(MissingEncoding, match=archs[2].arch_id):
        pred.predict_batch(st, archs, "d0", asp.proxy_table(archs[:2], nb201))


@pytest.mark.parametrize("kind", pred.GNN_KINDS)
def test_predict_batch_with_encodings_bitwise_equals_dense_oracle(fbnet, kind):
    """predict_batch stacks each arch's table row, as the dense forward pass fed those rows."""
    st = pred.init_predictor(pred.PredictorConfig(gnn_kind=kind, supplementary_dim=asp.GRAPH_PROXY_DIM),
                             [fbnet], ["d0", "d1"], seed=8)
    archs = [asp.random_architecture(fbnet, s) for s in range(64)]
    table = asp.proxy_table(archs, fbnet)
    for b in (1, 16, 64):
        ops = np.array([a.ops for a in archs[:b]], dtype=np.intp)
        want = dense_forward(st, ops, 1, table.matrix([a.arch_id for a in archs[:b]])).data[:, 0]
        assert pred.predict_batch(st, archs[:b], "d1", table).tobytes() == want.tobytes(), b


@pytest.mark.parametrize("kind", ["dgf", "gat", "ensemble"])
def test_full_gradient_check_all_kinds(nb201, kind):
    config = pred.PredictorConfig(gnn_kind=kind, supplementary_dim=2)
    st = pred.init_predictor(config, [nb201], ["d0", "d1"], seed=11)
    archs = [asp.random_architecture(nb201, s) for s in range(5)]
    ops_rows = np.array([a.ops for a in archs], dtype=np.intp)
    supp = np.random.default_rng(0).normal(size=(5, 2))
    weights = np.random.default_rng(1).normal(size=(5, 1))

    def model_eval():
        out = pred._forward(st, ops_rows, 0, supp)
        return ad.sum_all(ad.mul(out, weights))

    report = finite_diff_check(model_eval, st.params, n_samples=60, seed=2)
    assert report.max_rel_err < 1e-4, report.worst_param


_SHAPE_CONFIGS = [
    dict(gnn_kind="dgf"),
    dict(gnn_kind="gat"),
    dict(gnn_kind="ensemble"),
    dict(gnn_kind="gat", ophw_mlp_dims=()),
]


@pytest.mark.parametrize("overrides", _SHAPE_CONFIGS, ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
@pytest.mark.parametrize("batch", [1, 5])
def test_outputs_keep_batch_shape_with_finite_gradients(nb201, overrides, batch):
    small = dict(ophw_gcn_dims=(16, 16), ophw_mlp_dims=(16,), gcn_dims=(16, 16), head_mlp_dims=(8,))
    config = pred.PredictorConfig(**{**small, **overrides})
    st = pred.init_predictor(config, [nb201], ["d0", "d1"], seed=5)
    archs = [asp.random_architecture(nb201, s) for s in range(batch)]
    ops_rows = np.array([a.ops for a in archs], dtype=np.intp)
    supp = None
    if config.supplementary_dim:
        supp = np.random.default_rng(0).normal(size=(batch, config.supplementary_dim))
    assert pred.predict_batch(st, archs, "d1", supp).shape == (batch,)
    with ad.recording() as tape:
        out = pred._forward(st, ops_rows, 1, supp)
        loss = ad.sum_all(ad.mul(out, np.arange(1.0, batch + 1.0).reshape(-1, 1)))
    assert out.shape == (batch, 1)
    grads = ad.named_grads(st.params, ad.backward(tape, loss))
    for name, g in grads.items():
        assert g.shape == st.params[name].shape, name
        assert np.isfinite(g).all(), name


def test_first_layer_of_each_stack_runs_once_per_batch(nb201, monkeypatch):
    """Layer 0 starts from node rows shared by every arch: its projection is (1, N, d) @ W."""
    st = pred.init_predictor(pred.PredictorConfig(), [nb201], ["d0"], seed=2)
    first = {st.params[n]: n for n in ("ophw_gcn0.w_feat", "dgf0.w_feat", "gat0.w_proj")}
    later = {st.params[n]: n for n in ("ophw_gcn1.w_feat", "dgf1.w_feat", "gat1.w_proj")}
    seen = {}
    real = ad.matmul

    def spy(a, b):
        if b in first or b in later:
            seen[(first | later)[b]] = ad._data(a).shape
        return real(a, b)

    monkeypatch.setattr(ad, "matmul", spy)
    archs = [asp.random_architecture(nb201, s) for s in range(6)]
    pred.predict_batch(st, archs, "d0")
    n, d = nb201.graph_size, st.config.node_embed_dim
    for name in first.values():
        assert seen[name] == (1, n, d), name
    for name in later.values():
        assert seen[name][0] == 6, name


# --- row plan ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fbnet():
    return asp.fbnet_space()


def test_live_slots_are_the_sink_cone(nb201, fbnet):
    config = pred.PredictorConfig()
    assert pred.init_predictor(config, [fbnet], ["d0"], seed=0).live_slots == (18, 19, 20, 21)
    assert pred.init_predictor(config, [nb201], ["d0"], seed=0).live_slots == (0, 1, 2, 3, 4, 5)
    shallow = pred.PredictorConfig(ophw_gcn_dims=(128,), gcn_dims=(128,))
    assert pred.init_predictor(shallow, [nb201], ["d0"], seed=0).live_slots == ()


def test_fbnet_score_moves_exactly_with_live_slot_ops(fbnet):
    """Changing the op at a dead slot keeps the score's bits; at a live slot it changes it."""
    st = pred.init_predictor(pred.PredictorConfig(), [fbnet], ["d0"], seed=6)
    live = set(st.live_slots)
    arch = asp.random_architecture(fbnet, 3)
    variants = []
    for slot in range(fbnet.slot_count):
        ops = list(arch.ops)
        ops[slot] = (ops[slot] + 1) % len(fbnet.op_vocab)
        variants.append(asp.make_architecture(fbnet, ops))
    base = pred.predict_batch(st, [arch], "d0")[0]
    scores = [pred.predict_batch(st, [v], "d0")[0] for v in variants]
    assert [s != base for s in scores] == [slot in live for slot in range(fbnet.slot_count)]


@pytest.mark.parametrize("kind", pred.GNN_KINDS)
@pytest.mark.parametrize("supp_dim", [0, 3])
def test_fbnet_forward_bitwise_equals_dense_oracle(fbnet, kind, supp_dim):
    st = pred.init_predictor(pred.PredictorConfig(gnn_kind=kind, supplementary_dim=supp_dim),
                             [fbnet], ["d0", "d1"], seed=8)
    rng = np.random.default_rng(1)
    ops = rng.integers(0, len(fbnet.op_vocab), size=(500, fbnet.slot_count))
    supp = rng.normal(size=(500, supp_dim)) if supp_dim else None
    for b in (1, 16, 64, 500):
        s = None if supp is None else supp[:b]
        got = pred._forward(st, ops[:b], 1, s).data
        assert got.tobytes() == dense_forward(st, ops[:b], 1, s).data.tobytes(), b


@pytest.mark.parametrize("kind", pred.GNN_KINDS)
def test_nb201_forward_agrees_with_dense_oracle(nb201, kind):
    st = pred.init_predictor(pred.PredictorConfig(gnn_kind=kind), [nb201], ["d0"], seed=8)
    ops = np.random.default_rng(2).integers(0, len(nb201.op_vocab), size=(64, nb201.slot_count))
    for b in (1, 16, 64):
        got = pred._forward(st, ops[:b], 0, None).data
        want = dense_forward(st, ops[:b], 0, None).data
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12, b


@pytest.mark.parametrize("overrides", [{}, dict(ophw_gcn_dims=(32,), gcn_dims=(32,))],
                         ids=["default", "one_layer"])
def test_nb201_gradients_agree_with_dense_oracle(nb201, overrides):
    """Per-parameter gradients match within 1e-12, and rows no layer reads get exact zeros."""
    st = pred.init_predictor(pred.PredictorConfig(**overrides), [nb201], ["d0", "d1"], seed=9)
    ops = np.random.default_rng(3).integers(0, len(nb201.op_vocab), size=(16, nb201.slot_count))
    weights = np.random.default_rng(4).normal(size=(16, 1))

    def grads(forward):
        with ad.recording() as tape:
            loss = ad.sum_all(ad.mul(forward(st, ops, 1, None), weights))
        return ad.named_grads(st.params, ad.backward(tape, loss))

    got, want = grads(pred._forward), grads(dense_forward)
    for name, w in want.items():
        scale = max(np.max(np.abs(w)), 1e-300)
        assert np.max(np.abs(got[name] - w)) <= 1e-12 * scale, name
        assert np.all(got[name][w == 0.0] == 0.0), name
    if overrides:  # the sink's cone misses nodes 0, 1, 2 and 4
        assert np.all(got["node_embed"][[0, 1, 2, 4]] == 0.0)


def test_layers_project_only_the_rows_the_readout_reads(nb201, fbnet, monkeypatch):
    """The last main layer gates one row per arch; the fbnet refinement
    gates on one row per op (null op included), at any batch, and projects
    at most 5 node rows."""
    rows = {}
    real = ad.matmul

    def spy(a, b):
        rows.setdefault(id(b), set()).add(ad._data(a).shape[-2])
        return real(a, b)

    def seen_at(st, archs):
        rows.clear()
        pred.predict_batch(st, archs, "d0")
        return {name: rows[id(t)] for name, t in st.params.items() if id(t) in rows}

    monkeypatch.setattr(ad, "matmul", spy)
    for space in (nb201, fbnet):
        st = pred.init_predictor(pred.PredictorConfig(), [space], ["d0"], seed=2)
        seen = seen_at(st, [asp.random_architecture(space, s) for s in range(4)])
        assert seen["dgf2.w_gate"] == seen["gat2.w_gate"] == {1}, space.space_id
        if space is fbnet:
            assert seen["dgf2.w_feat"] == seen["gat2.w_proj"] == {2}
            for batch in (1, 500):
                seen = seen_at(st, [asp.random_architecture(space, s) for s in range(batch)])
                for i in range(len(st.config.ophw_gcn_dims)):
                    assert seen[f"ophw_gcn{i}.w_gate"] == {len(space.op_vocab) + 1}, (i, batch)
                    assert max(seen[f"ophw_gcn{i}.w_feat"]) <= 5, (i, batch)


# --- hardware embedding init ----------------------------------------------------

def _samples_table(target_vals, source_cols):
    table = LatencyTable()
    for i, v in enumerate(target_vals):
        table.add(f"arch{i}", "target", float(v))
    for dev, col in source_cols.items():
        for i, v in enumerate(col):
            table.add(f"arch{i}", dev, float(v))
    return table


def test_hw_init_picks_exact_copy(state):
    pred.register_device(state, "target")
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    table = _samples_table(vals, {
        "d0": [5.0, 3.0, 4.0, 1.0, 2.0],
        "d1": list(vals),  # identical ranking: rho = 1
        "d2": [2.0, 1.0, 5.0, 3.0, 4.0],
    })
    chosen = pred.init_target_hw_embedding(state, table, "target", ["d0", "d1", "d2"])
    assert chosen == "d1"
    hw = state.params["hw_embed"].data
    assert np.array_equal(hw[state.device_index["target"]], hw[state.device_index["d1"]])


def test_hw_init_picks_best_of_weak_correlations(state):
    pred.register_device(state, "target")
    # d1 anti-correlated, d2 anti-correlated, d0 mildly positive
    table = _samples_table([1, 2, 3, 4, 5, 6], {
        "d0": [2, 1, 4, 3, 6, 5],   # rho ~ 0.77 > 0.3 threshold shape
        "d1": [6, 5, 4, 3, 2, 1],
        "d2": [5, 6, 3, 4, 1, 2],
    })
    assert pred.init_target_hw_embedding(state, table, "target", ["d0", "d1", "d2"]) == "d0"


def test_hw_init_scale_invariant(state):
    pred.register_device(state, "target")
    rng = np.random.default_rng(13)
    vals = rng.uniform(1, 10, size=8)
    cols = {d: rng.uniform(1, 10, size=8) for d in ("d0", "d1", "d2")}
    first = pred.init_target_hw_embedding(state, _samples_table(vals, cols), "target", ["d0", "d1", "d2"])
    scaled = pred.init_target_hw_embedding(
        state, _samples_table(vals * 37.5, cols), "target", ["d0", "d1", "d2"]
    )
    assert first == scaled


def test_hw_init_insufficient_overlap(state):
    pred.register_device(state, "target")
    table = LatencyTable()
    table.add("a0", "target", 1.0)
    table.add("a0", "d0", 1.0)
    table.add("a0", "d1", 1.0)
    table.add("a0", "d2", 1.0)
    with pytest.raises(InsufficientOverlap):
        pred.init_target_hw_embedding(state, table, "target", ["d0", "d1", "d2"])


def test_register_device_appends_zero_row(state):
    n_before = state.params["hw_embed"].data.shape[0]
    idx = pred.register_device(state, "fresh")
    assert idx == n_before
    assert np.all(state.params["hw_embed"].data[idx] == 0.0)
    assert pred.register_device(state, "fresh") == idx  # idempotent


# --- checkpointing ------------------------------------------------------------

def test_checkpoint_roundtrip(state, nb201, tmp_path):
    archs = [asp.random_architecture(nb201, 21)]
    before = pred.predict_batch(state, archs, "d1")
    path = tmp_path / "ckpt.json"
    pred.save_checkpoint(state, path, extra={"stage": "test"})
    meta = json.loads(pred.checkpoint_meta_path(path).read_text(encoding="utf-8"))
    assert meta["version"] == pred.CHECKPOINT_VERSION
    # The file is the parameters' float64 bytes in layout order, nothing else.
    order = pred._param_specs(state.config, nb201, len(state.device_index))
    assert path.read_bytes() == b"".join(state.params[name].data.tobytes() for name in order)
    loaded, extra = pred.load_checkpoint(path)
    assert extra == {"stage": "test"}
    assert loaded.config == state.config
    assert loaded.device_index == state.device_index
    for name, t in state.params.items():
        got = loaded.params[name].data
        assert got.dtype == t.data.dtype and got.shape == t.data.shape
        assert got.tobytes() == t.data.tobytes()  # bitwise, signed zeros included
    assert np.array_equal(pred.predict_batch(loaded, archs, "d1"), before)
    # byte-identical re-save
    second = tmp_path / "ckpt2.json"
    pred.save_checkpoint(loaded, second, extra={"stage": "test"})
    assert path.read_bytes() == second.read_bytes()


_PINNED_CONFIG = pred.PredictorConfig(
    op_embed_dim=2, node_embed_dim=3, hw_embed_dim=2, ophw_gcn_dims=(3, 2), ophw_mlp_dims=(2,),
    gcn_dims=(2, 3), head_mlp_dims=(2,), gnn_kind="ensemble", supplementary_dim=1,
)


@pytest.mark.parametrize("space_id, params_sha256, meta_sha256", [
    ("nb201", "a94f29021d52f6a68d63e2524a69403756a28daf39defd46e061bb1dc9defb0d",
     "3ce4fc6de63d93dd0b96f89d06cd2b682a07e767635362471db458709f0bc8e5"),
    ("fbnet", "8bf958515315ba2c8c446a4e33ea5554396aca406e6c19aadcb8c1fb1e07f8bc",
     "7242cef6b8283100cbdd951ba928fa505a2955e5fc83272450917814cc2e3cd6"),
])
def test_init_only_checkpoint_bytes_are_pinned(tmp_path, space_id, params_sha256, meta_sha256):
    """The version-4 bytes of a tiny freshly drawn predictor per space, a registered
    device included. Only seeded draws enter them, no BLAS product, so they pin the
    parameter layout and the meta text."""
    state = pred.init_predictor(_PINNED_CONFIG, [asp.get_space(space_id)], ["d0", "d1"], seed=17)
    pred.register_device(state, "t")
    path = tmp_path / "c.json"
    pred.save_checkpoint(state, path, extra={"stage": "pin"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == params_sha256
    assert hashlib.sha256(pred.checkpoint_meta_path(path).read_bytes()).hexdigest() == meta_sha256


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy buffers included) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_io_copies_no_parameters(state, tmp_path):
    """Saving streams each parameter's own buffer; loading holds the file once."""
    path = tmp_path / "ckpt.json"
    pred.save_checkpoint(state, path)
    assert _traced_peak(lambda: pred.save_checkpoint(state, path)) < 64 * 1024
    assert _traced_peak(lambda: pred.load_checkpoint(path)) <= 1.1 * path.stat().st_size


_SETUP_IMPORTS = """
import sys
import nasflat.cli
from nasflat import archspace, predictor
for space_id in ("nb201", "fbnet"):
    space = archspace.get_space(space_id)
    state = predictor.init_predictor(predictor.PredictorConfig(), [space], ["d0"], seed=0)
    predictor.save_checkpoint(state, sys.argv[1])
    predictor.load_checkpoint(sys.argv[1])
print("numpy.ma" in sys.modules)
"""


def test_predictor_setup_does_not_import_numpy_ma(tmp_path):
    """numpy.ma is slow to import, and every CLI call builds a predictor: that must not pull it in."""
    env = dict(os.environ)
    src = str(Path(pred.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _SETUP_IMPORTS, str(tmp_path / "c.json")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split()[-1] == "False"


_DIMS = st.lists(st.integers(1, 4), max_size=2)


@st.composite
def _checkpoint_cases(draw):
    """A tiny random predictor over one of the two spaces, 1-3 devices, maybe one registered later."""
    config = pred.PredictorConfig(
        op_embed_dim=draw(st.integers(1, 4)),
        node_embed_dim=draw(st.integers(1, 4)),
        hw_embed_dim=draw(st.integers(1, 4)),
        ophw_gcn_dims=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
        ophw_mlp_dims=tuple(draw(_DIMS)),
        gcn_dims=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))),
        head_mlp_dims=tuple(draw(_DIMS)),
        gnn_kind=draw(st.sampled_from(pred.GNN_KINDS)),
        supplementary_dim=draw(st.integers(0, 3)),
    )
    space_id = draw(st.sampled_from(["nb201", "fbnet"]))
    devices = [f"d{i}" for i in range(draw(st.integers(1, 3)))]
    state = pred.init_predictor(config, [asp.get_space(space_id)], devices,
                                seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pred.register_device(state, "target")
    return state


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(state=_checkpoint_cases(), data=st.data())
def test_checkpoint_roundtrip_property(state, data):
    """Random small predictors: save -> load is bitwise, re-saving is byte-identical,
    and any one flipped byte of the parameter file is a BadCheckpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        pred.save_checkpoint(state, path, extra={"n": 1})
        loaded, extra = pred.load_checkpoint(path)
        assert extra == {"n": 1}
        assert loaded.config == state.config and loaded.device_index == state.device_index
        assert list(loaded.params) == list(state.params)
        for name, t in state.params.items():
            assert loaded.params[name].data.shape == t.data.shape
            assert loaded.params[name].data.tobytes() == t.data.tobytes()
        again = Path(tmp) / "again.json"
        pred.save_checkpoint(loaded, again, extra={"n": 1})
        assert again.read_bytes() == path.read_bytes()
        meta_of = pred.checkpoint_meta_path
        assert meta_of(again).read_bytes() == meta_of(path).read_bytes()

        blob = bytearray(path.read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1), label="byte")] ^= data.draw(
            st.integers(1, 255), label="mask")
        path.write_bytes(blob)
        with pytest.raises(BadCheckpoint, match="params_sha256"):
            pred.load_checkpoint(path)
