"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The end-to-end experiment (criteria 7 and 9) runs once in a module fixture and
is shared; each of its trials, one pretrain and its 12 transfers, is one
`pipeline.map_targets` job, so the trials run in forked workers on a
multi-core host. Reproducibility (criterion 8) re-runs a
one-trial pipeline end to end and serially, once more in a child process with
BLAS pinned to one thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    balanced_bipartitions,
    cut_weight,
    dgf_reference,
    finite_diff_check,
    gat_reference,
    prune_oracle,
    spearman_oracle,
)

from nasflat import archspace as asp
from nasflat import autodiff as ad
from nasflat import devicesets as ds
from nasflat import pipeline as pl
from nasflat import predictor as pred
from nasflat import sampler as smp
from nasflat import synthbench as sb
from nasflat.errors import DegenerateEncoding
from nasflat.rng import rng_for, stable_seed


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


NB201 = asp.nb201_space()


# -------------------------------------------------------------------------
# Criterion 1: full-predictor gradients vs central finite differences.
# -------------------------------------------------------------------------

def _random_config(rng) -> tuple[pred.PredictorConfig, int]:
    """A random small config and an init seed, drawn from `rng` in that order."""
    op = int(rng.choice([16, 24, 32]))
    hw = int(rng.choice([16, 24, 32]))
    depth = int(rng.choice([2, 3]))
    width = int(rng.choice([24, 48]))
    config = pred.PredictorConfig(
        op_embed_dim=op,
        node_embed_dim=int(rng.choice([16, 32])),
        hw_embed_dim=hw,
        ophw_gcn_dims=(width, width),
        ophw_mlp_dims=(width,),
        gcn_dims=(width,) * depth,
        head_mlp_dims=(48, 48),
        gnn_kind="ensemble",
        supplementary_dim=int(rng.choice([2, 13])),
    )
    return config, int(rng.integers(1 << 30))


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(5):
        config, seed = _random_config(rng)
        state = pred.init_predictor(config, [NB201], ["d0", "d1"], seed=seed)
        archs = [asp.random_architecture(NB201, int(rng.integers(1 << 30))) for _ in range(4)]
        ops_rows = np.array([a.ops for a in archs], dtype=np.intp)
        supp = rng.normal(size=(4, config.supplementary_dim))
        mix = rng.normal(size=(4, 1))

        def model_eval():
            out = pred._forward(state, ops_rows, 0, supp)
            return ad.sum_all(ad.mul(out, mix))

        report = finite_diff_check(model_eval, state.params, n_samples=100, seed=trial)
        worst = max(worst, report.max_rel_err)
        assert report.n_checked >= 100
    elapsed = time.perf_counter() - t0
    _report(
        1, "gradient correctness", worst < 1e-4 and elapsed < 120,
        f"max rel err {worst:.2e} over 5 configs x 100 params in {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# Criterion 2: DGF equation oracle; GAT attention row normalization.
# -------------------------------------------------------------------------

def test_criterion_2_layer_oracles():
    rng = np.random.default_rng(202)
    worst_dgf = 0.0
    for _ in range(100):
        n, d_in, d_out, op_dim = 6, 5, 7, 4
        x = rng.normal(size=(n, d_in))
        adj = (rng.random((n, n)) < 0.4).astype(float)
        op_feat = rng.normal(size=(n, op_dim))
        w = pred.DgfWeights(
            w_gate=ad.param(rng.normal(size=(op_dim, d_out))),
            w_feat=ad.param(rng.normal(size=(d_in, d_out))),
            bias=ad.param(rng.normal(size=(d_out,))),
        )
        got = pred.dgf_layer(ad.param(x), adj, ad.param(op_feat), w).data
        want = dgf_reference(x, adj, op_feat, w.w_gate.data, w.w_feat.data, w.bias.data)
        worst_dgf = max(worst_dgf, float(np.max(np.abs(got - want))))

    worst_row = 0.0
    for _ in range(50):
        n, d = 7, 5
        x = rng.normal(size=(n, 4))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        w = pred.GatWeights(
            w_proj=ad.param(rng.normal(size=(4, d))),
            attn=ad.param(rng.normal(size=(d,))),
            w_gate=ad.param(rng.normal(size=(3, d))),
            ln_gain=ad.param(np.ones(d)),
            ln_bias=ad.param(np.zeros(d)),
        )
        _, attn = gat_reference(x, adj, rng.normal(size=(n, 3)), w)
        for i in range(n):
            if adj[i].sum() > 0:
                worst_row = max(worst_row, abs(attn[i].sum() - 1.0))
    _report(
        2, "layer equation oracles", worst_dgf < 1e-12 and worst_row < 1e-12,
        f"dgf max abs diff {worst_dgf:.2e}; attention row-sum err {worst_row:.2e}",
    )


# -------------------------------------------------------------------------
# Criterion 3: Spearman vs brute-force rank-then-Pearson oracle.
# -------------------------------------------------------------------------

def test_criterion_3_spearman_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 40))
        if rng.random() < 0.5:
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        worst = max(worst, abs(ds.spearman(x, y) - spearman_oracle(x, y)))
        checked += 1
    exact = ds.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
    _report(
        3, "spearman oracle", worst < 1e-12 and exact,
        f"max |diff| {worst:.2e} over 1000 vectors; rho([1,2,3,4],[1,3,2,4]) == 0.8: {exact}",
    )


# -------------------------------------------------------------------------
# Criterion 4: partitioner quality vs exhaustive enumeration.
# -------------------------------------------------------------------------

def test_criterion_4_partitioner_quality():
    rng = np.random.default_rng(404)
    failures = []
    for trial in range(100):
        n = int(rng.choice([4, 6, 8]))
        corr = rng.uniform(-1, 1, size=(n, n))
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        side_a, side_b = ds.kl_bisect(corr, seed=trial)
        got = cut_weight(-corr, side_a, side_b)
        cuts = [cut_weight(-corr, a, b) for a, b in balanced_bipartitions(n)]
        beaten = sum(1 for c in cuts if got <= c + 1e-12)
        if beaten / len(cuts) < 0.95:
            failures.append(trial)

    # pruning must follow the greedy cross-correlation removal order exactly:
    # shrinking the target sizes one step at a time traces the order
    order_ok = True
    for trial in range(20):
        corr = rng.uniform(-1, 1, size=(8, 8))
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        side_a = list(range(4))
        side_b = list(range(4, 8))
        for m, n_tgt in [(3, 3), (2, 2), (1, 1), (2, 1), (1, 3)]:
            source, target = ds.prune_to_sizes((side_a, side_b), m, n_tgt, corr)
            oa, ob, _ = prune_oracle(side_a, side_b, m, n_tgt, range(8), corr)
            if source != oa or target != ob:
                order_ok = False
    _report(
        4, "partitioner quality", not failures and order_ok,
        f"kl within top-5% on {100 - len(failures)}/100 graphs; prune order ok: {order_ok}",
    )


# -------------------------------------------------------------------------
# Criterion 5: sampler properties on synthetic encodings.
# -------------------------------------------------------------------------

def _mean_pairwise_cosine(ids, encoding):
    vecs = encoding.matrix(ids)
    norms = np.linalg.norm(vecs, axis=1)
    unit = vecs / np.where(norms > 0, norms, 1.0)[:, None]
    sims = unit @ unit.T
    iu = np.triu_indices(len(ids), 1)
    return float(sims[iu].mean())


def test_criterion_5_sampler_properties():
    pool = sb.distinct_random_architectures(NB201, 60, seed=50)
    rng = np.random.default_rng(505)
    vectors = rng.normal(size=(60, 10))
    encoding = asp.EncodingTable(
        dim=10, rows={a.arch_id: vectors[i] for i, a in enumerate(pool)}
    )
    strict_wins = 0
    for seed in range(20):
        cos = _mean_pairwise_cosine(smp.sample_cosine(pool, encoding, 8, seed), encoding)
        rand = _mean_pairwise_cosine(smp.sample_random(pool, 8, seed), encoding)
        if cos < rand:
            strict_wins += 1
    cosine_ok = strict_wins >= 16  # strict in >= 80% of seeds

    n_blobs, members = 5, 12
    centers = rng.uniform(-50, 50, size=(n_blobs, 6))
    blob_vectors = np.concatenate(
        [centers[b] + 0.3 * rng.normal(size=(members, 6)) for b in range(n_blobs)]
    )
    blob_pool = pool[: n_blobs * members]
    blob_encoding = asp.EncodingTable(
        dim=6,
        rows={a.arch_id: blob_vectors[i] for i, a in enumerate(blob_pool)},
    )
    blob_of = {blob_pool[i].arch_id: i // members for i in range(len(blob_pool))}
    blob_hits = 0
    for seed in range(20):
        picked = smp.sample_kmeans(blob_pool, blob_encoding, n_blobs, seed=seed)
        if sorted(blob_of[i] for i in picked) == list(range(n_blobs)):
            blob_hits += 1
    blobs_ok = blob_hits == 20

    degenerate = asp.EncodingTable(
        dim=4, rows={a.arch_id: np.ones(4) for a in pool[:10]}
    )
    try:
        smp.sample_kmeans(pool[:10], degenerate, 2, seed=0)
        degenerate_ok = False
    except DegenerateEncoding:
        degenerate_ok = True
    _report(
        5, "sampler properties", cosine_ok and blobs_ok and degenerate_ok,
        f"cosine strict wins {strict_wins}/20; blob recovery {blob_hits}/20; "
        f"degenerate raises: {degenerate_ok}",
    )


# -------------------------------------------------------------------------
# Criterion 6: hardware-embedding initialization picks the cloned source.
# -------------------------------------------------------------------------

def test_criterion_6_hw_embedding_init():
    archs = sb.distinct_random_architectures(NB201, 20, seed=60)
    hits = 0
    for trial in range(100):
        sources = [
            sb.gen_device(stable_seed("c6", trial, i), NB201, device_id=f"s{i}", sigma=0.02)
            for i in range(4)
        ]
        k = trial % 4
        target = sb.gen_device(
            stable_seed("c6t", trial), NB201, device_id="target",
            sigma=0.05, clone_of=sources[k],
        )
        table = sb.measure(archs, sources + [target], NB201)
        state = pred.init_predictor(
            pred.PredictorConfig(), [NB201], [d.device_id for d in sources], seed=trial
        )
        pred.register_device(state, "target")
        chosen = pred.init_target_hw_embedding(state, table, "target", [d.device_id for d in sources])
        if chosen == f"s{k}":
            hits += 1
    _report(6, "hw-embedding initialization", hits >= 95, f"picked the clone parent {hits}/100")


# -------------------------------------------------------------------------
# Criteria 7-9 share one end-to-end synthetic experiment.
# -------------------------------------------------------------------------

E2E_SEED = 777
E2E_TRAIN = pl.TrainConfig(
    epochs=12, batch_size=16, source_samples=300,
    transfer_epochs=40, transfer_lr=0.003,
)


def _build_world():
    devices = sb.mixed_family(NB201, 10, seed=42)
    table, archs = sb.gen_dataset(NB201, devices, 500, seed=11)
    ids = [d.device_id for d in devices]
    archmap = {a.arch_id: a for a in archs}
    encoding = asp.proxy_table(archs, NB201)
    return table, archmap, ids[:6], ids[6:], encoding


def _transfer_and_eval(base_state, table, archmap, sources, target, picked, trial, cfg):
    adapted, _ = pl.transfer(
        base_state, target, table, picked, sources, archmap, cfg,
        seed=stable_seed("t", E2E_SEED, trial, target),
    )
    entry = pl.evaluate(
        adapted, target, table, archmap,
        trial=trial, n_target_samples=len(picked), exclude=picked,
    )
    return adapted, entry


@pytest.fixture(scope="module")
def e2e():
    t0 = time.perf_counter()
    table, archmap, sources, targets, encoding = _build_world()
    pool = [archmap[a] for a in sorted(archmap)]

    def run_trial(trial):
        """One trial's entries by sampler, plus the trial-0 random-sampler
        states and picks that criterion 9 audits."""
        trial_seed = stable_seed("trial", E2E_SEED, trial)
        state = pred.init_predictor(pred.PredictorConfig(), [NB201], sources, seed=trial_seed)
        pl.pretrain(state, table, sources, archmap, E2E_TRAIN, seed=trial_seed)
        entries, audited = {"random": [], "cosine": []}, {}
        for method in entries:
            for target in targets:
                picked = smp.run_sampler(
                    method, pool, 20,
                    seed=stable_seed("s", E2E_SEED, trial, target, method),
                    encoding=encoding,
                )
                adapted, entry = _transfer_and_eval(
                    state, table, archmap, sources, target, picked, trial, E2E_TRAIN
                )
                entries[method].append(entry)
                if trial == 0 and method == "random":
                    audited[target] = (adapted, picked)
        return entries, audited

    entries = {"random": [], "cosine": []}
    adapted_states = {}
    for trial_entries, audited in pl.map_targets(run_trial, list(range(5))):
        for method, trial_list in trial_entries.items():
            entries[method].extend(trial_list)
        adapted_states.update(audited)
    elapsed = time.perf_counter() - t0
    return {
        "table": table, "archmap": archmap, "sources": sources, "targets": targets,
        "encoding": encoding, "entries": entries, "elapsed": elapsed,
        "adapted": adapted_states,
    }


def test_criterion_7_end_to_end_transfer(e2e):
    random_rhos = [e.spearman for e in e2e["entries"]["random"]]
    cosine_rhos = [e.spearman for e in e2e["entries"]["cosine"]]
    mean_random = float(np.mean(random_rhos))
    mean_cosine = float(np.mean(cosine_rhos))
    heldout_ok = all(e.n_heldout == 480 for e in e2e["entries"]["random"])
    samples_ok = all(e.n_target_samples == 20 for e in e2e["entries"]["random"])
    ok = (
        mean_random >= 0.85
        and mean_cosine >= 0.85
        and mean_cosine >= mean_random - 0.02
        and heldout_ok and samples_ok
        and e2e["elapsed"] < 600
    )
    _report(
        7, "end-to-end few-shot transfer", ok,
        f"mean rho random {mean_random:.3f}, cosine {mean_cosine:.3f} "
        f"(20 entries each, 480 held-out, {e2e['elapsed']:.0f}s)",
    )


def _single_trial_pipeline(out_dir):
    """One-trial instance of the criterion-7 pipeline; writes checkpoints + report.

    Its transfers run serially on purpose: they are the default-BLAS-thread
    reference that criterion 8 compares with a child on one BLAS thread.
    """
    table, archmap, sources, targets, encoding = _build_world()
    pool = [archmap[a] for a in sorted(archmap)]
    cfg = replace(E2E_TRAIN, epochs=4)
    trial_seed = stable_seed("repro", E2E_SEED)
    state = pred.init_predictor(pred.PredictorConfig(), [NB201], sources, seed=trial_seed)
    pl.pretrain(state, table, sources, archmap, cfg, seed=trial_seed)
    out_dir.mkdir()
    entries = []
    for target in targets:
        picked = smp.run_sampler(
            "cosine", pool, 20, seed=stable_seed("rs", E2E_SEED, target), encoding=encoding
        )
        adapted, entry = _transfer_and_eval(
            state, table, archmap, sources, target, picked, 0, cfg
        )
        entries.append(entry)
        pred.save_checkpoint(adapted, out_dir / f"{target}.json", extra={"target_device": target})
    report = pl.EvalReport.from_entries(entries)
    (out_dir / "report.csv").write_text(report.csv_text(), encoding="utf-8")


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _single_trial_pipeline_one_blas_thread(out_dir):
    """Run _single_trial_pipeline in a child process with BLAS on one thread.

    BLAS reads its thread count when numpy loads, so the setting only takes
    effect in a new process.
    """
    import nasflat

    paths = [str(Path(nasflat.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    code = (
        "import sys; from pathlib import Path; import test_acceptance as t; "
        "t._single_trial_pipeline(Path(sys.argv[1]))"
    )
    subprocess.run([sys.executable, "-c", code, str(out_dir)], env=env, check=True, timeout=600)


def test_criterion_8_reproducibility(tmp_path):
    _single_trial_pipeline(tmp_path / "a")
    _single_trial_pipeline(tmp_path / "b")
    _single_trial_pipeline_one_blas_thread(tmp_path / "c")
    a, b, c = (_outputs(tmp_path / tag) for tag in "abc")
    same_runs = "report.csv" in a and a == b
    same_threads = a == c
    _report(
        8, "reproducibility", same_runs and same_threads,
        f"checkpoints + report byte-identical across runs: {same_runs}; "
        f"in a child with OPENBLAS_NUM_THREADS=1: {same_threads}",
    )


def test_criterion_9_constrained_search(e2e):
    table = e2e["table"]
    archmap = e2e["archmap"]
    rates, rhos = [], []
    timing_ok = True
    for target in e2e["targets"]:
        adapted, picked = e2e["adapted"][target]
        rhos.append(
            [e for e in e2e["entries"]["random"] if e.trial == 0 and e.device_id == target][0].spearman
        )
        candidates = [archmap[a] for a in sorted(archmap)]
        latency = dict(zip(*table.measured(target)))
        truths = np.array([latency[a.arch_id] for a in candidates])
        constraint = float(np.quantile(truths, 0.5))
        accuracy = {a.arch_id: float(rng_for("acc", a.arch_id).uniform()) for a in candidates}
        calibration = {a: latency[a] for a in sorted(picked)}
        result = pl.latency_constrained_search(
            candidates, accuracy, adapted, target, constraint, top_k=10, calibration=calibration,
        )
        violations = sum(1 for a in result.ranked if latency[a] > constraint)
        rates.append(violations / len(result.ranked))
        timing_ok = timing_ok and 0 < result.predictor_time_s <= result.total_time_s
    mean_rate = float(np.mean(rates))
    _report(
        9, "latency-constrained search", mean_rate < 0.2 and timing_ok,
        f"violation rates {rates} (mean {mean_rate:.3f}) at predictor rho "
        f"{np.mean(rhos):.2f}; predictor time reported separately: {timing_ok}",
    )
