"""Training-loop, transfer, evaluation, and search tests."""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import generator_worlds
import numpy as np
import pytest
from oracles import epoch_batches, finite_diff_check

from nasflat import archspace as asp
from nasflat import autodiff as ad
from nasflat import pipeline as pl
from nasflat import predictor as pred
from nasflat import synthbench as sb
from nasflat.devicesets import LatencyTable
from nasflat.rng import rng_for
from nasflat.errors import (
    BadSupplementaryDim,
    EmptyFeasibleSet,
    InsufficientData,
    NonFiniteValue,
    TooFewSamples,
)


@pytest.fixture(scope="module")
def nb201():
    return asp.nb201_space()


@pytest.fixture(scope="module")
def small_world(nb201):
    """Three correlated source devices, one clone target, 80 archs."""
    table, archs = sb.gen_dataset(nb201, _clone_family(nb201), 80, seed=8)
    return table, {a.arch_id: a for a in archs}, ["s0", "s1", "s2"], "t0"


def _clone_family(nb201):
    parent = sb.gen_device(50, nb201, device_id="s0", sigma=0.02)
    return [
        parent,
        sb.gen_device(51, nb201, device_id="s1", sigma=0.02, clone_of=parent, cost_jitter=0.2),
        sb.gen_device(52, nb201, device_id="s2", sigma=0.02, clone_of=parent, cost_jitter=0.4),
        sb.gen_device(53, nb201, device_id="t0", sigma=0.03, clone_of=parent, cost_jitter=0.3),
    ]


# --- hinge loss ----------------------------------------------------------------

def test_hinge_zero_when_ordered_with_margin():
    preds = ad.param(np.array([[0.0], [1.0], [2.0], [3.0]]))
    loss = pl.pairwise_hinge_loss(preds, [1.0, 2.0, 3.0, 4.0], margin=0.5)
    assert loss.data == 0.0


def test_hinge_two_equal_preds():
    preds = ad.param(np.array([[1.0], [1.0]]))
    loss = pl.pairwise_hinge_loss(preds, [5.0, 2.0], margin=0.1)
    assert loss.data == pytest.approx(0.1)


def test_hinge_translation_invariant():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(6, 1))
    t = rng.normal(size=6)
    a = pl.pairwise_hinge_loss(ad.param(p), t, margin=0.1).data
    b = pl.pairwise_hinge_loss(ad.param(p + 123.456), t, margin=0.1).data
    assert a == pytest.approx(b, abs=1e-12)


def test_hinge_too_few_samples():
    with pytest.raises(TooFewSamples):
        pl.pairwise_hinge_loss(ad.param(np.array([[1.0]])), [1.0], margin=0.1)


def test_hinge_all_tied_targets_is_zero():
    loss = pl.pairwise_hinge_loss(ad.param(np.array([[1.0], [9.0]])), [2.0, 2.0], margin=0.1)
    assert loss.data == 0.0


def test_hinge_gradient_through_predictor(nb201):
    st = pred.init_predictor(pred.PredictorConfig(), [nb201], ["d0"], seed=7)
    archs = [asp.random_architecture(nb201, s) for s in range(5)]
    ops_rows = np.array([a.ops for a in archs], dtype=np.intp)
    targets = [3.0, 1.0, 4.0, 1.5, 2.5]

    def model_eval():
        preds = pred._forward(st, ops_rows, 0, None)
        return pl.pairwise_hinge_loss(preds, targets, margin=0.5)

    report = finite_diff_check(model_eval, st.params, n_samples=50, seed=1)
    assert report.max_rel_err < 1e-4, report.worst_param


# --- pretrain --------------------------------------------------------------------

def _fresh_state(nb201, sources, seed=0):
    return pred.init_predictor(pred.PredictorConfig(), [nb201], list(sources), seed=seed)


def test_pretrain_loss_decreases_and_ranks_train_device(nb201, small_world):
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources)
    cfg = pl.TrainConfig(epochs=10, batch_size=16, source_samples=80)
    _, log = pl.pretrain(st, table, sources, archs, cfg, seed=1)
    assert len(log) == 10
    assert log[-1] < log[0]
    # scores must rank the oracle latencies on a device it trained on
    train_eval = pl.evaluate(st, sources[0], table, archs)
    assert train_eval.spearman > 0.9


def test_pretrain_zero_epochs_keeps_params(nb201, small_world):
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources)
    before = {k: t.data.copy() for k, t in st.params.items()}
    pl.pretrain(st, table, sources, archs, pl.TrainConfig(epochs=0), seed=1)
    for k in before:
        assert np.array_equal(st.params[k].data, before[k])


def test_pretrain_deterministic(nb201, small_world):
    table, archs, sources, _ = small_world
    cfg = pl.TrainConfig(epochs=3, source_samples=50)
    a = _fresh_state(nb201, sources, seed=2)
    b = _fresh_state(nb201, sources, seed=2)
    pl.pretrain(a, table, sources, archs, cfg, seed=4)
    pl.pretrain(b, table, sources, archs, cfg, seed=4)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)


def test_pretrain_insufficient_data(nb201, small_world):
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources)
    tiny = table.subset(arch_ids=list(archs)[:4])
    with pytest.raises(InsufficientData):
        pl.pretrain(st, tiny, sources, archs, pl.TrainConfig(epochs=1, batch_size=16), seed=0)


def test_pretrain_trains_on_the_measured_archs_it_is_given(nb201, small_world):
    """Measured ids missing from `archs` are left out: the run equals one on a table
    restricted to the archs given, and too few left names the device."""
    table, archs, sources, _ = small_world
    given = {a: archs[a] for a in sorted(archs)[::2]}  # 40 of the 80 measured
    cfg = pl.TrainConfig(epochs=2, source_samples=30)
    a = _fresh_state(nb201, sources, seed=2)
    b = _fresh_state(nb201, sources, seed=2)
    _, log_a = pl.pretrain(a, table, sources, given, cfg, seed=4)
    _, log_b = pl.pretrain(b, table.subset(arch_ids=given), sources, given, cfg, seed=4)
    assert log_a == log_b
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)
    few = {a: archs[a] for a in sorted(archs)[:10]}
    with pytest.raises(InsufficientData, match=r"^source device 's0' has 10 measured archs"):
        pl.pretrain(_fresh_state(nb201, sources), table, sources, few, cfg, seed=4)


def test_training_trajectory_scale_invariant(nb201, small_world):
    """Rescaling one device's latencies must not change a single bit."""
    table, archs, sources, _ = small_world
    scaled = LatencyTable({dev: dict(zip(ids, ms * (737.0 if dev == "s1" else 1.0)))
                           for dev in table.devices() for ids, ms in [table.measured(dev)]})
    cfg = pl.TrainConfig(epochs=3, source_samples=60)
    a = _fresh_state(nb201, sources, seed=5)
    b = _fresh_state(nb201, sources, seed=5)
    _, log_a = pl.pretrain(a, table, sources, archs, cfg, seed=9)
    _, log_b = pl.pretrain(b, scaled, sources, archs, cfg, seed=9)
    assert log_a == log_b
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)


# --- transfer ---------------------------------------------------------------------

def test_transfer_improves_on_clone(nb201):
    """On `small_world` as numpy's Generator drew it (see generator_worlds)."""
    table, archs = generator_worlds.dataset(nb201, _clone_family(nb201), 80, seed=8)
    archs, sources, target = {a.arch_id: a for a in archs}, ["s0", "s1", "s2"], "t0"
    st = _fresh_state(nb201, sources, seed=3)
    cfg = pl.TrainConfig(epochs=8, source_samples=60, transfer_epochs=20)
    pl.pretrain(st, table, sources, archs, cfg, seed=2)
    sampled = sorted(archs)[:20]

    # warm-started but not fine-tuned baseline
    before_state, _ = pl.transfer(
        st, target, table, sampled, sources, archs, replace(cfg, transfer_epochs=0), seed=2
    )
    before = pl.evaluate(before_state, target, table, archs, exclude=sampled).spearman

    adapted, source = pl.transfer(st, target, table, sampled, sources, archs, cfg, seed=2)
    after = pl.evaluate(adapted, target, table, archs, exclude=sampled).spearman
    assert source in sources
    assert after >= before - 0.02
    assert after > 0.6


def test_transfer_zero_epochs_only_touches_hw_row(nb201, small_world):
    table, archs, sources, target = small_world
    st = _fresh_state(nb201, sources, seed=3)
    cfg = pl.TrainConfig(epochs=1, source_samples=40, transfer_epochs=0)
    pl.pretrain(st, table, sources, archs, cfg, seed=2)
    sampled = sorted(archs)[:6]
    adapted, source = pl.transfer(st, target, table, sampled, sources, archs, cfg, seed=2)
    for k, old in st.params.items():
        if k == "hw_embed":
            new = adapted.params[k].data
            assert new.shape[0] == old.data.shape[0] + 1
            assert np.array_equal(new[: old.data.shape[0]], old.data)
            assert np.array_equal(new[-1], old.data[st.device_row(source)])
        else:
            assert np.array_equal(adapted.params[k].data, old.data)


def test_transfer_leaves_base_unchanged(nb201, small_world):
    table, archs, sources, target = small_world
    st = _fresh_state(nb201, sources, seed=3)
    before = {k: t.data.copy() for k, t in st.params.items()}
    devices = dict(st.device_index)
    cfg = pl.TrainConfig(transfer_epochs=2)
    adapted, _ = pl.transfer(st, target, table, sorted(archs)[:8], sources, archs, cfg, seed=2)
    assert st.device_index == devices and target not in st.device_index
    for k, old in before.items():
        assert np.array_equal(st.params[k].data, old)
    assert target in adapted.device_index
    assert not np.array_equal(adapted.params["head0.w"].data, before["head0.w"])


def test_transfer_requires_two_samples(nb201, small_world):
    table, archs, sources, target = small_world
    st = _fresh_state(nb201, sources, seed=3)
    with pytest.raises(InsufficientData):
        pl.transfer(st, target, table, sorted(archs)[:1], sources, archs, pl.TrainConfig(), seed=0)


def test_concurrent_transfers_on_threads_match_serial(nb201, small_world):
    """Each thread records onto its own tape: three transfers at once give the serial bytes."""
    table, archs, sources, target = small_world
    st = _fresh_state(nb201, sources, seed=3)
    cfg = pl.TrainConfig(transfer_epochs=10)
    ids = sorted(archs)
    jobs = [(ids[:12], 2), (ids[40:52], 5), (ids[20:32], 7)]

    def adapt(job, start=None):
        if start is not None:
            start.wait()
        picked, seed = job
        state, _ = pl.transfer(st, target, table, picked, sources, archs, cfg, seed=seed)
        return b"".join(state.params[k].data.tobytes() for k in sorted(state.params))

    serial = [adapt(job) for job in jobs]
    start = threading.Barrier(len(jobs), timeout=60)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            threaded = list(pool.map(lambda job: adapt(job, start), jobs, timeout=300))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == serial


# --- minibatch plan --------------------------------------------------------------------

def _record_steps(monkeypatch):
    """Record (device row, op rows, targets) of every training step."""
    steps = []
    train_batch = pl._train_batch

    def spy(state, adam, device_row, ops_rows, targets, *rest):
        steps.append((device_row, ops_rows.copy(), np.array(targets)))
        return train_batch(state, adam, device_row, ops_rows, targets, *rest)

    monkeypatch.setattr(pl, "_train_batch", spy)
    return steps


def _planned_steps(state, table, archs, ids_by_device, rng, epochs, batch_size):
    steps = []
    latency = {device: dict(zip(*table.measured(device))) for device in ids_by_device}
    for _ in range(epochs):
        for device, chunk in epoch_batches(rng, list(ids_by_device), ids_by_device, batch_size):
            steps.append((state.device_row(device), np.array([archs[a].ops for a in chunk]),
                          np.array([latency[device][a] for a in chunk])))
    return steps


def _assert_same_steps(got, want):
    assert len(got) == len(want)
    for (row, ops, targets), (want_row, want_ops, want_targets) in zip(got, want):
        assert row == want_row
        assert ops.dtype == np.intp and np.array_equal(ops, want_ops)
        assert targets.dtype == np.float64 and np.array_equal(targets, want_targets)


@pytest.mark.parametrize("n_archs, budget, n_steps", [
    (33, 900, 2 * 3 * 2),  # 16 + 16 + a 1-arch remainder, dropped
    (80, 20, 2 * 3 * 2),   # the budget keeps 20 of 80 archs: 16 + 4
])
def test_pretrain_steps_follow_the_reference_plan(nb201, small_world, monkeypatch,
                                                  n_archs, budget, n_steps):
    table, archs, sources, _ = small_world
    given = {a: archs[a] for a in sorted(archs)[:n_archs]}
    cfg = pl.TrainConfig(epochs=2, batch_size=16, source_samples=budget)
    ids_by_device = {}
    budget_rng = rng_for("pretrain-budget", 6)
    for device in sources:
        ids = sorted(a for a in table.measured(device)[0] if a in given)
        if len(ids) > budget:
            ids = [ids[i] for i in sorted(budget_rng.permutation(len(ids))[:budget])]
        ids_by_device[device] = ids
    st = _fresh_state(nb201, sources, seed=1)
    want = _planned_steps(st, table, given, ids_by_device, rng_for("pretrain", 6), 2, 16)
    steps = _record_steps(monkeypatch)
    pl.pretrain(st, table, sources, given, cfg, seed=6)
    assert len(steps) == n_steps
    _assert_same_steps(steps, want)


def test_transfer_with_fewer_samples_than_a_batch_follows_the_reference_plan(
        nb201, small_world, monkeypatch):
    table, archs, sources, target = small_world
    picked = sorted(archs)[5:15]
    cfg = pl.TrainConfig(batch_size=16, transfer_epochs=3)
    st = _fresh_state(nb201, sources, seed=1)
    steps = _record_steps(monkeypatch)
    adapted, _ = pl.transfer(st, target, table, picked, sources, archs, cfg, seed=8)
    want = _planned_steps(adapted, table, archs, {target: picked}, rng_for("transfer", 8, target), 3, 10)
    assert len(steps) == 3  # one batch of all 10 samples per epoch
    _assert_same_steps(steps, want)


# --- map_targets ----------------------------------------------------------------------

def test_map_targets_worker_count_rule(monkeypatch):
    """One worker per usable CPU, at most one per target; none for one target or CPU
    or without a BLAS thread setter."""
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert [pl._transfer_workers(n) for n in (1, 2, 3, 8)] == [0, 2, 3, 4]
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0})
    assert pl._transfer_workers(8) == 0
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pl, "blas_thread_setter", lambda: None)
    assert pl._transfer_workers(8) == 0


def test_map_targets_in_two_workers_returns_results_in_target_order(monkeypatch):
    monkeypatch.setattr(pl, "_transfer_workers", lambda n: 2)
    targets = [f"t{i}" for i in range(7)]
    # A lambda cannot be pickled: the job reaches the forked workers as it is.
    results = pl.map_targets(lambda t: (t, os.getpid()), targets)
    assert [t for t, _ in results] == targets
    assert all(pid != os.getpid() for _, pid in results), results


def test_map_targets_in_two_workers_reraises_the_serial_error(monkeypatch):
    def job(target):
        if target in ("t2", "t4"):
            raise InsufficientData(f"no rows for {target}")
        return target

    errors = []
    for workers in (0, 2):
        monkeypatch.setattr(pl, "_transfer_workers", lambda n, w=workers: w)
        with pytest.raises(InsufficientData) as exc:
            pl.map_targets(job, [f"t{i}" for i in range(6)])
        errors.append(str(exc.value))
    assert errors == ["no rows for t2"] * 2


def test_map_targets_worker_that_dies_raises_broken_process_pool(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(pl, "_transfer_workers", lambda n: 2)
    with pytest.raises(BrokenProcessPool):
        pl.map_targets(lambda t: os._exit(1), ["a", "b"])


# --- non-finite guard --------------------------------------------------------------

def test_non_finite_loss_stops_pretrain_and_transfer(nb201, small_world):
    table, archs, sources, target = small_world
    st = _fresh_state(nb201, sources, seed=3)
    st.params["head0.w"].data[0, 0] = np.nan
    cfg = pl.TrainConfig(epochs=2, source_samples=40, transfer_epochs=2)
    with pytest.raises(NonFiniteValue, match=r"^pretrain: loss is nan at epoch 0, step 0, device 's[012]'$"):
        pl.pretrain(st, table, sources, archs, cfg, seed=2)
    with pytest.raises(NonFiniteValue, match=r"^transfer: loss is nan at epoch 0, step 0, device 't0'$"):
        pl.transfer(st, target, table, sorted(archs)[:8], sources, archs, cfg, seed=2)


def test_non_finite_parameter_outside_every_loss_is_caught_after_training(nb201, small_world):
    """A NaN no loss reads (an idle device's hardware row) is caught once, after the last step."""
    table, archs, sources, _ = small_world
    st = pred.init_predictor(pred.PredictorConfig(), [nb201], list(sources) + ["idle"], seed=0)
    st.params["hw_embed"].data[st.device_row("idle"), 3] = np.inf
    cfg = pl.TrainConfig(epochs=1, source_samples=40)
    with pytest.raises(NonFiniteValue, match=r"^pretrain: parameter 'hw_embed' is non-finite after training$"):
        pl.pretrain(st, table, sources, archs, cfg, seed=1)


# --- evaluate --------------------------------------------------------------------

def test_evaluate_oracle_and_negated(nb201, small_world):
    """Ground truth built from the model's own scores gives rho = +/-1."""
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources, seed=6)
    ids = sorted(archs)[:50]
    scores = dict(zip(ids, pred.predict_batch(st, [archs[a] for a in ids], "s0").tolist()))
    offset = 1.0 - min(scores.values())
    perfect = LatencyTable({"s0": {a: s + offset for a, s in scores.items()}})
    inverted = LatencyTable({"s0": {a: (max(scores.values()) - s) + 1.0 for a, s in scores.items()}})
    assert pl.evaluate(st, "s0", perfect, archs).spearman == pytest.approx(1.0, abs=1e-9)
    assert pl.evaluate(st, "s0", inverted, archs).spearman == pytest.approx(-1.0, abs=1e-9)


def test_evaluate_heldout_rule(nb201, small_world):
    """Held out = archs given and measured on the target, minus exclude."""
    table, archs, sources, target = small_world
    st = _fresh_state(nb201, sources, seed=6)
    ids = sorted(archs)
    known = {a: archs[a] for a in ids[:50]}
    entry = pl.evaluate(st, "s0", table, known, exclude=ids[:10] + ids[60:70])
    assert entry.n_heldout == 40
    assert entry.arch_ids == ids[10:50]
    latency = dict(zip(*table.measured("s0")))
    assert list(entry.truths) == [latency[a] for a in ids[10:50]]
    with pytest.raises(InsufficientData):
        pl.evaluate(st, "s0", table, known, exclude=ids)


def test_untrained_predictor_near_zero_rho(nb201, small_world):
    table, archs, sources, _ = small_world
    rng = np.random.default_rng(0)
    rhos = []
    for seed in range(12):
        st = _fresh_state(nb201, sources, seed=100 + seed)
        random_truth = LatencyTable({"s0": {a: float(rng.uniform(1, 10)) for a in sorted(archs)}})
        rhos.append(pl.evaluate(st, "s0", random_truth, archs).spearman)
    assert np.mean(np.abs(rhos)) < 0.3


def test_encodings_given_to_a_predictor_without_supplementary_input_are_rejected(nb201, small_world):
    """predict_batch, evaluate, transfer and search raise instead of ignoring the table, and
    a table narrower than the predictor's input fails the same width check, naming both."""
    table, archs, sources, target = small_world
    proxies = asp.proxy_table(archs.values(), nb201)
    narrow = asp.EncodingTable(12, {a: v[:12].copy() for a, v in proxies.rows.items()})
    ids = sorted(archs)
    for supplementary_dim, encodings in ((0, proxies), (13, narrow)):
        st = pred.init_predictor(pred.PredictorConfig(supplementary_dim=supplementary_dim), [nb201],
                                 sources, seed=6)
        calls = (
            lambda: pred.predict_batch(st, [archs[a] for a in ids[:5]], "s0", encodings),
            lambda: pl.evaluate(st, "s0", table, archs, encodings=encodings),
            lambda: pl.transfer(st, target, table, ids[:8], sources, archs,
                                pl.TrainConfig(transfer_epochs=1), encodings=encodings, seed=0),
            lambda: pl.latency_constrained_search(
                [archs[a] for a in ids[:10]], dict.fromkeys(ids, 1.0), st, "s0", np.inf, top_k=3,
                encodings=encodings,
            ),
        )
        for call in calls:
            with pytest.raises(BadSupplementaryDim,
                               match=f"width {encodings.dim} .* supplementary_dim {supplementary_dim}$"):
                call()


def test_eval_report_aggregates_recompute_exactly():
    entries = [
        pl.EvalEntry("d0", 0, 0.91, 100, 20),
        pl.EvalEntry("d1", 0, 0.85, 100, 20),
        pl.EvalEntry("d0", 1, 0.88, 100, 20),
    ]
    report = pl.EvalReport.from_entries(entries)
    rhos = np.array([e.spearman for e in entries])
    assert report.mean_spearman == rhos.mean()
    assert report.std_spearman == rhos.std()
    assert "device_id,trial,spearman" in report.csv_text()
    assert report.summary()["target_samples_used"] == [20]


# --- constrained search ------------------------------------------------------------

def test_search_infinite_constraint_is_accuracy_ranking(nb201, small_world):
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources, seed=6)
    pool = [archs[a] for a in sorted(archs)[:30]]
    acc = {a.arch_id: float(i) for i, a in enumerate(pool)}
    result = pl.latency_constrained_search(pool, acc, st, "s0", np.inf, top_k=5)
    want = [a.arch_id for a in sorted(pool, key=lambda x: -acc[x.arch_id])[:5]]
    assert result.ranked == want
    assert result.predictor_time_s > 0
    assert result.total_time_s >= result.predictor_time_s


def test_search_empty_feasible_set(nb201, small_world):
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources, seed=6)
    pool = [archs[a] for a in sorted(archs)[:10]]
    with pytest.raises(EmptyFeasibleSet):
        pl.latency_constrained_search(pool, dict.fromkeys(archs, 1.0), st, "s0", -np.inf, top_k=3)


def test_search_calibration_without_rows_for_the_device_raises(nb201, small_world):
    """A calibration with no measured pair on the device is refused, not skipped: the
    constraint would then be compared against raw scores."""
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources, seed=6)
    pool = [archs[a] for a in sorted(archs)[:10]]
    with pytest.raises(InsufficientData, match="'s0'"):
        pl.latency_constrained_search(pool, dict.fromkeys(archs, 1.0), st, "s0", np.inf, top_k=3,
                                      calibration={})


def test_search_calibration_scores_come_from_the_candidates_forward(nb201, small_world, monkeypatch):
    """One forward scores candidates and calibration archs alike; a calibration id
    that is not a candidate is refused by name before any forward."""
    table, archs, sources, _ = small_world
    st = _fresh_state(nb201, sources, seed=6)
    pool = [archs[a] for a in sorted(archs)[:40]]
    cal_ids, cal_ms = table.measured("s0", [a.arch_id for a in pool[::4]])
    calibration = dict(zip(cal_ids, cal_ms.tolist()))
    calls = []
    real = pl.predict_batch
    monkeypatch.setattr(pl, "predict_batch", lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    result = pl.latency_constrained_search(pool, dict.fromkeys(archs, 1.0), st, "s0", np.inf,
                                           top_k=40, calibration=calibration)
    assert calls == [pool]
    raw = real(st, pool, "s0")
    want = pl.calibrate_scores(raw, raw[::4], cal_ms)
    assert [result.predicted_latency[a.arch_id] for a in pool] == want.tolist()
    outsider = next(a for a in sorted(archs) if archs[a] not in pool)
    calls.clear()
    with pytest.raises(ValueError, match=repr(outsider)):
        pl.latency_constrained_search(pool, dict.fromkeys(archs, 1.0), st, "s0", np.inf, top_k=3,
                                      calibration={**calibration, outsider: 5.0})
    assert calls == []


def test_calibration_maps_scores_to_ms():
    cal_scores = np.array([0.0, 1.0, 2.0, 3.0])
    cal_ms = 10.0 + 5.0 * cal_scores
    out = pl.calibrate_scores(np.array([0.5, 2.0, -4.0, 99.0]), cal_scores, cal_ms)
    assert out[0] == pytest.approx(12.5)   # interpolated
    assert out[1] == pytest.approx(20.0)   # exact knot
    assert out[2] == pytest.approx(10.0)   # clamped below
    assert out[3] == pytest.approx(25.0)   # clamped above
    # the map preserves the spread of the measured distribution: the largest
    # in-range score maps to the largest measured latency, not to a shrunken
    # regression estimate
    assert pl.calibrate_scores(np.array([3.0]), cal_scores, cal_ms)[0] == 25.0

