"""Training, few-shot transfer, evaluation, and latency-constrained search.

Pretraining runs seeded single-device minibatches with a pairwise hinge
ranking loss: cross-device latency comparisons are meaningless, so every
batch is drawn from one device. Transfer registers the target device,
warm-starts its hardware embedding from the best-correlated source, resets
the optimizer at the transfer learning rate, and fine-tunes all parameters on
the few measured target samples. Evaluation reports Spearman rank correlation
of predicted versus measured latency.

Because the loss consumes only latency comparisons, rescaling any device's
latencies by a positive constant leaves training trajectories bit-identical.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .archspace import Architecture, EncodingTable, SearchSpace
from .autodiff import AdamState, Tensor, blas_thread_setter
from .devicesets import LatencyTable, spearman
from .errors import (
    BudgetTooSmall,
    ConstantInput,
    EmptyFeasibleSet,
    InsufficientData,
    LengthMismatch,
    NonFiniteValue,
    TooFewSamples,
)
from .predictor import (
    PredictorState,
    _forward,
    _supplementary_rows,
    init_target_hw_embedding,
    predict_batch,
    register_device,
    require_number_fields,
)
from .rng import rng_for


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 1e-5
    epochs: int = 150
    batch_size: int = 16
    transfer_epochs: int = 40
    transfer_lr: float = 0.003
    hinge_margin: float = 0.1
    source_samples: int = 900  # per-device pretraining budget

    def __post_init__(self):
        require_number_fields(self)
        positive = (self.lr, self.transfer_lr, self.hinge_margin, self.source_samples)
        if any(v <= 0 for v in positive):
            raise ValueError("lr, transfer_lr, hinge_margin, source_samples must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: a one-arch batch has no pair to rank")
        if self.epochs < 0 or self.transfer_epochs < 0 or self.weight_decay < 0:
            raise ValueError("epochs, transfer_epochs, weight_decay must be >= 0")

    @classmethod
    def for_space(cls, space: SearchSpace, **overrides) -> "TrainConfig":
        """Transfer schedule defaults: micro cells 40 epochs at lr 3e-3,
        macro chains 30 epochs at lr 1e-3."""
        if space.kind == "micro_cell":
            base = dict(transfer_epochs=40, transfer_lr=0.003)
        else:
            base = dict(transfer_epochs=30, transfer_lr=0.001)
        base.update(overrides)
        return cls(**base)


def pairwise_hinge_loss(preds: Tensor, targets: Sequence[float], margin: float = 0.1) -> Tensor:
    """Mean hinge over ordered pairs where the true latency says preds_i > preds_j.

    For every (i, j) with targets_i > targets_j the pair contributes
    max(0, margin - (preds_i - preds_j)). Tied targets contribute nothing.
    Translation-invariant in preds; differentiable through preds.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim != 1 or len(t) < 2:
        raise TooFewSamples(f"need >= 2 samples, got shape {t.shape}")
    k = preds.data.shape[0]
    if k != len(t):
        raise LengthMismatch(f"{k} predictions vs {len(t)} targets")
    ii, jj = np.nonzero(t[:, None] > t[None, :])
    if len(ii) == 0:
        return Tensor(0.0)
    pairs = np.zeros((len(ii), k))
    pairs[np.arange(len(ii)), ii] = 1.0
    pairs[np.arange(len(ii)), jj] = -1.0
    diffs = ad.matmul(pairs, preds)  # (n_pairs, 1) of preds_i - preds_j
    return ad.mean_all(ad.relu(ad.sub(margin, diffs)))


def _train_batch(
    state: PredictorState, adam: AdamState, device_row: int, ops_rows: np.ndarray,
    targets: np.ndarray, supp: np.ndarray | None, lr: float, weight_decay: float, margin: float,
) -> float:
    """One Adam step on one minibatch; returns its loss. Overflow and invalid
    values raise no numpy warning: `_fit` reports a non-finite loss or parameter."""
    with np.errstate(all="ignore"):
        with ad.recording() as tape:
            preds = _forward(state, ops_rows, device_row, supp)
            loss = pairwise_hinge_loss(preds, targets, margin)
        grads = ad.named_grads(state.params, ad.backward(tape, loss))
        ad.adam_step(state.params, grads, adam, lr, weight_decay)
    return float(loss.data)


def _epoch_batches(
    rng: np.random.Generator, sizes: Sequence[int], batch_size: int
) -> list[tuple[int, np.ndarray]]:
    """Seeded shuffle of (device position, row indices) minibatches over devices
    of `sizes` rows; sub-pair remainders dropped."""
    batches = []
    for device, n in enumerate(sizes):
        perm = rng.permutation(n)
        chunks = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
        batches += [(device, chunk) for chunk in chunks if len(chunk) >= 2]
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def _fit(
    state: PredictorState, rows_by_device: Mapping[str, tuple[Sequence[str], np.ndarray]],
    archs: Mapping[str, Architecture], encodings: EncodingTable | None, epochs: int,
    batch_size: int, lr: float, config: TrainConfig, rng: np.random.Generator, stage: str,
) -> list[float]:
    """Train `state` in place on each device's (arch ids, latencies) rows, with
    minibatches drawn from `rng`; returns the per-epoch mean loss."""
    devices, sizes = list(rows_by_device), [len(ids) for ids, _ in rows_by_device.values()]
    data = [  # gathered once: hardware row, op indices, latencies, supplementary rows
        (state.device_row(d), np.array([archs[a].ops for a in ids], dtype=np.intp), ms,
         _supplementary_rows(state, encodings, ids))
        for d, (ids, ms) in rows_by_device.items()
    ]
    adam = AdamState.for_params(state.params)
    log = []
    for epoch in range(epochs):
        losses = []
        for step, (d, rows) in enumerate(_epoch_batches(rng, sizes, batch_size)):
            row, ops, latencies, supp = data[d]
            loss = _train_batch(state, adam, row, ops[rows], latencies[rows],
                                None if supp is None else supp[rows], lr, config.weight_decay,
                                config.hinge_margin)
            if not math.isfinite(loss):
                raise NonFiniteValue(f"{stage}: loss is {loss} at epoch {epoch}, step {step}, "
                                     f"device {devices[d]!r}")
            losses.append(loss)
        log.append(float(np.mean(losses)) if losses else 0.0)
    for name, t in state.params.items():  # a non-finite last update has no later loss to show it
        if not np.isfinite(t.data).all():
            raise NonFiniteValue(f"{stage}: parameter {name!r} is non-finite after training")
    return log


def pretrain(
    state: PredictorState,
    source_table: LatencyTable,
    source_devices: Sequence[str],
    archs: Mapping[str, Architecture],
    config: TrainConfig,
    encodings: EncodingTable | None = None,
    *,
    seed: int,
) -> tuple[PredictorState, list[float]]:
    """Rank-loss training over all source devices; returns per-epoch mean loss.

    A device's rows are its archs in `archs` that `source_table` measures.
    `seed` picks the per-device budget subsets and orders the minibatches.
    """
    if not archs:
        raise InsufficientData("no architectures provided")
    state.check_space(archs.values())
    rows_by_device = {}
    budget_rng = rng_for("pretrain-budget", seed)
    for device in source_devices:
        ids, ms = source_table.measured(device, archs)
        if len(ids) < config.batch_size:
            raise InsufficientData(
                f"source device {device!r} has {len(ids)} measured archs "
                f"(need >= batch_size={config.batch_size})"
            )
        if len(ids) > config.source_samples:
            picks = np.sort(budget_rng.permutation(len(ids))[: config.source_samples])
            ids, ms = [ids[i] for i in picks], ms[picks]
        if len(ids) < 2:
            raise BudgetTooSmall(
                f"/train/source_samples: a budget of {config.source_samples} leaves "
                f"source device {device!r} no pair of archs to rank"
            )
        rows_by_device[device] = ids, ms
    return state, _fit(state, rows_by_device, archs, encodings, config.epochs,
                       config.batch_size, config.lr, config, rng_for("pretrain", seed), "pretrain")


def transfer(
    base: PredictorState,
    target_device: str,
    table: LatencyTable,
    picked: Sequence[str],
    source_devices: Sequence[str],
    archs: Mapping[str, Architecture],
    config: TrainConfig,
    encodings: EncodingTable | None = None,
    *,
    seed: int,
) -> tuple[PredictorState, str]:
    """Adapt a copy of a pretrained predictor to one target device from few samples.

    The few-shot data is `table` restricted to the sources plus the target
    and to the `picked` archs: the target rows are fine-tuned on, the source
    rows pick the hardware-embedding warm start. A fresh optimizer fine-tunes
    all parameters at transfer_lr, with minibatches ordered by `seed`. `base`
    is left unchanged. Returns the adapted state and the warm-start source.
    """
    few_shot = table.subset(device_ids=list(source_devices) + [target_device], arch_ids=picked)
    sampled, ms = few_shot.measured(target_device)
    if len(sampled) < 2:
        raise InsufficientData(f"need >= 2 target samples, got {len(sampled)}")
    base.check_space(archs[a] for a in sampled)
    params = {name: ad.param(t.data) for name, t in base.params.items()}  # param copies
    state = PredictorState(base.config, base.space, params, dict(base.device_index))
    register_device(state, target_device)
    warm_start = init_target_hw_embedding(state, few_shot, target_device, source_devices)
    _fit(state, {target_device: (sampled, ms)}, archs, encodings, config.transfer_epochs,
         min(config.batch_size, len(sampled)), config.transfer_lr, config,
         rng_for("transfer", seed, target_device), "transfer")
    return state, warm_start


def _transfer_workers(n_targets: int) -> int:
    """Worker processes for `n_targets` jobs (0: run them here): one per usable
    CPU, if there are 2+ targets and CPUs and the workers can pin their BLAS to
    one thread. Unpinned, each would start a BLAS thread pool and oversubscribe."""
    if n_targets < 2 or blas_thread_setter() is None:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return min(n_targets, cpus) if cpus > 1 else 0


_worker_job = None  # set in each map_targets worker by _start_worker


def _start_worker(job) -> None:
    global _worker_job
    setter = blas_thread_setter()
    if setter is not None:
        setter(1)
    _worker_job = job


def _run_in_worker(target):
    return _worker_job(target)


def map_targets(job: Callable, targets: Sequence) -> list:
    """`[job(t) for t in targets]` for independent jobs, in forked workers when that helps.

    The workers are forks of this process, so they share its loaded inputs
    and `job` reaches them without pickling; only targets and results cross
    processes. Each worker's BLAS runs on one thread; this process's BLAS is
    left as it is. A job's exception is re-raised here, for the first failing
    target in order, as a serial run would; a worker that dies raises
    BrokenProcessPool.
    """
    workers = _transfer_workers(len(targets))
    if not workers:
        return [job(t) for t in targets]
    # Imported here: most callers never start workers. fork, not spawn: a
    # spawned worker re-imports numpy and nasflat and reloads the inputs,
    # which costs about what the parallel targets save.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(job,),
    )
    try:
        return list(pool.map(_run_in_worker, targets))
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class EvalEntry:
    device_id: str
    trial: int
    spearman: float
    n_heldout: int
    n_target_samples: int
    preds: np.ndarray = field(repr=False, default=None)
    truths: np.ndarray = field(repr=False, default=None)
    arch_ids: list[str] = field(repr=False, default=None)  # order of preds/truths


@dataclass
class EvalReport:
    entries: list[EvalEntry]
    mean_spearman: float
    std_spearman: float

    @classmethod
    def from_entries(cls, entries: Sequence[EvalEntry]) -> "EvalReport":
        rhos = np.array([e.spearman for e in entries], dtype=np.float64)
        return cls(list(entries), float(rhos.mean()), float(rhos.std()))

    def csv_text(self) -> str:
        lines = ["device_id,trial,spearman"]
        for e in self.entries:
            lines.append(f"{e.device_id},{e.trial},{repr(e.spearman)}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "mean_spearman": self.mean_spearman,
            "std_spearman": self.std_spearman,
            "n_entries": len(self.entries),
            "target_samples_used": sorted({e.n_target_samples for e in self.entries}),
            "per_device": [
                {
                    "device_id": e.device_id,
                    "trial": e.trial,
                    "spearman": e.spearman,
                    "n_heldout": e.n_heldout,
                    "n_target_samples": e.n_target_samples,
                }
                for e in self.entries
            ],
        }


def evaluate(
    state: PredictorState,
    target_device: str,
    table: LatencyTable,
    archs: Mapping[str, Architecture],
    encodings: EncodingTable | None = None,
    trial: int = 0,
    n_target_samples: int = 0,
    exclude: Sequence[str] = (),
) -> EvalEntry:
    """Spearman of predicted vs measured latency on the held-out archs.

    Held out: the archs in `archs` that `table` measures on the target
    device, minus `exclude` (typically the transfer samples).
    """
    skip = set(exclude)
    ids, truths = table.measured(target_device, (a for a in archs if a not in skip))
    if not ids:
        raise InsufficientData(f"no held-out rows for device {target_device!r}")
    preds = predict_batch(state, [archs[a] for a in ids], target_device, encodings)
    try:
        rho = spearman(preds, truths)
    except (ConstantInput, LengthMismatch) as e:
        raise type(e)(f"device {target_device!r} over {len(ids)} held-out archs: {e}") from None
    return EvalEntry(
        device_id=target_device,
        trial=trial,
        spearman=rho,
        n_heldout=len(ids),
        n_target_samples=n_target_samples,
        preds=preds,
        truths=truths,
        arch_ids=ids,
    )


@dataclass
class SearchResult:
    ranked: list[str]                  # top-k arch_ids, best accuracy first
    predicted_latency: dict[str, float]
    predictor_time_s: float
    total_time_s: float


def calibrate_scores(
    scores: np.ndarray, cal_scores: np.ndarray, cal_ms: np.ndarray
) -> np.ndarray:
    """Map raw predictor scores to milliseconds by quantile matching.

    The ranking loss fixes only the ordering of scores, so an absolute
    latency constraint needs a score-to-ms map fit on the device's few
    measured samples. Quantile (CDF) matching is used instead of least
    squares: a regression fit shrinks predictions toward the mean, which
    systematically under-predicts slow architectures and inflates the
    constraint-violation rate. Scores outside the calibration range clamp to
    the extreme measured values.
    """
    scores = np.asarray(scores, dtype=np.float64)
    cal_scores = np.asarray(cal_scores, dtype=np.float64)
    cal_ms = np.asarray(cal_ms, dtype=np.float64)
    if len(cal_scores) == 1 or np.all(cal_scores == cal_scores[0]):
        return np.full_like(scores, cal_ms.mean())
    return np.interp(scores, np.sort(cal_scores), np.sort(cal_ms))


def latency_constrained_search(
    candidate_archs: Sequence[Architecture],
    accuracy: Mapping[str, float],
    state: PredictorState,
    device_id: str,
    constraint_ms: float,
    top_k: int,
    encodings: EncodingTable | None = None,
    calibration: Mapping[str, float] | None = None,
) -> SearchResult:
    """Keep candidates predicted under the constraint and rank them by `accuracy`,
    which maps the arch_id of each candidate to its accuracy.

    `calibration` maps the arch_id of candidates measured on the device to
    their ms; their scores map raw scores to milliseconds before filtering.
    An empty mapping raises InsufficientData and an id that is not a
    candidate raises ValueError. Without it, the constraint is in raw score
    units. Predictor invocation time is accounted separately from total
    search time.
    """
    t_start = time.perf_counter()
    if not candidate_archs:
        raise EmptyFeasibleSet("no candidate architectures")
    ids = [a.arch_id for a in candidate_archs]
    if calibration is not None:
        if not calibration:
            raise InsufficientData(f"no measured calibration sample on device {device_id!r}")
        row = {a: i for i, a in enumerate(ids)}
        missing = [a for a in calibration if a not in row]
        if missing:
            raise ValueError(f"calibration arch {missing[0]!r} is not a candidate")
        cal_rows = [row[a] for a in calibration]
    t0 = time.perf_counter()
    scores = predict_batch(state, candidate_archs, device_id, encodings)
    predictor_time = time.perf_counter() - t0
    if calibration is not None:
        scores = calibrate_scores(scores, scores[cal_rows], np.array(list(calibration.values())))
    predicted = dict(zip(ids, scores.tolist()))
    feasible = [a for a in ids if predicted[a] <= constraint_ms]
    if not feasible:
        raise EmptyFeasibleSet(
            f"no candidate has predicted latency <= {constraint_ms} ms"
        )
    top = sorted(feasible, key=lambda a: (-accuracy[a], a))[:top_k]
    total_time = time.perf_counter() - t_start
    return SearchResult(
        ranked=top,
        predicted_latency={a: predicted[a] for a in top},
        predictor_time_s=predictor_time,
        total_time_s=total_time,
    )
