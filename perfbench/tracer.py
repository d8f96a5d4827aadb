"""Span tracer that wraps nasflat's functions from the outside.

The nasflat modules import names directly (``from .pipeline import pretrain``),
so one function can be bound in several modules: ``cli.pretrain`` and
``pipeline.pretrain`` are separate attributes. ``Tracer.install`` therefore
wraps every module attribute that binds a nasflat function, in each of the
nine modules, and names each span after the function's home module, so all
bindings report under one name. Two private functions are wrapped too, because
the layer profile needs their boundaries: ``pipeline._train_batch`` (one
training step, span ``pipeline.step``) and ``predictor._refined_op_features``
(the op+hw refinement, span ``predictor.ophw_refine``).

Spans are kept in memory as ``[name, start_ns, end_ns, parent, run, note]``
and summarised or written out when the benchmark ends. A span's self time is
its duration minus the durations of its direct children; calls on one thread
nest strictly, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import types
from collections import defaultdict

MODULES = (
    "archspace", "autodiff", "predictor", "sampler", "devicesets",
    "pipeline", "synthbench", "rng", "cli",
)

PRIVATE_SPANS = {
    ("pipeline", "_train_batch"): "pipeline.step",
    ("predictor", "_refined_op_features"): "predictor.ophw_refine",
}

# (class path, method name) pairs wrapped on the class itself.
METHOD_SPANS = (
    ("devicesets", "LatencyTable", "load_csv"),
    ("devicesets", "LatencyTable", "subset"),
)

# What summarise() reports, by kind of figure.
STEP_COSTS = ("autodiff.backward", "autodiff.adam_step", "pipeline.pairwise_hinge_loss")
FORWARD_LAYERS = ("predictor.ophw_refine", "predictor.dgf_layer", "predictor.gat_layer")
# Direct children of a training step whose inclusive times make it up,
# with pipeline.step_other_ms as the remainder.
STEP_PARTS = STEP_COSTS + FORWARD_LAYERS
SPAN_TOTALS = (
    "predictor.load_checkpoint", "predictor.save_checkpoint",
    "predictor.init_target_hw_embedding", "pipeline.pretrain", "pipeline.transfer",
    "pipeline.evaluate", "pipeline.latency_constrained_search", "sampler.run_sampler",
    "devicesets.load_csv", "devicesets.subset", "devicesets.spearman",
    "devicesets.kl_bisect", "archspace.read_architectures",
    "archspace.load_encoding_table", "synthbench.gen_dataset", "rng.rng_for",
)
PREDICT_BATCHES = (1, 16, 64, 500)
CLI_STAGES = ("synth", "partition", "pretrain", "transfer", "eval", "search")


def _note_backward(args, kwargs, out):
    return len(args[0])  # tape records when backward is called


def _note_hinge(args, kwargs, out):
    # Keep references only; the pair count is worked out after the run so
    # it adds nothing to the traced step.
    margin = args[2] if len(args) > 2 else kwargs.get("margin", 0.1)
    return (args[0].data, args[1], margin)


def _note_save(args, kwargs, out):
    return os.path.getsize(args[1])


def _note_predict_batch(args, kwargs, out):
    return len(args[1])


def _note_search(args, kwargs, out):
    return (out.predictor_time_s, out.total_time_s)


def _note_main(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


NOTES = {
    "autodiff.backward": _note_backward,
    "pipeline.pairwise_hinge_loss": _note_hinge,
    "predictor.save_checkpoint": _note_save,
    "predictor.predict_batch": _note_predict_batch,
    "pipeline.latency_constrained_search": _note_search,
    "cli.main": _note_main,
}


class Tracer:
    """Records one span per call of every wrapped nasflat function."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[sid] = [name, t0, t1, parent, self.run, None]
            if note is not None:
                spans[sid][5] = note(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            return
        # Import every module before wrapping any: a module imported later
        # would bind the wrappers through its ``from ... import`` lines.
        modules = [importlib.import_module(f"nasflat.{short}") for short in MODULES]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("nasflat."):
                    continue
                home_short = home.split(".", 1)[1]
                if attr.startswith("_"):
                    name = PRIVATE_SPANS.get((home_short, obj.__name__))
                    if name is None:
                        continue
                else:
                    name = f"{home_short}.{obj.__name__}"
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, name)
                self._set(mod, attr, wrapped[id(obj)])
        for short, cls_name, attr in METHOD_SPANS:
            cls = getattr(importlib.import_module(f"nasflat.{short}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{short}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, name, start/end (ns), parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, run, _) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                     "parent": parent, "run": run},
                    separators=(",", ":"),
                ) + "\n")


def _active_pairs(preds, targets, margin) -> tuple[int, int]:
    import numpy as np

    t = np.asarray(targets, dtype=np.float64)
    ii, jj = np.nonzero(t[:, None] > t[None, :])
    diffs = preds[ii, 0] - preds[jj, 0]
    return int(np.count_nonzero(margin - diffs > 0)), len(ii)


def summarise(spans: list[list], pass_runs: list[str]) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one mean traced pass.

    Each figure sums the ``setup`` run and the mean over ``pass_runs`` of the
    same quantity, so counts and times read as "per set-up and pass".
    """
    n_pass = max(len(pass_runs), 1)
    weight = {run: 1.0 / n_pass for run in pass_runs}
    weight["setup"] = 1.0

    child_ms = [0.0] * len(spans)
    for name, t0, t1, parent, run, _ in spans:
        if parent >= 0:
            child_ms[parent] += (t1 - t0) / 1e6

    total = defaultdict(float)     # inclusive ms by span name
    calls = defaultdict(float)
    self_by_module = defaultdict(float)
    cli_self = defaultdict(float)
    step = defaultdict(float)      # per-step sums, keyed by part name
    step_n = 0.0
    tape_records, backward_n = 0.0, 0.0
    ckpt_bytes, ckpt_n = 0.0, 0.0
    pairs_active, pairs_all = 0.0, 0.0
    search_pred, search_total = 0.0, 0.0
    predict_ms: dict[int, list[float]] = defaultdict(list)

    def stage_of(sid: int):
        while sid >= 0:
            span = spans[sid]
            if span[0] == "cli.main":
                return span[5]
            sid = span[3]
        return None

    for sid, (name, t0, t1, parent, run, note) in enumerate(spans):
        w = weight.get(run)
        if w is None:
            continue
        ms = (t1 - t0) / 1e6
        own = ms - child_ms[sid]
        parent_name = spans[parent][0] if parent >= 0 else None
        module = name.split(".", 1)[0]
        key = name
        if name == "predictor.dgf_layer" and parent_name == "predictor.ophw_refine":
            key = "predictor.dgf_layer.ophw"
        total[key] += w * ms
        calls[key] += w
        self_by_module[module] += w * own
        if module == "cli":
            stage = stage_of(sid)
            if stage is not None:
                cli_self[stage] += w * own
        if name == "pipeline.step":
            step["pipeline.step"] += w * ms
            step_n += w
        elif parent_name == "pipeline.step" and name in STEP_PARTS:
            step[name] += w * ms
        if name == "autodiff.backward":
            tape_records += w * note
            backward_n += w
        elif name == "predictor.save_checkpoint":
            ckpt_bytes += w * note
            ckpt_n += w
        elif name == "pipeline.pairwise_hinge_loss":
            active, allp = _active_pairs(*note)
            pairs_active += w * active
            pairs_all += w * allp
        elif name == "pipeline.latency_constrained_search":
            search_pred += w * note[0]
            search_total += w * note[1]
        elif name == "predictor.predict_batch":
            predict_ms[note].append(ms)

    def per_step(part: str) -> float:
        return step[part] / step_n if step_n else 0.0

    out: dict[str, float] = {}
    out["trace.spans"] = float(sum(calls.values()))
    for name in STEP_COSTS:
        out[f"{name}.ms_per_step"] = per_step(name)
        out[f"{name}.calls"] = calls[name]
    out["autodiff.tape_records_per_step"] = tape_records / backward_n if backward_n else 0.0
    for name in FORWARD_LAYERS:
        out[f"{name}.fwd_ms"] = total[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.fwd_ms_per_step"] = per_step(name)
    out["pipeline.step_ms"] = per_step("pipeline.step")
    out["pipeline.step.calls"] = step_n
    out["pipeline.step_other_ms"] = (
        per_step("pipeline.step") - sum(per_step(p) for p in STEP_PARTS) if step_n else 0.0
    )
    out["pipeline.hinge.active_pair_ratio"] = pairs_active / pairs_all if pairs_all else 0.0
    out["pipeline.search.predictor_time_share"] = (
        search_pred / search_total if search_total else 0.0
    )
    out["predictor.checkpoint_bytes"] = ckpt_bytes / ckpt_n if ckpt_n else 0.0
    for b in PREDICT_BATCHES:
        samples = predict_ms.get(b)
        out[f"predictor.predict_batch.ms.b{b}"] = statistics.median(samples) if samples else 0.0
    out["predictor.predict_batch.calls"] = calls["predictor.predict_batch"]
    for name in SPAN_TOTALS:
        out[f"{name}.ms"] = total[name]
        out[f"{name}.calls"] = calls[name]
    for module in MODULES:
        out[f"{module}.self_ms"] = self_by_module[module]
    for stage in CLI_STAGES:
        out[f"cli.{stage}.self_ms"] = cli_self[stage]
    return out
