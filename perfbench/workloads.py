"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop with one client: the next CLI call or scoring
request starts only when the last one has finished. A workload has a set-up
(input generation and anything the timed phase needs) and a pass (one unit
of user-visible work). A run repeats the pass; each pass must write the same
bytes as the first, which is the determinism check.

- ``pretrain``: ``nasflat pretrain`` on a synthetic nb201 family with the
  default predictor (ensemble, ~349k parameters) at batch 16. Nearly all of
  its time is autodiff backward, Adam and the predictor forward at a mid-size
  batch.
- ``fewshot``: README steps 4-6 on a family with several target devices:
  ``nasflat transfer`` (cosine sampler on zcp.csv, 20 samples) over all
  targets in one call, ``nasflat eval`` over all checkpoints, then
  ``nasflat search`` on each target checkpoint with ``--latency``
  calibration. Tiny batches (16 and 4), one 7.5 MB JSON checkpoint loaded and
  saved per target, and CSV/JSONL re-read by every call, so per-call and
  per-primitive overhead dominate rather than BLAS.
- ``score``: in-process ``predictor.predict_batch`` requests on the fbnet
  macro space (22-node graph) with a fixed mix of batch sizes 1/16/64/500 in
  seeded order. No tape and no training: the inner loop of a NAS search.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CALL_TIMEOUT_S = 150


@dataclass
class Call:
    rc: int
    wall_s: float
    output: str
    maxrss_kb: int = 0  # peak RSS of the child; 0 for in-process calls


def child_env(src: Path) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Runs CLI calls, in child processes or in this process."""

    def __init__(self, src: Path, log: Path, in_process: bool = False):
        self.env = child_env(src)
        self.log = log
        self.in_process = in_process

    def cli(self, argv: list[str]) -> Call:
        return self._in_process(argv) if self.in_process else self._child(argv)

    def _child(self, argv: list[str]) -> Call:
        with open(self.log, "w+b") as log:
            t0 = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "nasflat.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=self.env,
            )
            killer = threading.Timer(CALL_TIMEOUT_S, child.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS.
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            child.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            output = log.read().decode("utf-8", "replace")
        return Call(child.returncode, wall, output, usage.ru_maxrss)

    @staticmethod
    def _in_process(argv: list[str]) -> Call:
        from nasflat import cli

        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf), redirect_stderr(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
        return Call(rc, time.perf_counter() - t0, buf.getvalue())


@dataclass
class Op:
    label: str
    wall_s: float
    ok: bool
    digest: str
    maxrss_kb: int = 0
    why: str = ""


@dataclass
class Pass:
    ops: list[Op]
    info: dict = field(default_factory=dict)

    def seconds(self) -> float:
        """Time spent in the pass's ops, without the benchmark's own checks."""
        return sum(o.wall_s for o in self.ops)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _cli_op(runner: Runner, label: str, argv: list[str], outputs, check=None) -> Op:
    call = runner.cli(argv)
    ok, why, digest = call.rc == 0, "", ""
    if not ok:
        why = f"exit {call.rc}: {call.output.strip()[-300:]}"
    else:
        missing = [str(p) for p in outputs if not Path(p).is_file()]
        if missing:
            ok, why = False, f"missing outputs {missing}"
        else:
            digest = digest_files(outputs)
            if check is not None:
                why = check(call) or ""
                ok = not why
    return Op(label, call.wall_s, ok, digest, call.maxrss_kb, why)


def _median_latency_by_device(latency_csv: Path) -> tuple[dict, dict]:
    by_device: dict[str, list[float]] = {}
    truth: dict[tuple[str, str], float] = {}
    with open(latency_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ms = float(row["latency_ms"])
            by_device.setdefault(row["device_id"], []).append(ms)
            truth[(row["arch_id"], row["device_id"])] = ms
    return {d: statistics.median(v) for d, v in by_device.items()}, truth


def _synth_and_split(runner, work: Path, seed: int, devices: int, archs: int, m: int, n: int):
    data = work / "data"
    ops = [
        _cli_op(runner, "synth", [
            "synth", "--space", "nb201", "--devices", str(devices), "--archs", str(archs),
            "--seed", str(seed), "--out-dir", str(data),
        ], [data / f for f in ("archs.jsonl", "latency.csv", "zcp.csv", "devices.json")]),
        _cli_op(runner, "partition", [
            "partition", "--latency", str(data / "latency.csv"), "--m", str(m), "--n", str(n),
            "--seed", str(seed), "--out", str(data / "split.json"),
        ], [data / "split.json"]),
    ]
    return data, ops


def _setup_op(ops: list[Op]) -> Op:
    """One op for a whole set-up; its time is that of the CLI calls in it."""
    bad = [o for o in ops if not o.ok]
    digest = hashlib.sha256("".join(o.digest for o in ops).encode()).hexdigest()
    why = "; ".join(f"{o.label}: {o.why}" for o in bad)
    return Op("setup", sum(o.wall_s for o in ops), not bad, digest,
              max(o.maxrss_kb for o in ops), why)


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# --- pretrain ----------------------------------------------------------------

class Pretrain:
    name = "pretrain"
    SIZES = {
        "full": dict(devices=8, archs=200, m=4, n=4, epochs=3),
        "tiny": dict(devices=4, archs=40, m=2, n=2, epochs=1),
    }
    BATCH = 16

    def __init__(self, size: str, seed: int):
        self.cfg = self.SIZES[size]
        self.seed = seed

    def setup(self, runner: Runner, work: Path):
        c = self.cfg
        data, ops = _synth_and_split(runner, work, self.seed, c["devices"], c["archs"], c["m"], c["n"])
        config = work / "run_config.json"
        config.write_text(json.dumps({"version": 1, "train": {
            "epochs": c["epochs"], "batch_size": self.BATCH,
        }}) + "\n", encoding="utf-8")
        return {"data": data, "config": config}, _setup_op(ops)

    def samples_per_pass(self) -> int:
        # Per device, batches of 16 in seeded order; a final chunk of one
        # sample has no pair and is dropped (pipeline._epoch_batches).
        full, rest = divmod(self.cfg["archs"], self.BATCH)
        per_device = full * self.BATCH + (rest if rest >= 2 else 0)
        return per_device * self.cfg["m"] * self.cfg["epochs"]

    def run_pass(self, runner: Runner, inputs, out: Path) -> Pass:
        data = inputs["data"]
        ckpt = out / "ckpt.json"
        loss = {}

        def check(call: Call) -> str:
            found = re.search(r"loss (\S+) -> (\S+)\)", call.output)
            if not found:
                return "no loss line in pretrain output"
            first, last = float(found.group(1)), float(found.group(2))
            if not (math.isfinite(first) and math.isfinite(last)):
                return f"non-finite loss {first} -> {last}"
            loss.update(first=first, last=last)
            return ""

        op = _cli_op(runner, "pretrain", [
            "pretrain", "--config", str(inputs["config"]),
            "--latency", str(data / "latency.csv"), "--archs", str(data / "archs.jsonl"),
            "--split", str(data / "split.json"), "--seed", str(self.seed), "--out", str(ckpt),
        ], [ckpt, Path(str(ckpt) + ".meta.json")], check)
        return Pass([op], {"loss_last": loss.get("last")})

    def metrics(self, passes: list[Pass]) -> tuple[dict, dict]:
        walls = [p.seconds() for p in passes]
        samples_per_s = statistics.median(self.samples_per_pass() / w for w in walls)
        e2e = {
            "wall_s": statistics.median(walls),
            "archs_per_s": samples_per_s,
        }
        extras = {
            "train_samples_per_s": (samples_per_s, "1/s", "higher"),
            "train_loss_last": (passes[0].info["loss_last"], "loss", "lower"),
            "train_samples_per_pass": (self.samples_per_pass(), "count", "info"),
        }
        return e2e, extras


# --- fewshot -----------------------------------------------------------------

class Fewshot:
    name = "fewshot"
    SIZES = {
        "full": dict(devices=12, archs=120, m=4, n=6, setup_source_samples=48,
                     transfer_epochs=10, samples=20, top_k=10),
        "tiny": dict(devices=6, archs=40, m=2, n=2, setup_source_samples=16,
                     transfer_epochs=1, samples=8, top_k=5),
    }

    def __init__(self, size: str, seed: int):
        self.cfg = self.SIZES[size]
        self.seed = seed

    def setup(self, runner: Runner, work: Path):
        c = self.cfg
        data, ops = _synth_and_split(runner, work, self.seed, c["devices"], c["archs"], c["m"], c["n"])
        config = work / "run_config.json"
        config.write_text(json.dumps({"version": 1, "train": {
            "epochs": 1, "source_samples": c["setup_source_samples"],
            "transfer_epochs": c["transfer_epochs"],
        }}) + "\n", encoding="utf-8")
        ckpt = work / "pretrained.json"
        if all(o.ok for o in ops):
            ops.append(_cli_op(runner, "pretrain", [
                "pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(data / "split.json"),
                "--seed", str(self.seed), "--out", str(ckpt),
            ], [ckpt, Path(str(ckpt) + ".meta.json")]))
        inputs = {"data": data, "config": config, "ckpt": ckpt}
        if all(o.ok for o in ops):
            split = json.loads((data / "split.json").read_text(encoding="utf-8"))
            inputs["targets"] = sorted(split["target"])
            inputs["constraint"], inputs["truth"] = _median_latency_by_device(data / "latency.csv")
        return inputs, _setup_op(ops)

    def run_pass(self, runner: Runner, inputs, out: Path) -> Pass:
        c, data, targets = self.cfg, inputs["data"], inputs["targets"]
        common = ["--latency", str(data / "latency.csv"), "--archs", str(data / "archs.jsonl")]
        transfers = out / "transfers"
        ckpts = [transfers / f"transfer_{d}.json" for d in targets]
        ops = [_cli_op(runner, "transfer", [
            "transfer", "--config", str(inputs["config"]), *common,
            "--split", str(data / "split.json"), "--checkpoint", str(inputs["ckpt"]),
            "--sampler", "cosine", "--sampler-encoding", str(data / "zcp.csv"),
            "--samples", str(c["samples"]), "--seed", str(self.seed), "--out-dir", str(transfers),
        ], ckpts + [Path(str(p) + ".meta.json") for p in ckpts])]

        report = {}

        def check_report(call: Call) -> str:
            summary = json.loads((out / "report.json").read_text(encoding="utf-8"))
            rows = summary["per_device"]
            if sorted(r["device_id"] for r in rows) != targets:
                return f"report rows {[r['device_id'] for r in rows]} != targets {targets}"
            expect = c["archs"] - c["samples"]
            bad = [r for r in rows if r["n_heldout"] != expect]
            if bad:
                return f"n_heldout != {expect} for {[r['device_id'] for r in bad]}"
            rho = summary["mean_spearman"]
            if not (math.isfinite(rho) and -1.0 <= rho <= 1.0):
                return f"mean spearman {rho} out of range"
            report["rho"] = rho
            return ""

        ops.append(_cli_op(runner, "eval", [
            "eval", *common, "--checkpoint", str(transfers), "--seed", str(self.seed),
            "--out-prefix", str(out / "report"),
        ], [out / f"report{s}" for s in (".csv", ".json", ".scatter.csv")], check_report))

        violations = [0, 0]
        for device, ckpt in zip(targets, ckpts):
            result = out / f"results_{device}.csv"
            limit = inputs["constraint"][device]

            def check_search(call: Call, result=result, device=device, limit=limit) -> str:
                with open(result, newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                if not 1 <= len(rows) <= c["top_k"]:
                    return f"{len(rows)} result rows for top-{c['top_k']}"
                if any(float(r["predicted_latency_ms"]) > limit for r in rows):
                    return "a result's predicted latency exceeds the constraint"
                violations[0] += sum(inputs["truth"][(r["arch_id"], device)] > limit for r in rows)
                violations[1] += len(rows)
                return ""

            ops.append(_cli_op(runner, f"search:{device}", [
                "search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
                "--latency", str(data / "latency.csv"), "--constraint-ms", repr(limit),
                "--top-k", str(c["top_k"]), "--seed", str(self.seed), "--out", str(result),
            ], [result], check_search))
        info = {"rho": report.get("rho"),
                "violation_rate": violations[0] / violations[1] if violations[1] else None}
        return Pass(ops, info)

    def archs_per_pass(self) -> int:
        # Per target: the sampled archs transfer adapts on plus the held-out
        # archs eval scores (together, every arch), and every arch again as
        # a search candidate.
        return self.cfg["n"] * 2 * self.cfg["archs"]

    def metrics(self, passes: list[Pass]) -> tuple[dict, dict]:
        n_targets = self.cfg["n"]
        heldout = n_targets * (self.cfg["archs"] - self.cfg["samples"])

        def by(label):
            return [o.wall_s for p in passes for o in p.ops if o.label.startswith(label)]

        eval_rate = statistics.median(heldout / w for w in by("eval"))
        search_s = statistics.median(by("search:"))
        e2e = {
            "wall_s": statistics.median(p.seconds() for p in passes),
            "archs_per_s": statistics.median(self.archs_per_pass() / p.seconds() for p in passes),
        }
        extras = {
            "adapt_s_per_target": (statistics.median(by("transfer")) / n_targets, "s", "lower"),
            "eval_archs_per_s": (eval_rate, "1/s", "higher"),
            "search_s": (search_s, "s", "lower"),
            "heldout_rho": (passes[0].info["rho"], "rho", "higher"),
            "search_violation_rate": (passes[0].info["violation_rate"], "ratio", "lower"),
        }
        return e2e, extras


# --- score -------------------------------------------------------------------

class Score:
    name = "score"
    DEVICE = "d00"
    SIZES = {
        # requests per pass by batch size: most requests are <= 64 archs,
        # while the 500-arch batches carry most of the archs.
        "full": dict(pool=1000, mix={1: 12, 16: 10, 64: 7, 500: 3}),
        "tiny": dict(pool=500, mix={1: 2, 16: 1, 64: 1, 500: 1}),
    }
    AGREE_RTOL = 1e-9

    def __init__(self, size: str, seed: int):
        self.cfg = self.SIZES[size]
        self.seed = seed

    def setup(self, runner: Runner, work: Path):
        from nasflat import archspace, predictor, synthbench

        t0 = time.perf_counter()
        space = archspace.get_space("fbnet")
        pool = synthbench.distinct_random_architectures(space, self.cfg["pool"], self.seed)
        state = predictor.init_predictor(
            predictor.PredictorConfig(), [space], [self.DEVICE], seed=self.seed
        )
        wall = time.perf_counter() - t0
        rng = np.random.default_rng(self.seed)
        sizes = [b for b, count in self.cfg["mix"].items() for _ in range(count)]
        rng.shuffle(sizes)
        requests = [[pool[i] for i in rng.choice(len(pool), b, replace=False)] for b in sizes]
        h = hashlib.sha256()
        for arch in pool:
            h.update(arch.arch_id.encode())
        for name in sorted(state.params):
            h.update(state.params[name].data.tobytes())
        op = Op("setup", wall, True, h.hexdigest())
        return {"state": state, "requests": requests}, op

    def run_pass(self, runner: Runner, inputs, out: Path) -> Pass:
        from nasflat import predictor

        state, ops, scores = inputs["state"], [], []
        for i, archs in enumerate(inputs["requests"]):
            t0 = time.perf_counter()
            y = predictor.predict_batch(state, archs, self.DEVICE)
            wall = time.perf_counter() - t0
            ok = y.shape == (len(archs),) and bool(np.all(np.isfinite(y)))
            ops.append(Op(f"request:{i}", wall, ok, hashlib.sha256(y.tobytes()).hexdigest(),
                          why="" if ok else "non-finite or misshapen scores"))
            scores.append(y)
        return Pass(ops, {"scores": scores})

    def agreement_errors(self, inputs, first: Pass) -> list[str]:
        """Rescore each request's leading archs at smaller batch sizes."""
        from nasflat import predictor

        errors = []
        state = inputs["state"]
        for i, (archs, y) in enumerate(zip(inputs["requests"], first.info["scores"])):
            for b, lead in ((16, 16), (1, 4)):
                if len(archs) <= b:
                    continue
                z = np.concatenate([
                    predictor.predict_batch(state, archs[j:j + b], self.DEVICE)
                    for j in range(0, lead, b)
                ])
                ref = y[:len(z)]
                scale = max(float(np.max(np.abs(ref))), 1e-300)
                err = float(np.max(np.abs(z - ref))) / scale
                if not err <= self.AGREE_RTOL:
                    errors.append(f"request {i}: batch {len(archs)} vs {b} differ by {err:.3g} rel")
        return errors

    def metrics(self, passes: list[Pass]) -> tuple[dict, dict]:
        walls = [o.wall_s for p in passes for o in p.ops]
        archs = sum(self.cfg["mix"][b] * b for b in self.cfg["mix"]) * len(passes)
        p50 = statistics.median(walls) * 1e3
        rate = archs / sum(walls)
        e2e = {
            "wall_s": statistics.median(p.seconds() for p in passes),
            "archs_per_s": rate,
        }
        extras = {
            "score_archs_per_s": (rate, "1/s", "higher"),
            "score_p50_ms": (p50, "ms", "lower"),
        }
        t = tail(walls)
        if t is not None:
            extras["score_tail_ms"] = (t[0] * 1e3, "ms", "lower")
            extras["score_tail_percentile"] = (t[1], "%", "info")
            extras["score_requests"] = (t[2], "count", "info")
        return e2e, extras


WORKLOADS = {w.name: w for w in (Pretrain, Fewshot, Score)}
