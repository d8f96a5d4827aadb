"""Smoke test for the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json and the benchmark's metric catalogue agree, that
every named metric is emitted with its unit and direction, that traced and
untraced passes write byte-identical outputs, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import run  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "smoke"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == catalogue, key


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    catalogue = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    for name, metric in result["metrics"].items():
        unit, better = catalogue[name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
        assert any(line.startswith(f"# {name} = ") and f"{unit} ({better} is better)" in line
                   for line in lines), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in catalogue)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(workload):
    work = SCRATCH / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload]("tiny", 5)
        runner = Runner(SRC, work / "call.log", in_process=True)
        inputs, setup = wl.setup(runner, work / "setup")
        assert setup.ok, setup.why
        plain = wl.run_pass(runner, inputs, work / "plain")
        tracer = Tracer()
        tracer.run = "pass0"
        tracer.install()
        try:
            traced = wl.run_pass(runner, inputs, work / "traced")
        finally:
            tracer.uninstall()
        assert tracer.spans
        assert all(op.ok for op in plain.ops + traced.ops)
        assert [op.digest for op in plain.ops] == [op.digest for op in traced.ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_uninstall_restores_every_binding():
    modules = [importlib.import_module(f"nasflat.{m}") for m in MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    assert any(vars(m)[k] is not v for m, b in zip(modules, before) for k, v in b.items()
               if isinstance(v, types.FunctionType))
    tracer.uninstall()
    for m, b in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in b.items()), m.__name__


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        done = _bench("--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
