"""nasflat benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {pretrain,fewshot,score} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics. ``--trace 1`` runs it in-process once more with every
nasflat function wrapped in a span and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it (prefixed
``#``) give the same figures for reading, plus the environment. A full result
with the environment facts is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "archs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_catalogue() -> dict[str, tuple[str, str]]:
    ms, count, ratio = ("ms", "lower"), ("count", "lower"), ("ratio", "lower")
    names: dict[str, tuple[str, str]] = {
        "trace.overhead_ratio": ratio,
        "trace.spans": count,
        "cli.import_ms": ms,
        "autodiff.tape_records_per_step": count,
        "pipeline.step_ms": ms,
        "pipeline.step.calls": count,
        "pipeline.step_other_ms": ms,
        "pipeline.hinge.active_pair_ratio": ratio,
        "pipeline.search.predictor_time_share": ratio,
        "predictor.checkpoint_bytes": ("bytes", "lower"),
        "predictor.predict_batch.calls": count,
    }
    for name in tracer.STEP_COSTS:
        names[f"{name}.ms_per_step"] = ms
        names[f"{name}.calls"] = count
    for name in tracer.FORWARD_LAYERS:
        names[f"{name}.fwd_ms"] = ms
        names[f"{name}.fwd_ms_per_step"] = ms
        names[f"{name}.calls"] = count
    for b in tracer.PREDICT_BATCHES:
        names[f"predictor.predict_batch.ms.b{b}"] = ms
    for name in tracer.SPAN_TOTALS:
        names[f"{name}.ms"] = ms
        names[f"{name}.calls"] = count
    for module in tracer.MODULES:
        names[f"{module}.self_ms"] = ms
    for stage in tracer.CLI_STAGES:
        names[f"cli.{stage}.self_ms"] = ms
    # Batch sizes of the isolated block profile (blocks.py).
    for block, batches in (("predictor.block.dgf", (1, 16, 64, 500)),
                           ("predictor.block.gat", (1, 16, 64, 500)),
                           ("pipeline.block.hinge", (2, 16, 64, 256))):
        for b in batches:
            names[f"{block}.fwd_ms.b{b}"] = ms
            names[f"{block}.bwd_ms.b{b}"] = ms
    return names


PER_LAYER = _per_layer_catalogue()


# --- environment ----------------------------------------------------------------

def _blas_threads():
    """Thread count OpenBLAS uses in this process, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nasflat").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NASFLAT_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


# --- running -----------------------------------------------------------------

def _count_failures(ops, reference: dict) -> list[str]:
    """Mark each op against the first op with its label; returns failure notes."""
    notes = []
    for op in ops:
        ref = reference.setdefault(op.label, op.digest)
        if op.ok and op.digest != ref:
            op.ok, op.why = False, "output differs from the first run of this op"
        if not op.ok:
            notes.append(f"{op.label}: {op.why}")
    return notes


def run_untraced(wl, seconds: float, work: Path):
    """Time the workload's CLI calls or requests with nothing wrapped.

    Returns (end-to-end metrics, or None when set-up failed; every op;
    failure notes; extra figures as (value, unit, better)).
    """
    from workloads import Runner

    reference: dict = {}
    setup_ops: list = []

    def set_up():
        # Set-ups after the first are spread between the passes, so their
        # median samples the host's speed over the whole run.
        d = work / f"setup{len(setup_ops)}"
        d.mkdir(parents=True)
        inputs, op = wl.setup(Runner(SRC, d / "call.log"), d)
        setup_ops.append(op)
        if setup_ops[1:]:
            shutil.rmtree(d)
        return inputs, _count_failures([op], reference)

    inputs, notes = set_up()
    if notes:
        return None, setup_ops, notes, {}
    runner = Runner(SRC, work / "call.log")
    passes, elapsed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = work / f"pass{len(passes)}"
        out.mkdir(parents=True)
        passes.append(wl.run_pass(runner, inputs, out))
        shutil.rmtree(out)
        notes += _count_failures(passes[-1].ops, reference)
        elapsed.append(time.perf_counter() - t0)
        if len(setup_ops) < SETUP_REPEATS:
            notes += set_up()[1]
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(elapsed) > seconds):
            break
    while len(setup_ops) < SETUP_REPEATS:
        notes += set_up()[1]
    if hasattr(wl, "agreement_errors"):
        notes += wl.agreement_errors(inputs, passes[0])
    e2e, extras = wl.metrics(passes)
    e2e["setup_s"] = statistics.median(op.wall_s for op in setup_ops)
    timed_rss = [op.maxrss_kb for p in passes for op in p.ops]
    if max(timed_rss) == 0:  # in-process workload: this process is the program
        timed_rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    e2e["peak_rss_mb"] = max(timed_rss) / 1024.0
    extras["passes"] = (len(passes), "count", "info")
    ops = setup_ops + [op for p in passes for op in p.ops]
    return e2e, ops, notes, extras


def _import_ms() -> float:
    from workloads import child_env

    env = child_env(SRC)
    walls = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nasflat.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(walls)


def run_traced(wl, seconds: float, work: Path, trace_path: Path):
    """Profile the workload in-process: plain and traced passes in turn.

    Returns the same tuple as run_untraced, with per-layer metrics.
    """
    from blocks import block_profile
    from workloads import Runner

    layers = {"cli.import_ms": _import_ms()}
    layers.update(block_profile())
    work.mkdir(parents=True)
    runner = Runner(SRC, work / "call.log", in_process=True)
    trace = tracer.Tracer()
    trace.install()
    try:
        inputs, setup_op = wl.setup(runner, work / "setup")
    finally:
        trace.uninstall()
    reference: dict = {}
    notes = _count_failures([setup_op], reference)
    if notes:
        return None, [setup_op], notes, {}
    plain, traced, ops = [], [], [setup_op]
    start = time.perf_counter()
    while True:
        k = len(traced)
        for label, bucket in (("plain", plain), ("traced", traced)):
            out = work / f"{label}{k}"
            out.mkdir(parents=True)
            if label == "traced":
                trace.run = f"pass{k}"
                trace.install()
            try:
                bucket.append(wl.run_pass(runner, inputs, out))
            finally:
                trace.uninstall()
            shutil.rmtree(out)
            ops += bucket[-1].ops
            notes += _count_failures(bucket[-1].ops, reference)
        elapsed = time.perf_counter() - start
        pair = statistics.median(p.seconds() for p in plain) + statistics.median(p.seconds() for p in traced)
        if elapsed + pair > seconds:
            break
    layers.update(tracer.summarise(trace.spans, [f"pass{k}" for k in range(len(traced))]))
    layers["trace.overhead_ratio"] = (
        statistics.median(p.seconds() for p in traced) / statistics.median(p.seconds() for p in plain) - 1.0
    )
    trace.write_jsonl(trace_path)
    extras = {"traced_passes": (len(traced), "count", "info"),
              "trace_file": (str(trace_path.relative_to(ROOT)), "path", "info")}
    return layers, ops, notes, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "fewshot", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "nasflat" / "cli.py").is_file():
        print(f"benchmark: no nasflat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nasflat
    from workloads import WORKLOADS

    if Path(nasflat.__file__).resolve().parent != (SRC / "nasflat").resolve():
        print(f"benchmark: imported nasflat from {nasflat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    base = ROOT / ".perfbench"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}"
    work = base / "work" / f"{tag}-{os.getpid()}"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.size, args.seed)
    try:
        if args.trace:
            values, ops, notes, extras = run_traced(
                wl, args.seconds, work, results_dir / f"trace-{tag}.jsonl")
        else:
            values, ops, notes, extras = run_untraced(wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    catalogue = PER_LAYER if args.trace else END_TO_END
    failed = sum(not op.ok for op in ops)
    missing = [] if values is None else sorted(set(catalogue) - set(values))
    notes += [f"metric {name} was not measured" for name in missing]
    result = {
        "correct": not notes,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {} if values is None else {
            name: {"value": float(values[name]), "unit": catalogue[name][0]}
            for name in catalogue if name in values
        },
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "failed_op_ratio": {"failed": failed, "attempted": len(ops)},
        "failures": notes,
        "ops": [{"label": op.label, "wall_s": op.wall_s, "ok": op.ok} for op in ops],
        "extras": {k: {"value": v[0], "unit": v[1], "better": v[2]} for k, v in extras.items()},
        "result": result,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# nasflat benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env")
          + " thread_env=" + json.dumps(env["thread_env"], separators=(",", ":")))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} ({catalogue[name][1]} is better)")
    for name, (value, unit, better) in extras.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"# {name} = {shown} {unit}" + ("" if better == "info" else f" ({better} is better)"))
    print(f"# failed_op_ratio = {failed}/{len(ops)} ops")
    for note in notes:
        print(f"# FAILED {note}")
    print(json.dumps(result, separators=(",", ":")))
    return 0 if values is not None else 1


if __name__ == "__main__":
    sys.exit(main())
