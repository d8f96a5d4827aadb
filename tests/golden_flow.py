"""A tiny CLI flow per search space, and the environment its output bytes depend on.

`run_flows(root)` runs, in process through `cli.main`, for each space:
`synth` (4 devices x 40 archs) and `partition` (2 sources, 2 targets), then
`pretrain`, `transfer` to both targets, `eval` and `search --latency`, once
without and once with `--encoding zcp.csv` (that flow also picks its transfer
samples with the cosine sampler over zcp.csv). The predictor config is the
default and training is short. `tests/test_golden.py` checks what it writes
against `tests/golden/golden.json`, and `tests/golden/regen.py` rewrites that
file.

Bytes are only promised for one numpy and OpenBLAS kernel: OpenBLAS is built
with DYNAMIC_ARCH and picks its kernels per CPU, so `fingerprint()` records
the numpy version and the kernel of the OpenBLAS mapped into this process.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import statistics
from pathlib import Path

from nasflat import autodiff as ad
from nasflat import cli

SPACES = ("nb201", "fbnet")
FLOWS = ("plain", "zcp")
RUN_CONFIG = {"version": 1, "train": {"epochs": 1, "transfer_epochs": 2}}

_BLAS_INFO = (
    ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config64_",
                "openblas_get_config")),
    ("corename", ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                  "openblas_get_corename64_", "openblas_get_corename")),
)


def fingerprint() -> dict:
    """The numpy version and the `get_config` and `get_corename` strings of the
    OpenBLAS mapped into this process, found by the scan
    `autodiff.blas_thread_setter` uses (None where no mapped OpenBLAS exports them)."""
    import numpy as np

    out = {"numpy": np.__version__, "openblas_config": None, "openblas_corename": None}
    for lib in ad._mapped_openblas():
        for key, names in _BLAS_INFO:
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.argtypes, fn.restype = (), ctypes.c_char_p
                out[f"openblas_{key}"] = fn().decode("utf-8", "replace").strip()
        if out["openblas_corename"] is not None:
            break
    return out


def _run(argv: list) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"nasflat {argv[0]} exited {code}: {err.getvalue().strip()}")


def _median_latency(latency_csv: Path, device: str) -> float:
    with latency_csv.open(encoding="utf-8") as fh:
        return statistics.median(
            float(row["latency_ms"]) for row in csv.DictReader(fh) if row["device_id"] == device
        )


def run_flows(root) -> Path:
    """Run every space's flows under `root`; returns `root`."""
    root = Path(root)
    for space in SPACES:
        work = root / space
        data = work / "data"
        latency, archs, zcp = data / "latency.csv", data / "archs.jsonl", data / "zcp.csv"
        split = work / "split.json"
        config = work / "run.json"
        work.mkdir(parents=True)
        config.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
        _run(["synth", "--space", space, "--devices", 4, "--archs", 40, "--seed", 7, "--out-dir", data])
        _run(["partition", "--latency", latency, "--m", 2, "--n", 2, "--seed", 1, "--out", split])
        targets = json.loads(split.read_text(encoding="utf-8"))["target"]
        for flow in FLOWS:
            out = work / flow
            enc = ["--encoding", zcp] if flow == "zcp" else []
            sampler = ["--sampler", "cosine", "--sampler-encoding", zcp] if flow == "zcp" else []
            common = ["--latency", latency, "--archs", archs, "--split", split,
                      "--config", config, "--seed", 3]
            _run(["pretrain", *common, *enc, "--out", out / "ckpt.json"])
            _run(["transfer", *common, *enc, *sampler, "--checkpoint", out / "ckpt.json",
                  "--out-dir", out / "transfer"])
            _run(["eval", "--latency", latency, "--archs", archs, *enc,
                  "--checkpoint", out / "transfer", "--out-prefix", out / "eval"])
            _run(["search", "--archs", archs, "--latency", latency, *enc,
                  "--checkpoint", out / "transfer" / f"transfer_{targets[0]}.json",
                  "--constraint-ms", repr(_median_latency(latency, targets[0])),
                  "--top-k", 5, "--out", out / "search.csv"])
    return root


def digests(root) -> dict:
    """SHA-256 of every file under `root` by relative POSIX path, leaving out
    manifests (they hold a timestamp and absolute paths), `*.timing.json`
    (wall clock) and the run configs the flow wrote itself."""
    root = Path(root)
    out = {}
    for path in sorted(root.rglob("*")):
        name = path.name
        if not path.is_file() or "manifest" in name or name.endswith(".timing.json") or name == "run.json":
            continue
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def scatter_scores(root) -> dict:
    """Per flow (`space/flow`), the eval scatter's `device_id,arch_id,pred` rows as text."""
    root = Path(root)
    out = {}
    for space in SPACES:
        for flow in FLOWS:
            lines = (root / space / flow / "eval.scatter.csv").read_text(encoding="utf-8").splitlines()
            out[f"{space}/{flow}"] = [line.rsplit(",", 1)[0] for line in lines[1:]]
    return out


def score_drift(got: dict, want: dict) -> float:
    """The largest |got - want| over every scatter score, relative to the
    largest |want| of its flow; inf if the rows differ in device or arch."""
    worst = 0.0
    for flow, rows in want.items():
        other = got.get(flow, [])
        keys = [r.rsplit(",", 1)[0] for r in rows]
        if len(other) != len(rows) or [r.rsplit(",", 1)[0] for r in other] != keys:
            return float("inf")
        a = [float(r.rsplit(",", 1)[1]) for r in other]
        b = [float(r.rsplit(",", 1)[1]) for r in rows]
        scale = max(abs(v) for v in b) or 1.0
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)) / scale)
    return worst
