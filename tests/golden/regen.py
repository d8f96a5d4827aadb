"""Rewrite tests/golden/golden.json from fresh runs of the golden flows.

    PYTHONPATH=src python tests/golden/regen.py

Runs the flows of tests/golden_flow.py under a temporary directory and
records the SHA-256 of every output, the eval scatter scores as text and the
environment fingerprint (numpy version, OpenBLAS config and kernel).

The `tolerance` block, which bounds how far tests/test_golden.py lets the
scores move where the fingerprint differs, is kept as committed: digests and
the gate have different reasons to change. Only when golden.json has no
`tolerance` block is it measured: the flows rerun in child processes with
OPENBLAS_CORETYPE set to each of CORETYPES, skipping a kernel whose run
fails or that reports the same corename as the default run or as one
already measured, and the block records the largest score drift from the
default run, MARGIN and their product. At least one other kernel must run.
To re-measure the gate, delete the block and run this script.

Regenerate only for a change that moves output bits on purpose, and say in
CHANGES.md which digests moved, why, and the score agreement measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS))

import golden_flow  # noqa: E402

GOLDEN = TESTS / "golden" / "golden.json"
MARGIN = 100.0
CORETYPES = ("Haswell", "Sandybridge", "Prescott")


def _fresh_run() -> dict:
    with tempfile.TemporaryDirectory(prefix="nasflat-golden-") as tmp:
        root = golden_flow.run_flows(tmp)
        return {
            "fingerprint": golden_flow.fingerprint(),
            "digests": golden_flow.digests(root),
            "scores": golden_flow.scatter_scores(root),
        }


def _child_run(coretype: str) -> dict | None:
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        print(f"OPENBLAS_CORETYPE={coretype}: child failed, skipped:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout)


def _measured_tolerance(base: dict) -> dict | None:
    """The `tolerance` block from the score drift of each other kernel against `base`."""
    seen = {base["fingerprint"]["openblas_corename"]}
    drifts = {}
    for coretype in CORETYPES:
        other = _child_run(coretype)
        if other is None or other["fingerprint"]["openblas_corename"] in seen:
            continue
        seen.add(other["fingerprint"]["openblas_corename"])
        drifts[coretype] = golden_flow.score_drift(other["scores"], base["scores"])
        print(f"OPENBLAS_CORETYPE={coretype} ({other['fingerprint']['openblas_corename']}): "
              f"score drift {drifts[coretype]:.3g}")
    if not drifts:
        print("no other OpenBLAS kernel ran; cannot measure the tolerance", file=sys.stderr)
        return None
    worst = max(drifts.values())
    return {"measured_on": drifts, "max_drift": worst, "margin": MARGIN, "relative": worst * MARGIN}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run = _fresh_run()
        print(json.dumps({"fingerprint": run["fingerprint"], "scores": run["scores"]}))
        return 0

    base = _fresh_run()
    tolerance = json.loads(GOLDEN.read_text()).get("tolerance") if GOLDEN.exists() else None
    if tolerance is None:
        tolerance = _measured_tolerance(base)
        if tolerance is None:
            return 1
    doc = {
        "fingerprint": base["fingerprint"],
        "digests": base["digests"],
        "scores": base["scores"],
        "tolerance": tolerance,
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(base['digests'])} digests, tolerance {tolerance['relative']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
