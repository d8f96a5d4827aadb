"""Golden-output gate: the tiny CLI flows write the bytes recorded in tests/golden/golden.json.

With the recorded numpy version and OpenBLAS kernel every output digest must
match. In any environment the eval scores must agree with the recorded ones
within the drift tests/golden/regen.py measured across OpenBLAS kernels,
times its margin. A change that moves output bits on purpose regenerates the
file with that script and says in CHANGES.md which digests moved and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import golden_flow

GOLDEN = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def flow_root(tmp_path_factory):
    return golden_flow.run_flows(tmp_path_factory.mktemp("golden"))


def test_golden_digests_match_on_the_recorded_environment(flow_root):
    env = golden_flow.fingerprint()
    if env != GOLDEN["fingerprint"]:
        pytest.skip(f"bytes are promised for {GOLDEN['fingerprint']}, this is {env}; "
                    "the score test still runs")
    got = golden_flow.digests(flow_root)
    want = GOLDEN["digests"]
    moved = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not moved, f"outputs whose bytes moved: {moved}"


def test_golden_scores_agree_within_measured_drift(flow_root):
    drift = golden_flow.score_drift(golden_flow.scatter_scores(flow_root), GOLDEN["scores"])
    assert drift <= GOLDEN["tolerance"]["relative"], drift
