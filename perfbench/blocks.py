"""Isolated block profile: one predictor block at a time, through public API.

Each block's forward pass runs under a tape and is timed on its own, then
``autodiff.backward`` is timed on a scalar loss over the block's output. The
shapes are nb201's with the default predictor config: 8 graph nodes, 48-wide
node embeddings, 128-wide refined op features and 128-wide layer outputs
(the first layer of each main stack).

The hinge loss is profiled at batch 2 instead of 1 and at 256 instead of 500:
it needs two samples to form a pair, and its dense pair matrix holds
B(B-1)/2 x B float64 values, about 0.5 GB at B=500.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from nasflat import autodiff as ad
from nasflat.archspace import get_space
from nasflat.pipeline import pairwise_hinge_loss
from nasflat.predictor import (
    DgfWeights,
    GatWeights,
    PredictorConfig,
    dgf_layer,
    gat_layer,
    init_predictor,
)

LAYER_BATCHES = (1, 16, 64, 500)
HINGE_BATCHES = (2, 16, 64, 256)
REPEATS = 5


def _time_block(forward, reps: int) -> tuple[float, float]:
    """Median forward and backward ms over `reps` runs after one warm-up."""
    fwd, bwd = [], []
    for rep in range(reps + 1):
        with ad.recording() as tape:
            t0 = time.perf_counter()
            out = forward()
            t1 = time.perf_counter()
            loss = ad.sum_all(out)
        t2 = time.perf_counter()
        ad.backward(tape, loss)
        t3 = time.perf_counter()
        if rep:
            fwd.append((t1 - t0) * 1e3)
            bwd.append((t3 - t2) * 1e3)
    return statistics.median(fwd), statistics.median(bwd)


def block_profile(reps: int = REPEATS) -> dict[str, float]:
    space = get_space("nb201")
    config = PredictorConfig()
    state = init_predictor(config, [space], ["d00"], seed=0)
    p = state.params
    dgf = DgfWeights(p["dgf0.w_gate"], p["dgf0.w_feat"], p["dgf0.bias"])
    gat = GatWeights(
        p["gat0.w_proj"], p["gat0.attn"], p["gat0.w_gate"], p["gat0.ln_gain"], p["gat0.ln_bias"]
    )
    agg = np.asarray(space.template_adjacency().T, dtype=np.float64)
    n = space.graph_size
    refined_dim = config.ophw_mlp_dims[-1]
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for b in LAYER_BATCHES:
        x = ad.param(rng.normal(size=(b, n, config.node_embed_dim)))
        op_feat = ad.param(rng.normal(size=(b, n, refined_dim)))
        fwd, bwd = _time_block(lambda: dgf_layer(x, agg, op_feat, dgf), reps)
        out[f"predictor.block.dgf.fwd_ms.b{b}"] = fwd
        out[f"predictor.block.dgf.bwd_ms.b{b}"] = bwd
        fwd, bwd = _time_block(
            lambda: gat_layer(x, agg, op_feat, gat, config.leaky_slope), reps
        )
        out[f"predictor.block.gat.fwd_ms.b{b}"] = fwd
        out[f"predictor.block.gat.bwd_ms.b{b}"] = bwd
    for b in HINGE_BATCHES:
        preds = ad.param(rng.normal(size=(b, 1)))
        targets = rng.permutation(b).astype(np.float64)
        fwd, bwd = _time_block(lambda: pairwise_hinge_loss(preds, targets), reps)
        out[f"pipeline.block.hinge.fwd_ms.b{b}"] = fwd
        out[f"pipeline.block.hinge.bwd_ms.b{b}"] = bwd
    return out
