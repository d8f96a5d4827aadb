"""Command-line front end.

Subcommands: synth, partition, sample, pretrain, transfer, eval, search.
Every run resolves one config document, derives all randomness from a single
--seed, writes its outputs byte-identically for identical inputs, and records
a manifest (command, resolved config, input digests, seed, outputs). Only the
manifest carries a timestamp.

Exit codes: 0 success, 2 usage error, 3 data/input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path


from . import __version__
from .archspace import (
    Architecture,
    EncodingTable,
    get_space,
    load_encoding_table,
    proxy_table,
    read_architectures,
    save_encoding_table,
)
from .devicesets import (
    CorrelationGraph,
    DeviceSplit,
    LatencyTable,
    kl_bisect,
    prune_to_sizes,
)
from .errors import BadField, BudgetTooSmall, NasflatError
from .pipeline import (
    EvalReport,
    TrainConfig,
    evaluate,
    latency_constrained_search,
    map_targets,
    pretrain,
    transfer,
)
from .predictor import (
    PredictorConfig,
    checkpoint_meta_path,
    init_predictor,
    load_checkpoint,
    save_checkpoint,
)
from .rng import rng_for, stable_seed
from .sampler import METHODS, run_sampler
from .synthbench import gen_dataset, mixed_family

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4

CONFIG_VERSION = 1
SAMPLER_DEFAULTS = {"method": "random", "samples": 20}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_manifest(
    command: str, manifest_path: Path, config: dict, inputs: list[Path],
    seed: int, outputs: list[Path],
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in sorted(set(inputs))},
        "master_seed": seed,
        "version": __version__,
        "outputs": sorted(str(p) for p in outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(manifest_path, manifest)


def _config_section(path: str, name: str, build, section):
    """`build(**section)`; a bad field exits 3 with its JSON pointer."""
    try:
        return build(**section)
    except BadField as e:
        raise NasflatError(f"{path}: /{name}/{e}") from None
    except (TypeError, ValueError) as e:
        raise NasflatError(f"{path}: /{name}: {e}") from None


def _load_run_config(
    path: str | None, space_id: str
) -> tuple[TrainConfig, PredictorConfig, dict]:
    """Resolve the run config: (train, predictor, sampler with its defaults).

    Schema violations are reported with JSON pointer paths. A `space` key must
    be `space_id`, the architectures' space. supplementary_dim is not a field:
    `pretrain` takes it from --encoding. CLI flags override the sampler.
    """
    space = get_space(space_id)
    if path is None:
        return TrainConfig.for_space(space), PredictorConfig(), dict(SAMPLER_DEFAULTS)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise NasflatError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise NasflatError(f"{path}: /: config must be an object")
    if doc.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise NasflatError(f"{path}: /version: unsupported config version {doc.get('version')}")
    for key in doc:
        if key not in ("version", "train", "predictor", "sampler", "space"):
            raise NasflatError(f"{path}: /{key}: unknown section")
    if doc.get("space", space_id) != space_id:
        raise NasflatError(f"{path}: /space: {doc['space']!r} is not the archs' space {space_id!r}")
    train = _config_section(path, "train", partial(TrainConfig.for_space, space), doc.get("train", {}))
    pred_section = doc.get("predictor", {})
    if isinstance(pred_section, dict) and "supplementary_dim" in pred_section:
        raise NasflatError(
            f"{path}: /predictor/supplementary_dim: set by --encoding (its width, 0 without it)"
        )
    predictor = _config_section(path, "predictor", PredictorConfig, pred_section)
    sampler_section = doc.get("sampler", {})
    if not isinstance(sampler_section, dict):
        raise NasflatError(f"{path}: /sampler: must be an object")
    for key in sampler_section:
        if key not in SAMPLER_DEFAULTS:
            raise NasflatError(f"{path}: /sampler/{key}: unknown field")
    sampler = {**SAMPLER_DEFAULTS, **sampler_section}
    if sampler["method"] not in METHODS:
        raise NasflatError(f"{path}: /sampler/method: {sampler['method']!r} not in {METHODS}")
    samples = sampler["samples"]
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise NasflatError(f"{path}: /sampler/samples: must be an integer >= 1, got {samples!r}")
    return train, predictor, sampler


def _resolved_config(train: TrainConfig, predictor: PredictorConfig, space_id: str) -> dict:
    return {
        "version": CONFIG_VERSION,
        "space": space_id,
        "train": asdict(train),
        "predictor": asdict(predictor),
    }


def _load_split(path: str, table: LatencyTable, latency_path: str) -> DeviceSplit:
    """The device split at `path`; each of its devices must have rows in `table`."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        split = DeviceSplit.from_json(text)
    except KeyError as e:
        raise NasflatError(f"{path}: device split is missing key {e}") from None
    except BadField as e:
        raise NasflatError(f"{path}: {e}") from None
    except (TypeError, ValueError) as e:
        raise NasflatError(f"{path}: not a device split object: {e}") from None
    unknown = sorted(set(split.source + split.target) - set(table.devices()))
    if unknown:
        raise NasflatError(f"{path}: unknown device(s) {unknown}: no rows in {latency_path}")
    return split


def _arch_space_id(archs: list[Architecture]) -> str:
    ids = {a.space_id for a in archs}
    if len(ids) != 1:
        raise NasflatError(f"architecture file mixes spaces: {sorted(ids)}")
    return ids.pop()


def _load_encoding_arg(args) -> EncodingTable | None:
    if not getattr(args, "encoding", None):
        return None
    return load_encoding_table(args.encoding, getattr(args, "encoding_kind", "custom"), None)


# --- subcommands ----------------------------------------------------------

def cmd_synth(args) -> int:
    space = get_space(args.space)
    out_dir = Path(args.out_dir)
    devices = mixed_family(space, args.devices, args.seed, sigma=args.sigma)
    table, archs = gen_dataset(space, devices, args.archs, args.seed, out_dir=out_dir)
    save_encoding_table(proxy_table(archs, space), out_dir / "zcp.csv")
    _write_json(
        out_dir / "devices.json",
        {
            "space": space.space_id,
            "devices": [
                {"device_id": d.device_id, "seed": d.seed, "noise_sigma": d.noise_sigma}
                for d in devices
            ],
        },
    )
    outputs = [out_dir / n for n in ("archs.jsonl", "latency.csv", "zcp.csv", "devices.json")]
    config = {"space": args.space, "devices": args.devices, "archs": args.archs, "sigma": args.sigma}
    _write_manifest("synth", out_dir / "manifest.json", config, [], args.seed, outputs)
    print(f"wrote {len(archs)} archs x {len(devices)} devices -> {out_dir}")
    return EXIT_OK


def cmd_partition(args) -> int:
    table = LatencyTable.load_csv(args.latency)
    graph = CorrelationGraph.from_latency_table(table)
    sides = kl_bisect(graph, args.seed)
    split = prune_to_sizes(sides, args.m, args.n, graph)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(split.to_json() + "\n", encoding="utf-8")
    _write_manifest(
        "partition", Path(str(out) + ".manifest.json"),
        {"m": args.m, "n": args.n}, [Path(args.latency)], args.seed, [out],
    )
    print(f"source={list(split.source)} target={list(split.target)} objective={split.objective:.4f}")
    return EXIT_OK


def cmd_sample(args) -> int:
    archs = read_architectures(args.archs)
    space = get_space(_arch_space_id(archs))
    encoding = _load_encoding_arg(args)
    reference = LatencyTable.load_csv(args.latency) if args.latency else None
    picked = run_sampler(
        args.method, archs, args.n, args.seed,
        space=space, encoding=encoding, reference_latencies=reference,
    )
    out = Path(args.out)
    _write_json(out, {"method": args.method, "n": args.n, "arch_ids": picked})
    inputs = [Path(args.archs)] + [Path(p) for p in (args.encoding, args.latency) if p]
    _write_manifest(
        "sample", Path(str(out) + ".manifest.json"),
        {"method": args.method, "n": args.n}, inputs, args.seed, [out],
    )
    print(f"sampled {len(picked)} archs -> {out}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    archs = read_architectures(args.archs)
    space = get_space(_arch_space_id(archs))
    train_cfg, pred_cfg, _ = _load_run_config(args.config, space.space_id)
    table = LatencyTable.load_csv(args.latency)
    split = _load_split(args.split, table, args.latency)
    encodings = _load_encoding_arg(args)
    pred_cfg = replace(pred_cfg, supplementary_dim=0 if encodings is None else encodings.dim)
    archmap = {a.arch_id: a for a in archs}
    seed = stable_seed("pretrain", args.seed)
    state = init_predictor(pred_cfg, [space], list(split.source), seed=seed)
    live = state.live_slots[space.space_id]
    if not live:
        raise NasflatError(
            f"{args.config}: /predictor: no op slot of {space.space_id} "
            f"reaches the score with ophw_gcn_dims {list(pred_cfg.ophw_gcn_dims)} and "
            f"gcn_dims {list(pred_cfg.gcn_dims)}, so every architecture would score the same"
        )
    try:
        state, log = pretrain(
            state, table, list(split.source), archmap, train_cfg, encodings=encodings, seed=seed,
        )
    except BudgetTooSmall as e:
        raise NasflatError(f"{args.config}: {e}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(state, out, extra={
        "stage": "pretrain", "source_devices": list(split.source), "live_slots": list(live),
    })
    inputs = [Path(p) for p in (args.latency, args.archs, args.split, args.config, args.encoding) if p]
    _write_manifest(
        "pretrain", Path(str(out) + ".manifest.json"),
        _resolved_config(train_cfg, pred_cfg, space.space_id), inputs, args.seed,
        [out, checkpoint_meta_path(out)],
    )
    first = log[0] if log else float("nan")
    last = log[-1] if log else float("nan")
    print(f"pretrained {train_cfg.epochs} epochs on {len(split.source)} devices "
          f"(loss {first:.4f} -> {last:.4f}) -> {out}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    archs = read_architectures(args.archs)
    space = get_space(_arch_space_id(archs))
    train_cfg, _, sampler_cfg = _load_run_config(args.config, space.space_id)
    args.sampler = args.sampler or sampler_cfg["method"]
    if args.samples is None:
        args.samples = sampler_cfg["samples"]
    table = LatencyTable.load_csv(args.latency)
    split = _load_split(args.split, table, args.latency)
    encodings = _load_encoding_arg(args)
    sampler_encoding = encodings
    if args.sampler_encoding:
        sampler_encoding = load_encoding_table(args.sampler_encoding, "custom", None)
    archmap = {a.arch_id: a for a in archs}
    targets = [args.target] if args.target else list(split.target)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base, _ = load_checkpoint(args.checkpoint)
    reference = table.subset(device_ids=split.source)

    def adapt(device: str) -> list[Path]:
        pool = [a for a in archs if table.has(a.arch_id, device)]
        picked = run_sampler(
            args.sampler, pool, args.samples,
            seed=stable_seed("sample", args.seed, device, args.sampler),
            space=space, encoding=sampler_encoding, reference_latencies=reference,
        )
        state, warm_start = transfer(
            base, device, table, picked, list(split.source), archmap, train_cfg,
            encodings=encodings, seed=stable_seed("transfer", args.seed, device),
        )
        ckpt = out_dir / f"transfer_{device}.json"
        save_checkpoint(
            state, ckpt,
            extra={
                "stage": "transfer",
                "target_device": device,
                "source_devices": list(split.source),
                "sampler": args.sampler,
                "samples": args.samples,
                "sampled_ids": sorted(picked),
                "warm_start_source": warm_start,
                "live_slots": list(state.live_slots[space.space_id]),
            },
        )
        return [ckpt, checkpoint_meta_path(ckpt)]

    outputs = [path for paths in map_targets(adapt, targets) for path in paths]
    inputs = [Path(p) for p in (args.latency, args.archs, args.split, args.checkpoint, args.config) if p]
    _write_manifest(
        "transfer", out_dir / "manifest.json",
        _resolved_config(train_cfg, base.config, space.space_id), inputs, args.seed, outputs,
    )
    print(f"transferred to {len(targets)} device(s) with {args.samples} samples each -> {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    archs = read_architectures(args.archs)
    table = LatencyTable.load_csv(args.latency)
    archmap = {a.arch_id: a for a in archs}
    encodings = _load_encoding_arg(args)
    ckpt_path = Path(args.checkpoint)
    ckpts = sorted(ckpt_path.glob("transfer_*.json")) if ckpt_path.is_dir() else [ckpt_path]
    metas = {checkpoint_meta_path(p) for p in ckpts}
    ckpts = [p for p in ckpts if p not in metas]
    if not ckpts:
        raise NasflatError(f"no checkpoints found at {ckpt_path}")
    entries = []
    scatter_lines = ["device_id,arch_id,pred,truth"]
    for ckpt in ckpts:
        state, extra = load_checkpoint(ckpt)
        device = args.device or extra.get("target_device")
        if device is None:
            raise NasflatError(f"{ckpt}: no target device recorded; pass --device")
        entry = evaluate(
            state, device, table, archmap, encodings=encodings,
            trial=args.trial, n_target_samples=int(extra.get("samples", 0)),
            exclude=() if args.include_sampled else extra.get("sampled_ids", []),
        )
        for arch_id, pred, truth in zip(entry.arch_ids, entry.preds, entry.truths):
            scatter_lines.append(f"{device},{arch_id},{repr(float(pred))},{repr(float(truth))}")
        entries.append(entry)
    report = EvalReport.from_entries(entries)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = Path(str(prefix) + ".csv")
    json_path = Path(str(prefix) + ".json")
    scatter_path = Path(str(prefix) + ".scatter.csv")
    csv_path.write_text(report.csv_text(), encoding="utf-8")
    _write_json(json_path, report.summary())
    scatter_path.write_text("\n".join(scatter_lines) + "\n", encoding="utf-8")
    inputs = [Path(args.latency), Path(args.archs)] + ckpts
    _write_manifest(
        "eval", Path(str(prefix) + ".manifest.json"),
        {"checkpoints": [str(c) for c in ckpts]}, inputs, args.seed,
        [csv_path, json_path, scatter_path],
    )
    print(f"mean spearman {report.mean_spearman:.4f} over {len(entries)} device(s) -> {csv_path}")
    return EXIT_OK


def synthetic_accuracy_oracle(seed: int):
    """Deterministic per-architecture pseudo-accuracy in [0, 1]."""

    def oracle(arch: Architecture) -> float:
        return float(rng_for("accuracy", seed, arch.arch_id).uniform(0.0, 1.0))

    return oracle


def cmd_search(args) -> int:
    archs = read_architectures(args.archs)
    _arch_space_id(archs)
    state, extra = load_checkpoint(args.checkpoint)
    device = args.device or extra.get("target_device")
    if device is None:
        raise NasflatError("no target device recorded in checkpoint; pass --device")
    encodings = _load_encoding_arg(args)
    calibration = None
    if args.latency:
        table = LatencyTable.load_csv(args.latency)
        sampled = extra.get("sampled_ids") or table.archs_for(device)
        calibration = table.subset(device_ids=[device], arch_ids=sampled)
    archmap = {a.arch_id: a for a in archs}
    result = latency_constrained_search(
        archs, synthetic_accuracy_oracle(args.seed), state, device,
        args.constraint_ms, args.top_k, encodings=encodings,
        calibration=calibration, archs_by_id=archmap,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["rank,arch_id,accuracy,predicted_latency_ms"]
    for rank, arch_id in enumerate(result.ranked, start=1):
        lines.append(
            f"{rank},{arch_id},{repr(result.accuracy[arch_id])},{repr(result.predicted_latency[arch_id])}"
        )
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    timing = {
        "predictor_time_s": result.predictor_time_s,
        "search_time_s": result.total_time_s - result.predictor_time_s,
        "total_time_s": result.total_time_s,
    }
    _write_json(Path(str(out) + ".timing.json"), timing)
    inputs = [Path(args.archs), Path(args.checkpoint)] + ([Path(args.latency)] if args.latency else [])
    _write_manifest(
        "search", Path(str(out) + ".manifest.json"),
        {"constraint_ms": args.constraint_ms, "top_k": args.top_k, "device": device},
        inputs, args.seed,
        [out, Path(str(out) + ".timing.json")],
    )
    print(f"top-{len(result.ranked)} feasible archs -> {out} "
          f"(predictor {result.predictor_time_s:.3f}s / total {result.total_time_s:.3f}s)")
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nasflat",
        description="Train, transfer, and evaluate few-shot hardware latency predictors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic device/latency dataset")
    p.add_argument("--space", required=True, choices=("nb201", "fbnet"))
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--archs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.03, help="log-normal noise sigma")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="split devices into source/target pools")
    p.add_argument("--latency", required=True)
    p.add_argument("--m", type=int, required=True, help="source pool size")
    p.add_argument("--n", type=int, required=True, help="target pool size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sample", help="select architectures to measure")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--archs", required=True, help="candidate pool (JSONL)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--encoding", help="encoding CSV for cosine/kmeans")
    p.add_argument("--encoding-kind", default="custom")
    p.add_argument("--latency", help="reference latency CSV for latency_oracle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pretrain", help="pretrain on the source devices")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--latency", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--encoding-kind", default="custom")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("transfer", help="few-shot adapt to target device(s)")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--latency", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--sampler", default=None, choices=METHODS,
                   help="overrides the config's sampler section (default random)")
    p.add_argument("--samples", type=int, default=None,
                   help="overrides the config's sampler section (default 20)")
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--encoding-kind", default="custom")
    p.add_argument("--sampler-encoding", help="encoding CSV for the sampler only")
    p.add_argument("--target", help="single target device (default: all in split)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", help="report Spearman on held-out measurements")
    p.add_argument("--latency", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--checkpoint", required=True, help="transfer checkpoint file or directory")
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--encoding-kind", default="custom")
    p.add_argument("--device", help="override the device recorded in the checkpoint")
    p.add_argument("--include-sampled", action="store_true",
                   help="do not exclude transfer samples from the held-out set")
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="latency-constrained search demo")
    p.add_argument("--archs", required=True, help="candidate pool (JSONL)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--latency", help="measured samples CSV for score->ms calibration")
    p.add_argument("--device")
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--encoding-kind", default="custom")
    p.add_argument("--constraint-ms", type=float, required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NasflatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # pragma: no cover - internal failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
