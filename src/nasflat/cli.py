"""Command-line front end.

Subcommands: synth, partition, sample, pretrain, transfer, eval, search.
A run resolves one config, derives all randomness from --seed, writes its
outputs byte-identically for identical inputs, and records a manifest:
command, config, seed, outputs and, as `inputs`, the SHA-256 of the bytes of
each file its loaders read, checkpoint metas included; only it has a timestamp.
Each subcommand imports the modules it runs; `import nasflat.cli` loads no numpy.

Exit codes: 0 success, 2 usage error, 3 data/input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import SAMPLER_METHODS, __version__
from .errors import (
    BadField,
    BudgetTooSmall,
    ConstantInput,
    EmptyFeasibleSet,
    InsufficientData,
    InsufficientOverlap,
    LengthMismatch,
    MissingReference,
    NasflatError,
    NonFiniteValue,
    SideTooSmall,
    TooFewDevices,
)
from .inputs import is_finite_number, load_json, open_text, recording

if TYPE_CHECKING:
    from .archspace import Architecture, EncodingTable, SearchSpace
    from .devicesets import DeviceSplit, LatencyTable
    from .pipeline import TrainConfig
    from .predictor import PredictorConfig, PredictorState

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4

CONFIG_VERSION = 1
SAMPLER_DEFAULTS = {"method": "random", "samples": 20}
ENCODING_SAMPLERS = ("cosine", "kmeans")  # the samplers that read an encoding CSV


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_manifest(args, command: str, manifest_path: Path, config: dict, outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": args.inputs,
        "master_seed": args.seed,
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
    """Resolve the run config: (train, predictor, the sampler fields the file sets).

    Schema violations are reported with JSON pointer paths. A `space` key must
    be `space_id`, the architectures' space. supplementary_dim is not a field:
    `pretrain` takes it from --encoding. CLI flags override the sampler.
    """
    from .archspace import get_space
    from .pipeline import TrainConfig
    from .predictor import PredictorConfig

    space = get_space(space_id)
    if path is None:
        return TrainConfig.for_space(space), PredictorConfig(), {}
    try:
        doc = load_json(open_text(path).read())
    except ValueError as e:
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
    method = sampler_section.get("method", SAMPLER_DEFAULTS["method"])
    if method not in SAMPLER_METHODS:
        raise NasflatError(f"{path}: /sampler/method: {method!r} not in {SAMPLER_METHODS}")
    samples = sampler_section.get("samples", SAMPLER_DEFAULTS["samples"])
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise NasflatError(f"{path}: /sampler/samples: must be an integer >= 2, got {samples!r}")
    return train, predictor, sampler_section


def _resolved_config(train: TrainConfig, predictor: PredictorConfig, space_id: str) -> dict:
    """The run config a manifest records; given back as --config, it replays the run.
    It leaves out supplementary_dim, which is not a config field but the --encoding width."""
    return {
        "version": CONFIG_VERSION,
        "space": space_id,
        "train": asdict(train),
        "predictor": {k: v for k, v in asdict(predictor).items() if k != "supplementary_dim"},
    }


def _load_split(path: str, table: LatencyTable, latency_path: str) -> DeviceSplit:
    """The device split at `path`; each of its devices must have rows in `table`."""
    from .devicesets import DeviceSplit

    try:
        split = DeviceSplit.from_json(open_text(path).read())
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


def _scored_device(flag: str | None, extra: dict, state: PredictorState, ckpt) -> str:
    """--device, else the target device checkpoint `ckpt` records; either must
    have a hardware row in it."""
    device = flag or extra.get("target_device")
    if device is None:
        raise NasflatError(f"{ckpt}: no target device recorded; pass --device")
    if device not in state.device_index:
        raise NasflatError(f"{ckpt}: device {device!r} has no hardware row; it has "
                           f"{sorted(state.device_index)}")
    return device


def _load_archs(path: str) -> tuple[list[Architecture], SearchSpace]:
    """The distinct architectures at `path`, first line first, and their space:
    at least one, all of one space."""
    from .archspace import get_space, read_architectures

    by_id: dict[str, Architecture] = {}
    for arch in read_architectures(path):
        by_id.setdefault(arch.arch_id, arch)  # a line listed twice counts once
    archs = list(by_id.values())
    ids = {a.space_id for a in archs}
    if not ids:
        raise NasflatError(f"{path}: holds no architectures")
    if len(ids) != 1:
        raise NasflatError(f"{path}: architecture file mixes spaces: {sorted(ids)}")
    return archs, get_space(ids.pop())


def _load_encoding(path: str | None, archs: Sequence[Architecture] = ()) -> EncodingTable | None:
    """The encoding CSV at `path`, if any; it must have a row for each of `archs`."""
    from .archspace import load_encoding_table

    if path is None:
        return None
    table = load_encoding_table(path)
    missing = next((a.arch_id for a in archs if a.arch_id not in table), None)
    if missing is not None:
        raise NasflatError(f"{path}: no row for arch {missing}")
    return table


def _check_width(path: str | None, encodings: EncodingTable | None, state: PredictorState, ckpt) -> None:
    """--encoding must be as wide as the checkpoint's supplementary input; no file is width 0."""
    width = 0 if encodings is None else encodings.dim
    want = state.config.supplementary_dim
    if width != want:
        given = f"--encoding {path} has width {width}" if path else "no --encoding (width 0)"
        raise NasflatError(f"{given}, but checkpoint {ckpt} has supplementary_dim {want}")


# --- subcommands ----------------------------------------------------------

def cmd_synth(args) -> int:
    from .archspace import get_space, proxy_table, save_encoding_table
    from .synthbench import gen_dataset, mixed_family

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
    _write_manifest(args, "synth", out_dir / "manifest.json", config, outputs)
    print(f"wrote {len(archs)} archs x {len(devices)} devices -> {out_dir}")
    return EXIT_OK


def cmd_partition(args) -> int:
    from .devicesets import LatencyTable, partition

    table = LatencyTable.load_csv(args.latency)
    try:
        split = partition(table, args.m, args.n, args.seed)
    except (ConstantInput, InsufficientOverlap, TooFewDevices) as e:
        raise NasflatError(f"{args.latency}: {e}") from None
    except SideTooSmall as e:
        raise NasflatError(f"--m {args.m} --n {args.n}: {e}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(split.to_json() + "\n", encoding="utf-8")
    _write_manifest(args, "partition", Path(f"{out}.manifest.json"), {"m": args.m, "n": args.n}, [out])
    print(f"source={list(split.source)} target={list(split.target)} objective={split.objective:.4f}")
    return EXIT_OK


def cmd_sample(args) -> int:
    from .devicesets import LatencyTable
    from .sampler import run_sampler

    archs, space = _load_archs(args.archs)
    if args.n > len(archs):
        raise NasflatError(f"--n {args.n}: {args.archs} holds only {len(archs)} distinct archs")
    if args.method == "latency_oracle" and not args.latency:
        raise NasflatError("--method latency_oracle needs --latency")
    reads_encoding = args.method in ENCODING_SAMPLERS
    if reads_encoding and not args.encoding:
        raise NasflatError(f"--method {args.method} needs --encoding")
    encoding = _load_encoding(args.encoding, archs if reads_encoding else ())
    reference = LatencyTable.load_csv(args.latency) if args.latency else None
    try:
        picked = run_sampler(
            args.method, archs, args.n, args.seed,
            space=space, encoding=encoding, reference_latencies=reference,
        )
    except MissingReference as e:
        raise NasflatError(f"{args.latency}: {e}") from None
    out = Path(args.out)
    _write_json(out, {"method": args.method, "n": args.n, "arch_ids": picked})
    _write_manifest(args, "sample", Path(f"{out}.manifest.json"), {"method": args.method, "n": args.n}, [out])
    print(f"sampled {len(picked)} archs -> {out}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    from .devicesets import LatencyTable
    from .pipeline import pretrain
    from .predictor import checkpoint_meta_path, init_predictor, save_checkpoint
    from .rng import stable_seed

    archs, space = _load_archs(args.archs)
    train_cfg, pred_cfg, _ = _load_run_config(args.config, space.space_id)
    table = LatencyTable.load_csv(args.latency)
    split = _load_split(args.split, table, args.latency)
    encodings = _load_encoding(args.encoding, archs)
    pred_cfg = replace(pred_cfg, supplementary_dim=0 if encodings is None else encodings.dim)
    archmap = {a.arch_id: a for a in archs}
    seed = stable_seed("pretrain", args.seed)
    state = init_predictor(pred_cfg, [space], list(split.source), seed=seed)
    if not state.live_slots:
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
        "stage": "pretrain", "source_devices": list(split.source), "live_slots": list(state.live_slots),
    })
    _write_manifest(
        args, "pretrain", Path(f"{out}.manifest.json"),
        _resolved_config(train_cfg, pred_cfg, space.space_id), [out, checkpoint_meta_path(out)],
    )
    first = log[0] if log else float("nan")
    last = log[-1] if log else float("nan")
    print(f"pretrained {train_cfg.epochs} epochs on {len(split.source)} devices "
          f"(loss {first:.4f} -> {last:.4f}) -> {out}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    from .devicesets import LatencyTable
    from .pipeline import map_targets, transfer
    from .predictor import checkpoint_meta_path, load_checkpoint, save_checkpoint
    from .rng import stable_seed
    from .sampler import run_sampler

    archs, space = _load_archs(args.archs)
    train_cfg, _, sampler_cfg = _load_run_config(args.config, space.space_id)
    args.sampler = args.sampler or sampler_cfg.get("method", SAMPLER_DEFAULTS["method"])
    if args.samples:  # a flag is >= 2, never 0
        where = "--samples"
    elif "samples" in sampler_cfg:
        where, args.samples = f"{args.config}: /sampler/samples", sampler_cfg["samples"]
    else:
        where, args.samples = "default --samples", SAMPLER_DEFAULTS["samples"]
    if args.sampler in ENCODING_SAMPLERS and not args.sampler_encoding:
        raise NasflatError(f"--sampler {args.sampler} needs --sampler-encoding")
    table = LatencyTable.load_csv(args.latency)
    split = _load_split(args.split, table, args.latency)
    if args.target in split.source:
        raise NasflatError(f"--target {args.target!r} is a source device of {args.split}")
    if args.target and args.target not in table.devices():
        raise NasflatError(f"--target {args.target!r} has no rows in {args.latency}")
    targets = [args.target] if args.target else list(split.target)
    archmap = {a.arch_id: a for a in archs}
    pools = {device: [archmap[a] for a in table.measured(device, archmap)[0]] for device in targets}
    for device, pool in pools.items():
        if args.samples > len(pool):
            raise NasflatError(
                f"{where} {args.samples}: target {device!r} has only {len(pool)} "
                f"archs of {args.archs} measured in {args.latency}"
            )
    base, _ = load_checkpoint(args.checkpoint)
    encodings = _load_encoding(args.encoding, archs)
    _check_width(args.encoding, encodings, base, args.checkpoint)
    same = args.sampler_encoding == args.encoding  # read a file given twice once
    reads = args.sampler in ENCODING_SAMPLERS  # then it reads the rows of the target pools' archs
    pooled = {a.arch_id for pool in pools.values() for a in pool}
    sampler_encoding = encodings if same else _load_encoding(
        args.sampler_encoding, [a for a in archs if reads and a.arch_id in pooled])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = table.subset(device_ids=split.source) if args.sampler == "latency_oracle" else None

    def adapt(device: str) -> list[Path]:
        picked = run_sampler(
            args.sampler, pools[device], args.samples,
            seed=stable_seed("sample", args.seed, device, args.sampler),
            space=space, encoding=sampler_encoding, reference_latencies=reference,
        )
        try:
            state, warm_start = transfer(
                base, device, table, picked, list(split.source), archmap, train_cfg,
                encodings=encodings, seed=stable_seed("transfer", args.seed, device),
            )
        except ConstantInput as e:  # the warm start's
            raise NasflatError(f"{args.latency}: {e}") from None
        except NonFiniteValue as e:  # the fine-tuning's, from the checkpoint's weights
            raise NasflatError(f"{args.checkpoint}: {e}") from None
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
                "live_slots": list(state.live_slots),
            },
        )
        return [ckpt, checkpoint_meta_path(ckpt)]

    outputs = [path for paths in map_targets(adapt, targets) for path in paths]
    config = _resolved_config(train_cfg, base.config, space.space_id)
    config["sampler"] = {"method": args.sampler, "samples": args.samples}
    _write_manifest(args, "transfer", out_dir / "manifest.json", config, outputs)
    print(f"transferred to {len(targets)} device(s) with {args.samples} samples each -> {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .devicesets import LatencyTable
    from .pipeline import EvalReport, evaluate
    from .predictor import checkpoint_meta_path, load_checkpoint

    archs, _ = _load_archs(args.archs)
    table = LatencyTable.load_csv(args.latency)
    archmap = {a.arch_id: a for a in archs}
    encodings = _load_encoding(args.encoding, archs)
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
        _check_width(args.encoding, encodings, state, ckpt)
        device = _scored_device(args.device, extra, state, ckpt)
        try:
            entry = evaluate(
                state, device, table, archmap, encodings=encodings,
                trial=args.trial, n_target_samples=extra.get("samples", 0),
                exclude=extra.get("sampled_ids", []),
            )
        except (ConstantInput, LengthMismatch, NonFiniteValue) as e:  # the scores' or the Spearman's
            raise NasflatError(f"{ckpt}: {e}") from None
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
    _write_manifest(args, "eval", Path(f"{prefix}.manifest.json"),
                    {"checkpoints": [str(c) for c in ckpts]}, [csv_path, json_path, scatter_path])
    print(f"mean spearman {report.mean_spearman:.4f} over {len(entries)} device(s) -> {csv_path}")
    return EXIT_OK


def synthetic_accuracies(archs: Sequence[Architecture], seed: int) -> dict[str, float]:
    """Deterministic pseudo-accuracy in (0, 1) per arch_id: its uniform keyed
    by ("accuracy", seed, arch_id)."""
    from .rng import keyed_uniforms

    ids = [a.arch_id for a in archs]
    return dict(zip(ids, keyed_uniforms(("accuracy", seed), ids, 1)[:, 0].tolist()))


def cmd_search(args) -> int:
    from .devicesets import LatencyTable
    from .pipeline import latency_constrained_search
    from .predictor import load_checkpoint

    archs, _ = _load_archs(args.archs)
    state, extra = load_checkpoint(args.checkpoint)
    encodings = _load_encoding(args.encoding, archs)
    _check_width(args.encoding, encodings, state, args.checkpoint)
    device = _scored_device(args.device, extra, state, args.checkpoint)
    archmap = {a.arch_id: a for a in archs}
    calibration = None
    if args.latency:  # the checkpoint's samples in --archs that are measured on the device
        table = LatencyTable.load_csv(args.latency)
        sampled = [a for a in extra.get("sampled_ids") or archmap if a in archmap]
        calibration = dict(zip(*table.measured(device, sampled)))
    accuracy = synthetic_accuracies(archs, args.seed)
    try:
        result = latency_constrained_search(
            archs, accuracy, state, device, args.constraint_ms, args.top_k,
            encodings=encodings, calibration=calibration,
        )
    except InsufficientData as e:  # the calibration's
        raise NasflatError(f"{args.latency}: {e}") from None
    except (EmptyFeasibleSet, NonFiniteValue) as e:  # the checkpoint's scores
        raise NasflatError(f"{args.checkpoint}: {e}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["rank,arch_id,accuracy,predicted_latency_ms"]
    for rank, arch_id in enumerate(result.ranked, start=1):
        lines.append(
            f"{rank},{arch_id},{repr(accuracy[arch_id])},{repr(result.predicted_latency[arch_id])}"
        )
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    timing = {
        "predictor_time_s": result.predictor_time_s,
        "search_time_s": result.total_time_s - result.predictor_time_s,
        "total_time_s": result.total_time_s,
    }
    _write_json(Path(str(out) + ".timing.json"), timing)
    _write_manifest(args, "search", Path(f"{out}.manifest.json"),
                    {"constraint_ms": args.constraint_ms, "top_k": args.top_k, "device": device},
                    [out, Path(f"{out}.timing.json")])
    print(f"top-{len(result.ranked)} feasible archs -> {out} "
          f"(predictor {result.predictor_time_s:.3f}s / total {result.total_time_s:.3f}s)")
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def _at_least(low: int, number: type = int):
    """argparse type: a `number` (int or float) >= low, within the float range."""
    def parse(text: str):
        value = number(text)
        if not is_finite_number(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value
    parse.__name__ = number.__name__  # argparse's "invalid <name> value" message
    return parse


def _not_nan(text: str) -> float:
    """argparse type: a float that is not NaN (infinities are bounds too)."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"must be a number, got {text}")
    return value


_not_nan.__name__ = "float"  # argparse's "invalid float value" message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nasflat",
        description="Train, transfer, and evaluate few-shot hardware latency predictors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic device/latency dataset")
    p.add_argument("--space", required=True, choices=("nb201", "fbnet"))
    p.add_argument("--devices", type=_at_least(1), required=True)
    p.add_argument("--archs", type=_at_least(1), required=True,
                   help="distinct archs to draw, at most the size of the space")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=_at_least(0, float), default=0.03, help="log-normal noise sigma")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="split devices into source/target pools")
    p.add_argument("--latency", required=True)
    p.add_argument("--m", type=_at_least(1), required=True, help="source pool size")
    p.add_argument("--n", type=_at_least(1), required=True, help="target pool size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sample", help="select architectures to measure")
    p.add_argument("--method", required=True, choices=SAMPLER_METHODS)
    p.add_argument("--archs", required=True, help="candidate pool (JSONL)")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--encoding", help="encoding CSV for cosine/kmeans")
    p.add_argument("--latency", help="reference latency CSV for latency_oracle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pretrain", help="pretrain on the source devices")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--latency", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("transfer", help="few-shot adapt to target device(s)")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--latency", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--sampler", default=None, choices=SAMPLER_METHODS,
                   help="overrides the config's sampler section (default random)")
    p.add_argument("--samples", type=_at_least(2), default=None,
                   help="overrides the config's sampler section (default 20)")
    p.add_argument("--encoding", help="supplementary encoding CSV, as wide as the checkpoint's")
    p.add_argument("--sampler-encoding", help="encoding CSV for the cosine/kmeans sampler")
    p.add_argument("--target", help="single target device (default: all in split)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", help="report Spearman on held-out measurements")
    p.add_argument("--latency", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--checkpoint", required=True, help="transfer checkpoint file or directory")
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--device", help="override the device recorded in the checkpoint")
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest only: eval draws nothing at random")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="latency-constrained search demo")
    p.add_argument("--archs", required=True, help="candidate pool (JSONL)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--latency", help="measured samples CSV for score->ms calibration")
    p.add_argument("--device")
    p.add_argument("--encoding", help="supplementary encoding CSV")
    p.add_argument("--constraint-ms", type=_not_nan, required=True,
                   help="latency bound in ms (score units without --latency); inf ranks by accuracy")
    p.add_argument("--top-k", type=_at_least(1), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with recording() as args.inputs:  # what the loaders read, for the manifest
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
