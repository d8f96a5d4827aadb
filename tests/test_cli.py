"""End-to-end CLI tests: flows, manifests, idempotence, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nasflat import cli, pipeline
from nasflat.devicesets import DeviceSplit, LatencyTable
from nasflat.pipeline import TrainConfig
from nasflat.predictor import PredictorConfig, load_checkpoint, save_checkpoint
from nasflat import synthbench as sb
from nasflat import archspace as asp


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset + split + tiny pretrain, reused by the flows."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert run([
        "synth", "--space", "nb201", "--devices", "6", "--archs", "80",
        "--seed", "5", "--out-dir", str(data),
    ]) == 0
    split = root / "split.json"
    assert run([
        "partition", "--latency", str(data / "latency.csv"),
        "--m", "3", "--n", "2", "--seed", "1", "--out", str(split),
    ]) == 0
    config = root / "run.json"
    config.write_text(json.dumps({
        "version": 1,
        "train": {"epochs": 3, "source_samples": 60, "transfer_epochs": 6},
        "predictor": {},
    }))
    ckpt = root / "ckpt.json"
    assert run([
        "pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--seed", "3", "--out", str(ckpt),
    ]) == 0
    return root, data, split, config, ckpt


def test_synth_outputs_and_manifest(workspace):
    _, data, _, _, _ = workspace
    for name in ("archs.jsonl", "latency.csv", "zcp.csv", "devices.json", "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["master_seed"] == 5
    assert "timestamp" in manifest


def test_synth_idempotent(tmp_path):
    args = ["synth", "--space", "nb201", "--devices", "3", "--archs", "30", "--seed", "9"]
    assert run(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("archs.jsonl", "latency.csv", "zcp.csv", "devices.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_missing_out_dir_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--space", "nb201", "--devices", "3", "--archs", "10"])
    assert exc.value.code == 2


def test_partition_separates_planted_pairs(tmp_path):
    nb = asp.nb201_space()
    table = LatencyTable()
    devices = []
    for p in range(2):
        parent = sb.gen_device(300 + p * 10, nb, device_id=f"p{p}a", sigma=0.01)
        clone = sb.gen_device(
            301 + p * 10, nb, device_id=f"p{p}b", sigma=0.01,
            clone_of=parent, cost_jitter=0.02,
        )
        devices += [parent, clone]
    archs = sb.distinct_random_architectures(nb, 100, seed=1)
    table = sb.measure(archs, devices, nb)
    lat = tmp_path / "latency.csv"
    table.save_csv(lat)
    out = tmp_path / "split.json"
    assert run(["partition", "--latency", str(lat), "--m", "2", "--n", "2",
                "--seed", "0", "--out", str(out)]) == 0
    split = DeviceSplit.from_json(out.read_text())
    # correlated pairs must be separated across the two pools
    for p in range(2):
        assert (f"p{p}a" in split.source) != (f"p{p}b" in split.source)
    assert not set(split.source) & set(split.target)


def test_partition_oversized_request_fails_with_data_exit(workspace):
    root, data, _, _, _ = workspace
    code = run(["partition", "--latency", str(data / "latency.csv"),
                "--m", "5", "--n", "3", "--seed", "1", "--out", str(root / "x.json")])
    assert code == 3


def test_partition_output_revalidates(workspace):
    root, _, split, _, _ = workspace
    parsed = DeviceSplit.from_json(split.read_text())
    assert len(parsed.source) == 3 and len(parsed.target) == 2
    assert not set(parsed.source) & set(parsed.target)
    assert -1.0 <= parsed.objective <= 1.0


def test_sample_command_and_unknown_method(workspace, tmp_path):
    _, data, _, _, _ = workspace
    out = tmp_path / "sel.json"
    assert run(["sample", "--method", "cosine", "--archs", str(data / "archs.jsonl"),
                "--encoding", str(data / "zcp.csv"), "--n", "10", "--seed", "2",
                "--out", str(out)]) == 0
    sel = json.loads(out.read_text())
    assert len(sel["arch_ids"]) == 10
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--method", "bogus", "--archs", str(data / "archs.jsonl"),
             "--n", "5", "--out", str(out)])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def transfers(workspace):
    """Cosine-sampled transfer of the workspace checkpoint to both targets."""
    root, data, split, config, ckpt = workspace
    tdir = root / "transfers"
    assert run([
        "transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--checkpoint", str(ckpt), "--sampler", "cosine",
        "--sampler-encoding", str(data / "zcp.csv"),
        "--samples", "20", "--seed", "3", "--out-dir", str(tdir),
    ]) == 0
    return tdir


def test_transfer_eval_flow_records_sample_count(workspace, transfers):
    root, data, _, _, _ = workspace
    tdir = transfers
    ckpts = sorted(tdir.glob("transfer_*.json"))
    ckpts = [c for c in ckpts if not c.name.endswith(".meta.json")]
    assert len(ckpts) == 2  # both split targets
    manifest = json.loads((tdir / "manifest.json").read_text())
    assert "threads" not in manifest

    prefix = root / "report"
    assert run([
        "eval", "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--checkpoint", str(tdir),
        "--seed", "3", "--out-prefix", str(prefix),
    ]) == 0
    summary = json.loads(Path(str(prefix) + ".json").read_text())
    assert summary["target_samples_used"] == [20]
    assert "mean_spearman" in summary
    assert summary["per_device"][0]["n_heldout"] == 60  # 80 archs - 20 sampled
    csv_text = Path(str(prefix) + ".csv").read_text()
    assert csv_text.startswith("device_id,trial,spearman")
    scatter = Path(str(prefix) + ".scatter.csv").read_text().splitlines()
    assert scatter[0] == "device_id,arch_id,pred,truth"
    assert len(scatter) == 1 + 2 * 60


def test_eval_idempotent(workspace, transfers):
    root, data, _, _, _ = workspace
    tdir = transfers
    for tag in ("r1", "r2"):
        assert run([
            "eval", "--latency", str(data / "latency.csv"),
            "--archs", str(data / "archs.jsonl"), "--checkpoint", str(tdir),
            "--seed", "3", "--out-prefix", str(root / f"rep_{tag}"),
        ]) == 0
    assert (root / "rep_r1.csv").read_bytes() == (root / "rep_r2.csv").read_bytes()
    assert (root / "rep_r1.json").read_bytes() == (root / "rep_r2.json").read_bytes()


def test_search_flow_and_timing(workspace, transfers):
    root, data, _, _, _ = workspace
    ckpts = sorted(transfers.glob("transfer_*.json"))
    ckpt = [c for c in ckpts if not c.name.endswith(".meta.json")][0]
    out = root / "results.csv"
    assert run([
        "search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
        "--latency", str(data / "latency.csv"),
        "--constraint-ms", "1e9", "--top-k", "5", "--seed", "7", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,arch_id,accuracy,predicted_latency_ms"
    assert len(lines) == 6
    accs = [float(l.split(",")[2]) for l in lines[1:]]
    assert accs == sorted(accs, reverse=True)  # pure accuracy ranking
    timing = json.loads(Path(str(out) + ".timing.json").read_text())
    assert timing["predictor_time_s"] > 0
    assert timing["search_time_s"] > 0

    code = run([
        "search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
        "--latency", str(data / "latency.csv"),
        "--constraint-ms=-1e9", "--top-k", "5", "--seed", "7",
        "--out", str(root / "none.csv"),
    ])
    assert code == 3  # EmptyFeasibleSet is a data error


def _edit_meta(ckpt, edit):
    """Apply `edit` to the parsed meta of `ckpt` and write it back."""
    meta_path = Path(str(ckpt) + ".meta.json")
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta, sort_keys=True))
    return meta_path


def _as_version_1(ckpt, archs):
    def edit(meta):
        meta["version"] = 1
        del meta["params_sha256"]
    return _edit_meta(ckpt, edit), "version 1"


def _wrong_version(ckpt, archs):
    return _edit_meta(ckpt, lambda meta: meta.update(version=9)), "version 9"


def _truncated(ckpt, archs):
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    return ckpt, "params_sha256"


def _digest_mismatch(ckpt, archs):
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 3] ^= 0x01
    ckpt.write_bytes(blob)
    return ckpt, "params_sha256"


def _short_param(ckpt, archs):
    blob = ckpt.read_bytes()[:-8]
    ckpt.write_bytes(blob)
    _edit_meta(ckpt, lambda meta: meta.update(params_sha256=hashlib.sha256(blob).hexdigest()))
    return ckpt, f"holds {len(blob)} bytes, the layout"


def _config_implies_other_layout(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta["config"].update(head_mlp_dims=[200, 200, 199]))
    return ckpt, f"the layout {meta_path} implies needs"


def _devices_imply_other_layout(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta["devices"].update(extra=len(meta["devices"])))
    return ckpt, f"the layout {meta_path} implies needs"


def _float_dims_in_meta(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta["config"].update(gcn_dims=[128, 128, 128.5]))
    return meta_path, "/config/gcn_dims/2: must be an integer, got 128.5"


def _missing_key(ckpt, archs):
    return _edit_meta(ckpt, lambda meta: meta.pop("config")), "missing keys ['config']"


def _missing_config_field(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta["config"].pop("leaky_slope"))
    return meta_path, "config is missing ['leaky_slope']"


def _missing_meta(ckpt, archs):
    meta_path = Path(str(ckpt) + ".meta.json")
    meta_path.unlink()
    return meta_path, "cannot read"


def _op_index_out_of_vocab(ckpt, archs):
    lines = archs.read_text().splitlines()
    obj = json.loads(lines[2])
    obj["ops"][0] = 5  # nb201 has 5 ops; 5 is the null-op row
    lines[2] = json.dumps(obj)
    archs.write_text("\n".join(lines) + "\n")
    return Path(f"{archs}:3"), "op 5 at slot 0"


@pytest.mark.parametrize("corrupt", [
    _as_version_1, _wrong_version, _truncated, _digest_mismatch, _short_param,
    _config_implies_other_layout, _devices_imply_other_layout, _float_dims_in_meta,
    _missing_key, _missing_config_field, _missing_meta, _op_index_out_of_vocab,
], ids=lambda f: f.__name__.strip("_"))
def test_unreadable_input_is_data_error(workspace, transfers, tmp_path, capsys, corrupt):
    """Bad checkpoints and JSONL archs exit 3 and name the file, not 4 or 0."""
    _, data, _, _, _ = workspace
    src = sorted(transfers.glob("transfer_*.json.meta.json"))[0]
    ckpt = tmp_path / src.name[: -len(".meta.json")]
    shutil.copy(transfers / ckpt.name, ckpt)
    shutil.copy(src, tmp_path / src.name)
    archs = tmp_path / "archs.jsonl"
    shutil.copy(data / "archs.jsonl", archs)
    named, why = corrupt(ckpt, archs)
    capsys.readouterr()
    code = run([
        "search", "--archs", str(archs), "--checkpoint", str(ckpt),
        "--constraint-ms", "1e9", "--top-k", "3", "--out", str(tmp_path / "r.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{named}:" in err and why in err, err
    assert not (tmp_path / "r.csv").exists()


def test_archs_from_another_space_are_data_error(transfers, tmp_path, capsys):
    """fbnet archs scored by an nb201 checkpoint exit 3 in search and eval, not 4."""
    fbnet = asp.fbnet_space()
    archs = [asp.random_architecture(fbnet, s) for s in range(6)]
    archs_path = tmp_path / "fbnet.jsonl"
    asp.write_architectures(archs, archs_path)
    meta = sorted(transfers.glob("transfer_*.json.meta.json"))[0]
    ckpt = transfers / meta.name[: -len(".meta.json")]
    device = json.loads(meta.read_text())["extra"]["target_device"]
    table = LatencyTable()
    for i, arch in enumerate(archs):
        table.add(arch.arch_id, device, 1.0 + i)
    table.save_csv(tmp_path / "latency.csv")
    for argv in (
        ["search", "--archs", str(archs_path), "--checkpoint", str(ckpt),
         "--constraint-ms", "1e9", "--top-k", "3", "--out", str(tmp_path / "r.csv")],
        ["eval", "--latency", str(tmp_path / "latency.csv"), "--archs", str(archs_path),
         "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "rep")],
    ):
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "['fbnet']; predictor built for ['nb201']" in err, err
    assert not list(tmp_path.glob("r.csv*")) and not list(tmp_path.glob("rep*"))

    mixed = tmp_path / "mixed.jsonl"
    asp.write_architectures(archs[:2] + [asp.random_architecture(asp.nb201_space(), 0)], mixed)
    code = run(["search", "--archs", str(mixed), "--checkpoint", str(ckpt),
                "--constraint-ms", "1e9", "--top-k", "3", "--out", str(tmp_path / "m.csv")])
    assert code == 3
    assert "architecture file mixes spaces: ['fbnet', 'nb201']" in capsys.readouterr().err


def _transfer_argv(workspace, out_dir, *extra):
    _, data, split, config, ckpt = workspace
    return [
        "transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--checkpoint", str(ckpt), "--samples", "8", "--seed", "4",
        "--out-dir", str(out_dir), *extra,
    ]


def test_transfer_records_warm_start_source(workspace, tmp_path):
    split = DeviceSplit.from_json(workspace[2].read_text())
    assert run(_transfer_argv(workspace, tmp_path)) == 0
    pretrained = json.loads(Path(str(workspace[4]) + ".meta.json").read_text())
    assert pretrained["extra"]["live_slots"] == [0, 1, 2, 3, 4, 5]
    for device in split.target:
        meta = json.loads((tmp_path / f"transfer_{device}.json.meta.json").read_text())
        assert meta["extra"]["warm_start_source"] in split.source
        assert meta["extra"]["live_slots"] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("space, predictor", [
    ("nb201", {"ophw_gcn_dims": [16], "gcn_dims": [16]}),
    ("fbnet", {"ophw_gcn_dims": []}),
], ids=["nb201_one_layer_stacks", "fbnet_no_refinement"])
def test_pretrain_without_live_slots_is_config_error(tmp_path, capsys, space, predictor):
    """A predictor whose sink sees no op slot scores every arch the same: exit 3, no checkpoint."""
    data = tmp_path / "data"
    assert run(["synth", "--space", space, "--devices", "3", "--archs", "20",
                "--seed", "1", "--out-dir", str(data)]) == 0
    split = tmp_path / "split.json"
    split.write_text(DeviceSplit(("d00", "d01"), ("d02",), 0.0).to_json())
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "train": {"epochs": 1}, "predictor": predictor}))
    capsys.readouterr()
    code = run(["pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(split),
                "--out", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    dims = f"ophw_gcn_dims {predictor['ophw_gcn_dims']} and gcn_dims {predictor.get('gcn_dims', [128, 128, 128])}"
    assert f"{config}: /predictor: no op slot of {space} reaches the score with {dims}" in err, err
    assert not (tmp_path / "c.json").exists()


def test_transfer_one_call_matches_per_target_calls(workspace, tmp_path):
    """Loading the checkpoint once for all targets changes no output byte."""
    split = DeviceSplit.from_json(workspace[2].read_text())
    assert run(_transfer_argv(workspace, tmp_path / "all")) == 0
    for device in split.target:
        assert run(_transfer_argv(workspace, tmp_path / device, "--target", device)) == 0
        for suffix in (".json", ".json.meta.json"):
            name = f"transfer_{device}{suffix}"
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / device / name).read_bytes()


# --- transfer adapts targets in forked workers -------------------------------------

@pytest.fixture(scope="module")
def wide_split(workspace):
    """The workspace's sources, with every other device (three) as a target."""
    root, data, split, _, _ = workspace
    sources = DeviceSplit.from_json(split.read_text()).source
    devices = LatencyTable.load_csv(data / "latency.csv").devices()
    path = root / "wide_split.json"
    path.write_text(DeviceSplit(sources, tuple(d for d in devices if d not in sources), 0.0).to_json())
    return path


def _wide_transfer_argv(workspace, wide_split, out_dir, samples="8"):
    argv = _transfer_argv(workspace, out_dir)
    argv[argv.index("--split") + 1] = str(wide_split)
    argv[argv.index("--samples") + 1] = samples
    return argv


def _transfer_outputs(out_dir) -> dict:
    """Every output's bytes; the manifest without its timestamp or output directory."""
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["timestamp"]
    manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
    files["manifest.json"] = manifest
    return files


@pytest.fixture(scope="module")
def wide_transfer(workspace, wide_split, tmp_path_factory):
    """The outputs of a default `cli.main` transfer to the three wide-split targets."""
    out = tmp_path_factory.mktemp("wide")
    assert run(_wide_transfer_argv(workspace, wide_split, out)) == 0
    return _transfer_outputs(out)


def _record_transfer_pids(monkeypatch, log: Path) -> None:
    real = cli.transfer

    def spy(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "transfer", spy)


_FAN_OUT = {
    "serial": ("_transfer_workers", lambda n: 0),
    "1_worker": ("_transfer_workers", lambda n: 1),
    "2_workers": ("_transfer_workers", lambda n: 2),
    "no_blas_setter": ("blas_thread_setter", lambda: None),
}


@pytest.mark.parametrize("mode", list(_FAN_OUT))
def test_transfer_bytes_do_not_depend_on_workers(workspace, wide_split, wide_transfer,
                                                 tmp_path, monkeypatch, mode):
    """Forced worker counts and the in-process fallback write the default run's bytes."""
    assert len(DeviceSplit.from_json(wide_split.read_text()).target) >= 3
    monkeypatch.setattr(pipeline, *_FAN_OUT[mode])
    pids = tmp_path / "pids"
    _record_transfer_pids(monkeypatch, pids)
    out = tmp_path / "out"
    assert run(_wide_transfer_argv(workspace, wide_split, out)) == 0
    assert _transfer_outputs(out) == wide_transfer
    adapted_in = pids.read_text().split()
    assert len(adapted_in) == 3
    in_workers = mode in ("1_worker", "2_workers")
    assert all((pid != str(os.getpid())) == in_workers for pid in adapted_in), adapted_in


def test_each_worker_pins_its_blas_to_one_thread(workspace, wide_split, tmp_path, monkeypatch):
    calls = tmp_path / "calls"

    def setter(n):
        with calls.open("a") as fh:
            fh.write(f"{os.getpid()} {n}\n")

    monkeypatch.setattr(pipeline, "blas_thread_setter", lambda: setter)
    monkeypatch.setattr(pipeline, "_transfer_workers", lambda n: 2)
    assert run(_wide_transfer_argv(workspace, wide_split, tmp_path / "out")) == 0
    pinned = [line.split() for line in calls.read_text().splitlines()]
    assert pinned and all(n == "1" and pid != str(os.getpid()) for pid, n in pinned), pinned


def test_failing_target_in_a_worker_is_the_serial_data_error(workspace, wide_split, tmp_path,
                                                             monkeypatch, capsys):
    errors = []
    for workers in (0, 2):
        monkeypatch.setattr(pipeline, "_transfer_workers", lambda n, w=workers: w)
        out = tmp_path / f"w{workers}"
        capsys.readouterr()
        code = run(_wide_transfer_argv(workspace, wide_split, out, samples="1"))
        errors.append(capsys.readouterr().err)
        assert code == 3, errors[-1]
        assert not (out / "manifest.json").exists()
    assert errors[0] == errors[1] == "error: need >= 2 target samples, got 1\n"


def test_transfer_with_one_blas_thread_matches_default(workspace, wide_split, wide_transfer,
                                                       tmp_path):
    """A fresh process with OPENBLAS_NUM_THREADS=1 writes the in-process default run's bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "nasflat.cli",
                    *_wide_transfer_argv(workspace, wide_split, out)],
                   env=env, check=True, capture_output=True, timeout=300)
    assert _transfer_outputs(out) == wide_transfer


def test_eval_ignores_rows_for_archs_not_in_file(workspace, transfers, tmp_path):
    _, data, _, _, _ = workspace
    tdir = transfers
    subset = tmp_path / "archs30.jsonl"
    lines = (data / "archs.jsonl").read_text().splitlines()[:30]
    subset.write_text("\n".join(lines) + "\n")
    prefix = tmp_path / "report"
    assert run([
        "eval", "--latency", str(data / "latency.csv"), "--archs", str(subset),
        "--checkpoint", str(tdir), "--seed", "3", "--out-prefix", str(prefix),
    ]) == 0
    known = {a.arch_id for a in asp.read_architectures(subset)}
    table = LatencyTable.load_csv(data / "latency.csv")
    summary = json.loads(Path(str(prefix) + ".json").read_text())
    for row in summary["per_device"]:
        meta = json.loads((tdir / f"transfer_{row['device_id']}.json.meta.json").read_text())
        sampled = set(meta["extra"]["sampled_ids"])
        want = [a for a in table.archs_for(row["device_id"]) if a in known and a not in sampled]
        assert row["n_heldout"] == len(want) < 30


def test_non_finite_latency_is_data_error(workspace, tmp_path, capsys):
    _, data, split, config, _ = workspace
    lines = (data / "latency.csv").read_text().splitlines()
    arch, device, _ = lines[5].split(",")
    lines[5] = f"{arch},{device},nan"
    bad = tmp_path / "latency.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = run([
        "pretrain", "--config", str(config), "--latency", str(bad),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--out", str(tmp_path / "c.json"),
    ])
    assert code == 3
    assert f"{bad}:6:" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_non_finite_training_loss_is_data_error(workspace, tmp_path, capsys):
    state, extra = load_checkpoint(workspace[4])
    state.params["head0.b"].data[0] = np.nan
    poisoned = tmp_path / "nan.json"
    save_checkpoint(state, poisoned, extra)
    root, data, split, config, _ = workspace
    out_dir = tmp_path / "out"
    code = run([
        "transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--checkpoint", str(poisoned), "--samples", "8", "--seed", "4",
        "--out-dir", str(out_dir),
    ])
    assert code == 3
    assert "transfer: loss is nan at epoch 0, step 0, device " in capsys.readouterr().err
    assert not list(out_dir.glob("transfer_*.json"))


def test_config_sampler_section_used_when_flags_absent(workspace, tmp_path):
    root, data, split, _, ckpt = workspace
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "version": 1,
        "train": {"epochs": 1, "source_samples": 40, "transfer_epochs": 1},
        "sampler": {"method": "random", "samples": 6},
    }))
    tdir = tmp_path / "transfers"
    assert run([
        "transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--checkpoint", str(ckpt), "--seed", "3", "--out-dir", str(tdir),
    ]) == 0
    metas = sorted(tdir.glob("transfer_*.json.meta.json"))
    extra = json.loads(metas[0].read_text())["extra"]
    assert extra["sampler"] == "random"
    assert extra["samples"] == 6


@pytest.mark.parametrize("samples", ["abc", [5], 2.7, True, 0, None])
def test_bad_sampler_samples_is_data_error(workspace, tmp_path, capsys, samples):
    """/sampler/samples takes a JSON integer >= 1; transfer exits 3 and names it."""
    _, data, split, _, ckpt = workspace
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "sampler": {"samples": samples}}))
    capsys.readouterr()
    code = run(["transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(split),
                "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{config}: /sampler/samples: must be an integer >= 1, got {samples!r}" in err, err
    assert not (tmp_path / "t").exists()


def test_config_space_must_be_the_archs_space(workspace, tmp_path, capsys):
    """A run config's `space` key is checked against the architecture file's space."""
    _, data, split, _, ckpt = workspace
    common = ["--latency", str(data / "latency.csv"), "--archs", str(data / "archs.jsonl"),
              "--split", str(split)]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "space": "fbnet", "train": {"epochs": 1}}))
    for argv in (
        ["pretrain", "--config", str(config), *common, "--out", str(tmp_path / "c.json")],
        ["transfer", "--config", str(config), *common, "--checkpoint", str(ckpt),
         "--samples", "8", "--out-dir", str(tmp_path / "t")],
    ):
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"{config}: /space: 'fbnet' is not the archs' space 'nb201'" in err, err
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "t").exists()


def test_manifest_config_loads_as_a_run_config(workspace, tmp_path):
    """The resolved config a manifest records passes the `space` check.

    The manifest's predictor section also records supplementary_dim, which
    only --encoding sets, so that one field is dropped here.
    """
    _, data, split, _, ckpt = workspace
    doc = json.loads(Path(str(ckpt) + ".manifest.json").read_text())["config"]
    assert doc["space"] == "nb201"
    del doc["predictor"]["supplementary_dim"]
    config = tmp_path / "resolved.json"
    config.write_text(json.dumps(doc))
    assert run(["transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(split),
                "--checkpoint", str(ckpt), "--samples", "8", "--target",
                DeviceSplit.from_json(split.read_text()).target[0],
                "--out-dir", str(tmp_path / "t")]) == 0


def test_cli_import_starts_no_worker_machinery():
    """Only transfer's fan-out needs multiprocessing; importing the CLI must not load it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, nasflat.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout


@pytest.mark.parametrize("section, field, value, pointer", [
    pytest.param("train", "lr", -1, "/train", id="train.lr"),
    pytest.param("train", "seed", 123, "/train", id="train.seed"),
    pytest.param("train", "trials", 5, "/train", id="train.trials"),
    pytest.param("predictor", "seed", 99, "/predictor", id="predictor.seed"),
    pytest.param("predictor", "hidden_dim", 96, "/predictor", id="predictor.hidden_dim"),
    pytest.param("train", "epochs", 1.5, "/train/epochs", id="train.epochs_float"),
    pytest.param("train", "batch_size", 2.5, "/train/batch_size", id="train.batch_size_float"),
    pytest.param("train", "batch_size", 1, "/train", id="train.batch_size_one"),
    pytest.param("train", "source_samples", True, "/train/source_samples", id="train.source_samples_bool"),
    pytest.param("predictor", "gcn_dims", [64.5], "/predictor/gcn_dims/0", id="predictor.gcn_dims_float"),
    pytest.param("predictor", "op_embed_dim", True, "/predictor/op_embed_dim", id="predictor.op_embed_dim_bool"),
    pytest.param("predictor", "gcn_dims", 5, "/predictor/gcn_dims", id="predictor.gcn_dims"),
    pytest.param("predictor", "gcn_dims", [], "/predictor", id="predictor.gcn_dims_empty"),
    pytest.param("predictor", "supplementary_dim", 13, "/predictor/supplementary_dim",
                 id="predictor.supplementary_dim"),
])
def test_bad_config_reports_json_pointer(workspace, tmp_path, capsys, section, field, value, pointer):
    """Bad or removed fields exit 3 and name their section; --seed is the only seed."""
    root, data, split, _, ckpt = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, section: {field: value}}))
    capsys.readouterr()
    code = run([
        "pretrain", "--config", str(bad), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--out", str(tmp_path / "c.json"),
    ])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{bad}: {pointer}: " in err, err
    if field == "supplementary_dim":
        assert "set by --encoding" in err, err
    assert not (tmp_path / "c.json").exists()


def test_pretrain_budget_without_a_pair_is_data_error(workspace, tmp_path, capsys):
    """A one-arch per-device budget would train zero steps: exit 3 naming the field."""
    _, data, split, _, _ = workspace
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "train": {"epochs": 1, "source_samples": 1}}))
    capsys.readouterr()
    code = run([
        "pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--out", str(tmp_path / "c.json"),
    ])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{config}: /train/source_samples: a budget of 1 leaves source device" in err, err
    assert not (tmp_path / "c.json").exists()


def test_pretrain_takes_supplementary_dim_from_encoding(workspace, tmp_path):
    _, data, split, _, _ = workspace
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "train": {"epochs": 1, "source_samples": 20}}))
    ckpt = tmp_path / "c.json"
    assert run([
        "pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split),
        "--encoding", str(data / "zcp.csv"), "--out", str(ckpt),
    ]) == 0
    state, _ = load_checkpoint(ckpt)
    manifest = json.loads(Path(str(ckpt) + ".manifest.json").read_text())
    assert state.config.supplementary_dim == 13
    assert manifest["config"]["predictor"]["supplementary_dim"] == 13


def test_transfer_manifest_records_the_checkpoint_predictor(workspace, tmp_path):
    """transfer adapts the checkpoint's predictor, whatever the config's predictor section says."""
    _, data, split, _, ckpt = workspace
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "version": 1, "train": {"transfer_epochs": 1}, "predictor": {"gcn_dims": [16, 16]},
    }))
    target = DeviceSplit.from_json(split.read_text()).target[0]
    out_dir = tmp_path / "t"
    assert run([
        "transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(data / "archs.jsonl"), "--split", str(split), "--checkpoint", str(ckpt),
        "--samples", "8", "--target", target, "--out-dir", str(out_dir),
    ]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    meta = json.loads((out_dir / f"transfer_{target}.json.meta.json").read_text())
    assert manifest["config"]["predictor"]["gcn_dims"] == [128, 128, 128]
    assert manifest["config"]["predictor"] == meta["config"]


def _split_as_list(split):
    return [list(split.source), list(split.target)], "not a device split object"


def _split_without_objective(split):
    return {"source": list(split.source), "target": list(split.target)}, "device split is missing key 'objective'"


def _split_with_unknown_source(split):
    doc = {"source": [*split.source[:-1], "nope"], "target": list(split.target), "objective": 0.0}
    return doc, "unknown device(s) ['nope']"


def _split_with_unknown_target(split):
    doc = {"source": list(split.source), "target": ["zz9", *split.target[1:]], "objective": 0.0}
    return doc, "unknown device(s) ['zz9']"


def _split_with_string_source(split):
    doc = {"source": split.source[0], "target": list(split.target), "objective": 0.0}
    return doc, f"/source: must be a non-empty list of device ids, got {split.source[0]!r}"


def _split_with_empty_target(split):
    doc = {"source": list(split.source), "target": [], "objective": 0.0}
    return doc, "/target: must be a non-empty list of device ids, got []"


def _split_with_numeric_device(split):
    doc = {"source": [split.source[0], 3], "target": list(split.target), "objective": 0.0}
    return doc, "/source/1: must be a device id string, got 3"


def _split_with_repeated_device(split):
    doc = {"source": [split.source[0], split.source[0]], "target": list(split.target), "objective": 0.0}
    return doc, f"/source/1: device {split.source[0]!r} is listed twice"


def _split_with_shared_device(split):
    doc = {"source": [*split.source, split.target[0]], "target": list(split.target), "objective": 0.0}
    return doc, f"/target/0: device {split.target[0]!r} is also a source device"


def _split_with_string_objective(split):
    doc = {"source": list(split.source), "target": list(split.target), "objective": "0.5"}
    return doc, "/objective: must be a finite number, got '0.5'"


def _split_with_nan_objective(split):
    doc = {"source": list(split.source), "target": list(split.target), "objective": float("nan")}
    return doc, "/objective: must be a finite number, got nan"


@pytest.mark.parametrize("corrupt", [
    _split_as_list, _split_without_objective, _split_with_unknown_source, _split_with_unknown_target,
    _split_with_string_source, _split_with_empty_target, _split_with_numeric_device,
    _split_with_repeated_device, _split_with_shared_device, _split_with_string_objective,
    _split_with_nan_objective,
], ids=lambda f: f.__name__.strip("_"))
def test_bad_split_is_data_error(workspace, tmp_path, capsys, corrupt):
    """pretrain and transfer exit 3 on a bad split file and name it, not 4 or a later symptom."""
    _, data, split, config, ckpt = workspace
    doc, why = corrupt(DeviceSplit.from_json(split.read_text()))
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(doc))
    common = ["--config", str(config), "--latency", str(data / "latency.csv"),
              "--archs", str(data / "archs.jsonl"), "--split", str(bad)]
    for argv in (
        ["pretrain", *common, "--out", str(tmp_path / "c.json")],
        ["transfer", *common, "--checkpoint", str(ckpt), "--samples", "8",
         "--out-dir", str(tmp_path / "t")],
    ):
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"{bad}: {why}" in err, err
    assert not (tmp_path / "c.json").exists() and not list(tmp_path.glob("t/transfer_*"))


def test_missing_input_file_is_data_error(tmp_path):
    code = run(["partition", "--latency", str(tmp_path / "nope.csv"),
                "--m", "1", "--n", "1", "--out", str(tmp_path / "s.json")])
    assert code == 3


# --- every settable value changes the result -----------------------------------

# A tiny model that still ranks. With a one-layer refinement and a one-layer
# main stack the nb201 sink sees no op slot, every arch scores the same and
# the hinge margin cannot matter.
_KNOB_BASE = {
    "train": {"epochs": 1, "transfer_epochs": 1},
    "predictor": {
        "op_embed_dim": 8, "node_embed_dim": 8, "hw_embed_dim": 8, "ophw_gcn_dims": [8],
        "ophw_mlp_dims": [8], "gcn_dims": [8, 8], "head_mlp_dims": [8],
    },
}

# One changed value per run-config field. supplementary_dim is not one: it
# comes from --encoding.
_KNOB_VARIANTS = {
    "train": {
        "lr": 0.01, "weight_decay": 0.1, "epochs": 2, "batch_size": 8, "transfer_epochs": 2,
        "transfer_lr": 0.01, "hinge_margin": 1e-9, "source_samples": 30,
    },
    "predictor": {
        "op_embed_dim": 4, "node_embed_dim": 4, "hw_embed_dim": 4, "ophw_gcn_dims": [4],
        "ophw_mlp_dims": [4], "gcn_dims": [4, 4], "head_mlp_dims": [4], "gnn_kind": "dgf",
        "leaky_slope": 0.01,
    },
}

_KNOBS = [("train", f.name) for f in fields(TrainConfig)] + [
    ("predictor", f.name) for f in fields(PredictorConfig) if f.name != "supplementary_dim"
]


@pytest.fixture(scope="module")
def knob_world(tmp_path_factory):
    """3 source devices and 1 target over 40 nb201 archs, plus the base config's transfer bytes."""
    root = tmp_path_factory.mktemp("knobs")
    data = root / "data"
    assert run(["synth", "--space", "nb201", "--devices", "4", "--archs", "40",
                "--seed", "11", "--out-dir", str(data)]) == 0
    split = root / "split.json"
    split.write_text(DeviceSplit(("d00", "d01", "d02"), ("d03",), 0.0).to_json())
    return root, data, split, _knob_transfer_bytes(root / "base", data, split, _KNOB_BASE)


def _knob_transfer_bytes(work, data, split, config_doc) -> bytes:
    work.mkdir()
    config = work / "run.json"
    config.write_text(json.dumps({"version": 1, **config_doc}))
    common = ["--config", str(config), "--latency", str(data / "latency.csv"),
              "--archs", str(data / "archs.jsonl"), "--split", str(split), "--seed", "2"]
    assert run(["pretrain", *common, "--out", str(work / "ckpt.json")]) == 0
    assert run(["transfer", *common, "--checkpoint", str(work / "ckpt.json"),
                "--samples", "8", "--out-dir", str(work)]) == 0
    return (work / "transfer_d03.json").read_bytes()


@pytest.mark.parametrize("section, field", _KNOBS, ids=[f"{s}.{f}" for s, f in _KNOBS])
def test_no_run_config_field_is_dead(knob_world, section, field):
    """Changing any one run-config field changes the transfer checkpoint's bytes."""
    root, data, split, base = knob_world
    doc = json.loads(json.dumps(_KNOB_BASE))
    doc[section][field] = _KNOB_VARIANTS[section][field]
    assert _knob_transfer_bytes(root / f"{section}.{field}", data, split, doc) != base
