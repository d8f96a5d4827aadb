"""End-to-end CLI tests: flows, manifests, idempotence, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasflat import cli, pipeline
from nasflat.devicesets import DeviceSplit, LatencyTable
from nasflat.pipeline import TrainConfig
from nasflat.predictor import PredictorConfig, load_checkpoint, save_checkpoint
from nasflat import synthbench as sb
from nasflat import archspace as asp
from oracles import distinct_architectures_oracle, latency_oracle


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


@pytest.mark.parametrize("space_id", ["nb201", "fbnet"])
def test_synth_bytes_equal_the_files_written_from_the_oracles(tmp_path, space_id):
    """synth's bulk draws write the bytes of one Generator per draw and per latency."""
    space = asp.get_space(space_id)
    assert run(["synth", "--space", space_id, "--devices", "3", "--archs", "40", "--seed", "7",
                "--out-dir", str(tmp_path / "cli")]) == 0
    archs, _ = distinct_architectures_oracle(space, 40, 7)
    adj = space.template_adjacency().tolist()
    want = tmp_path / "oracle"
    want.mkdir()
    (want / "archs.jsonl").write_text("".join(
        json.dumps({"space": space_id, "adj": adj, "ops": list(a.ops)}, separators=(",", ":")) + "\n"
        for a in archs
    ))
    table = LatencyTable()
    for device in sb.mixed_family(space, 3, 7, sigma=0.03):
        for arch in archs:
            table.add(arch.arch_id, device.device_id, latency_oracle(arch, device, space))
    table.save_csv(want / "latency.csv")
    asp.save_encoding_table(asp.proxy_table(archs, space), want / "zcp.csv")
    for name in ("archs.jsonl", "latency.csv", "zcp.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("flag, value", [("--devices", "0"), ("--archs", "0"), ("--sigma", "-1"),
                                         ("--sigma", "nan")])
def test_synth_rejects_counts_it_cannot_use(tmp_path, capsys, flag, value):
    argv = {"--devices": "3", "--archs": "10", "--sigma": "0.03", flag: value}
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--space", "nb201", *(x for kv in argv.items() for x in kv),
             "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_HUGE = "1" + "0" * 400  # an integer beyond the largest float


@pytest.mark.parametrize("flag, argv", [
    ("--devices", ["synth", "--space", "nb201", "--devices", _HUGE, "--archs", "10", "--out-dir", "x"]),
    ("--archs", ["synth", "--space", "nb201", "--devices", "3", "--archs", "-" + _HUGE, "--out-dir", "x"]),
    ("--m", ["partition", "--latency", "l.csv", "--m", _HUGE, "--n", "2", "--out", "x"]),
    ("--n", ["sample", "--method", "random", "--archs", "a.jsonl", "--n", _HUGE, "--out", "x"]),
    ("--samples", ["transfer", "--latency", "l.csv", "--archs", "a.jsonl", "--split", "s.json",
                   "--checkpoint", "c.json", "--samples", _HUGE, "--out-dir", "x"]),
    ("--top-k", ["search", "--archs", "a.jsonl", "--checkpoint", "c.json", "--constraint-ms", "1",
                 "--top-k", _HUGE, "--out", "x"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_count_flag_beyond_the_float_range_is_usage_error(tmp_path, monkeypatch, capsys, flag, argv):
    """A 400-digit count exits 2 naming the flag, not 1 with an OverflowError traceback."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, device, value", [
    (["--devices", "2", "--archs", "50", "--sigma", "300"], "d01", "inf"),
    (["--devices", "1", "--archs", "4", "--seed", "8", "--sigma", "400"], "d00", "0.0"),
], ids=["overflow", "underflow"])
def test_synth_noise_out_of_float_range_is_data_error(tmp_path, capsys, argv, device, value):
    """A sigma whose noise factor overflows, or underflows to 0, exits 3 naming sigma and device."""
    code = run(["synth", "--space", "nb201", *argv, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"noise sigma {float(argv[-1])} takes a latency of device {device!r} to {value}" in err, err
    assert not (tmp_path / "out").exists()
    assert run(["synth", "--space", "nb201", "--devices", "2", "--archs", "50", "--sigma", "100",
                "--out-dir", str(tmp_path / "ok")]) == 0


def test_synth_more_archs_than_the_space_holds_is_data_error(tmp_path):
    """nb201 has 5**6 = 15625 cells; asking for one more fails before any draw
    (in a fresh process, so that drawing forever fails the test by its timeout)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "nasflat.cli", "synth", "--space", "nb201",
                           "--devices", "2", "--archs", "15626", "--out-dir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "space 'nb201' has 15625 architectures; cannot draw 15626 distinct ones" in done.stderr
    assert not (tmp_path / "out").exists()


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


def test_partition_oversized_request_fails_with_data_exit(workspace, tmp_path, capsys):
    """An oversized request, and the other data errors of partition and sample, exit 3
    naming the flag or the input file at fault."""
    root, data, _, _, _ = workspace
    latency, archs = data / "latency.csv", data / "archs.jsonl"
    rows = latency.read_text().splitlines()
    device, arch = rows[1].split(",")[1], rows[1].split(",")[0]
    one_device, uncovered = tmp_path / "one_device.csv", tmp_path / "uncovered.csv"
    one_device.write_text("\n".join(r for r in rows if r.split(",")[1] in ("device_id", device)) + "\n")
    uncovered.write_text("\n".join(r for r in rows if r.split(",")[0] != arch) + "\n")  # each device lacks it
    short_zcp = tmp_path / "short_zcp.csv"
    short_zcp.write_text("".join(r for r in (data / "zcp.csv").read_text().splitlines(keepends=True)
                                 if r.split(",")[0] != arch))
    sample = ["sample", "--method", "latency_oracle", "--archs", str(archs), "--n", "5",
              "--out", str(tmp_path / "sel.json")]
    cosine = ["sample", "--method", "cosine", *sample[3:]]
    kmeans = ["sample", "--method", "kmeans", *sample[3:]]
    for argv, why in [
        (["partition", "--latency", str(latency), "--m", "5", "--n", "3", "--seed", "1",
          "--out", str(root / "x.json")], "--m 5 --n 3: sides of sizes (3, 3) cannot provide (5, 3)"),
        (["partition", "--latency", str(one_device), "--m", "1", "--n", "1",
          "--out", str(root / "x.json")], f"{one_device}: need >= 2 devices, got 1"),
        (sample + ["--latency", str(uncovered)],
         f"{uncovered}: no reference device covers the candidate pool of 80 archs"),
        (sample, "--method latency_oracle needs --latency"),
        (cosine, "--method cosine needs --encoding"),
        (kmeans, "--method kmeans needs --encoding"),
        (cosine + ["--encoding", str(short_zcp)], f"{short_zcp}: no row for arch {arch}"),
        (kmeans + ["--encoding", str(short_zcp)], f"{short_zcp}: no row for arch {arch}"),
    ]:
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == f"error: {why}\n"
    assert not (root / "x.json").exists() and not (tmp_path / "sel.json").exists()


@pytest.mark.parametrize("m, n", [("0", "2"), ("3", "0"), ("-1", "2")])
def test_partition_rejects_an_empty_pool(workspace, tmp_path, capsys, m, n):
    """A pool size below 1 is a usage error; no split with an empty side is written."""
    _, data, _, _, _ = workspace
    out = tmp_path / "split.json"
    with pytest.raises(SystemExit) as exc:
        run(["partition", "--latency", str(data / "latency.csv"), "--m", m, "--n", n,
             "--out", str(out)])
    assert exc.value.code == 2
    flag, value = ("--m", m) if int(m) < 1 else ("--n", n)
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def _constant_on(device: str, src: Path, out: Path) -> Path:
    """Write to `out` the latency CSV at `src` with every row on `device` set to 1.0 ms."""
    rows = [line.split(",") for line in src.read_text().splitlines()]
    out.write_text("".join(f"{a},{d},{'1.0' if d == device else ms}\n" for a, d, ms in rows))
    return out


def test_partition_with_a_constant_device_names_the_file_devices_and_archs(workspace, tmp_path, capsys):
    """Rank correlation with a device whose latencies are all equal is undefined: partition
    exits 3 naming the latency file, the device pair and the archs they share."""
    _, data, _, _, _ = workspace
    devices = sorted(LatencyTable.load_csv(data / "latency.csv").devices())
    latency = _constant_on(devices[-1], data / "latency.csv", tmp_path / "latency.csv")
    capsys.readouterr()
    code = run(["partition", "--latency", str(latency), "--m", "3", "--n", "2",
                "--out", str(tmp_path / "split.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == (f"error: {latency}: devices {devices[0]!r} and {devices[-1]!r} over 80 shared "
                   "archs: rank correlation undefined for constant input\n")
    assert not (tmp_path / "split.json").exists()


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


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_search_top_k_below_one_is_usage_error(workspace, transfers, tmp_path, capsys, top_k):
    _, data, _, _, _ = workspace
    ckpt = sorted(c for c in transfers.glob("transfer_*.json") if not c.name.endswith(".meta.json"))[0]
    with pytest.raises(SystemExit) as exc:
        run(["search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
             "--constraint-ms", "1e9", "--top-k", top_k, "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    assert f"argument --top-k: must be at least 1, got {top_k}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


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


def _two_space_ids(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta.update(space_ids=["nb201", "fbnet"]))
    return meta_path, "space_ids ['nb201', 'fbnet'] must name one space"


def _null_op_index_off_its_space(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta.update(null_op_index=9))
    return meta_path, "null_op_index 9 does not fit space 'nb201'"


def _infinite_device_row(ckpt, archs):
    """JSON's Infinity is a float; int() of it raised OverflowError (exit 4)."""
    meta_path = _edit_meta(ckpt, lambda meta: meta["devices"].update(d00=float("inf")))
    return meta_path, "/devices/d00: must be an integer, got inf"


def _bool_device_row(ckpt, archs):
    """int(true) is 1: a bool used to load as device row 1."""
    meta_path = _edit_meta(ckpt, lambda meta: meta["devices"].update(d00=True))
    return meta_path, "/devices/d00: must be an integer, got True"


def _devices_as_a_list(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta.update(devices=[["d00", 0]]))
    return meta_path, "/devices: must be an object, got [['d00', 0]]"


def _infinite_null_op_index(ckpt, archs):
    meta_path = _edit_meta(ckpt, lambda meta: meta.update(null_op_index=float("-inf")))
    return meta_path, "/null_op_index: must be an integer, got -inf"


def _string_null_op_index(ckpt, archs):
    """int("5") is 5: a string used to load as the null-op index."""
    meta_path = _edit_meta(ckpt, lambda meta: meta.update(null_op_index="5"))
    return meta_path, "/null_op_index: must be an integer, got '5'"


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


def _rewired_adj(archs, rewire):
    lines = archs.read_text().splitlines()
    obj = json.loads(lines[2])
    rewire(obj["adj"])
    lines[2] = json.dumps(obj)
    archs.write_text("\n".join(lines) + "\n")
    return Path(f"{archs}:3"), "adj is not the fixed topology of space 'nb201'"


def _adj_back_edge(ckpt, archs):
    return _rewired_adj(archs, lambda adj: adj[4].__setitem__(1, 1))


def _adj_dropped_edge(ckpt, archs):
    return _rewired_adj(archs, lambda adj: adj[1].__setitem__(4, 0))


def _adj_extra_forward_edge(ckpt, archs):
    """Still a DAG with one source and sink; it used to load as a new arch."""
    return _rewired_adj(archs, lambda adj: adj[1].__setitem__(6, 1))


def _archs_line_not_utf8(ckpt, archs):
    lines = archs.read_bytes().split(b"\n")
    lines[2] = lines[2][:30] + b"\xff" + lines[2][31:]
    archs.write_bytes(b"\n".join(lines))
    return Path(f"{archs}:3"), "can't decode byte 0xff"


@pytest.mark.parametrize("corrupt", [
    _as_version_1, _wrong_version, _truncated, _digest_mismatch, _short_param,
    _config_implies_other_layout, _devices_imply_other_layout, _float_dims_in_meta,
    _missing_key, _missing_config_field, _two_space_ids, _null_op_index_off_its_space,
    _infinite_device_row, _bool_device_row, _devices_as_a_list, _infinite_null_op_index,
    _string_null_op_index, _missing_meta, _op_index_out_of_vocab,
    _adj_back_edge, _adj_dropped_edge, _adj_extra_forward_edge, _archs_line_not_utf8,
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


@pytest.mark.parametrize("which", ["config", "latency", "split", "encoding"])
def test_non_utf8_text_input_is_data_error_at_its_line(workspace, tmp_path, capsys, which):
    """A text input holding a byte that is not UTF-8 exits 3 naming `path:line`, not 4."""
    _, data, split, config, _ = workspace
    files = {"config": config, "latency": data / "latency.csv", "split": split,
             "encoding": data / "zcp.csv"}
    raw = files[which].read_bytes()
    at = raw.find(b"\n") + 1  # the start of line 2, or of line 1 in a one-line file
    line = 1 + raw[:at].count(b"\n")
    bad = files[which] = tmp_path / files[which].name
    bad.write_bytes(raw[:at] + b"\xff" + raw[at:])
    capsys.readouterr()
    code = run([
        "pretrain", "--config", str(files["config"]), "--latency", str(files["latency"]),
        "--archs", str(data / "archs.jsonl"), "--split", str(files["split"]),
        "--encoding", str(files["encoding"]), "--out", str(tmp_path / "ckpt.json"),
    ])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{bad}:{line}: not UTF-8: can't decode byte 0xff" in err, err
    assert not (tmp_path / "ckpt.json").exists()


_UNDECODABLE = {"deep": "[" * 100_000 + "]" * 100_000, "huge_int": "9" * 4_301}


@pytest.mark.parametrize("value", sorted(_UNDECODABLE))
@pytest.mark.parametrize("which", ["config", "split", "meta", "archs"])
def test_json_that_cannot_be_decoded_is_data_error(workspace, tmp_path, capsys, which, value):
    """A JSON input nested too deeply, or holding an integer too long to convert, exits 3
    naming the file (at `path:line` in JSONL), not 4."""
    _, data, split, config, ckpt = workspace
    bad = _UNDECODABLE[value]
    pretrain = ["pretrain", "--latency", str(data / "latency.csv"), "--archs", str(data / "archs.jsonl"),
                "--out", str(tmp_path / "out.json")]
    if which == "config":
        named = tmp_path / "run.json"
        named.write_text('{"version": 1, "train": {"epochs": %s}}' % bad)
        argv = [*pretrain, "--config", str(named), "--split", str(split)]
    elif which == "split":
        named = tmp_path / "split.json"
        named.write_text('{"source": %s, "target": ["d"], "objective": 0.5}' % bad)
        argv = [*pretrain, "--config", str(config), "--split", str(named)]
    elif which == "meta":
        shutil.copy(ckpt, tmp_path / "ckpt.json")
        named = tmp_path / "ckpt.json.meta.json"
        named.write_text('{"version": 4, "extra": %s}' % bad)
        argv = ["eval", "--latency", str(data / "latency.csv"), "--archs", str(data / "archs.jsonl"),
                "--checkpoint", str(tmp_path / "ckpt.json"), "--out-prefix", str(tmp_path / "out")]
    else:
        lines = (data / "archs.jsonl").read_text().splitlines()
        lines[1] = lines[1][: lines[1].index('"ops":') + len('"ops":')] + bad + "}"
        path = tmp_path / "archs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        named = f"{path}:2"
        argv = ["sample", "--method", "random", "--archs", str(path), "--n", "2",
                "--out", str(tmp_path / "out.json")]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err[:500]
    assert f"{named}: " in err, err[:500]
    assert not list(tmp_path.glob("out*"))


def test_sample_more_than_the_distinct_archs_is_a_data_error_naming_n(workspace, tmp_path, capsys):
    _, data, _, _, _ = workspace
    archs = tmp_path / "archs.jsonl"
    archs.write_text((data / "archs.jsonl").read_text() * 2)  # 80 distinct archs, each twice
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert run(["sample", "--method", "random", "--archs", str(archs), "--n", "81",
                "--out", str(out)]) == 3
    assert f"error: --n 81: {archs} holds only 80 distinct archs" in capsys.readouterr().err
    assert not out.exists()
    assert run(["sample", "--method", "random", "--archs", str(archs), "--n", "80",
                "--out", str(out)]) == 0


def test_search_over_an_archs_file_listing_each_arch_twice_ranks_each_once(workspace, transfers,
                                                                        tmp_path):
    _, data, _, _, _ = workspace
    ckpt = sorted(c for c in transfers.glob("transfer_*.json") if not c.name.endswith(".meta.json"))[0]
    doubled = tmp_path / "archs.jsonl"
    doubled.write_text((data / "archs.jsonl").read_text() * 2)
    results = {}
    for name, archs in (("single", data / "archs.jsonl"), ("doubled", doubled)):
        results[name] = tmp_path / f"{name}.csv"
        assert run(["search", "--archs", str(archs), "--checkpoint", str(ckpt),
                    "--latency", str(data / "latency.csv"), "--constraint-ms", "1e9",
                    "--top-k", "10", "--seed", "7", "--out", str(results[name])]) == 0
    assert results["doubled"].read_bytes() == results["single"].read_bytes()


@pytest.mark.parametrize("command", ["eval", "search"])
@pytest.mark.parametrize("key, value", [
    ("target_device", 5), ("samples", "abc"), ("samples", True), ("sampled_ids", [[1]]),
])
def test_checkpoint_extra_field_of_the_wrong_type_is_data_error(workspace, transfers, tmp_path, capsys,
                                                                 command, key, value):
    """The transfer fields eval and search read from a meta's extra are type-checked
    where the meta is read: a wrong type exits 3 naming the meta and the field."""
    _, data, _, _, _ = workspace
    src = sorted(transfers.glob("transfer_*.json.meta.json"))[0]
    ckpt = tmp_path / src.name[: -len(".meta.json")]
    shutil.copy(transfers / ckpt.name, ckpt)
    shutil.copy(src, tmp_path / src.name)
    meta_path = _edit_meta(ckpt, lambda meta: meta["extra"].update({key: value}))
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--latency", str(data / "latency.csv"), "--archs", str(data / "archs.jsonl"),
                 "--checkpoint", str(ckpt), "--out-prefix", str(out)],
        "search": ["search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
                   "--latency", str(data / "latency.csv"), "--constraint-ms", "1e9", "--out", str(out)],
    }[command]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"error: {meta_path}: /extra/{key}: must be " in err, err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("unusable", ["not_in_archs", "not_measured"])
def test_search_latency_without_a_usable_sample_is_data_error(workspace, transfers, tmp_path, capsys,
                                                              unusable):
    """When no sample of the checkpoint is both in --archs and measured on its device,
    search exits 3 naming the --latency file."""
    _, data, _, _, _ = workspace
    ckpt = sorted(c for c in transfers.glob("transfer_*.json") if not c.name.endswith(".meta.json"))[0]
    _, extra = load_checkpoint(ckpt)
    sampled, device = set(extra["sampled_ids"]), extra["target_device"]
    archs, latency = data / "archs.jsonl", data / "latency.csv"
    if unusable == "not_in_archs":
        archs = tmp_path / "archs.jsonl"
        asp.write_architectures(
            [a for a in asp.read_architectures(data / "archs.jsonl") if a.arch_id not in sampled], archs)
    else:
        latency = tmp_path / "latency.csv"
        rows = (data / "latency.csv").read_text().splitlines()
        kept = [r for r in rows if (r.split(",")[1], r.split(",")[0] in sampled) != (device, True)]
        assert len(kept) == len(rows) - len(sampled)
        latency.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    code = run(["search", "--archs", str(archs), "--checkpoint", str(ckpt), "--latency", str(latency),
                "--constraint-ms", "1e9", "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"error: {latency}: " in err and repr(device) in err, err
    assert not (tmp_path / "r.csv").exists()


def test_search_latency_measuring_no_sample_is_data_error(workspace, transfers, tmp_path, capsys):
    """A --latency CSV with no row for the checkpoint's samples on its device exits 3 naming
    the file and the device; it used to filter raw scores as if they were milliseconds."""
    _, data, _, _, _ = workspace
    lines = (data / "latency.csv").read_text().splitlines()
    latency = tmp_path / "latency.csv"
    latency.write_text("\n".join(lines[:3]) + "\n")  # two rows, both on the first device
    ckpt = next(p for p in sorted(transfers.glob("transfer_*.json"))
                if p.suffixes == [".json"] and p.stem != f"transfer_{lines[1].split(',')[1]}")
    capsys.readouterr()
    code = run(["search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
                "--latency", str(latency), "--constraint-ms", "1e9", "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{latency}:" in err and repr(ckpt.stem[len("transfer_"):]) in err, err
    assert not (tmp_path / "r.csv").exists()


def test_search_nan_constraint_is_usage_error_but_inf_ranks_by_accuracy(workspace, transfers, tmp_path,
                                                                         capsys):
    _, data, _, _, _ = workspace
    ckpt = sorted(c for c in transfers.glob("transfer_*.json") if not c.name.endswith(".meta.json"))[0]
    argv = ["search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt),
            "--latency", str(data / "latency.csv"), "--top-k", "5", "--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--constraint-ms", "nan"])
    assert exc.value.code == 2
    assert "argument --constraint-ms: must be a number, got nan" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    assert run([*argv, "--constraint-ms", "inf"]) == 0
    accs = [float(line.split(",")[2]) for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert len(accs) == 5 and accs == sorted(accs, reverse=True)


@pytest.mark.parametrize("command", ["sample", "pretrain", "transfer", "eval", "search"])
def test_empty_archs_file_is_a_data_error_naming_it(workspace, tmp_path, capsys, command):
    _, data, split, config, ckpt = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    common = ["--archs", str(empty), "--latency", str(data / "latency.csv")]
    train = [*common, "--split", str(split), "--config", str(config)]
    argv = {
        "sample": ["sample", "--method", "random", "--archs", str(empty), "--n", "2",
                   "--out", str(tmp_path / "out")],
        "pretrain": ["pretrain", *train, "--out", str(tmp_path / "out")],
        "transfer": ["transfer", *train, "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "out")],
        "eval": ["eval", *common, "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "out")],
        "search": ["search", *common, "--checkpoint", str(ckpt), "--constraint-ms", "1e9",
                   "--out", str(tmp_path / "out")],
    }[command]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == f"error: {empty}: holds no architectures\n"
    assert not list(tmp_path.glob("out*"))


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
    assert f"{mixed}: architecture file mixes spaces: ['fbnet', 'nb201']" in capsys.readouterr().err


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


@pytest.mark.parametrize("which, why", [("source", "is a source device of"), ("unmeasured", "has no rows in")],
                         ids=["source", "unmeasured"])
def test_transfer_target_must_be_a_measured_non_source_device(workspace, tmp_path, capsys, which, why):
    """--target naming a source of the split, or a device the latency CSV lacks, exits 3."""
    _, data, split, _, _ = workspace
    device = DeviceSplit.from_json(split.read_text()).source[0] if which == "source" else "nosuch"
    named = split if which == "source" else data / "latency.csv"
    capsys.readouterr()
    code = run(_transfer_argv(workspace, tmp_path / "out", "--target", device))
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"--target {device!r} {why} {named}" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("space, predictor, why", [
    ("nb201", {"ophw_gcn_dims": [16], "gcn_dims": [16]},
     "/predictor: no op slot of nb201 reaches the score with ophw_gcn_dims [16] and gcn_dims [16]"),
    ("fbnet", {"ophw_gcn_dims": []}, "/predictor: ophw_gcn_dims needs at least one layer"),
], ids=["nb201_one_layer_stacks", "fbnet_no_refinement"])
def test_pretrain_without_live_slots_is_config_error(tmp_path, capsys, space, predictor, why):
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
    assert f"{config}: {why}" in err, err
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
    real = pipeline.transfer

    def spy(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "transfer", spy)


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
    """k-means over identical encodings fails in each target's job: the same exit-3 error either way."""
    _, data, _, _, _ = workspace
    flat = tmp_path / "flat.csv"
    ids = [line.split(",")[0] for line in (data / "zcp.csv").read_text().splitlines()[1:]]
    flat.write_text("arch_id,e0,e1\n" + "".join(f"{i},1.0,1.0\n" for i in ids))
    errors = []
    for workers in (0, 2):
        monkeypatch.setattr(pipeline, "_transfer_workers", lambda n, w=workers: w)
        out = tmp_path / f"w{workers}"
        capsys.readouterr()
        code = run([*_wide_transfer_argv(workspace, wide_split, out),
                    "--sampler", "kmeans", "--sampler-encoding", str(flat)])
        errors.append(capsys.readouterr().err)
        assert code == 3, errors[-1]
        assert not (out / "manifest.json").exists()
    assert errors[0] == errors[1] == "error: all encoding vectors identical; cannot form n > 1 clusters\n"


@pytest.mark.parametrize("source", ["flag", "config", "default"])
def test_transfer_samples_beyond_a_target_pool_exit_before_any_worker(workspace, wide_split, tmp_path,
                                                                     monkeypatch, capsys, source):
    """The error names --samples, /sampler/samples only where the config sets it, the target
    and its pool, and no job starts."""
    _, data, _, _, _ = workspace

    def no_fan_out(job, targets):
        raise AssertionError("the fan-out started")

    monkeypatch.setattr(pipeline, "map_targets", no_fan_out)
    argv = _wide_transfer_argv(workspace, wide_split, tmp_path / "out", samples="500")
    target = DeviceSplit.from_json(wide_split.read_text()).target[0]
    where, samples, archs, size = "--samples", 500, data / "archs.jsonl", 80
    if source != "flag":
        config = tmp_path / "run.json"
        sections = {"sampler": {"samples": 500}} if source == "config" else {}
        config.write_text(json.dumps({"version": 1, **sections}))
        i = argv.index("--samples")
        del argv[i : i + 2]
        argv[argv.index("--config") + 1] = str(config)
        where = f"{config}: /sampler/samples"
    if source == "default":
        # No sampler section: the count is the default 20, against a pool cut below it.
        archs = tmp_path / "archs15.jsonl"
        archs.write_text("".join((data / "archs.jsonl").read_text().splitlines(keepends=True)[:15]))
        argv[argv.index("--archs") + 1] = str(archs)
        table = LatencyTable.load_csv(data / "latency.csv")
        ids = {a.arch_id for a in asp.read_architectures(archs)}
        where, samples, size = "default --samples", 20, len(table.measured(target, ids)[0])
        assert size < samples
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == (f"error: {where} {samples}: target {target!r} has only {size} archs of "
                   f"{archs} measured in {data / 'latency.csv'}\n")
    assert not (tmp_path / "out").exists()


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
        want = [a for a in table.measured(row["device_id"])[0] if a in known and a not in sampled]
        assert row["n_heldout"] == len(want) < 30


@pytest.mark.parametrize("heldout", ["one_arch", "constant"])
def test_eval_with_undefined_spearman_names_the_checkpoint_device_and_archs(workspace, transfers,
                                                                           tmp_path, capsys, heldout):
    """A held-out set of one arch, or of archs with equal latencies, has no rank correlation:
    eval exits 3 naming the checkpoint, the device and the held-out count."""
    _, data, _, _, _ = workspace
    ckpt = sorted(c for c in transfers.glob("transfer_*.json") if not c.name.endswith(".meta.json"))[0]
    _, extra = load_checkpoint(ckpt)
    sampled, device = set(extra["sampled_ids"]), extra["target_device"]
    header, *rows = (data / "latency.csv").read_text().splitlines()
    held = [r.split(",")[0] for r in rows if r.split(",")[1] == device and r.split(",")[0] not in sampled]
    if heldout == "one_arch":
        kept = [r for r in rows if r.split(",")[:2] == [held[0], device]]
        why = "need at least 2 observations"
    else:
        kept = [f"{a},{device},2.5" for a in held[:5]]
        why = "rank correlation undefined for constant input"
    latency = tmp_path / "latency.csv"
    latency.write_text("\n".join([header, *kept]) + "\n")
    capsys.readouterr()
    code = run(["eval", "--latency", str(latency), "--archs", str(data / "archs.jsonl"),
                "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "report")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == f"error: {ckpt}: device {device!r} over {len(kept)} held-out archs: {why}\n"
    assert not list(tmp_path.glob("report*"))


def test_transfer_to_a_constant_target_names_the_file_device_and_archs(workspace, tmp_path, capsys):
    """No source correlates with a target whose latencies are all equal: transfer exits 3
    naming the latency file, the target and the archs it shares with the sources."""
    _, data, split, _, _ = workspace
    target = DeviceSplit.from_json(split.read_text()).target[0]
    latency = _constant_on(target, data / "latency.csv", tmp_path / "latency.csv")
    argv = _transfer_argv(workspace, tmp_path / "out", "--target", target)
    argv[argv.index("--latency") + 1] = str(latency)
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == (f"error: {latency}: no source device has a defined correlation with target "
                   f"{target!r} over 8 shared archs (constant latencies)\n")
    assert not list((tmp_path / "out").glob("transfer_*"))


@pytest.mark.parametrize("kept, code", [(30, 0), (10, 3)])
def test_pretrain_trains_on_the_archs_of_its_file_that_the_csv_measures(workspace, tmp_path, capsys,
                                                                        kept, code):
    """Rows the latency CSV holds for archs missing from --archs are left out; a source
    device left with fewer than batch_size archs is a data error naming the device."""
    _, data, split, config, _ = workspace
    archs = tmp_path / "archs.jsonl"
    archs.write_text("\n".join((data / "archs.jsonl").read_text().splitlines()[:kept]) + "\n")
    capsys.readouterr()
    assert run([
        "pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
        "--archs", str(archs), "--split", str(split), "--out", str(tmp_path / "c.json"),
    ]) == code
    err = capsys.readouterr().err
    source = json.loads(split.read_text())["source"][0]
    if code:
        assert f"error: source device {source!r} has {kept} measured archs" in err, err
    assert (tmp_path / "c.json").exists() == (code == 0)


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
    """/sampler/samples takes a JSON integer >= 2; transfer exits 3 and names it."""
    _, data, split, _, ckpt = workspace
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "sampler": {"samples": samples}}))
    capsys.readouterr()
    code = run(["transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(split),
                "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{config}: /sampler/samples: must be an integer >= 2, got {samples!r}" in err, err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command, config_samples, flag, code, why", [
    ("transfer", 1, None, 3, "/sampler/samples: must be an integer >= 2, got 1"),
    ("transfer", 20, "0", 2, "argument --samples: must be at least 2, got 0"),
    ("transfer", 20, "-3", 2, "argument --samples: must be at least 2, got -3"),
    ("transfer", 20, "1", 2, "argument --samples: must be at least 2, got 1"),
    ("sample", None, "0", 2, "argument --n: must be at least 1, got 0"),
], ids=["config_1", "samples_0", "samples_-3", "samples_1", "sample_n_0"])
def test_too_few_samples_is_rejected_where_it_enters(workspace, tmp_path, capsys,
                                                     command, config_samples, flag, code, why):
    """A sample count the run cannot use names its config pointer (exit 3) or flag (exit 2)."""
    _, data, split, _, ckpt = workspace
    out = tmp_path / "out"
    if command == "sample":
        argv = ["sample", "--method", "random", "--archs", str(data / "archs.jsonl"),
                "--n", flag, "--out", str(out)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"version": 1, "sampler": {"samples": config_samples}}))
        argv = ["transfer", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(split),
                "--checkpoint", str(ckpt), "--out-dir", str(out)]
        argv += ["--samples", flag] if flag else []
    capsys.readouterr()
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    else:
        assert run(argv) == 3
    err = capsys.readouterr().err
    assert why in err, err
    assert not out.exists()


@pytest.mark.parametrize("method", ["cosine", "kmeans"])
def test_encoding_sampler_needs_sampler_encoding(workspace, tmp_path, capsys, method):
    """transfer's sampler reads --sampler-encoding only; --encoding is the predictor's input."""
    data = workspace[1]
    capsys.readouterr()
    code = run(_transfer_argv(workspace, tmp_path / "t", "--sampler", method,
                              "--encoding", str(data / "zcp.csv")))
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"--sampler {method} needs --sampler-encoding" in err, err
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
    """The resolved config a manifest records passes the `space` check."""
    _, data, split, _, ckpt = workspace
    doc = json.loads(Path(str(ckpt) + ".manifest.json").read_text())["config"]
    assert doc["space"] == "nb201"
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


def _nasflat_modules_after(code: str) -> set[str]:
    """The nasflat modules, and numpy if loaded, in a fresh process after `code`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code += ("\nprint(' '.join(m for m in sys.modules"
             " if m == 'numpy' or m.split('.')[0] == 'nasflat'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return set(out.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_numpy():
    assert _nasflat_modules_after("import nasflat.cli") == {
        "nasflat", "nasflat.cli", "nasflat.errors", "nasflat.inputs",
    }


_PARTITION_MODULES = {
    "nasflat", "nasflat.cli", "nasflat.errors", "nasflat.inputs", "nasflat.devicesets",
    "nasflat.rng", "numpy",
}


@pytest.mark.parametrize("command", ["synth", "partition", "eval", "search"])
def test_each_subcommand_loads_only_what_it_runs(workspace, tmp_path, command):
    """synth and partition load exactly their library modules; eval and search load
    neither the sampler nor the synthetic benchmark."""
    _, data, split, _, ckpt = workspace
    device = DeviceSplit.from_json(split.read_text()).source[0]
    common = ["--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt), "--device", device]
    argv = {
        "synth": ["synth", "--space", "nb201", "--devices", "3", "--archs", "20",
                  "--out-dir", str(tmp_path)],
        "partition": ["partition", "--latency", str(data / "latency.csv"), "--m", "3", "--n", "2",
                      "--out", str(tmp_path / "split.json")],
        "eval": ["eval", *common, "--latency", str(data / "latency.csv"),
                 "--out-prefix", str(tmp_path / "report")],
        "search": ["search", *common, "--constraint-ms", "1e9", "--out", str(tmp_path / "r.csv")],
    }[command]
    loaded = _nasflat_modules_after(f"from nasflat import cli\nassert cli.main({argv!r}) == 0")
    if command == "synth":
        assert loaded == _PARTITION_MODULES | {"nasflat.archspace", "nasflat.synthbench"}
    elif command == "partition":
        assert loaded == _PARTITION_MODULES
    else:
        assert "nasflat.pipeline" in loaded
        assert not loaded & {"nasflat.sampler", "nasflat.synthbench"}, loaded


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


_NUMBER_FIELDS = {f.name: f.type for cls in (TrainConfig, PredictorConfig) for f in fields(cls)
                  if f.type in ("int", "float", "tuple[int, ...]")}
_NOT_A_NUMBER = st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                          st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                          st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def _bad_number_field(draw, section_fields):
    """(field, value): a value of the wrong type for the field, or a non-finite one."""
    name = draw(st.sampled_from(section_fields))
    kind = _NUMBER_FIELDS[name]
    wrong = _NOT_A_NUMBER
    if kind != "float":  # every float, integral or not, is wrong for an int
        wrong = st.one_of(wrong, st.floats(allow_nan=False))
    if kind == "tuple[int, ...]":
        wrong = st.one_of(wrong, st.lists(wrong, min_size=1, max_size=2))
    else:
        wrong = st.one_of(wrong, st.lists(st.integers(1, 4), max_size=2))
    return name, draw(wrong)


_RUN_FIELDS = [("train", f.name) for f in fields(TrainConfig)] + [
    ("predictor", f.name) for f in fields(PredictorConfig) if f.name != "supplementary_dim"
]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(["train", "predictor"]).flatmap(lambda section: st.tuples(st.just(section),
    _bad_number_field([f for s, f in _RUN_FIELDS if s == section and f in _NUMBER_FIELDS]))))
@example(case=("train", ("lr", "x")))
@example(case=("train", ("lr", float("nan"))))
@example(case=("train", ("lr", True)))
@example(case=("predictor", ("leaky_slope", None)))
def test_run_config_number_field_of_the_wrong_type_names_the_field(workspace, case):
    """A wrong-typed or non-finite number in a run config exits 3 naming the file and field, never 4."""
    root, data, split, _, _ = workspace
    section, (name, value) = case
    config = root / "bad_number.json"
    config.write_text(json.dumps({"version": 1, section: {name: value}}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
                    "--archs", str(data / "archs.jsonl"), "--split", str(split),
                    "--out", str(root / "bad_number_ckpt.json")])
    assert code == 3, (case, err.getvalue())
    assert f"{config}: /{section}/{name}" in err.getvalue(), (case, err.getvalue())


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(case=_bad_number_field([f.name for f in fields(PredictorConfig) if f.name in _NUMBER_FIELDS]))
@example(case=("leaky_slope", "x"))
@example(case=("leaky_slope", float("inf")))
def test_checkpoint_meta_number_field_of_the_wrong_type_names_the_field(workspace, case):
    """The meta's config is not covered by params_sha256: a bad number exits 3 naming it, never 4."""
    root, data, _, _, ckpt = workspace
    name, value = case
    bad = root / "bad_meta_ckpt.json"
    shutil.copy(ckpt, bad)
    meta = json.loads(Path(f"{ckpt}.meta.json").read_text())
    meta["config"][name] = value
    Path(f"{bad}.meta.json").write_text(json.dumps(meta))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(bad),
                    "--device", "d00", "--constraint-ms", "1e9", "--out", str(root / "bad_meta.csv")])
    assert code == 3, (case, err.getvalue())
    assert f"{bad}.meta.json: /config/{name}" in err.getvalue(), (case, err.getvalue())


_ODD_VALUES = [10**400, -10**400, float("inf"), float("-inf"), float("nan"), 1.5, True, None, "x",
               [], {}, [[1]]]
_TRANSFER_META_KEYS = ("version", "config", "devices", "space_ids", "null_op_index", "params_sha256", "extra")
_TRANSFER_EXTRA_KEYS = ("stage", "target_device", "source_devices", "sampler", "samples", "sampled_ids",
                        "warm_start_source", "live_slots")
# (file, JSON path): a devices entry is its index among the meta's sorted device ids.
_ODD_FIELDS = (
    [("split", (key,)) for key in ("source", "target", "objective")]
    + [("meta", (key,)) for key in _TRANSFER_META_KEYS]
    + [("meta", ("config", f.name)) for f in fields(PredictorConfig)]
    + [("meta", ("devices", i)) for i in range(4)]
    + [("meta", ("extra", key)) for key in _TRANSFER_EXTRA_KEYS]
)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from(_ODD_FIELDS), value=st.sampled_from(_ODD_VALUES))
@example(field=("split", ("objective",)), value=10**400)
@example(field=("meta", ("devices", 0)), value=float("inf"))
@example(field=("meta", ("null_op_index",)), value=float("-inf"))
@example(field=("meta", ("extra", "target_device")), value="x")
@example(field=("meta", ("extra",)), value={})
def test_odd_value_in_a_split_or_meta_field_exits_0_or_3_naming_the_file(workspace, transfers, field,
                                                                       value):
    """Any field of a split file, or of a transfer checkpoint's meta, set to an
    out-of-range, non-finite or wrongly typed JSON value: pretrain (0 epochs)
    and search --latency return 0 or 3, never 4, and exit 3 names the file."""
    root, data, split, _, _ = workspace
    which, path = field
    if which == "split":
        named = doc_path = root / "odd_split.json"
        doc = json.loads(split.read_text())
        config = root / "zero_epochs.json"
        config.write_text(json.dumps({"version": 1, "train": {"epochs": 0, "source_samples": 60}}))
        argv = ["pretrain", "--config", str(config), "--latency", str(data / "latency.csv"),
                "--archs", str(data / "archs.jsonl"), "--split", str(named),
                "--out", str(root / "odd_ckpt.json")]
    else:
        src = sorted(transfers.glob("transfer_*.json.meta.json"))[0]
        named = root / "odd_transfer.json"
        shutil.copy(transfers / src.name[: -len(".meta.json")], named)
        doc_path = Path(f"{named}.meta.json")
        doc = json.loads(src.read_text())
        if path[0] == "devices":
            path = ("devices", sorted(doc["devices"])[path[1]])
        argv = ["search", "--archs", str(data / "archs.jsonl"), "--checkpoint", str(named),
                "--latency", str(data / "latency.csv"), "--constraint-ms", "1e9", "--top-k", "3",
                "--out", str(root / "odd.csv")]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 3), (field, value, err.getvalue()[-500:])
    if code == 3:
        assert f"{named}" in err.getvalue(), (field, value, err.getvalue()[-500:])


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
    meta = json.loads(Path(str(ckpt) + ".meta.json").read_text())
    manifest = json.loads(Path(str(ckpt) + ".manifest.json").read_text())
    assert state.config.supplementary_dim == 13
    assert meta["config"]["supplementary_dim"] == 13
    assert "supplementary_dim" not in manifest["config"]["predictor"]


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
    assert meta["config"]["supplementary_dim"] == 0
    assert {**manifest["config"]["predictor"], "supplementary_dim": 0} == meta["config"]
    assert manifest["config"]["sampler"] == {"method": "random", "samples": 8}


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


def _split_with_huge_objective(split):
    """math.isfinite of an int beyond the largest float raised OverflowError (exit 4)."""
    doc = {"source": list(split.source), "target": list(split.target), "objective": -10**400}
    return doc, "/objective: must be a finite number, got -1000000"


@pytest.mark.parametrize("corrupt", [
    _split_as_list, _split_without_objective, _split_with_unknown_source, _split_with_unknown_target,
    _split_with_string_source, _split_with_empty_target, _split_with_numeric_device,
    _split_with_repeated_device, _split_with_shared_device, _split_with_string_objective,
    _split_with_nan_objective, _split_with_huge_objective,
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


# --- manifests replay; --encoding matches the checkpoint ---------------------------

def _knob_argv(data, split, config, *extra):
    return ["--config", str(config), "--latency", str(data / "latency.csv"),
            "--archs", str(data / "archs.jsonl"), "--split", str(split), "--seed", "2", *extra]


def test_manifest_configs_replay_the_run(knob_world, tmp_path):
    """Each manifest's `config`, given back as --config without --samples, rewrites the same bytes,
    and each manifest digests the encoding files it was given."""
    _, data, split, _ = knob_world
    zcp = data / "zcp.csv"
    sampler_zcp = tmp_path / "sampler_zcp.csv"
    shutil.copy(zcp, sampler_zcp)
    encoding = ("--encoding", str(zcp))
    sampler_encoding = ("--sampler-encoding", str(sampler_zcp))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, **_KNOB_BASE}))
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["pretrain", *_knob_argv(data, split, config, *encoding),
                "--out", str(first / "ckpt.json")]) == 0
    assert run(["transfer", *_knob_argv(data, split, config, *encoding, *sampler_encoding),
                "--samples", "8", "--checkpoint", str(first / "ckpt.json"), "--out-dir", str(first)]) == 0
    pretrain_doc = json.loads((first / "ckpt.json.manifest.json").read_text())["config"]
    transfer_doc = json.loads((first / "manifest.json").read_text())["config"]
    assert transfer_doc["sampler"] == {"method": "random", "samples": 8}
    (tmp_path / "pretrain.json").write_text(json.dumps(pretrain_doc))
    (tmp_path / "transfer.json").write_text(json.dumps(transfer_doc))
    assert run(["pretrain", *_knob_argv(data, split, tmp_path / "pretrain.json", *encoding),
                "--out", str(again / "ckpt.json")]) == 0
    assert run(["transfer", *_knob_argv(data, split, tmp_path / "transfer.json", *encoding),
                "--checkpoint", str(again / "ckpt.json"), "--out-dir", str(again)]) == 0
    for name in ("ckpt.json", "ckpt.json.meta.json", "transfer_d03.json", "transfer_d03.json.meta.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name

    ckpt, archs = first / "transfer_d03.json", data / "archs.jsonl"
    assert run(["eval", "--latency", str(data / "latency.csv"), "--archs", str(archs),
                "--checkpoint", str(ckpt), *encoding, "--out-prefix", str(first / "report")]) == 0
    assert run(["search", "--archs", str(archs), "--checkpoint", str(ckpt), *encoding,
                "--constraint-ms", "1e9", "--out", str(first / "r.csv")]) == 0
    digest = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (zcp, sampler_zcp)}
    for manifest, files in (
        ("ckpt.json.manifest.json", (zcp,)),
        ("manifest.json", (zcp, sampler_zcp)),
        ("report.manifest.json", (zcp,)),
        ("r.csv.manifest.json", (zcp,)),
    ):
        inputs = json.loads((first / manifest).read_text())["inputs"]
        assert {str(p): inputs.get(str(p)) for p in files} == {str(p): digest[p] for p in files}, manifest


@pytest.fixture(scope="module")
def encoded_ckpts(knob_world):
    """Checkpoints with supplementary_dim 13 and 0, a 13-wide and a 12-wide encoding CSV."""
    root, data, split, _ = knob_world
    work = root / "encoded"
    work.mkdir()
    config = work / "run.json"
    config.write_text(json.dumps({"version": 1, **_KNOB_BASE}))
    assert run(["pretrain", *_knob_argv(data, split, config, "--encoding", str(data / "zcp.csv")),
                "--out", str(work / "ckpt.json")]) == 0
    narrow = work / "zcp12.csv"
    narrow.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                              for line in (data / "zcp.csv").read_text().splitlines()))
    return {13: work / "ckpt.json", 0: root / "base" / "ckpt.json"}, {13: data / "zcp.csv", 12: narrow}


@pytest.mark.parametrize("command, ckpt_width, file_width", [
    ("eval", 13, 12), ("eval", 13, 0), ("eval", 0, 13), ("search", 0, 13), ("transfer", 13, 12),
])
def test_encoding_width_must_match_the_checkpoint(knob_world, encoded_ckpts, tmp_path, capsys,
                                                  command, ckpt_width, file_width):
    """An --encoding of another width than the checkpoint's supplementary_dim exits 3 naming both."""
    _, data, split, _ = knob_world
    ckpts, files = encoded_ckpts
    ckpt, out = ckpts[ckpt_width], tmp_path / "out"
    common = ["--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpt)]
    argv = {
        "eval": ["eval", *common, "--latency", str(data / "latency.csv"), "--device", "d03",
                 "--out-prefix", str(out / "report")],
        "search": ["search", *common, "--constraint-ms", "1e9", "--out", str(out / "r.csv")],
        "transfer": ["transfer", *common, "--latency", str(data / "latency.csv"),
                     "--split", str(split), "--samples", "8", "--out-dir", str(out)],
    }[command]
    given = "no --encoding (width 0)"
    if file_width:
        argv += ["--encoding", str(files[file_width])]
        given = f"--encoding {files[file_width]} has width {file_width}"
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"{given}, but checkpoint {ckpt} has supplementary_dim {ckpt_width}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "search", "transfer", "transfer-sampler"])
def test_encoding_without_a_row_for_an_arch_is_a_data_error(knob_world, encoded_ckpts, tmp_path,
                                                             capsys, command):
    """An --encoding CSV that lacks an arch of --archs, or a cosine --sampler-encoding that lacks
    an arch of the target pools, exits 3 naming the CSV and the first such arch, in archs-file
    order."""
    _, data, split, _ = knob_world
    ckpts, files = encoded_ckpts
    short_csv = tmp_path / "zcp29.csv"
    short_csv.write_text("".join(files[13].read_text().splitlines(keepends=True)[:29]))
    kept = {line.split(",", 1)[0] for line in short_csv.read_text().splitlines()}
    first_missing = next(a.arch_id for a in asp.read_architectures(data / "archs.jsonl")
                         if a.arch_id not in kept)
    out = tmp_path / "out"
    common = ["--archs", str(data / "archs.jsonl"), "--checkpoint", str(ckpts[13]),
              "--encoding", str(short_csv)]
    argv = {
        "eval": ["eval", *common, "--latency", str(data / "latency.csv"), "--device", "d03",
                 "--out-prefix", str(out / "report")],
        "search": ["search", *common, "--device", "d03", "--constraint-ms", "1e9",
                   "--out", str(out / "r.csv")],
        "transfer": ["transfer", *common, "--latency", str(data / "latency.csv"),
                     "--split", str(split), "--samples", "8", "--out-dir", str(out)],
        "transfer-sampler": ["transfer", "--archs", str(data / "archs.jsonl"),
                             "--checkpoint", str(ckpts[0]), "--latency", str(data / "latency.csv"),
                             "--split", str(split), "--samples", "8", "--sampler", "cosine",
                             "--sampler-encoding", str(short_csv), "--out-dir", str(out)],
    }[command]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == f"error: {short_csv}: no row for arch {first_missing}\n"
    assert not out.exists()


def test_sampler_encoding_needs_rows_only_for_the_target_pools(knob_world, encoded_ckpts, tmp_path):
    """A cosine --sampler-encoding may lack an arch of --archs that the target does not measure."""
    root, data, split, _ = knob_world
    ckpts, _ = encoded_ckpts
    arch = asp.read_architectures(data / "archs.jsonl")[0].arch_id
    latency, zcp = tmp_path / "latency.csv", tmp_path / "zcp.csv"
    latency.write_text("".join(r for r in (data / "latency.csv").read_text().splitlines(keepends=True)
                               if not r.startswith(f"{arch},d03,")))
    zcp.write_text("".join(r for r in (data / "zcp.csv").read_text().splitlines(keepends=True)
                           if r.split(",")[0] != arch))
    assert run(["transfer", "--config", str(root / "base" / "run.json"), "--archs",
                str(data / "archs.jsonl"), "--checkpoint", str(ckpts[0]), "--latency", str(latency),
                "--split", str(split), "--samples", "8", "--sampler", "cosine",
                "--sampler-encoding", str(zcp), "--out-dir", str(tmp_path / "out")]) == 0


# --- a mutated archs.jsonl line is a data error at its line ---------------------------

def _mutated(line: str, kind: str, *args) -> str:
    """`line` with one field-level or byte-level fault of `kind`."""
    obj = json.loads(line)
    if kind == "flip":  # one adjacency entry 0 <-> 1
        i, j = args
        obj["adj"][i][j] ^= 1
    elif kind == "op":
        slot, value = args
        obj["ops"][slot] = value
    elif kind == "drop":
        del obj[args[0]]
    elif kind == "truncate":
        return json.dumps(obj, separators=(",", ":"))[: args[0]]
    return json.dumps(obj)


_OUT_OF_RANGE = st.one_of(st.integers(max_value=-1), st.integers(min_value=5))
_NOT_AN_INT = st.one_of(
    st.floats(allow_nan=False), st.text(max_size=3), st.none(), st.booleans(),
    st.lists(st.integers(0, 4), max_size=2),
)
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("op"), st.integers(0, 5), st.one_of(_OUT_OF_RANGE, _NOT_AN_INT)),
    st.tuples(st.just("drop"), st.sampled_from(["space", "adj", "ops"])),
    st.tuples(st.just("truncate"), st.integers(1, 150)),
)


@pytest.fixture(scope="module")
def small_archs(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated")
    path = root / "archs.jsonl"
    asp.write_architectures([asp.random_architecture(asp.get_space("nb201"), s) for s in range(4)], path)
    return root, path.read_text().splitlines()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(index=st.integers(0, 3), mutation=_MUTATION)
@example(index=1, mutation=("flip", 1, 6))  # an extra forward edge: still one source and sink
@example(index=2, mutation=("op", 3, 2.0))  # an integral float
def test_mutated_archs_line_is_a_data_error_at_its_line(small_archs, index, mutation):
    """`sample` on an archs file with one mutated line exits 3 naming `path:line`, never 4."""
    root, lines = small_archs
    bad = list(lines)
    bad[index] = _mutated(lines[index], *mutation)
    path, out = root / "archs.jsonl", root / "sel.json"
    path.write_text("\n".join(bad) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["sample", "--method", "random", "--archs", str(path), "--n", "2",
                    "--out", str(out)])
    assert code == 3, (bad[index], err.getvalue())
    assert f"{path}:{index + 1}: " in err.getvalue(), (bad[index], err.getvalue())
    assert not out.exists()
