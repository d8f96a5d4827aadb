"""The one read path: each manifest lists exactly the files its command read, and
the loaders built on it round-trip their writers' files."""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nasflat import cli
from nasflat.archspace import (
    EncodingTable,
    get_space,
    load_encoding_table,
    make_architecture,
    read_architectures,
    save_encoding_table,
    write_architectures,
)
from nasflat.devicesets import LatencyTable

# --- the manifest equals the files read -------------------------------------------

# Paths opened for reading, while a test sets this to a list. An audit hook
# cannot be removed, so the one installed below stays and checks this switch.
_OPENED: list[str] | None = None


def _note_read(event: str, args: tuple) -> None:
    if event == "open" and _OPENED is not None and isinstance(args[0], (str, bytes)):
        if args[2] & os.O_ACCMODE == os.O_RDONLY:
            _OPENED.append(os.fsdecode(args[0]))


sys.addaudithook(_note_read)


def test_each_manifest_lists_the_files_its_command_read_once(tmp_path):
    """Every subcommand of a tiny flow, in process: the files it opens for reading under
    the run directory are its manifest's `inputs`, checkpoint metas included, each once."""
    data, ckpt, tdir = tmp_path / "data", tmp_path / "ckpt.json", tmp_path / "transfers"
    latency, archs, zcp = (str(data / n) for n in ("latency.csv", "archs.jsonl", "zcp.csv"))
    split, config = tmp_path / "split.json", tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "train": {
        "epochs": 1, "source_samples": 12, "transfer_epochs": 1}}))
    common = ["--latency", latency, "--archs", archs]
    train = [*common, "--config", str(config), "--split", str(split), "--encoding", zcp]
    problems = []

    def check(manifest: Path, *argv: str) -> None:
        global _OPENED
        _OPENED = []
        try:
            assert cli.main(list(argv)) == 0
            opened = sorted(p for p in _OPENED if p.startswith(str(tmp_path)))
        finally:
            _OPENED = None
        inputs = sorted(json.loads(manifest.read_text())["inputs"])
        if sorted(set(opened)) != inputs:
            problems.append(f"{argv[0]} read {sorted(set(opened))}, its manifest lists {inputs}")
        if len(opened) != len(set(opened)):
            problems.append(f"{argv[0]} opened a file more than once: {opened}")

    check(data / "manifest.json", "synth", "--space", "nb201", "--devices", "6", "--archs", "30",
          "--seed", "1", "--out-dir", str(data))
    check(Path(f"{split}.manifest.json"), "partition", "--latency", latency, "--m", "2", "--n", "2",
          "--out", str(split))
    check(tmp_path / "sample.json.manifest.json", "sample", "--method", "cosine", *common,
          "--n", "3", "--encoding", zcp, "--out", str(tmp_path / "sample.json"))
    check(Path(f"{ckpt}.manifest.json"), "pretrain", *train, "--out", str(ckpt))
    check(tdir / "manifest.json", "transfer", *train, "--checkpoint", str(ckpt),
          "--sampler", "cosine", "--sampler-encoding", zcp, "--samples", "4", "--out-dir", str(tdir))
    check(tmp_path / "report.manifest.json", "eval", *common, "--checkpoint", str(tdir),
          "--encoding", zcp, "--out-prefix", str(tmp_path / "report"))
    target = json.loads(split.read_text())["target"][0]
    check(tmp_path / "r.csv.manifest.json", "search", *common, "--encoding", zcp,
          "--checkpoint", str(tdir / f"transfer_{target}.json"), "--constraint-ms", "1e9",
          "--out", str(tmp_path / "r.csv"))
    assert problems == []
    metas = json.loads((tmp_path / "report.manifest.json").read_text())["inputs"]
    assert sum(p.endswith(".meta.json") for p in metas) == 2


def test_a_pipe_is_read_whole(tmp_path):
    """A pipe, such as a shell's `<(...)`, has no size to read up to; all its bytes are parsed."""
    fifo = tmp_path / "latency.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("arch_id,device_id,latency_ms\na,d,1.5\n",))
    writer.start()
    table = LatencyTable.load_csv(fifo)
    writer.join()
    assert dict(zip(*table.measured("d"))) == {"a": 1.5}


# --- loaders round-trip their writers' files --------------------------------------

_IDS = st.from_regex(r"[a-z0-9_]{1,6}", fullmatch=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"])
_PROPERTY = settings(max_examples=25, derandomize=True, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _with_endings(path: Path, ending: bytes) -> None:
    path.write_bytes(path.read_bytes().replace(b"\n", ending))


@_PROPERTY
@given(rows=st.dictionaries(st.tuples(_IDS, _IDS), st.floats(min_value=5e-324, allow_infinity=False),
                            max_size=6),
       ending=_ENDINGS)
def test_latency_csv_round_trips_bit_for_bit(tmp_path, rows, ending):
    by_device = {}
    for (arch, device), ms in rows.items():
        by_device.setdefault(device, {})[arch] = ms
    table = LatencyTable(by_device)
    path = tmp_path / "latency.csv"
    table.save_csv(path)
    _with_endings(path, ending)
    back = LatencyTable.load_csv(path)
    got = {(a, d): float(ms).hex() for d in back.devices() for a, ms in zip(*back.measured(d))}
    assert got == {key: ms.hex() for key, ms in rows.items()}


@_PROPERTY
@given(table=st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just(dim), st.dictionaries(
           _IDS, st.lists(_FINITE, min_size=dim, max_size=dim), max_size=4))),
       ending=_ENDINGS)
def test_encoding_csv_round_trips_bit_for_bit(tmp_path, table, ending):
    dim, rows = table
    path = tmp_path / "zcp.csv"
    save_encoding_table(EncodingTable(dim, {k: list(v) for k, v in rows.items()}), path)
    _with_endings(path, ending)
    back = load_encoding_table(path)
    assert back.dim == dim
    assert {k: v.tobytes() for k, v in back.rows.items()} == {
        k: np.array(v, dtype=np.float64).tobytes() for k, v in rows.items()}


def _fields(arch) -> tuple:
    return arch.space_id, arch.ops, arch.arch_id


def _archs(space_id: str):
    space = get_space(space_id)
    ops = st.lists(st.integers(0, len(space.op_vocab) - 1),
                   min_size=space.slot_count, max_size=space.slot_count)
    return ops.map(lambda o: make_architecture(space, o))


@_PROPERTY
@given(archs=st.lists(st.sampled_from(["nb201", "fbnet"]).flatmap(_archs), max_size=4),
       ending=_ENDINGS)
def test_archs_jsonl_round_trips(tmp_path, archs, ending):
    path = tmp_path / "archs.jsonl"
    write_architectures(archs, path)
    _with_endings(path, ending)
    assert [_fields(a) for a in read_architectures(path)] == [_fields(a) for a in archs]
