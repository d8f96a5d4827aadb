"""Spearman oracle, latency table, correlation matrix, KL bisection, and pruning tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DictLatencyTable,
    balanced_bipartitions,
    cut_weight,
    fractional_ranks_by_scan,
    pairwise_correlation_matrix,
    pairwise_partition,
    prune_oracle,
    scan_kl_bisect,
    spearman_oracle,
)

from nasflat import devicesets as ds
from nasflat.errors import (
    BadField,
    ConstantInput,
    InsufficientOverlap,
    LengthMismatch,
    NonFiniteValue,
    ParseError,
    SideTooSmall,
    TooFewDevices,
)


# --- spearman ------------------------------------------------------------------

def test_spearman_trivial_values():
    assert ds.spearman([1, 2, 3], [1, 2, 3]) == 1.0
    assert ds.spearman([1, 2, 3], [3, 2, 1]) == -1.0


def test_spearman_exact_point_eight():
    assert ds.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        ds.spearman([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        ds.spearman([1], [2])
    with pytest.raises(ConstantInput):
        ds.spearman([2, 2, 2], [1, 2, 3])
    with pytest.raises(ConstantInput):
        ds.spearman([1, 2, 3], [5, 5, 5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spearman_rejects_non_finite(bad):
    with pytest.raises(NonFiniteValue):
        ds.spearman([1, 2, bad, 4], [1, 2, 3, 4])
    with pytest.raises(NonFiniteValue):
        ds.spearman([1, 2, 3, 4], [1, bad, 3, 4])


def test_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 30))
        if rng.random() < 0.5:
            x = rng.integers(0, 5, size=n).astype(float)  # force ties
            y = rng.integers(0, 5, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert ds.spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(x=st.one_of(
    st.lists(st.integers(-3, 3), min_size=2, max_size=300),  # tie-heavy
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=300),
))
def test_fractional_ranks_match_the_tie_group_scan(x):
    """The vectorized ranks are bit for bit those of the per-element scan."""
    x = np.asarray(x, dtype=np.float64)
    assert ds._fractional_ranks(x).tobytes() == fractional_ranks_by_scan(x).tobytes()


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = ds.spearman(x, y)
        assert ds.spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert ds.spearman(x, 3.5 * y + 11.0) == pytest.approx(base, abs=1e-12)


# --- latency table ---------------------------------------------------------------

def test_latency_table_roundtrip(tmp_path):
    # 0.1 + 0.2 is a value whose shortest repr has 17 digits
    table = ds.LatencyTable({"dev0": {"a3": 0.1 + 0.2, "a1": 2.5, "a2": 1.25}, "dev1": {"a1": 7.0}})
    path = tmp_path / "lat.csv"
    table.save_csv(path)
    loaded = ds.LatencyTable.load_csv(path)
    assert dict(zip(*loaded.measured("dev0"))) == {"a1": 2.5, "a2": 1.25, "a3": 0.1 + 0.2}
    assert sorted(loaded.devices()) == ["dev0", "dev1"]
    # measured, on the table as built (rows out of order) and as loaded: distinct ids sorted by
    # arch_id, unmeasured ones skipped, latencies bit-equal to the CSV
    rows = (line.split(",") for line in path.read_text().splitlines()[1:])
    csv = {(a, d): float(ms) for a, d, ms in rows}
    for device, arch_ids, want in [
        ("dev0", ["a3", "a1", "a9", "a3", "a1"], ["a1", "a3"]),
        ("dev0", None, ["a1", "a2", "a3"]),  # None: every arch measured on the device
        ("dev1", ("a2", "a1", "a1"), ["a1"]),
        ("dev1", [], []),
        ("nope", ["a1"], []),  # an unknown device measures nothing
        ("nope", None, []),
    ]:
        for source in (table, loaded):
            ids, ms = source.measured(device, arch_ids)
            assert ids == want
            assert ms.dtype == np.float64 and ms.shape == (len(want),)
            assert [v.hex() for v in ms.tolist()] == [csv[a, device].hex() for a in want]


def test_latency_table_rejects_duplicates_and_nonpositive(tmp_path):
    with pytest.raises(ValueError, match=r"^latency must be finite and positive, got 0.0 for b/d$"):
        ds.LatencyTable({"d": {"a": 1.0, "b": 0.0}})
    path = tmp_path / "lat.csv"
    path.write_text("arch_id,device_id,latency_ms\na,d,1.0\nb,e,2.0\na,d,2.0\n")
    with pytest.raises(ParseError, match=r"lat\.csv:4: duplicate measurement for \(a, d\)$"):
        ds.LatencyTable.load_csv(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_latency_table_rejects_non_finite(tmp_path, bad):
    with pytest.raises(ValueError, match="finite"):
        ds.LatencyTable({"d": {"a": bad}})
    path = tmp_path / "lat.csv"
    path.write_text(f"arch_id,device_id,latency_ms\na,d,1.5\nb,d,{bad}\n")
    with pytest.raises(ParseError, match=r"lat\.csv:3:"):
        ds.LatencyTable.load_csv(path)


def test_latency_table_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("arch,device,ms\n")
    with pytest.raises(ParseError):
        ds.LatencyTable.load_csv(path)


# --- correlation matrix -------------------------------------------------------

def _table_from_matrix(values, devices):
    return ds.LatencyTable({d: {f"arch{i}": float(v) for i, v in enumerate(col)}
                            for d, col in zip(devices, np.asarray(values).T)})


def test_correlation_matrix_clone_and_reverse():
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    values = np.stack([base, base, 6.0 - base], axis=1)
    table = _table_from_matrix(values, ["d0", "clone", "mirror"])
    corr = ds.correlation_matrix(table, ["d0", "clone", "mirror"])
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.all(np.diag(corr) == 1.0)


def test_correlation_matrix_planted_values():
    # bivariate-normal copula: spearman = 6/pi * asin(r/2)
    rng = np.random.default_rng(11)
    n = 500
    base = rng.normal(size=n)
    planted = [0.9, 0.1, 0.1]
    cols = [base]
    for rho_s in planted:
        r = 2.0 * math.sin(math.pi * rho_s / 6.0)
        cols.append(r * base + math.sqrt(1 - r * r) * rng.normal(size=n))
    values = np.exp(np.stack(cols, axis=1))  # positive latencies
    devices = ["base", "high", "low1", "low2"]
    table = _table_from_matrix(values, devices)
    corr = ds.correlation_matrix(table, devices)
    for j, rho_s in enumerate(planted, start=1):
        assert corr[0, j] == pytest.approx(rho_s, abs=0.05)


def test_correlation_matrix_insufficient_overlap():
    table = ds.LatencyTable({"d0": {"a": 1.0, "b": 3.0}, "d1": {"a": 2.0}})
    with pytest.raises(InsufficientOverlap):
        ds.correlation_matrix(table, ["d0", "d1"])


# --- kl_bisect --------------------------------------------------------------------

def test_kl_two_devices():
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    a, b = ds.kl_bisect(corr, seed=0)
    assert len(a) == 1 and len(b) == 1
    assert set(a) | set(b) == {0, 1}


def test_kl_too_few():
    with pytest.raises(TooFewDevices):
        ds.kl_bisect(np.eye(1), seed=0)


def test_kl_perfect_pairs_split_apart():
    # two perfectly correlated pairs: correlation 1 within pairs, 0 across
    corr = np.eye(4)
    corr[0, 1] = corr[1, 0] = 1.0
    corr[2, 3] = corr[3, 2] = 1.0
    side_a, side_b = ds.kl_bisect(corr, seed=0)
    # brute-force optimum of the cut objective over all balanced bipartitions
    best_cut = min(
        cut_weight(-corr, a, b) for a, b in balanced_bipartitions(4)
    )
    got = cut_weight(-corr, side_a, side_b)
    assert got == pytest.approx(best_cut)
    # the optimum separates each correlated pair
    assert (0 in side_a) != (1 in side_a)
    assert (2 in side_a) != (3 in side_a)


def test_kl_beats_most_bipartitions_on_random_graphs():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.choice([3, 4, 5, 6, 7, 8]))
        corr = rng.uniform(-1, 1, size=(n, n))
        corr = (corr + corr.T) / 2
        side_a, side_b = ds.kl_bisect(corr, seed=trial)
        assert sorted([len(side_a), len(side_b)]) == [n // 2, n - n // 2]
        assert not set(side_a) & set(side_b)
        assert set(side_a) | set(side_b) == set(range(n))  # no phantom row
        got = cut_weight(-corr, side_a, side_b)
        cuts = sorted(cut_weight(-corr, a, b) for a, b in balanced_bipartitions(n))
        beaten = sum(1 for c in cuts if got <= c + 1e-12)
        assert beaten / len(cuts) >= 0.95


# --- prune_to_sizes --------------------------------------------------------------

def test_prune_noop_when_sizes_match():
    corr = 0.1 * (1 - np.eye(4))
    assert ds.prune_to_sizes(([0, 1], [2, 3]), 2, 2, corr) == ([0, 1], [2, 3])


def test_prune_removes_strongest_cross_correlator_first():
    corr = np.eye(3)
    corr[0, 2] = corr[2, 0] = 0.99
    corr[1, 2] = corr[2, 1] = 0.05
    corr[0, 1] = corr[1, 0] = 0.1
    # side (0, 1) must shrink to one device; row 0 correlates 0.99 with row 2
    source, _ = ds.prune_to_sizes(([0, 1], [2]), 1, 1, corr)
    assert source == [1]


def test_prune_side_too_small():
    with pytest.raises(SideTooSmall):
        ds.prune_to_sizes(([0], [1, 2]), 2, 2, np.eye(3))


def test_prune_matches_greedy_oracle():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n_dev = 8
        corr = rng.uniform(-1, 1, size=(n_dev, n_dev))
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        side_a = list(range(4))
        side_b = list(range(4, 8))
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        source, target = ds.prune_to_sizes((side_a, side_b), m, n, corr)
        oa, ob, _ = prune_oracle(side_a, side_b, m, n, range(n_dev), corr)
        assert source == oa
        assert target == ob


def test_split_json_roundtrip():
    split = ds.DeviceSplit(("a", "b"), ("c",), objective=0.25)
    again = ds.DeviceSplit.from_json(split.to_json())
    assert again == split


def test_full_partition_beats_random_splits_on_paired_family():
    """The pruned split's mean source<->target correlation is lower than the
    average of random same-size splits on a family of correlated pairs."""
    rng = np.random.default_rng(21)
    n_pairs = 5
    n_arch = 120
    rows = {}
    for p in range(n_pairs):
        base = rng.normal(size=n_arch)
        for member in range(2):
            noisy = base + 0.15 * rng.normal(size=n_arch)
            rows[f"p{p}m{member}"] = {f"arch{i}": float(np.exp(v)) for i, v in enumerate(noisy)}
    table, devices = ds.LatencyTable(rows), list(rows)
    split = ds.partition(table, 3, 2, seed=1)

    corr = ds.correlation_matrix(table, devices)
    index = {d: i for i, d in enumerate(devices)}

    def mean_cross(src, tgt):
        return float(np.mean([corr[index[a], index[b]] for a in src for b in tgt]))

    split_rng = np.random.default_rng(2)
    randoms = []
    for _ in range(100):
        perm = list(split_rng.permutation(devices))
        randoms.append(mean_cross(perm[:3], perm[3:5]))
    assert mean_cross(split.source, split.target) <= np.mean(randoms)


@pytest.mark.parametrize("doc, pointer", [
    ('{"source": [""], "target": ["b"], "objective": 0.0}', "/source/0"),
    ('{"source": ["a"], "target": ["b", ""], "objective": 0.0}', "/target/1"),
])
def test_split_refuses_an_empty_device_id(doc, pointer):
    with pytest.raises(BadField, match=f"^{pointer}: empty device id$"):
        ds.DeviceSplit.from_json(doc)


# --- the matrix table against the dict-of-dicts reference ----------------------------

def _outcome(fn, *args):
    """fn(*args) as ("ok", value), an array as the float.hex of its entries and a
    split as its pools and objective bits, or the type name and message of what it
    raised."""
    try:
        value = fn(*args)
    except Exception as e:  # noqa: BLE001 - the reference may raise anything
        return type(e).__name__, str(e)
    if isinstance(value, np.ndarray):
        value = [v.hex() for v in value.ravel().tolist()]
    elif isinstance(value, ds.DeviceSplit):
        value = value.source, value.target, value.objective.hex()
    return "ok", value


def _random_tables(count, seed):
    """`count` (matrix table, dict table, device ids, arch ids) built from the same
    entries, added in a random order: 2-12 devices, 2-60 archs, a third of the
    tables complete and the rest missing up to 60% of their entries, half with
    tie-heavy latencies, and every fourth with one constant device."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        k, n = int(rng.integers(2, 13)), int(rng.integers(2, 61))
        if t % 2:
            values = rng.integers(1, 6, size=(k, n)) * 0.5
        else:
            values = np.exp(rng.normal(size=(k, n)))
        if t % 4 == 3:
            values[int(rng.integers(k))] = 1.5
        present = rng.random((k, n)) >= (0.0 if t % 3 == 0 else rng.uniform(0.0, 0.6))
        devices = [f"d{i:02d}" for i in rng.permutation(k)]
        archs = [f"a{j:02d}" for j in rng.permutation(n)]
        entries = [(archs[j], devices[i], float(values[i, j])) for i, j in zip(*np.nonzero(present))]
        old, rows = DictLatencyTable(), {}
        for e in rng.permutation(len(entries)):
            arch, device, ms = entries[e]
            old.add(arch, device, ms)
            rows.setdefault(device, {})[arch] = ms
        yield ds.LatencyTable(rows), old, devices, archs


def _same_table(new, old):
    assert new.devices() == old.devices()
    assert len(new) == len(old)
    for device in old.devices():
        ids, ms = new.measured(device)
        want_ids, want_ms = old.measured(device)
        assert ids == want_ids and ms.tobytes() == want_ms.tobytes()


def test_matrix_table_matches_the_dict_table(tmp_path):
    """measured, subset, devices, len and save_csv bytes agree on 300 random tables,
    with unknown ids and an unknown device."""
    rng = np.random.default_rng(1)
    for t, (new, old, devices, archs) in enumerate(_random_tables(300, seed=0)):
        _same_table(new, old)
        for device in devices + ["unknown"]:
            picked = [archs[j] for j in rng.integers(len(archs), size=5)] + ["unknown", archs[0]]
            for arch_ids in (None, picked, [], ["unknown"]):
                ids, ms = new.measured(device, arch_ids)
                want_ids, want_ms = old.measured(device, arch_ids)
                assert ids == want_ids and ms.dtype == want_ms.dtype and ms.tobytes() == want_ms.tobytes()
        keep_devices = list(rng.choice(devices + ["unknown"], size=int(rng.integers(0, 4))))
        keep_archs = list(rng.choice(archs + ["unknown"], size=int(rng.integers(0, 8))))
        for device_ids, arch_ids in [(None, None), (keep_devices, None), (None, keep_archs),
                                     (keep_devices, keep_archs)]:
            _same_table(new.subset(device_ids, arch_ids), old.subset(device_ids, arch_ids))
        new.save_csv(tmp_path / "new.csv")
        old.save_csv(tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), t


def test_correlation_matrix_and_partition_match_the_pairwise_reference():
    """correlation_matrix matches float.hex for float.hex, or raises the same error,
    and partition gives the same pools, objective bits and messages, on 300 random
    tables with missing entries, ties and constant devices."""
    rng = np.random.default_rng(2)
    outcomes = {}
    for new, old, devices, _ in _random_tables(300, seed=0):
        for order in (sorted(devices), sorted(devices) + ["unknown"]):
            assert _outcome(ds.correlation_matrix, new, order) == _outcome(pairwise_correlation_matrix, old, order)
        m, n, seed = int(rng.integers(1, len(devices))), int(rng.integers(1, len(devices))), int(rng.integers(99))
        got = _outcome(ds.partition, new, m, n, seed)
        assert got == _outcome(pairwise_partition, old, m, n, seed)
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
    # every partition that got past the correlations bisected its matrix
    assert outcomes == {"ok": 101, "SideTooSmall": 110, "ConstantInput": 71, "InsufficientOverlap": 18}


def test_kl_bisect_matches_the_nested_scan_on_tied_gains():
    """800 correlation matrices of quarter steps, whose swap gains tie often: the
    argmax pair search bisects as the nested (a, b) scan did. With the partitions
    of the test above, which bisect 211 more matrices, that is 1,011 cases."""
    rng = np.random.default_rng(3)
    for _ in range(800):
        n = int(rng.integers(2, 9))
        corr = rng.integers(-4, 5, size=(n, n)) / 4.0
        corr = (corr + corr.T) / 2.0
        seed = int(rng.integers(1000))
        assert ds.kl_bisect(corr, seed) == scan_kl_bisect(corr, seed)


def test_a_complete_table_ranks_each_device_once(monkeypatch):
    calls = []
    rank = ds._fractional_ranks
    monkeypatch.setattr(ds, "_fractional_ranks", lambda x: calls.append(len(x)) or rank(x))
    rng = np.random.default_rng(4)
    table = _table_from_matrix(np.exp(rng.normal(size=(40, 9))), [f"d{i}" for i in range(9)])
    ds.correlation_matrix(table, table.devices())
    assert calls == [40] * 9
    calls.clear()
    ds.partition(table, 4, 4, seed=0)
    assert calls == [40] * 9
