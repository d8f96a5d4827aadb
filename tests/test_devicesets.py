"""Spearman oracle, correlation graph, KL bisection, and pruning tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    balanced_bipartitions,
    cut_weight,
    fractional_ranks_by_scan,
    prune_oracle,
    spearman_oracle,
)

from nasflat import devicesets as ds
from nasflat.errors import (
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
    table = ds.LatencyTable()
    table.add("a3", "dev0", 0.1 + 0.2)  # a value whose shortest repr has 17 digits
    table.add("a1", "dev0", 2.5)
    table.add("a2", "dev0", 1.25)
    table.add("a1", "dev1", 7.0)
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


def test_latency_table_rejects_duplicates_and_nonpositive():
    table = ds.LatencyTable()
    table.add("a", "d", 1.0)
    with pytest.raises(ValueError):
        table.add("a", "d", 2.0)
    with pytest.raises(ValueError):
        table.add("b", "d", 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_latency_table_rejects_non_finite(tmp_path, bad):
    with pytest.raises(ValueError, match="finite"):
        ds.LatencyTable().add("a", "d", bad)
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
    table = ds.LatencyTable()
    for i, row in enumerate(values):
        for d, v in zip(devices, row):
            table.add(f"arch{i}", d, float(v))
    return table


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
    table = ds.LatencyTable()
    table.add("a", "d0", 1.0)
    table.add("a", "d1", 2.0)
    table.add("b", "d0", 3.0)
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
    table = ds.LatencyTable()
    devices = []
    for p in range(n_pairs):
        base = rng.normal(size=n_arch)
        for member in range(2):
            dev = f"p{p}m{member}"
            devices.append(dev)
            noisy = base + 0.15 * rng.normal(size=n_arch)
            for i, v in enumerate(noisy):
                table.add(f"arch{i}", dev, float(np.exp(v)))
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
