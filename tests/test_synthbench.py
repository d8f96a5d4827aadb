"""Synthetic device oracle tests: determinism, clones, discounts, monotonicity."""

from __future__ import annotations

import numpy as np
import pytest

from nasflat import archspace as asp
from nasflat import synthbench as sb
from nasflat.devicesets import spearman
from oracles import distinct_architectures_oracle, latency_oracle


@pytest.fixture(scope="module")
def nb201():
    return asp.nb201_space()


@pytest.fixture(scope="module")
def fbnet():
    return asp.fbnet_space()


@pytest.fixture(scope="module")
def archs(nb201):
    return sb.distinct_random_architectures(nb201, 500, seed=2)


def _latencies(archs, device, space):
    return sb.latencies(archs, device, space)


def _latency(arch, device, space):
    return sb.latencies([arch], device, space)[0]


def test_clone_sigma_zero_identical(nb201, archs):
    parent = sb.gen_device(1, nb201, sigma=0.0)
    clone = sb.gen_device(2, nb201, sigma=0.0, clone_of=parent, device_id="c")
    assert np.array_equal(_latencies(archs[:50], parent, nb201), _latencies(archs[:50], clone, nb201))


def test_independent_devices_weakly_correlated(nb201, archs):
    # with 5 ops, two independent cost vectors still correlate ~|0.4| on
    # average; "low" is relative to clones at >= 0.95
    rhos = []
    for s in range(15):
        a = sb.gen_device(1000 + s, nb201, sigma=0.0)
        b = sb.gen_device(2000 + s, nb201, sigma=0.0)
        rhos.append(spearman(_latencies(archs, a, nb201), _latencies(archs, b, nb201)))
    assert np.mean(np.abs(rhos)) < 0.55
    assert np.min(np.abs(rhos)) < 0.3


def test_noisy_clone_highly_correlated(nb201, archs):
    parent = sb.gen_device(1, nb201, sigma=0.0)
    clone = sb.gen_device(3, nb201, sigma=0.05, clone_of=parent, device_id="c")
    rho = spearman(_latencies(archs, parent, nb201), _latencies(archs, clone, nb201))
    assert rho >= 0.95


def test_latency_is_pure_function_of_arch_and_device(nb201, archs):
    device = sb.gen_device(5, nb201, sigma=0.1)
    forward = _latencies(archs[:40], device, nb201).tolist()
    backward = _latencies(archs[39::-1], device, nb201).tolist()
    assert forward == backward[::-1]
    assert forward == [_latency(a, device, nb201) for a in archs[:40]]


def test_noiseless_no_discount_equals_layerwise_sum(nb201, archs):
    device = sb.gen_device(7, nb201, sigma=0.0, max_discount=0.0)
    for arch in archs[:50]:
        expected = sum(device.base_costs[op] for op in arch.ops)
        assert _latency(arch, device, nb201) == pytest.approx(expected, rel=1e-12)


def test_uniform_chain_cost(fbnet):
    device = sb.SyntheticDevice(
        device_id="flat", space_id="fbnet",
        base_costs=np.full(9, 2.5), fusion_discounts=np.zeros((9, 9)),
        noise_sigma=0.0, seed=0,
    )
    arch = asp.make_architecture(fbnet, [0] * 22)
    assert _latency(arch, device, fbnet) == pytest.approx(22 * 2.5)


def test_discounts_strictly_reduce_latency(nb201, archs):
    base = sb.gen_device(9, nb201, sigma=0.0, max_discount=0.0)
    discounted = sb.SyntheticDevice(
        device_id="disc", space_id="nb201",
        base_costs=base.base_costs,
        fusion_discounts=np.full((5, 5), 0.15),
        noise_sigma=0.0, seed=base.seed,
    )
    for arch in archs[:50]:
        plain = _latency(arch, base, nb201)
        with_discount = _latency(arch, discounted, nb201)
        assert with_discount < plain


def test_monotone_in_base_costs(nb201, archs):
    device = sb.gen_device(11, nb201, sigma=0.0, max_discount=0.2)
    before = _latencies(archs[:100], device, nb201)
    for op in range(5):
        costs = device.base_costs.copy()
        costs[op] += 1.0
        bumped = sb.SyntheticDevice(
            device_id="bump", space_id="nb201", base_costs=costs,
            fusion_discounts=device.fusion_discounts, noise_sigma=0.0, seed=device.seed,
        )
        after = _latencies(archs[:100], bumped, nb201)
        assert np.all(after >= before - 1e-12)


def test_gen_dataset_row_count_and_positivity(nb201, tmp_path):
    devices = [sb.gen_device(s, nb201, device_id=f"d{s}", sigma=0.02) for s in range(10)]
    table, archs_out = sb.gen_dataset(nb201, devices, 500, seed=4, out_dir=tmp_path)
    assert len(table) == 5000
    assert len(archs_out) == 500
    for d in table.devices():
        assert all(ms > 0 for ms in table.measured(d)[1][:20])


def test_gen_dataset_byte_identical(nb201, tmp_path):
    devices = [sb.gen_device(s, nb201, device_id=f"d{s}", sigma=0.02) for s in range(3)]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    sb.gen_dataset(nb201, devices, 40, seed=4, out_dir=dir_a)
    sb.gen_dataset(nb201, devices, 40, seed=4, out_dir=dir_b)
    for name in ("archs.jsonl", "latency.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_planted_clusters_recovered_by_correlation(nb201):
    from nasflat.devicesets import correlation_matrix

    parent_a = sb.gen_device(100, nb201, device_id="a0", sigma=0.02)
    parent_b = sb.gen_device(200, nb201, device_id="b0", sigma=0.02)
    family = [
        parent_a,
        sb.gen_device(101, nb201, device_id="a1", sigma=0.02, clone_of=parent_a, cost_jitter=0.05),
        parent_b,
        sb.gen_device(201, nb201, device_id="b1", sigma=0.02, clone_of=parent_b, cost_jitter=0.05),
    ]
    archs = sb.distinct_random_architectures(nb201, 300, seed=0)
    table = sb.measure(archs, family, nb201)
    ids = ["a0", "a1", "b0", "b1"]
    corr = correlation_matrix(table, ids)
    within = (corr[0, 1] + corr[2, 3]) / 2
    across = np.mean([corr[0, 2], corr[0, 3], corr[1, 2], corr[1, 3]])
    assert within > across + 0.2


@pytest.mark.parametrize("space_id", ["nb201", "fbnet"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_bulk_latencies_equal_the_scalar_oracle(space_id, sigma):
    """Each latency keeps the bits of the scalar per-pair computation, noise on and off."""
    space = asp.get_space(space_id)
    archs = sb.distinct_random_architectures(space, 300, seed=8)
    for device in sb.mixed_family(space, 4, seed=3, sigma=sigma):
        got = sb.latencies(archs, device, space).tolist()
        assert repr(got) == repr([float(latency_oracle(a, device, space)) for a in archs])


@pytest.mark.parametrize("space_id, n", [("nb201", 3000), ("fbnet", 1500)])
def test_distinct_random_architectures_equal_the_draw_by_draw_oracle(space_id, n):
    """The bulk draw keeps every arch, and their order, of one Generator per draw;
    nb201 at n=3000 skips about 300 repeated draws across three draw blocks."""
    space = asp.get_space(space_id)
    want, draws = distinct_architectures_oracle(space, n, seed=11)
    got = sb.distinct_random_architectures(space, n, seed=11)
    assert [a.arch_id for a in got] == [a.arch_id for a in want]
    assert [a.ops for a in got] == [a.ops for a in want]
    if space_id == "nb201":
        assert draws - n > 200 and draws > 2 * sb.DRAW_BLOCK
