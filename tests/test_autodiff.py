"""Gradient, optimizer, and tape-behavior tests for the autodiff engine."""

from __future__ import annotations

import sys
import threading
import weakref

import numpy as np
import pytest
from oracles import finite_diff_check

from nasflat import autodiff as ad
from nasflat.errors import NonScalarLoss, ShapeMismatch

RNG = np.random.default_rng(1234)


def _fd_check(build_loss, params, n_samples=40, tol=1e-6, seed=0):
    report = finite_diff_check(build_loss, params, n_samples=n_samples, seed=seed)
    assert report.max_rel_err < tol, (
        f"max rel err {report.max_rel_err:.3e} at {report.worst_param}[{report.worst_index}]"
    )


def test_matmul_gradient():
    a = ad.param(RNG.normal(size=(5, 4)))
    b = ad.param(RNG.normal(size=(4, 3)))
    _fd_check(lambda: ad.sum_all(ad.matmul(a, b)), {"a": a, "b": b})


def test_matmul_batched_broadcast_gradient():
    a = ad.param(RNG.normal(size=(3, 5, 4)))
    w = ad.param(RNG.normal(size=(4, 2)))
    params = {"a": a, "w": w}
    _fd_check(lambda: ad.sum_all(ad.matmul(a, w)), params)
    # broadcast on the left operand: (n,n) @ (B,n,d)
    m = ad.param(RNG.normal(size=(5, 5)))
    x = ad.param(RNG.normal(size=(3, 5, 4)))
    _fd_check(lambda: ad.sum_all(ad.matmul(m, x)), {"m": m, "x": x})


def test_matmul_stacked_rows_gradient():
    """(B,N,k) @ (k,m) and (1,N,k) @ (k,m) take the one-GEMM path."""
    w = ad.param(RNG.normal(size=(4, 3)))
    weights = RNG.normal(size=(3, 5, 3))
    for lead in (3, 1):
        a = ad.param(RNG.normal(size=(lead, 5, 4)))
        _fd_check(lambda: ad.sum_all(ad.mul(ad.matmul(a, w), weights[:lead])), {"a": a, "w": w})
        # the forward is the same product as a per-slice matmul
        assert np.allclose(ad.matmul(a, w).data, np.stack([s @ w.data for s in a.data]), rtol=1e-14)


def test_shared_rows_broadcast_product_gradient():
    """A (1,N,m) tensor times a (B,N,m) one: the shared operand's gradient sums over B."""
    shared = ad.param(RNG.normal(size=(1, 5, 3)))
    per_arch = ad.param(RNG.normal(size=(4, 5, 3)))
    weights = RNG.normal(size=(4, 5, 3))
    out = ad.mul(shared, per_arch)
    assert out.shape == (4, 5, 3)
    _fd_check(
        lambda: ad.sum_all(ad.mul(ad.mul(shared, per_arch), weights)),
        {"shared": shared, "per_arch": per_arch},
    )


def test_elementwise_and_bias_broadcast_gradients():
    x = ad.param(RNG.normal(size=(4, 6)))
    b = ad.param(RNG.normal(size=(6,)))
    y = ad.param(RNG.normal(size=(4, 6)))
    _fd_check(lambda: ad.sum_all(ad.mul(ad.add(x, b), y)), {"x": x, "b": b, "y": y})
    _fd_check(lambda: ad.sum_all(ad.sub(x, y)), {"x": x, "y": y})


def test_activation_gradients():
    # inputs bounded away from the relu/leaky kinks at 0
    base = RNG.normal(size=(5, 7))
    base = np.where(np.abs(base) < 0.05, 0.3, base)
    x = ad.param(base)
    _fd_check(lambda: ad.sum_all(ad.sigmoid(x)), {"x": x})
    _fd_check(lambda: ad.sum_all(ad.relu(x)), {"x": x})
    _fd_check(lambda: ad.sum_all(ad.leaky_relu(x, 0.2)), {"x": x})
    _fd_check(lambda: ad.mean_all(ad.mul(x, x)), {"x": x})


def test_masked_softmax_gradient_and_values():
    mask = np.array([[1, 1, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]])
    x = ad.param(RNG.normal(size=(4, 4)))
    weights = RNG.normal(size=(4, 4))
    _fd_check(lambda: ad.sum_all(ad.mul(ad.masked_softmax(x, mask), weights)), {"x": x})

    out = ad.masked_softmax(ad.param([[3.0, -1.0, 9.9], [0.0, 0.0, 0.0]]), np.array([[0, 1, 0], [1, 1, 1]]))
    assert out.data[0, 1] == 1.0  # singleton support takes all the mass
    assert np.allclose(out.data[1], 1.0 / 3.0)


def test_masked_softmax_empty_row_is_zero():
    out = ad.masked_softmax(ad.param([[1.0, 2.0]]), np.array([[0, 0]]))
    assert np.all(out.data == 0.0)


def test_layer_norm_gradient_and_constant_row():
    x = ad.param(RNG.normal(size=(3, 8)))
    g = ad.param(RNG.normal(size=(8,)))
    b = ad.param(RNG.normal(size=(8,)))
    weights = RNG.normal(size=(3, 8))
    _fd_check(lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), weights)), {"x": x, "g": g, "b": b})

    const = ad.layer_norm(ad.param(np.full((2, 5), 3.7)), ad.param(np.ones(5)), ad.param(np.zeros(5)))
    assert np.allclose(const.data, 0.0)  # mean subtraction zeroes a constant row


def test_concat_gather_take_transpose_gradients():
    t = ad.param(RNG.normal(size=(6, 4)))
    idx = np.array([[0, 2, 5], [1, 1, 3]])
    w1 = RNG.normal(size=(2, 3, 4))
    _fd_check(lambda: ad.sum_all(ad.mul(ad.gather(t, idx), w1)), {"t": t})

    a = ad.param(RNG.normal(size=(3, 4)))
    b = ad.param(RNG.normal(size=(3, 2)))
    w2 = RNG.normal(size=(3, 6))
    _fd_check(lambda: ad.sum_all(ad.mul(ad.concat([a, b]), w2)), {"a": a, "b": b})

    x = ad.param(RNG.normal(size=(2, 5, 3)))
    w3 = RNG.normal(size=(2, 3))
    w4 = RNG.normal(size=(2, 3, 5))
    _fd_check(lambda: ad.sum_all(ad.mul(ad.take_rows(x, 2), w3)), {"x": x})
    _fd_check(lambda: ad.sum_all(ad.mul(ad.transpose_last2(x), w4)), {"x": x})


def test_take_rows_values_and_gradient():
    x = ad.param(RNG.normal(size=(2, 5, 3)))
    rows = np.array([4, 0, 2])
    w = RNG.normal(size=(2, 3, 3))
    assert np.array_equal(ad.take_rows(x, rows).data, x.data[:, rows, :])
    assert ad.take_rows(x, 1).shape == (2, 3)
    _fd_check(lambda: ad.sum_all(ad.mul(ad.take_rows(x, rows), w)), {"x": x})
    with ad.recording() as tape:
        loss = ad.sum_all(ad.mul(ad.take_rows(x, rows), w))
    g = ad.backward(tape, loss)[x]
    assert np.array_equal(g[:, rows, :], w)
    assert np.all(g[:, [1, 3], :] == 0.0)  # unread rows get exact zeros


def test_stacked_rows_matmul_bits_do_not_depend_on_row_count():
    """A row's product has the same bits alone as among other rows (no GEMV for one row)."""
    a = RNG.normal(size=(1, 6, 48))
    w = RNG.normal(size=(48, 128))
    full = ad.matmul(a, w).data
    for r in range(6):
        assert np.array_equal(ad.matmul(a[:, r : r + 1], w).data[0, 0], full[0, r])


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.param(0.0)).data == 0.5


def test_sigmoid_matches_two_branch_form():
    v = np.concatenate([RNG.normal(scale=20.0, size=200), [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
    e = np.exp(-np.abs(v))
    with np.errstate(invalid="ignore"):
        two_branch = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = ad.sigmoid(ad.param(v)).data
    assert np.array_equal(got, two_branch, equal_nan=True)
    assert got[-3] == 1.0 and got[-2] == 0.0


_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300]


def _same_bits(got, want):
    """Equal bytes everywhere except NaN, where only NaN-ness must match."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == want[~nan].tobytes()
    )


def _with_specials(rng, shape, scale):
    """Normal entries with every special value planted in the first rows."""
    if shape == ():
        return [np.array(v) for v in _SPECIALS + [0.3, -2.5]]
    v = rng.normal(scale=scale, size=shape)
    rows = v.reshape(-1, shape[-1])
    rows[: len(_SPECIALS), 0] = _SPECIALS
    rows[len(_SPECIALS)] = _SPECIALS[3:5] * (shape[-1] // 2)  # +-0
    rows[len(_SPECIALS) + 1] = _SPECIALS[5:7] * (shape[-1] // 2)  # +-1e-300
    return [v]


@pytest.mark.parametrize("shape", [(), (16, 8, 128), (64, 22, 128)], ids=str)
def test_sigmoid_forward_and_backward_bitwise_equal_textbook(shape):
    """The three-buffer forward and two-buffer backward keep the textbook bits."""
    rng = np.random.default_rng(7)
    for v in _with_specials(rng, shape, 20.0):
        e = np.exp(-np.abs(v))
        with np.errstate(invalid="ignore"):
            want = np.where(v >= 0, 1.0, e) / (1.0 + e)
        x = ad.param(v)
        g = rng.normal(size=shape)
        with np.errstate(invalid="ignore"), ad.recording() as tape:
            out = ad.sigmoid(x)
            loss = ad.sum_all(ad.mul(out, g))
            grad = ad.backward(tape, loss)[x]
        assert _same_bits(out.data, want)
        assert _same_bits(grad, g * want * (1.0 - want))


@pytest.mark.parametrize("shape", [(16, 8, 128), (64, 22, 128)], ids=str)
def test_layer_norm_forward_bitwise_equal_textbook(shape):
    rng = np.random.default_rng(8)
    (v,) = _with_specials(rng, shape, 3.0)
    gain, bias = rng.normal(size=shape[-1:]), rng.normal(size=shape[-1:])
    with np.errstate(invalid="ignore"):
        xc = v - v.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        want = (xc * inv) * gain + bias
        got = ad.layer_norm(ad.param(v), ad.param(gain), ad.param(bias)).data
    assert np.isnan(want).any() and _same_bits(got, want)


def test_backward_square():
    x = ad.param(3.0)
    with ad.recording() as tape:
        loss = ad.mul(x, x)
    grads = ad.backward(tape, loss)
    assert grads[x] == pytest.approx(6.0)


def test_backward_matches_fd_through_sigmoid_chain():
    w = ad.param(RNG.normal(size=(4, 3)))
    x = np.asarray(RNG.normal(size=(5, 4)))
    _fd_check(lambda: ad.sum_all(ad.sigmoid(ad.matmul(x, w))), {"w": w})


def test_unused_parameter_gets_zero_gradient():
    used = ad.param(2.0)
    unused = ad.param(5.0)
    with ad.recording() as tape:
        loss = ad.mul(used, used)
    raw = ad.backward(tape, loss)
    named = ad.named_grads({"used": used, "unused": unused}, raw)
    assert named["unused"] == 0.0
    assert named["used"] is raw[used]
    assert named["used"] == pytest.approx(4.0)


def test_backward_frees_each_record_once_its_vjp_has_run():
    """An intermediate array dies mid-sweep, before the first record's VJP runs;
    the gradients are those of a plain run, bit for bit, and len(tape) stays."""
    w = ad.param(RNG.normal(size=(4, 3)))
    x = RNG.normal(size=(5, 4))

    def grad_of_w(probe):
        with ad.recording() as tape:
            h = ad.Tensor(x)
            if probe:  # recorded first, so its VJP runs last in the sweep
                tape._record(h, lambda g, acc: dead.append(ref() is None))
            y = ad.sigmoid(ad.matmul(h, w))
            ref = weakref.ref(y.data)
            loss = ad.sum_all(ad.mul(y, y))
            del y
        n = len(tape)
        grads = ad.backward(tape, loss)
        assert len(tape) == n
        return grads[w]

    dead = []
    assert _same_bits(grad_of_w(probe=True), grad_of_w(probe=False))
    assert dead == [True]


def test_non_scalar_loss_rejected():
    x = ad.param(np.ones(3))
    with ad.recording() as tape:
        y = ad.mul(x, x)
    with pytest.raises(NonScalarLoss):
        ad.backward(tape, y)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.param(np.ones((2, 3))), ad.param(np.ones((4, 2))))
    with pytest.raises(ShapeMismatch):
        ad.add(ad.param(np.ones((2, 3))), ad.param(np.ones((4,))))


def test_tape_replay_identical():
    w = ad.param(RNG.normal(size=(3, 3)))
    x = np.asarray(RNG.normal(size=(2, 3)))

    def run():
        with ad.recording() as tape:
            out = ad.sum_all(ad.relu(ad.matmul(x, w)))
        return tape, out

    tape1, out1 = run()
    tape2, out2 = run()
    assert len(tape1) == len(tape2)
    assert out1.data == out2.data


def test_adam_first_step_closed_form():
    p = ad.param(0.0)
    state = ad.AdamState.for_params({"p": p})
    ad.adam_step({"p": p}, {"p": np.array(1.0)}, state, lr=0.001, weight_decay=0.0)
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    assert p.data == pytest.approx(expected, abs=1e-12)
    assert p.data == pytest.approx(-0.000999999, abs=1e-8)


def test_adam_zero_grad_leaves_param():
    p = ad.param(1.5)
    state = ad.AdamState.for_params({"p": p})
    ad.adam_step({"p": p}, {"p": np.array(0.0)}, state, lr=0.01, weight_decay=0.0)
    assert p.data == 1.5


def test_adam_shape_mismatch():
    p = ad.param(np.ones((2, 3)))
    state = ad.AdamState.for_params({"p": p})
    with pytest.raises(ShapeMismatch):
        ad.adam_step({"p": p}, {"p": np.ones((3, 2))}, state, lr=0.01)


def test_adam_decoupled_weight_decay():
    p = ad.param(2.0)
    state = ad.AdamState.for_params({"p": p})
    ad.adam_step({"p": p}, {"p": np.array(0.0)}, state, lr=0.1, weight_decay=0.5)
    # decay applied as p -= lr*wd*p; zero grad leaves no Adam update
    assert p.data == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_multi_step_matches_textbook_with_weight_decay():
    rng = np.random.default_rng(7)
    shapes = {"w": (6, 5), "b": (5,), "s": ()}
    params = {k: ad.param(rng.normal(size=sh)) for k, sh in shapes.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros(sh) for k, sh in shapes.items()}
    v = {k: np.zeros(sh) for k, sh in shapes.items()}
    state = ad.AdamState.for_params(params)
    lr, wd, b1, b2, eps = 0.01, 0.05, 0.9, 0.999, 1e-8
    for t in range(1, 31):
        grads = {k: rng.normal(size=sh) for k, sh in shapes.items()}
        grads["s"] = np.array(0.0) if t % 3 == 0 else grads["s"]
        ad.adam_step(params, grads, state, lr=lr, weight_decay=wd)
        for k in shapes:
            g = grads[k]
            ref[k] = ref[k] - lr * wd * ref[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    for k in shapes:
        np.testing.assert_allclose(params[k].data, ref[k], rtol=1e-12, atol=0)
        np.testing.assert_allclose(state.m[k], m[k], rtol=1e-12, atol=0)
        np.testing.assert_allclose(state.v[k], v[k], rtol=1e-12, atol=0)


def test_training_determinism_bit_exact():
    def run():
        w = ad.param(np.linspace(-1, 1, 12).reshape(4, 3))
        state = ad.AdamState.for_params({"w": w})
        x = np.linspace(0, 1, 8).reshape(2, 4)
        for _ in range(5):
            with ad.recording() as tape:
                loss = ad.sum_all(ad.sigmoid(ad.matmul(x, w)))
            grads = ad.named_grads({"w": w}, ad.backward(tape, loss))
            ad.adam_step({"w": w}, grads, state, lr=0.01, weight_decay=1e-4)
        return w.data

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_finite_diff_on_linear_model_is_exact():
    w = ad.param(RNG.normal(size=(6,)))
    x = np.asarray(RNG.normal(size=(6,)))
    report = finite_diff_check(lambda: ad.sum_all(ad.mul(w, x)), {"w": w}, n_samples=6)
    assert report.max_rel_err < 1e-9


def test_active_tape_is_per_thread():
    """A thread records only onto a tape it activated itself."""
    x = ad.param(np.ones(3))
    other_lens = []

    def other():
        ad.sum_all(x)  # no tape active on this thread: not recorded
        with ad.recording() as own:
            ad.sum_all(x)
        other_lens.append(len(own))

    with ad.recording() as main:
        ad.sum_all(x)
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(main) == 1 and other_lens == [1]


def test_blas_thread_setter_finds_numpys_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if sys.platform != "linux" or "openblas" not in blas:
        pytest.skip(f"looks for OpenBLAS on Linux; numpy uses {blas} on {sys.platform}")
    assert callable(ad.blas_thread_setter())
