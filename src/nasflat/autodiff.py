"""Reverse-mode automatic differentiation over dense float64 arrays.

A minimal tape-based engine: primitives compute with numpy and, while a Tape
is active (see `recording`), append a backward closure to it. Records are
appended in construction order, which is already a topological order, so the
backward pass is a single reverse sweep that visits each node exactly once.

Only the primitives the latency predictor needs are provided. Structural
constants (adjacency masks, index arrays, pair matrices) are passed as plain
numpy arrays and never receive gradients; learnable values are Tensors.

Everything is float64. Tapes are single-owner: build one forward pass per
tape from one thread. Each thread has its own stack of active tapes, so
threads that record at the same time never record onto each other's tape.

On glibc, importing this module raises the allocator's mmap and trim
thresholds once for the process (see `_keep_freed_memory_in_heap`).
`blas_thread_setter` finds the thread-count setter of the OpenBLAS that
numpy has loaded, for worker processes that pin BLAS to one thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonScalarLoss, ShapeMismatch

Array = np.ndarray

# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def _keep_freed_memory_in_heap() -> None:
    """Let glibc reuse freed float64 temporaries instead of faulting in new pages.

    glibc serves blocks above its mmap threshold (128 KiB at start) with a
    fresh mmap and returns heap memory above its trim threshold to the
    kernel. Its dynamic rule raises both only as far as the largest block
    freed so far, so the ~0.1-1.4 MB temporaries of a forward pass keep being
    unmapped or trimmed, and every reuse page-faults in zeroed memory. This
    sets both to the ceilings that rule climbs towards. Nothing is done off
    glibc, or when the environment already holds the user's malloc settings,
    which glibc read at process start and which win.
    """
    if os.name != "posix" or any(k in os.environ for k in _MALLOC_ENV):
        return
    if "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", ""):
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_in_heap()

# Exported by OpenBLAS builds: plain, ILP64-suffixed, and the scipy-openblas
# wheels numpy bundles (prefixed, with or without the ILP64 suffix).
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
)


def _mapped_openblas() -> Iterator[ctypes.CDLL]:
    """Each OpenBLAS shared object mapped into this process, dlopened.

    The libraries are found among the mappings in `/proc/self/maps` (so Linux
    only; none elsewhere); dlopen of a mapped path returns the loaded copy.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({
                fields[5] for fields in (line.rstrip("\n").split(None, 5) for line in fh)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
                and ".so" in fields[5]
            })
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        yield lib


@functools.cache
def blas_thread_setter() -> Callable[[int], None] | None:
    """The `set_num_threads(n)` of the OpenBLAS numpy has loaded, or None
    when no mapped OpenBLAS (`_mapped_openblas`) exports a known setter."""
    for lib in _mapped_openblas():
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                return setter
    return None


class Tensor:
    """A float64 array tracked by the autodiff engine."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def param(data) -> Tensor:
    """Alias for constructing a leaf tensor that will receive gradients."""
    return Tensor(np.array(data, dtype=np.float64))


class Tape:
    """Ordered record of primitive applications from one forward pass."""

    __slots__ = ("_records",)

    def __init__(self):
        # (output tensor, backward closure); closures call acc(input, grad).
        # backward() sets each slot to None once its closure has run.
        self._records: list[tuple[Tensor, Callable] | None] = []

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, bwd: Callable) -> None:
        self._records.append((out, bwd))


class _ActiveTapes(threading.local):
    """This thread's stack of active tapes, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_ACTIVE = _ActiveTapes()


@contextmanager
def recording() -> Iterator[Tape]:
    """Activate a new tape on this thread; primitives this thread calls inside record onto it."""
    tape = Tape()
    stack = _ACTIVE.stack
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


def _tape() -> Tape | None:
    stack = _ACTIVE.stack
    return stack[-1] if stack else None


def _data(x) -> Array:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to the shape numpy broadcast it up from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, fwd, bwd_a, bwd_b) -> Tensor:
    ad, bd = _data(a), _data(b)
    try:
        out = Tensor(fwd(ad, bd))
    except ValueError as e:
        raise ShapeMismatch(str(e)) from None
    tape = _tape()
    if tape is not None:

        def bwd(g: Array, acc) -> None:
            if isinstance(a, Tensor):
                acc(a, _unbroadcast(bwd_a(g, ad, bd), ad.shape))
            if isinstance(b, Tensor):
                acc(b, _unbroadcast(bwd_b(g, ad, bd), bd.shape))

        tape._record(out, bwd)
    return out


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(a, c: float) -> Tensor:
    return mul(a, np.float64(c))


def matmul(a, b) -> Tensor:
    """Matrix product on the last two axes, broadcasting leading axes.

    Stacked rows times one matrix, (..., n, k) @ (k, m), run as a single
    (rows, k) @ (k, m) GEMM, and the matrix's gradient is one (rows, k)^T
    @ (rows, m) GEMM rather than a sum of per-slice products. Each output
    row then has the same bits however many rows are stacked.
    """
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeMismatch(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    if bd.ndim == 2 and ad.ndim >= 3:
        return _rows_matmul(a, b, ad, bd)
    out = Tensor(np.matmul(ad, bd))
    tape = _tape()
    if tape is not None:

        def bwd(g: Array, acc) -> None:
            if isinstance(a, Tensor):
                ga = np.matmul(g, np.swapaxes(bd, -1, -2))
                acc(a, _unbroadcast(ga, ad.shape))
            if isinstance(b, Tensor):
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
                acc(b, _unbroadcast(gb, bd.shape))

        tape._record(out, bwd)
    return out


def _rows_matmul(a, b, ad: Array, bd: Array) -> Tensor:
    a2 = ad.reshape(-1, ad.shape[-1])
    if len(a2) == 1:
        # numpy sends a one-row product to GEMV, which rounds differently
        # from GEMM; a duplicated row keeps it on GEMM.
        o2 = np.matmul(np.concatenate([a2, a2]), bd)[:1]
    else:
        o2 = np.matmul(a2, bd)
    out = Tensor(o2.reshape(ad.shape[:-1] + bd.shape[-1:]))
    tape = _tape()
    if tape is not None:

        def bwd(g: Array, acc) -> None:
            g2 = g.reshape(-1, g.shape[-1])
            if isinstance(a, Tensor):
                acc(a, np.matmul(g2, bd.T).reshape(ad.shape))
            if isinstance(b, Tensor):
                acc(b, np.matmul(a2.T, g2))

        tape._record(out, bwd)
    return out


def _unary(x, fwd, bwd_fn) -> Tensor:
    xd = _data(x)
    out = Tensor(fwd(xd))
    tape = _tape()
    if tape is not None and isinstance(x, Tensor):

        def bwd(g: Array, acc) -> None:
            acc(x, bwd_fn(g, xd, out.data))

        tape._record(out, bwd)
    return out


def sigmoid(x) -> Tensor:
    # where(v >= 0, 1, e) / (1 + e) with e = exp(-|v|), in three buffers:
    # e <= 1, so max(v >= 0, e) picks 1 or e, and maximum propagates NaN.
    def fwd(v):
        e = np.exp(-np.abs(v))
        out = np.array(v >= 0, dtype=np.float64)
        np.maximum(out, e, out=out)
        e += 1.0
        out /= e
        return out

    def bwd(g, v, o):
        r = g * o
        r *= 1.0 - o
        return r

    return _unary(x, fwd, bwd)


def relu(x) -> Tensor:
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda g, v, o: g * (v > 0))


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    return _unary(
        x,
        lambda v: np.where(v > 0, v, slope * v),
        lambda g, v, o: g * np.where(v > 0, 1.0, slope),
    )


def transpose_last2(x) -> Tensor:
    return _unary(
        x,
        lambda v: np.swapaxes(v, -1, -2).copy(),
        lambda g, v, o: np.swapaxes(g, -1, -2),
    )


def masked_softmax(x, mask: Array) -> Tensor:
    """Row softmax over the last axis restricted to mask==1 entries.

    Masked entries get weight 0. A row whose mask is all zero (empty support)
    yields an all-zero row rather than NaN.
    """
    xd = _data(x)
    maskb = np.broadcast_to(np.asarray(mask, dtype=bool), xd.shape)
    neg = np.where(maskb, xd, -np.inf)
    rowmax = neg.max(axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.exp(np.where(maskb, xd - rowmax, -np.inf))
    den = e.sum(axis=-1, keepdims=True)
    out_data = np.divide(e, den, out=np.zeros_like(e), where=den > 0)
    out = Tensor(out_data)
    tape = _tape()
    if tape is not None and isinstance(x, Tensor):
        o = out_data

        def bwd(g: Array, acc) -> None:
            acc(x, o * (g - (g * o).sum(axis=-1, keepdims=True)))

        tape._record(out, bwd)
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply the learned affine."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    mu = xd.mean(axis=-1, keepdims=True)
    xhat = xd - mu  # centred now, normalized in place below
    buf = xhat * xhat
    var = buf.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gd, out=buf)
    buf += bd
    out = Tensor(buf)
    tape = _tape()
    if tape is not None:

        def bwd(g: Array, acc) -> None:
            if isinstance(x, Tensor):
                gx_hat = g * gd
                term = (
                    gx_hat
                    - gx_hat.mean(axis=-1, keepdims=True)
                    - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
                )
                acc(x, term * inv)
            if isinstance(gain, Tensor):
                acc(gain, _unbroadcast(g * xhat, gd.shape))
            if isinstance(bias, Tensor):
                acc(bias, _unbroadcast(g, bd.shape))

        tape._record(out, bwd)
    return out


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    datas = [_data(p) for p in parts]
    try:
        out = Tensor(np.concatenate(datas, axis=axis))
    except ValueError as e:
        raise ShapeMismatch(str(e)) from None
    tape = _tape()
    if tape is not None:
        sizes = [d.shape[axis] for d in datas]
        splits = np.cumsum(sizes)[:-1]

        def bwd(g: Array, acc) -> None:
            for part, piece in zip(parts, np.split(g, splits, axis=axis)):
                if isinstance(part, Tensor):
                    acc(part, piece)

        tape._record(out, bwd)
    return out


def gather(table, idx) -> Tensor:
    """Row lookup into an embedding table: out[...] = table[idx[...], :]."""
    td = _data(table)
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(td[idx])
    tape = _tape()
    if tape is not None and isinstance(table, Tensor):

        def bwd(g: Array, acc) -> None:
            gt = np.zeros_like(td)
            np.add.at(gt, idx.reshape(-1), g.reshape(-1, td.shape[-1]))
            acc(table, gt)

        tape._record(out, bwd)
    return out


def take_rows(x, rows) -> Tensor:
    """Select rows along the second-to-last axis: x[..., rows, :].

    `rows` is one index, which drops that axis, or an array of distinct
    indices. The backward pass scatters the gradient into zeros of x's shape.
    """
    xd = _data(x)
    out = Tensor(np.take(xd, rows, axis=-2))
    tape = _tape()
    if tape is not None and isinstance(x, Tensor):

        def bwd(g: Array, acc) -> None:
            gx = np.zeros_like(xd)
            gx[..., rows, :] = g
            acc(x, gx)

        tape._record(out, bwd)
    return out


def sum_all(x) -> Tensor:
    xd = _data(x)
    out = Tensor(xd.sum())
    tape = _tape()
    if tape is not None and isinstance(x, Tensor):

        def bwd(g: Array, acc) -> None:
            acc(x, np.broadcast_to(g, xd.shape).copy())

        tape._record(out, bwd)
    return out


def mean_all(x) -> Tensor:
    xd = _data(x)
    n = xd.size
    out = Tensor(xd.mean())
    tape = _tape()
    if tape is not None and isinstance(x, Tensor):

        def bwd(g: Array, acc) -> None:
            acc(x, np.broadcast_to(g / n, xd.shape).copy())

        tape._record(out, bwd)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Array]:
    """Reverse sweep over the tape; returns gradients for leaf tensors.

    The loss must be a single-element tensor. Intermediate gradients are
    popped as they are consumed, so the returned map holds only tensors that
    were never produced by a recorded primitive (parameters and inputs).
    A tape is single-use: each record is dropped as soon as its VJP has run,
    freeing the intermediates its closure holds mid-sweep; `len(tape)` still
    counts the records.
    """
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.data.shape}")
    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}

    def acc(t: Tensor, g: Array) -> None:
        prev = grads.get(t)
        grads[t] = g if prev is None else prev + g

    records = tape._records
    for i in range(len(records) - 1, -1, -1):
        out, bwd = records[i]
        records[i] = None
        g = grads.pop(out, None)
        if g is not None:
            bwd(g, acc)
    return grads


def named_grads(params: dict[str, Tensor], grads: dict[Tensor, Array]) -> dict[str, Array]:
    """Re-key a backward() result by parameter name; missing entries are zero."""
    out = {}
    for name, t in params.items():
        g = grads.get(t)
        out[name] = np.zeros_like(t.data) if g is None else g
    return out


@dataclass
class AdamState:
    """Adam moments, one per named parameter, plus the shared step counter."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
        )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, Array],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One Adam update with bias correction and decoupled weight decay.

    Decay is applied as p <- p * (1 - lr*wd) before the moment update, so it
    never enters the moments. The textbook step lr * (m/c1) / (sqrt(v/c2) + eps)
    is computed as (lr*sqrt(c2)/c1) * m / (sqrt(v) + eps*sqrt(c2)): the same
    value up to rounding, in place, with one scratch array per parameter.
    `grads` holds one array per parameter, as `named_grads` returns.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    root_c2 = math.sqrt(1.0 - b2 ** t)
    step_size = lr * root_c2 / c1
    eps = state.eps * root_c2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"grad for {name}: {g.shape} vs param {p.data.shape}")
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        buf = np.multiply(g, 1.0 - b1, out=np.empty_like(p.data))
        m *= b1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - b2
        v *= b2
        v += buf
        np.sqrt(v, out=buf)
        buf += eps
        np.divide(m, buf, out=buf)
        buf *= step_size
        p.data -= buf
