"""Dense float tensors with reverse-mode autodiff on an explicit tape.

All differentiable math in the package flows through the ops in this module,
so a :class:`Tape` sees a complete record of the forward pass. Ops execute
eagerly, check that their outputs are finite, and register a backward rule on
the innermost active tape. With no tape active the same ops run as plain
inference at lower cost.

A backward rule captures the arrays it reads and a gradient key for each
input, never an input :class:`Tensor`: a leaf is its own key, and a recorded
output gets a data-free key of its own. So a value that no rule reads is
freed as soon as the forward drops it, while the tape lives until backward.
GELU's rule keeps its derivative, one array, in place of ``x`` and ``Phi(x)``.
Backward consumes its tape: it drops each record as its rule runs, so the
arrays a rule captured are freed then, and a tape runs backward once. It adds
a leaf's gradient into ``Tensor.grad`` as soon as the rule that produces it
runs, into a buffer the leaf owns and that later passes update in place; only
the gradients of recorded outputs wait in backward.

:func:`checkpoint` trades time for memory: it runs a composite with no tape
and records it as one rule that keeps only the inputs' arrays, so nothing the
composite computes inside is held until backward. That rule recomputes the
composite on an inner tape and runs it backward. Multi-head attention wraps
its core in it, so training keeps no ``(H*Nq, Nk)`` probability matrix.

Each forward op allocates its output once and writes its intermediates in
place into buffers it allocated itself, never into an input's ``data`` or an
array a backward rule captured, and only where the destination already has
the dtype of the out-of-place expression (:func:`_add_into`), so no value is
rounded twice. At 224x224 this spares the kernel from mapping and faulting in
the large temporaries again on every forward.

Layout is row-major and contiguous. Broadcasting is deliberately limited to
bias-style patterns (vector against matrix rows or columns) so every backward
rule stays auditable; :func:`matmul` takes such a bias, so an affine map is
one op. Multi-head attention runs all heads of a call as one op each for the
scores and the value mixing, head ``h`` owning columns ``[h*d, (h+1)*d)``.

The model never calls :func:`mul` or :func:`sum_all`. The engine keeps them
because the gradient tests build their scalar losses from them, and ``mul``
builds the overflow in ``test_non_finite_output_raises``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.special import erf

if TYPE_CHECKING:
    from .construct import IncidenceMatrix

__all__ = [
    "ConfigError",
    "NumericalError",
    "ShapeError",
    "Tensor",
    "Tape",
    "FlopCounter",
    "add",
    "add_flops",
    "attention_mix",
    "attention_scores",
    "checkpoint",
    "cross_entropy_logits",
    "depthwise_conv2d",
    "edge_gather_mean",
    "extract_patches",
    "gelu",
    "grid_to_tokens",
    "layer_norm",
    "matmul",
    "mean_rows",
    "mul",
    "node_scatter_mean",
    "pad_spatial",
    "reshape",
    "scale",
    "section",
    "softmax_rows",
    "sum_all",
    "tokens_to_grid",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class ConfigError(ValueError):
    """Invalid structural configuration (sizes, kernels, tags, files)."""


class NumericalError(ArithmeticError):
    """A forward op produced NaN/Inf, or a numerical gate failed."""


_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """Dense row-major float32/float64 array, optionally tracked for autodiff.

    ``grad`` accumulates across backward passes until the optimizer's
    ``zero_grad`` resets it to ``None``. It is a buffer this tensor owns, shared
    with no other array: backward copies a pass's first contribution into it and
    adds later ones in place. Tensors produced by ops are treated as immutable; parameter
    updates happen between steps by rebinding ``data``. ``key`` is the gradient key a tape
    recorded this tensor under, ``None`` for a leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.ascontiguousarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.key: object | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


# --------------------------------------------------------------------------
# tape


_tapes: list["Tape"] = []
_flop_counters: list["FlopCounter"] = []


class Tape:
    """Execution-ordered record of ``(gradient key, backward rule)`` pairs; backward consumes it in reverse.

    Because records append in execution order, every op's inputs were produced
    earlier on the tape, which is the topological order backward relies on.
    :meth:`backward` pops each record before it runs its rule, so a tape runs
    backward once and is empty afterwards; a second call raises
    ``RuntimeError``. To accumulate over passes, record each on its own tape.
    If a rule raises partway, the tape is partly consumed. Tapes nest; ops
    record on the innermost one. A :func:`checkpoint` rule nests an inner tape
    inside backward: it records the recompute there and consumes it through
    :meth:`_backward`, so :meth:`backward` runs once per pass.
    """

    def __init__(self):
        self._records: list[tuple[object, Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _tapes.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, backward: Callable) -> object:
        key = object()
        self._records.append((key, backward))
        return key

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/d(leaf) into ``Tensor.grad`` of every recorded leaf that requires grad.

        A leaf's contribution goes into its ``grad`` as soon as the rule that
        produces it runs: a copy of ``c`` if it was ``None``, else ``grad + c``
        written into ``grad`` unless ``c`` promotes its dtype. So a leaf read by
        two ops on one tape ends a pass with ``(T + c1) + c2``, not
        ``T + (c1 + c2)``. Passes on further tapes without a reset add on top of
        existing gradients. If a rule raises partway, ``grad`` may already hold
        part of that pass.
        """
        if loss.size != 1:
            raise NumericalError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._backward(loss, np.ones_like(loss.data))

    def _backward(self, out: Tensor, g: np.ndarray) -> None:
        """Consume the tape from ``out`` seeded with ``g``: :meth:`backward`'s body and a checkpoint's recompute."""
        if self._consumed:
            raise RuntimeError("backward already ran on this tape; record each pass on a new tape")
        self._consumed = True
        pending: dict[object, np.ndarray] = {}

        def accum(key: object, g: np.ndarray) -> None:
            if not isinstance(key, Tensor):
                prev = pending.get(key)
                pending[key] = g if prev is None else prev + g
            elif key.requires_grad:
                g = np.asarray(g).reshape(key.data.shape)
                # a copy: the same g may reach two inputs, or be a read-only view
                key.grad = np.array(g) if key.grad is None else _add_into(key.grad, g)

        accum(_key(out), g)
        records = self._records
        while records:
            key, bwd = records.pop()
            g = pending.pop(key, None)
            if g is not None:
                bwd(np.asarray(g), accum)


class FlopCounter:
    """The one recorder: flops of ops and wall seconds of :func:`section` blocks run while active (nestable)."""

    __slots__ = ("total", "seconds")

    def __init__(self):
        self.total = 0
        self.seconds: dict[str, float] = {}

    def __enter__(self) -> "FlopCounter":
        _flop_counters.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _flop_counters.pop()
        assert popped is self
        return False


def add_flops(n: int) -> None:
    for c in _flop_counters:
        c.total += n


@contextmanager
def section(name: str):
    """Add the block's wall time to ``seconds[name]`` of every active counter; with none active, read no clock."""
    if not _flop_counters:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        for c in _flop_counters:
            c.seconds[name] = c.seconds.get(name, 0.0) + dt


def _finite(data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericalError("forward op produced non-finite values")
    return data


def _key(t: Tensor) -> object:
    return t if t.key is None else t.key


def _grad_keys(*inputs: Tensor | None) -> list:
    """Each input's gradient key, or ``None`` for an absent input or one that needs no gradient."""
    return [_key(t) if t is not None and t.requires_grad else None for t in inputs]


def _recorded(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` records on a tape: one is active and an input needs a gradient."""
    return bool(_tapes) and any(t.requires_grad for t in inputs)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(_finite(data))
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _recorded(inputs):
        out.key = _tapes[-1]._record(backward)
    return out


def _add_into(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``y + b`` written into ``y``, the op's own buffer, unless ``b`` would promote the sum's dtype."""
    if np.result_type(y, b) != y.dtype:
        return y + b
    y += b
    return y


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# --------------------------------------------------------------------------
# recompute in backward


@contextmanager
def _suspended(stack: list):
    """Run the block with ``stack`` (the active tapes or counters) empty, then restore it."""
    saved = stack[:]
    stack.clear()
    try:
        yield
    finally:
        stack[:] = saved


def checkpoint(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """``fn(*inputs)`` as one recorded rule that keeps the inputs' arrays and reruns ``fn`` in backward.

    With no tape recording it is a plain call. Otherwise ``fn`` runs with the
    tape stack suspended, so no array it makes outlives the call but its
    output, and the rule keeps each input's array and gradient key, never an
    input :class:`Tensor`. Backward wraps the arrays as fresh leaves, reruns
    ``fn`` on an inner tape seeded with the incoming gradient and hands each
    leaf's gradient to ``accum``: the bytes of the unwrapped ops when ``fn``
    reads each input once. A leaf read from elsewhere gets its gradient from
    the inner tape; a recorded output gets one only as an input.

    ``fn`` must draw no randomness, or the rerun differs from the forward:
    attention wraps its core, not the branch with its drop-path draws. The
    rerun calls what the forward called, so a wrapper over one of those
    functions (the attention audit over ``messaging.softmax_rows``) sees it
    again when active during backward; an active :class:`FlopCounter` counts
    none of it, as it counts no backward rule.
    """
    if not _recorded(inputs):
        return fn(*inputs)
    with _suspended(_tapes):
        out = fn(*inputs)
    arrays = [t.data for t in inputs]
    keys = _grad_keys(*inputs)

    def bwd(g, accum):
        leaves = [Tensor(a, requires_grad=k is not None) for a, k in zip(arrays, keys)]
        with _suspended(_flop_counters), Tape() as tape:
            y = fn(*leaves)
        tape._backward(y, g)
        for leaf, k in zip(leaves, keys):
            if leaf.grad is not None:
                accum(k, leaf.grad)

    return _make(out.data, inputs, bwd)


# --------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b`` for 2-d operands, plus a ``bias`` broadcast as in :func:`add`. Backward: dA = dC·Bᵀ, dB = Aᵀ·dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if bias is not None and not _broadcast_ok((m, n), bias.shape):
        raise ShapeError(f"matmul bias {bias.shape} does not broadcast to ({m}, {n})")
    add_flops(2 * m * k * n + (0 if bias is None else m * n))
    ka, kb, kbias = _grad_keys(a, b, bias)
    ad, bd = a.data, b.data
    bias_shape = None if bias is None else bias.shape

    def bwd(g, accum):
        if kbias is not None:
            accum(kbias, _reduce_to(g, bias_shape))
        if ka is not None:
            accum(ka, g @ bd.T)
        if kb is not None:
            accum(kb, ad.T @ g)

    y = ad @ bd
    return _make(y, (a, b), bwd) if bias is None else _make(_add_into(y, bias.data), (a, b, bias), bwd)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(N, H*d)`` -> ``(H, N, d)``, each head's block a C-ordered copy as a column slice gives."""
    n, c = x.shape
    return np.ascontiguousarray(x.reshape(n, n_heads, c // n_heads).transpose(1, 0, 2))


def _join_heads(x: np.ndarray) -> np.ndarray:
    """``(H, N, d)`` -> ``(N, H*d)``, head by head: a C-ordered copy, or one head's block as it is."""
    h, n, d = x.shape
    return x[0] if h == 1 else np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(n, h * d)


def attention_scores(q: Tensor, k: Tensor, n_heads: int) -> Tensor:
    """Per-head logits ``Q_h K_hᵀ / sqrt(d)`` of ``(N, H*d)`` queries and keys, stacked into ``(H*Nq, Nk)`` rows.

    Each head multiplies contiguous copies of its column blocks, as a 2-d :func:`matmul` of them would.
    The ``1/sqrt(d)`` scale is folded in: the products are multiplied by it in place, and the
    backward first forms ``g * s``, so the result equals :func:`scale` applied to the unscaled scores.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or q.shape[1] != k.shape[1] or q.shape[1] % n_heads:
        raise ShapeError(f"attention_scores shapes incompatible: {q.shape} x {k.shape} in {n_heads} heads")
    nq, c = q.shape
    nk = k.shape[0]
    s = 1.0 / math.sqrt(c // n_heads)
    qh = _split_heads(q.data, n_heads)
    kt = np.ascontiguousarray(k.data.reshape(nk, n_heads, c // n_heads).transpose(1, 2, 0))
    add_flops(2 * nq * c * nk + n_heads * nq * nk)
    kq, kk = _grad_keys(q, k)

    def bwd(g, accum):
        g = (g * s).reshape(n_heads, nq, nk)
        if kq is not None:
            accum(kq, _join_heads(g @ kt.transpose(0, 2, 1)))
        if kk is not None:
            # dK as (Q_hᵀ G_h)ᵀ: OpenBLAS picks its kernel by operand layout, so
            # the bits of the downstream g @ Wᵀ depend on dK's layout, which is
            # kept as the transposed view for one head and C order for several
            accum(kk, _join_heads((qh.transpose(0, 2, 1) @ g).transpose(0, 2, 1)))

    y = (qh @ kt).reshape(n_heads * nq, nk)
    y *= s
    return _make(y, (q, k), bwd)


def attention_mix(w: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Per-head mixing ``W_h V_h`` of stacked ``(H*Nq, Nk)`` weights, heads side by side in ``(Nq, H*d)``."""
    if w.data.ndim != 2 or v.data.ndim != 2 or w.shape[1] != v.shape[0] or w.shape[0] % n_heads or v.shape[1] % n_heads:
        raise ShapeError(f"attention_mix shapes incompatible: {w.shape} x {v.shape} in {n_heads} heads")
    nk, c = v.shape
    nq = w.shape[0] // n_heads
    w3 = w.data.reshape(n_heads, nq, nk)
    vh = _split_heads(v.data, n_heads)
    add_flops(2 * nq * nk * c)
    kw, kv = _grad_keys(w, v)

    def bwd(g, accum):
        g = g.reshape(nq, n_heads, c // n_heads).transpose(1, 0, 2)
        if kw is not None:
            accum(kw, (g @ vh.transpose(0, 2, 1)).reshape(n_heads * nq, nk))
        if kv is not None:
            accum(kv, _join_heads(w3.transpose(0, 2, 1) @ g))

    return _make(_join_heads(w3 @ vh), (w, v), bwd)


def _broadcast_ok(a_shape, b_shape) -> bool:
    if a_shape == b_shape:
        return True
    if len(a_shape) == 2:
        m, n = a_shape
        return b_shape in ((n,), (1, n), (m, 1))
    return False


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a row/column vector against a 2-d ``a``."""
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")
    add_flops(a.size)
    ka, kb = _grad_keys(a, b)
    b_shape = b.shape

    def bwd(g, accum):
        if ka is not None:
            accum(ka, g)
        if kb is not None:
            accum(kb, _reduce_to(g, b_shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    add_flops(a.size)
    ka, kb = _grad_keys(a, b)
    ad, bd = a.data, b.data

    def bwd(g, accum):
        if ka is not None:
            accum(ka, g * bd)
        if kb is not None:
            accum(kb, g * ad)

    return _make(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    add_flops(a.size)
    ka = _key(a)

    def bwd(g, accum):
        accum(ka, g * s)

    return _make(a.data * s, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Scalar sum of all entries."""
    add_flops(a.size)
    ka, shape, dtype = _key(a), a.shape, a.dtype

    def bwd(g, accum):
        accum(ka, np.full(shape, np.asarray(g).item(), dtype))

    return _make(np.asarray(a.data.sum()), (a,), bwd)


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean of a 2-d tensor, kept as a ``(1, n)`` row."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows expects 2-d input, got {a.shape}")
    m = a.shape[0]
    add_flops(a.size)
    ka, shape = _key(a), a.shape

    def bwd(g, accum):
        accum(ka, np.broadcast_to(g / m, shape))

    return _make(a.data.mean(axis=0, keepdims=True), (a,), bwd)


# --------------------------------------------------------------------------
# nonlinearities and normalization


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects 2-d input, got {x.shape}")
    y = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    add_flops(5 * x.size)
    kx = _key(x)

    def bwd(g, accum):
        dot = (g * y).sum(axis=1, keepdims=True)
        accum(kx, y * (g - dot))

    return _make(y, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects 2-d input, got {x.shape}")
    n = x.shape[1]
    if gamma.data.reshape(-1).shape != (n,) or beta.data.reshape(-1).shape != (n,):
        raise ShapeError(f"layer_norm affine params must have {n} entries")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # eps=0 on a constant row fails the finite check instead
        inv = 1.0 / np.sqrt(var + eps)
        xhat = np.multiply(xc, inv, out=xc)
    g1 = gamma.data.reshape(1, n)
    y = _add_into(xhat * g1, beta.data.reshape(1, n))
    add_flops(8 * x.size)
    kx, kgamma, kbeta = _grad_keys(x, gamma, beta)
    gamma_shape, beta_shape = gamma.shape, beta.shape

    def bwd(g, accum):
        if kbeta is not None:
            accum(kbeta, _reduce_to(g.sum(axis=0), beta_shape))
        if kgamma is not None:
            accum(kgamma, _reduce_to((g * xhat).sum(axis=0), gamma_shape))
        if kx is not None:
            dxhat = g * g1
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            accum(kx, inv * (dxhat - m1 - xhat * m2))

    return _make(y, (x, gamma, beta), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact erf-form GELU: ``x * Phi(x)``. A recorded rule keeps one array, the derivative ``phi + x * pdf``."""
    xd = x.data
    phi = xd * xd.dtype.type(_INV_SQRT2)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    add_flops(6 * x.size)
    dy = None
    if _recorded((x,)):
        dy = -0.5 * xd
        dy *= xd
        np.exp(dy, out=dy)
        dy *= _INV_SQRT2PI
        dy *= xd
        dy += phi
    kx = _key(x)

    def bwd(g, accum):
        accum(kx, g * dy)

    phi *= xd
    return _make(phi, (x,), bwd)


# --------------------------------------------------------------------------
# layout


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    ka, a_shape = _key(a), a.shape

    def bwd(g, accum):
        accum(ka, g.reshape(a_shape))

    return _make(a.data.reshape(shape), (a,), bwd)


def tokens_to_grid(t: Tensor, grid: tuple[int, int]) -> Tensor:
    """``(N, C)`` row-major tokens -> ``(C, H, W)`` feature map."""
    h, w = grid
    n, c = t.shape
    if h * w != n:
        raise ShapeError(f"grid {grid} does not cover {n} tokens")
    kt = _key(t)

    def bwd(g, accum):
        accum(kt, g.reshape(c, n).T)

    return _make(t.data.T.reshape(c, h, w), (t,), bwd)


def grid_to_tokens(x: Tensor) -> Tensor:
    """``(C, H, W)`` feature map -> ``(N, C)`` row-major tokens."""
    if x.data.ndim != 3:
        raise ShapeError(f"grid_to_tokens expects 3-d input, got {x.shape}")
    c, h, w = x.shape
    kx = _key(x)

    def bwd(g, accum):
        accum(kx, g.T.reshape(c, h, w))

    return _make(x.data.reshape(c, h * w).T, (x,), bwd)


# --------------------------------------------------------------------------
# convolution / patching


def depthwise_conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-channel 3x3 correlation with zero padding 1, same spatial shape."""
    if x.data.ndim != 3:
        raise ShapeError(f"depthwise_conv2d expects (C,H,W) input, got {x.shape}")
    c, h, w = x.shape
    if kernel.shape != (c, 3, 3):
        raise ConfigError(f"depthwise kernel must be ({c},3,3), got {kernel.shape}")
    pad = np.pad(x.data, ((0, 0), (1, 1), (1, 1)))
    y = np.zeros_like(x.data)
    tap = np.empty(x.shape, dtype=np.result_type(kernel.data, pad))
    for i in range(3):
        for j in range(3):
            y += np.multiply(kernel.data[:, i, j, None, None], pad[:, i : i + h, j : j + w], out=tap)
    if bias is not None:
        y = _add_into(y, bias.data.reshape(c, 1, 1))
    add_flops(18 * x.size)
    kx, kk, kbias = _grad_keys(x, kernel, bias)
    kd = kernel.data
    bias_shape = None if bias is None else bias.shape

    def bwd(g, accum):
        # sum the bias on g as received: its layout sets the summation order
        if kbias is not None:
            accum(kbias, _reduce_to(g.sum(axis=(1, 2)), bias_shape))
        # grid_to_tokens hands on a channel-last view; the 18 tap products run faster on a C-ordered copy
        g = np.ascontiguousarray(g)
        if kk is not None:
            dk = np.empty_like(kd)
            for i in range(3):
                for j in range(3):
                    dk[:, i, j] = (g * pad[:, i : i + h, j : j + w]).sum(axis=(1, 2))
            accum(kk, dk)
        if kx is not None:
            dpad = np.zeros_like(pad)
            for i in range(3):
                for j in range(3):
                    dpad[:, i : i + h, j : j + w] += kd[:, i, j, None, None] * g
            accum(kx, dpad[:, 1 : 1 + h, 1 : 1 + w])

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(y, inputs, bwd)


def pad_spatial(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Zero-pad the bottom/right of a ``(C,H,W)`` map up to ``(C,h_out,w_out)``."""
    if x.data.ndim != 3:
        raise ShapeError(f"pad_spatial expects (C,H,W) input, got {x.shape}")
    c, h, w = x.shape
    if h_out < h or w_out < w:
        raise ShapeError(f"cannot pad {x.shape} down to ({h_out},{w_out})")
    if h_out == h and w_out == w:
        return x
    kx = _key(x)

    def bwd(g, accum):
        accum(kx, g[:, :h, :w])

    return _make(np.pad(x.data, ((0, 0), (0, h_out - h), (0, w_out - w))), (x,), bwd)


def extract_patches(x: Tensor, stride: int) -> Tensor:
    """Non-overlapping ``stride x stride`` patches of a ``(C,H,W)`` map.

    Rows are patches in row-major grid order; each row is the flattened
    ``C*stride*stride`` patch content. Pure data movement.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"extract_patches expects (C,H,W) input, got {x.shape}")
    c, h, w = x.shape
    if stride < 1 or h % stride or w % stride:
        raise ConfigError(f"spatial dims {h}x{w} not divisible by stride {stride}")
    hs, ws = h // stride, w // stride
    y = (
        x.data.reshape(c, hs, stride, ws, stride)
        .transpose(1, 3, 0, 2, 4)
        .reshape(hs * ws, c * stride * stride)
    )

    kx = _key(x)

    def bwd(g, accum):
        accum(kx, g.reshape(hs, ws, c, stride, stride).transpose(2, 0, 3, 1, 4).reshape(c, h, w))

    return _make(y, (x,), bwd)


# --------------------------------------------------------------------------
# hypergraph gather / scatter


def edge_gather_mean(v: Tensor, h: IncidenceMatrix) -> Tensor:
    """Mean of ``v`` rows over each hyperedge's K members, ``D_e^-1 Hᵀ v``, added in ascending order."""
    if v.data.ndim != 2 or v.shape[0] != h.n_nodes:
        raise ShapeError(f"edge_gather_mean expects ({h.n_nodes}, C) tokens, got {v.shape}")
    ne, k = h.members.shape
    add_flops(ne * k * v.shape[1])
    kv = _key(v)

    def bwd(g, accum):
        accum(kv, h.sparse @ (g / k))

    out = h.sparse_t @ v.data
    out /= k
    return _make(out, (v,), bwd)


def node_scatter_mean(e: Tensor, h: IncidenceMatrix) -> Tensor:
    """Mean of incident hyperedge rows per node, ``D_v^+ H e``; zero-degree nodes get zeros.

    The inverse degree of a zero-degree node is taken as 0 (pseudo-inverse
    convention).
    """
    if e.data.ndim != 2 or e.shape[0] != h.n_edges:
        raise ShapeError(f"node_scatter_mean expects ({h.n_edges}, C) edge tokens, got {e.shape}")
    denom = np.maximum(h.d_v, 1).astype(e.data.dtype)[:, None]
    out = h.sparse @ e.data
    out /= denom
    add_flops(h.members.size * e.shape[1])
    ke = _key(e)

    def bwd(g, accum):
        accum(ke, h.sparse_t @ (g / denom))

    return _make(out, (e,), bwd)


# --------------------------------------------------------------------------
# loss


def cross_entropy_logits(logits: Tensor, target: int) -> Tensor:
    """Stable cross-entropy of a single logit row against an integer label."""
    z = logits.data.reshape(-1)
    n = z.shape[0]
    if not 0 <= target < n:
        raise ConfigError(f"target {target} out of range for {n} classes")
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    add_flops(4 * n)
    kl, shape = _key(logits), logits.shape

    def bwd(g, accum):
        p = np.exp(z - lse)
        p[target] -= 1.0
        accum(kl, (np.asarray(g).item() * p).reshape(shape))

    return _make(np.asarray(lse - z[target]), (logits,), bwd)
