"""Dense float tensors with reverse-mode autodiff on an explicit tape.

All differentiable math in the package flows through the ops in this module,
so a :class:`Tape` sees a complete record of the forward pass. Ops execute
eagerly, check that their outputs are finite, and register a backward rule on
the innermost active tape. With no tape active the same ops run as plain
inference at lower cost.

Layout is row-major and contiguous. Broadcasting is deliberately limited to
bias-style patterns (vector against matrix rows or columns) so every backward
rule stays auditable; :func:`matmul` takes such a bias, so an affine map is
one op. Multi-head attention runs all heads of a call as one op each for the
scores and the value mixing, head ``h`` owning columns ``[h*d, (h+1)*d)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

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
    "softmax_rows",
    "sum_all",
    "tokens_to_grid",
    "zero_grads",
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

    ``grad`` accumulates across backward passes until :func:`zero_grads`
    resets it. Tensors produced by ops are treated as immutable; parameter
    updates happen between steps by rebinding ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        arr = np.ascontiguousarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

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
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad}{tag})"


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# --------------------------------------------------------------------------
# tape


_tapes: list["Tape"] = []
_flop_counters: list["FlopCounter"] = []


class Tape:
    """Execution-ordered record of ops; backward replays it exactly once, in reverse.

    Because records append in execution order, every op's inputs were produced
    earlier on the tape, which is the topological order backward relies on.
    Tapes nest; ops record on the innermost one.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _tapes.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def active() -> "Tape | None":
        return _tapes[-1] if _tapes else None

    def _record(self, out: Tensor, backward: Callable) -> None:
        self._records.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/d(leaf) into ``Tensor.grad`` of every recorded leaf that requires grad.

        Repeated calls without a reset add on top of existing gradients.
        """
        if loss.size != 1:
            raise NumericalError(f"backward needs a scalar loss, got shape {loss.shape}")
        produced = {id(out) for out, _ in self._records}
        grads: dict[int, list] = {id(loss): [loss, np.ones_like(loss.data)]}

        def accum(t: Tensor, g: np.ndarray) -> None:
            slot = grads.get(id(t))
            if slot is None:
                grads[id(t)] = [t, g]
            else:
                slot[1] = slot[1] + g

        for out, bwd in reversed(self._records):
            slot = grads.pop(id(out), None)
            if slot is None:
                continue
            bwd(np.asarray(slot[1]), accum)

        for key, (t, g) in grads.items():
            if key in produced or not t.requires_grad:
                continue
            g = np.asarray(g).reshape(t.data.shape)
            t.grad = g if t.grad is None else t.grad + g


class FlopCounter:
    """Counts floating-point work of ops executed while active (nestable)."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

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


def _finite(data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericalError("forward op produced non-finite values")
    return data


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(_finite(data))
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = Tape.active()
    if tape is not None and out.requires_grad:
        tape._record(out, backward)
    return out


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

    def bwd(g, accum):
        if bias is not None and bias.requires_grad:
            accum(bias, _reduce_to(g, bias.data.shape))
        if a.requires_grad:
            accum(a, g @ b.data.T)
        if b.requires_grad:
            accum(b, a.data.T @ g)

    y = a.data @ b.data
    return _make(y, (a, b), bwd) if bias is None else _make(y + bias.data, (a, b, bias), bwd)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(N, H*d)`` -> ``(H, N, d)``, each head's block a C-ordered copy as a column slice gives."""
    n, c = x.shape
    return np.ascontiguousarray(x.reshape(n, n_heads, c // n_heads).transpose(1, 0, 2))


def _join_heads(x: np.ndarray) -> np.ndarray:
    """``(H, N, d)`` -> ``(N, H*d)``, head by head: a C-ordered copy, or one head's block as it is."""
    h, n, d = x.shape
    return x[0] if h == 1 else np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(n, h * d)


def attention_scores(q: Tensor, k: Tensor, n_heads: int) -> Tensor:
    """Per-head logits ``Q_h K_hᵀ`` of ``(N, H*d)`` queries and keys, stacked into ``(H*Nq, Nk)`` rows.

    Each head multiplies contiguous copies of its column blocks, as a 2-d :func:`matmul` of them would.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or q.shape[1] != k.shape[1] or q.shape[1] % n_heads:
        raise ShapeError(f"attention_scores shapes incompatible: {q.shape} x {k.shape} in {n_heads} heads")
    nq, c = q.shape
    nk = k.shape[0]
    qh = _split_heads(q.data, n_heads)
    kt = np.ascontiguousarray(k.data.reshape(nk, n_heads, c // n_heads).transpose(1, 2, 0))
    add_flops(2 * nq * c * nk)

    def bwd(g, accum):
        g = g.reshape(n_heads, nq, nk)
        if q.requires_grad:
            accum(q, _join_heads(g @ kt.transpose(0, 2, 1)))
        if k.requires_grad:
            # dK as (Q_hᵀ G_h)ᵀ: OpenBLAS picks its kernel by operand layout, so
            # the bits of the downstream g @ Wᵀ depend on dK's layout, which is
            # kept as the transposed view for one head and C order for several
            accum(k, _join_heads((qh.transpose(0, 2, 1) @ g).transpose(0, 2, 1)))

    return _make((qh @ kt).reshape(n_heads * nq, nk), (q, k), bwd)


def attention_mix(w: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Per-head mixing ``W_h V_h`` of stacked ``(H*Nq, Nk)`` weights, heads side by side in ``(Nq, H*d)``."""
    if w.data.ndim != 2 or v.data.ndim != 2 or w.shape[1] != v.shape[0] or w.shape[0] % n_heads or v.shape[1] % n_heads:
        raise ShapeError(f"attention_mix shapes incompatible: {w.shape} x {v.shape} in {n_heads} heads")
    nk, c = v.shape
    nq = w.shape[0] // n_heads
    w3 = w.data.reshape(n_heads, nq, nk)
    vh = _split_heads(v.data, n_heads)
    add_flops(2 * nq * nk * c)

    def bwd(g, accum):
        g = g.reshape(nq, n_heads, c // n_heads).transpose(1, 0, 2)
        if w.requires_grad:
            accum(w, (g @ vh.transpose(0, 2, 1)).reshape(n_heads * nq, nk))
        if v.requires_grad:
            accum(v, _join_heads(w3.transpose(0, 2, 1) @ g))

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

    def bwd(g, accum):
        if a.requires_grad:
            accum(a, g)
        if b.requires_grad:
            accum(b, _reduce_to(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    add_flops(a.size)

    def bwd(g, accum):
        if a.requires_grad:
            accum(a, g * b.data)
        if b.requires_grad:
            accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    add_flops(a.size)

    def bwd(g, accum):
        accum(a, g * s)

    return _make(a.data * s, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Scalar sum of all entries."""
    add_flops(a.size)

    def bwd(g, accum):
        accum(a, np.full_like(a.data, np.asarray(g).item()))

    return _make(np.asarray(a.data.sum()), (a,), bwd)


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean of a 2-d tensor, kept as a ``(1, n)`` row."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows expects 2-d input, got {a.shape}")
    m = a.shape[0]
    add_flops(a.size)

    def bwd(g, accum):
        accum(a, np.broadcast_to(g / m, a.data.shape))

    return _make(a.data.mean(axis=0, keepdims=True), (a,), bwd)


# --------------------------------------------------------------------------
# nonlinearities and normalization


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects 2-d input, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    add_flops(5 * x.size)

    def bwd(g, accum):
        if x.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            accum(x, y * (g - dot))

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
        xhat = xc * inv
    g1 = gamma.data.reshape(1, n)
    y = xhat * g1 + beta.data.reshape(1, n)
    add_flops(8 * x.size)

    def bwd(g, accum):
        if beta.requires_grad:
            accum(beta, _reduce_to(g.sum(axis=0), beta.data.shape))
        if gamma.requires_grad:
            accum(gamma, _reduce_to((g * xhat).sum(axis=0), gamma.data.shape))
        if x.requires_grad:
            dxhat = g * g1
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            accum(x, inv * (dxhat - m1 - xhat * m2))

    return _make(y, (x, gamma, beta), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact erf-form GELU: ``x * Phi(x)``."""
    phi = 0.5 * (1.0 + erf(x.data * x.data.dtype.type(_INV_SQRT2)))
    add_flops(6 * x.size)

    def bwd(g, accum):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
            accum(x, g * (phi + x.data * pdf))

    return _make(x.data * phi, (x,), bwd)


# --------------------------------------------------------------------------
# layout


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g, accum):
        accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bwd)


def tokens_to_grid(t: Tensor, grid: tuple[int, int]) -> Tensor:
    """``(N, C)`` row-major tokens -> ``(C, H, W)`` feature map."""
    h, w = grid
    n, c = t.shape
    if h * w != n:
        raise ShapeError(f"grid {grid} does not cover {n} tokens")

    def bwd(g, accum):
        accum(t, g.reshape(c, n).T)

    return _make(t.data.T.reshape(c, h, w), (t,), bwd)


def grid_to_tokens(x: Tensor) -> Tensor:
    """``(C, H, W)`` feature map -> ``(N, C)`` row-major tokens."""
    if x.data.ndim != 3:
        raise ShapeError(f"grid_to_tokens expects 3-d input, got {x.shape}")
    c, h, w = x.shape

    def bwd(g, accum):
        accum(x, g.T.reshape(c, h, w))

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
    for i in range(3):
        for j in range(3):
            y += kernel.data[:, i, j, None, None] * pad[:, i : i + h, j : j + w]
    if bias is not None:
        y = y + bias.data.reshape(c, 1, 1)
    add_flops(18 * x.size)

    def bwd(g, accum):
        # sum the bias on g as received: its layout sets the summation order
        if bias is not None and bias.requires_grad:
            accum(bias, _reduce_to(g.sum(axis=(1, 2)), bias.data.shape))
        # grid_to_tokens hands on a channel-last view; the 18 tap products run faster on a C-ordered copy
        g = np.ascontiguousarray(g)
        if kernel.requires_grad:
            dk = np.empty_like(kernel.data)
            for i in range(3):
                for j in range(3):
                    dk[:, i, j] = (g * pad[:, i : i + h, j : j + w]).sum(axis=(1, 2))
            accum(kernel, dk)
        if x.requires_grad:
            dpad = np.zeros_like(pad)
            for i in range(3):
                for j in range(3):
                    dpad[:, i : i + h, j : j + w] += kernel.data[:, i, j, None, None] * g
            accum(x, dpad[:, 1 : 1 + h, 1 : 1 + w])

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

    def bwd(g, accum):
        accum(x, g[:, :h, :w])

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

    def bwd(g, accum):
        accum(
            x,
            g.reshape(hs, ws, c, stride, stride).transpose(2, 0, 3, 1, 4).reshape(c, h, w),
        )

    return _make(y, (x,), bwd)


# --------------------------------------------------------------------------
# hypergraph gather / scatter


def edge_gather_mean(v: Tensor, h: IncidenceMatrix) -> Tensor:
    """Mean of ``v`` rows over each hyperedge's K members: ``D_e^-1 Hᵀ v``."""
    if v.data.ndim != 2 or v.shape[0] != h.n_nodes:
        raise ShapeError(f"edge_gather_mean expects ({h.n_nodes}, C) tokens, got {v.shape}")
    ne, k = h.members.shape
    add_flops(ne * k * v.shape[1])

    def bwd(g, accum):
        if v.requires_grad:
            accum(v, h.sparse @ (g / k))

    return _make(v.data[h.members].mean(axis=1), (v,), bwd)


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

    def bwd(g, accum):
        if e.requires_grad:
            accum(e, h.sparse_t @ (g / denom))

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

    def bwd(g, accum):
        if logits.requires_grad:
            p = np.exp(z - lse)
            p[target] -= 1.0
            accum(logits, (np.asarray(g).item() * p).reshape(logits.data.shape))

    return _make(np.asarray(lse - z[target]), (logits,), bwd)
