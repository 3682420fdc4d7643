"""Node<->hyperedge message passing.

Each direction runs a hypergraph convolution that predicts fresh tokens from
the incidence structure, then refines them with topology-aware attention: the
convolution outputs serve as queries, while the full token set on the other
side serves as keys and values. Sublayers are pre-normalized with residual
connections; the node-side feedforward carries a depthwise 3x3 convolution
over the token grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .construct import IncidenceMatrix
from .tensor import (
    ConfigError,
    Tensor,
    add,
    attention_mix,
    attention_scores,
    checkpoint,
    depthwise_conv2d,
    edge_gather_mean,
    gelu,
    grid_to_tokens,
    layer_norm,
    matmul,
    node_scatter_mean,
    scale,
    softmax_rows,
    tokens_to_grid,
)

# hidden width of the node-side feedforward, in multiples of the channels
MLP_RATIO = 4


@dataclass
class LinearParams:
    weight: Tensor
    bias: Tensor | None = None


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class FeedForwardParams:
    """Two linear layers around an optional depthwise 3x3 conv on the hidden map."""

    norm: NormParams
    fc1: LinearParams
    fc2: LinearParams
    dw_kernel: Tensor | None = None
    dw_bias: Tensor | None = None


@dataclass
class HgaParams:
    """Parameters of one messaging direction.

    ``w_conv`` is the bias-free hypergraph convolution weight; ``q/k/v/out``
    project the attention; ``ffn`` is present on the node side only, where the
    grid exists.
    """

    w_conv: Tensor
    norm_q: NormParams
    norm_kv: NormParams
    q: LinearParams
    k: LinearParams
    v: LinearParams
    out: LinearParams
    n_heads: int
    ffn: FeedForwardParams | None = None


@dataclass
class DropPath:
    """Stochastic-depth gate for residual branches.

    In training, drops the whole branch with probability ``rate`` and rescales
    kept branches by 1/(1-rate); in eval it is the identity. Each call draws
    once from ``rng``, so a fixed generator makes a forward pass deterministic.
    """

    rate: float = 0.0
    training: bool = False
    rng: np.random.Generator | None = None

    def __call__(self, t: Tensor) -> Tensor:
        if not self.training or self.rate <= 0.0:
            return t
        if self.rate >= 1.0 or self.rng.random() < self.rate:
            return scale(t, 0.0)
        return scale(t, 1.0 / (1.0 - self.rate))


NO_DROP = DropPath()


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return matmul(x, p.weight, p.bias)


def apply_norm(x: Tensor, p: NormParams) -> Tensor:
    return layer_norm(x, p.gamma, p.beta)


def init_hga_params(
    channels: int,
    n_heads: int,
    rng: np.random.Generator,
    dtype=np.float32,
    with_ffn: bool = False,
    std: float = 0.02,
) -> HgaParams:
    if channels % n_heads:
        raise ConfigError(f"channels {channels} not divisible by {n_heads} heads")

    def w(shape):
        return Tensor(rng.normal(0.0, std, shape), requires_grad=True, dtype=dtype)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

    def norm():
        return NormParams(gamma=Tensor(np.ones(channels), requires_grad=True, dtype=dtype), beta=zeros(channels))

    def lin(n_in, n_out):
        return LinearParams(weight=w((n_in, n_out)), bias=zeros(n_out))

    ffn = None
    if with_ffn:
        hidden = MLP_RATIO * channels
        ffn = FeedForwardParams(
            norm=norm(),
            fc1=lin(channels, hidden),
            fc2=lin(hidden, channels),
            dw_kernel=w((hidden, 3, 3)),
            dw_bias=zeros(hidden),
        )
    return HgaParams(
        w_conv=w((channels, channels)),
        norm_q=norm(),
        norm_kv=norm(),
        q=lin(channels, channels),
        k=lin(channels, channels),
        v=lin(channels, channels),
        out=lin(channels, channels),
        n_heads=n_heads,
        ffn=ffn,
    )


# --------------------------------------------------------------------------
# hypergraph convolution


def hgconv_n2e(v: Tensor, h: IncidenceMatrix, w_conv: Tensor) -> Tensor:
    """Predict hyperedge tokens: per-edge mean of member nodes, linear map, GELU.

    Since every hyperedge has exactly K members, the inverse-degree-weighted
    aggregation is exactly the member mean.
    """
    return gelu(matmul(edge_gather_mean(v, h), w_conv))


def hgconv_e2n(e: Tensor, h: IncidenceMatrix, w_conv: Tensor) -> Tensor:
    """Predict node tokens: per-node mean over incident hyperedges, linear map, GELU.

    Nodes covered by no hyperedge receive the zero vector before the linear
    map (the inverse of a zero degree is taken as zero).
    """
    return gelu(matmul(node_scatter_mean(e, h), w_conv))


# --------------------------------------------------------------------------
# attention


def multi_head_attention(query_src: Tensor, kv_src: Tensor, p: HgaParams) -> Tensor:
    """Pre-normalized multi-head cross attention around :func:`attention_core`, output-projected.

    Queries come from ``query_src`` (the convolution predictions), keys and
    values from ``kv_src`` (the unrestricted token set on the other side).
    """
    c = query_src.shape[1]
    if kv_src.shape[1] != c:
        raise ConfigError(f"query/kv channel mismatch: {query_src.shape} vs {kv_src.shape}")
    q_all = linear(apply_norm(query_src, p.norm_q), p.q)
    kv_n = apply_norm(kv_src, p.norm_kv)
    k_all = linear(kv_n, p.k)
    v_all = linear(kv_n, p.v)
    return linear(checkpoint(partial(attention_core, n_heads=p.n_heads), q_all, k_all, v_all), p.out)


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """The interaction term on ``(N, H*d)`` projections: scaled scores, row softmax, value mixing.

    All heads run as one stacked op for the scores, with the ``1/sqrt(d)``
    scale folded into it, one softmax over their ``(H*Nq, Nk)`` rows, and one
    op mixing the values; head ``h`` owns channels ``[h*d, (h+1)*d)``. Its
    cost scales as queries x keys x channels. :func:`multi_head_attention`
    runs it under :func:`~hgformer.tensor.checkpoint`, so a training forward
    keeps q, k and v, not the probabilities, and backward recomputes them.
    The softmax is looked up by this module's name at each call, so a wrapper
    installed there sees the forward and the recompute.
    """
    scores = attention_scores(q, k, n_heads)
    return attention_mix(softmax_rows(scores), v, n_heads)


def feed_forward(x: Tensor, p: FeedForwardParams, grid: tuple[int, int] | None = None) -> Tensor:
    """Pre-normalized two-layer MLP; the depthwise conv runs exactly when ``p.dw_kernel`` is set."""
    y = linear(apply_norm(x, p.norm), p.fc1)
    if p.dw_kernel is not None:
        if grid is None:
            raise ConfigError("convolutional feedforward needs the token grid")
        img = tokens_to_grid(y, grid)
        img = depthwise_conv2d(img, p.dw_kernel, p.dw_bias)
        y = grid_to_tokens(img)
    return linear(gelu(y), p.fc2)


def topo_attention(
    query_src: Tensor,
    kv_src: Tensor,
    p: HgaParams,
    grid: tuple[int, int] | None = None,
    drop: DropPath = NO_DROP,
) -> Tensor:
    """Attention refinement around ``query_src`` with pre-norm and residuals.

    The attention branch and (when present) the feedforward branch are both
    residual; stochastic depth gates each branch independently.
    """
    x = add(query_src, drop(multi_head_attention(query_src, kv_src, p)))
    if p.ffn is not None:
        x = add(x, drop(feed_forward(x, p.ffn, grid=grid)))
    return x


# --------------------------------------------------------------------------
# full directions


def hga_n2e(v: Tensor, h: IncidenceMatrix, p: HgaParams, drop: DropPath = NO_DROP) -> Tensor:
    """Node-to-hyperedge messaging: convolution prediction, attention refinement.

    The predicted hyperedge tokens carry the local topology as queries; the
    node tokens supply global context as keys and values.
    """
    e0 = hgconv_n2e(v, h, p.w_conv)
    return topo_attention(e0, v, p, drop=drop)


def hga_e2n(e: Tensor, h: IncidenceMatrix, grid: tuple[int, int], p: HgaParams, drop: DropPath = NO_DROP) -> Tensor:
    """Hyperedge-to-node messaging with the convolutional feedforward.

    Tokens are reshaped onto their grid for the depthwise convolution inside
    the feedforward; parameters without a ``dw_kernel`` run the purely
    linear feedforward instead.
    """
    if grid[0] * grid[1] != h.n_nodes:
        raise ConfigError(f"grid {grid} does not cover {h.n_nodes} nodes")
    v0 = hgconv_e2n(e, h, p.w_conv)
    return topo_attention(v0, e, p, grid=grid, drop=drop)
