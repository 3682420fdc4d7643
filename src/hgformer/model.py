"""Pyramid network assembly: patch embeddings, messaging blocks, variants.

Four stages halve the resolution (the first quarters it) while widening the
channels by the 1/2/5/8 multipliers. Every block rebuilds its hypergraph from
the current tokens, runs node-to-hyperedge and hyperedge-to-node messaging,
and adds the result back onto the node stream under a stochastic-depth gate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import load_tensors, save_tensors
from .construct import TokenSet, build_incidence
from .messaging import (
    NO_DROP,
    DropPath,
    HgaParams,
    LinearParams,
    NormParams,
    apply_norm,
    hga_e2n,
    hga_n2e,
    init_hga_params,
    linear,
    topo_attention,
)
from .tensor import (
    ConfigError,
    Tensor,
    add,
    extract_patches,
    matmul,
    mean_rows,
    node_scatter_mean,
    pad_spatial,
    reshape,
    section,
    tokens_to_grid,
)

ATTENTION_MODES = ("hga", "vanilla")
MESSAGING_MODES = ("dual", "single")

# the reference per-stage neighbor counts, sized for 224x224 inputs
PAPER_K_SCHEDULE = (128, 64, 32, 8)
PAPER_IMAGE_SIZE = 224
# fixed across every variant: per-stage channel widening, per-stage hyperedge
# budget ``ceil(ratio * N)`` and the attention head width (the feedforward
# expansion is messaging.MLP_RATIO)
CHANNEL_MULTIPLIERS = (1, 2, 5, 8)
NE_RATIOS = (0.125, 0.25, 0.5, 1.0)
HEAD_DIM = 32


@dataclass(frozen=True)
class StageConfig:
    depth: int
    channels: int
    ne_ratio: float
    k_neighbors: int
    downsample: int
    n_heads: int


@dataclass(frozen=True)
class NetworkConfig:
    """Hyperparameters of a full network; see :func:`variant` for named presets."""

    name: str
    base_channels: int
    depths: tuple[int, int, int, int]
    n_classes: int = 1000
    drop_path_rate: float = 0.0
    k_schedule: tuple[int, int, int, int] = PAPER_K_SCHEDULE
    construct_algo: str = "cs_knn"
    distance: str = "dot"
    attention_mode: str = "hga"
    messaging_mode: str = "dual"

    def stages(self) -> tuple[StageConfig, ...]:
        out = []
        for i in range(4):
            c = self.base_channels * CHANNEL_MULTIPLIERS[i]
            heads = max(1, c // HEAD_DIM)
            if c % heads:
                raise ConfigError(f"stage {i} channels {c} not divisible by {heads} heads")
            out.append(
                StageConfig(
                    depth=self.depths[i],
                    channels=c,
                    ne_ratio=NE_RATIOS[i],
                    k_neighbors=self.k_schedule[i],
                    downsample=4 if i == 0 else 2,
                    n_heads=heads,
                )
            )
        return tuple(out)

    def validate(self) -> None:
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        if self.messaging_mode not in MESSAGING_MODES:
            raise ConfigError(f"unknown messaging mode {self.messaging_mode!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        if not 0.0 <= self.drop_path_rate <= 1.0:
            raise ConfigError("drop_path_rate must lie in [0, 1]")
        self.stages()


def scaled_k_schedule(image_size: int) -> tuple[int, int, int, int]:
    """The reference neighbor schedule scaled by the token-count ratio.

    Every stage holds ``(image_size / 224)^2`` times the tokens it holds at
    224x224, so each K shrinks by that ratio, rounded up (at least 1).
    """
    num, den = image_size * image_size, PAPER_IMAGE_SIZE * PAPER_IMAGE_SIZE
    return tuple(max(1, -(-k * num // den)) for k in PAPER_K_SCHEDULE)


# name, base channels, depths, stochastic depth, neighbor schedule; Micro
# runs at 32x32, where the reference schedule would give K = N in every
# stage (each hyperedge holding every token)
_VARIANTS = {
    "t": ("T", 32, (1, 2, 4, 2), 0.05, PAPER_K_SCHEDULE),
    "s": ("S", 64, (1, 2, 4, 2), 0.10, PAPER_K_SCHEDULE),
    "b": ("B", 96, (1, 2, 4, 2), 0.15, PAPER_K_SCHEDULE),
    "micro": ("Micro", 16, (1, 1, 1, 1), 0.0, scaled_k_schedule(32)),
}

VARIANT_NAMES = ("T", "S", "B", "Micro")


def variant(name: str, n_classes: int = 1000, **overrides) -> NetworkConfig:
    """Named preset: ``T``/``S``/``B`` follow the reference table, ``Micro`` is desk-scale.

    ``Micro`` defaults to the neighbor schedule scaled to 32x32 inputs; an
    explicit ``k_schedule=`` override is taken literally.
    """
    key = name.lower()
    if key not in _VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {VARIANT_NAMES}")
    canon, channels, depths, dpr, k_schedule = _VARIANTS[key]
    cfg = NetworkConfig(
        name=canon,
        base_channels=channels,
        depths=depths,
        n_classes=n_classes,
        drop_path_rate=dpr,
        k_schedule=k_schedule,
    )
    return replace(cfg, **overrides) if overrides else cfg


def vanilla_attention_variant(cfg: NetworkConfig) -> NetworkConfig:
    """Ablation arm: self-derived queries, no hypergraph construction at all."""
    return replace(cfg, attention_mode="vanilla")


def single_stage_variant(cfg: NetworkConfig) -> NetworkConfig:
    """Ablation arm: node-to-hyperedge only; edge tokens mean-broadcast back."""
    return replace(cfg, messaging_mode="single")


# --------------------------------------------------------------------------
# parameters


@dataclass
class PatchEmbedParams:
    weight: Tensor  # (C_in * s * s, C)
    bias: Tensor
    norm: NormParams
    stride: int


@dataclass
class BlockParams:
    n2e: HgaParams
    e2n: HgaParams


@dataclass
class StageParams:
    embed: PatchEmbedParams
    blocks: list[BlockParams]


@dataclass
class HeadParams:
    norm: NormParams
    fc: LinearParams


@dataclass
class NetworkParams:
    stages: list[StageParams]
    head: HeadParams


def _named_tensors(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            out[prefix] = obj
        return
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _named_tensors(item, f"{prefix}.{i}", out)
        return
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _named_tensors(getattr(obj, f.name), f"{prefix}.{f.name}", out)


def init_network_params(cfg: NetworkConfig, seed: int = 0, dtype=np.float32) -> NetworkParams:
    rng = np.random.default_rng(seed)
    std = 0.02

    def w(shape):
        return Tensor(rng.normal(0.0, std, shape), requires_grad=True, dtype=dtype)

    def zeros(n):
        return Tensor(np.zeros(n), requires_grad=True, dtype=dtype)

    def norm(c):
        return NormParams(gamma=Tensor(np.ones(c), requires_grad=True, dtype=dtype), beta=zeros(c))

    stages = []
    in_ch = 3
    for stage in cfg.stages():
        c, s = stage.channels, stage.downsample
        embed = PatchEmbedParams(weight=w((in_ch * s * s, c)), bias=zeros(c), norm=norm(c), stride=s)
        blocks = []
        for _ in range(stage.depth):
            blocks.append(
                BlockParams(
                    n2e=init_hga_params(c, stage.n_heads, rng, dtype=dtype, with_ffn=False),
                    e2n=init_hga_params(c, stage.n_heads, rng, dtype=dtype, with_ffn=True),
                )
            )
        stages.append(StageParams(embed=embed, blocks=blocks))
        in_ch = c
    head = HeadParams(norm=norm(in_ch), fc=LinearParams(weight=w((in_ch, cfg.n_classes)), bias=zeros(cfg.n_classes)))
    return NetworkParams(stages=stages, head=head)


# --------------------------------------------------------------------------
# forward ops


def patch_embed(image: Tensor, p: PatchEmbedParams) -> TokenSet:
    """Strided non-overlapping convolution plus normalization.

    Spatial dims at least as large as the stride must divide it exactly;
    smaller maps (late pyramid stages on tiny inputs) are zero-padded up to
    one full patch so the stage degrades to a single token.
    """
    c, h, w = image.shape
    s = p.stride
    if (h >= s and h % s) or (w >= s and w % s):
        raise ConfigError(f"input {h}x{w} not divisible by stride {s}")
    ph, pw = max(h, s), max(w, s)
    if (ph, pw) != (h, w):
        image = pad_spatial(image, ph, pw)
    patches = extract_patches(image, s)
    tok = apply_norm(matmul(patches, p.weight, p.bias), p.norm)
    return TokenSet.from_nodes(tok, (ph // s, pw // s))


def block_forward(
    tokens: TokenSet,
    stage: StageConfig,
    bp: BlockParams,
    cfg: NetworkConfig,
    drop: DropPath = NO_DROP,
    seed: int = 0,
) -> TokenSet:
    """One messaging block; preserves token count and channels.

    The hypergraph is rebuilt from the current tokens on every call; CS-KNN
    scores them against their mean, the class token of
    :meth:`TokenSet.from_nodes`. The messaging result joins the node stream
    through a residual connection, so a fully dropped block (stochastic-depth
    rate 1) is the identity.
    """
    v = tokens.nodes
    grid = tokens.grid
    if cfg.attention_mode == "vanilla":
        # plain self-attention stack: queries come from the kv source itself
        # and no incidence matrix is ever built; the sublayer residuals
        # already carry the identity path.
        x = topo_attention(v, v, bp.n2e, drop=drop)
        x = topo_attention(x, x, bp.e2n, grid=grid, drop=drop)
        return TokenSet.from_nodes(x, grid)

    n = v.shape[0]
    ne = max(1, math.ceil(stage.ne_ratio * n))
    k = min(stage.k_neighbors, n)
    with section("construction"):
        h = build_incidence(tokens, cfg.construct_algo, ne, k, seed=seed, distance=cfg.distance)
    with section("messaging"):
        e1 = hga_n2e(v, h, bp.n2e, drop=drop)
        if cfg.messaging_mode == "single":
            upd = node_scatter_mean(e1, h)
        else:
            upd = hga_e2n(e1, h, grid, bp.e2n, drop=drop)
        out = add(v, drop(upd))
    return TokenSet.from_nodes(out, grid)


def network_forward(
    image: Tensor | np.ndarray,
    cfg: NetworkConfig,
    params: NetworkParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Full pyramid: per stage, embed then blocks; pooled head at the end."""
    if training and cfg.drop_path_rate > 0 and rng is None:
        raise ConfigError(f"training with drop_path_rate {cfg.drop_path_rate} needs an rng for stochastic depth")
    x = image if isinstance(image, Tensor) else Tensor(image)
    if x.data.ndim != 3 or 0 in x.shape:
        raise ConfigError(f"expected a non-empty (C,H,W) image, got {x.shape}")
    drop = DropPath(cfg.drop_path_rate, True, rng) if training else NO_DROP
    stages = cfg.stages()
    tokens: TokenSet | None = None
    for si, (stage, sp) in enumerate(zip(stages, params.stages)):
        with section("embed"):
            tokens = patch_embed(x, sp.embed)
        for bi, bp in enumerate(sp.blocks):
            tokens = block_forward(tokens, stage, bp, cfg, drop=drop, seed=1000 * si + bi)
        if si < len(stages) - 1:
            x = tokens_to_grid(tokens.nodes, tokens.grid)
    with section("head"):
        pooled = mean_rows(tokens.nodes)
        logits = linear(apply_norm(pooled, params.head.norm), params.head.fc)
    return reshape(logits, (cfg.n_classes,))


class HGFormer:
    """A configured network: parameters plus the forward pass."""

    def __init__(self, config: NetworkConfig, seed: int = 0, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        self.params = init_network_params(config, seed=seed, dtype=dtype)
        self._named = {}
        _named_tensors(self.params, "net", self._named)

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._named)

    def parameter_count(self) -> int:
        return sum(p.size for p in self._named.values())

    def forward(self, image, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        return network_forward(image, self.config, self.params, training=training, rng=rng)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self._named.items()}

    def save(self, path) -> None:
        save_tensors(path, self.state_arrays())

    def load(self, path) -> None:
        loaded = load_tensors(path)
        missing = set(self._named) - set(loaded)
        extra = set(loaded) - set(self._named)
        if missing or extra:
            raise ConfigError(f"checkpoint mismatch: missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
        for name, arr in loaded.items():
            p = self._named[name]
            if tuple(arr.shape) != tuple(p.data.shape):
                raise ConfigError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = np.ascontiguousarray(arr, dtype=self.dtype)
