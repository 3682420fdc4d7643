"""Hypergraph construction: token scoring, center sampling, k-NN hyperedges.

Construction is discrete and runs on detached values; gradients never flow
through topology selection. Every function here is deterministic for fixed
inputs, and every ranking tie is broken toward the lower node index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .tensor import ConfigError, NumericalError, Tensor, add_flops

DISTANCE_KINDS = ("dot", "cosine", "euclidean", "softmax")
CONSTRUCT_ALGOS = ("cs_knn", "knn", "kmeans", "dpc_knn")
BASELINE_ALGOS = ("knn", "kmeans", "dpc_knn")

KMEANS_ITERS = 20


@dataclass(frozen=True)
class TokenSet:
    """Node tokens ``(N, C)`` plus a class token and the grid they came from."""

    nodes: Tensor
    class_token: Tensor
    grid: tuple[int, int]

    def __post_init__(self):
        if self.nodes.data.ndim != 2:
            raise ConfigError(f"node tokens must be 2-d, got {self.nodes.shape}")
        n, c = self.nodes.shape
        if n < 1 or c < 1:
            raise ConfigError(f"need at least one token and one channel, got {n}x{c}")
        if min(self.grid) < 1:
            raise ConfigError(f"grid dimensions must be at least 1, got {self.grid}")
        if self.grid[0] * self.grid[1] != n:
            raise ConfigError(f"grid {self.grid} does not cover {n} tokens")
        if self.class_token.shape != (1, c):
            raise ConfigError(f"class token must be (1,{c}), got {self.class_token.shape}")

    @classmethod
    def from_nodes(cls, nodes: Tensor, grid: tuple[int, int], class_token: Tensor | None = None):
        """Build a token set; without an explicit class token, use the node mean."""
        if class_token is None:
            class_token = Tensor(nodes.data.mean(axis=0, keepdims=True))
        return cls(nodes=nodes, class_token=class_token, grid=grid)

    @property
    def n_tokens(self) -> int:
        return self.nodes.shape[0]

    @property
    def channels(self) -> int:
        return self.nodes.shape[1]


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Sparse boolean node/hyperedge incidence.

    ``members[j]`` lists the K node indices of hyperedge j in ascending order;
    ``centers[j]`` is the sampling center, always a member of its own column.
    Node degrees (row sums) may be zero.
    """

    n_nodes: int
    members: np.ndarray  # (Ne, K) int64
    centers: np.ndarray  # (Ne,) int64

    def __post_init__(self):
        m = np.asarray(self.members, dtype=np.int64)
        c = np.asarray(self.centers, dtype=np.int64)
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "centers", c)
        if m.ndim != 2 or c.shape != (m.shape[0],):
            raise ConfigError(f"incidence shape mismatch: members {m.shape}, centers {c.shape}")
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise ConfigError("need at least one hyperedge with one member")
        if m.min() < 0 or m.max() >= self.n_nodes:
            raise ConfigError("member index out of range")
        unordered = (m[:, 1:] <= m[:, :-1]).any(axis=1)
        centerless = ~(m == c[:, None]).any(axis=1)
        bad = unordered | centerless
        if bad.any():
            j = int(np.argmax(bad))
            if unordered[j]:
                raise ConfigError(f"hyperedge {j} members not strictly ascending")
            raise ConfigError(f"center {c[j]} missing from its hyperedge {j}")

    @property
    def n_edges(self) -> int:
        return self.members.shape[0]

    @property
    def k(self) -> int:
        return self.members.shape[1]

    @cached_property
    def d_v(self) -> np.ndarray:
        return np.bincount(self.members.ravel(), minlength=self.n_nodes).astype(np.int64)

    @cached_property
    def d_e(self) -> np.ndarray:
        return np.full(self.n_edges, self.k, dtype=np.int64)

    @cached_property
    def sparse(self) -> sp.csc_array:
        """H as a sparse {0,1} matrix of shape (N, Ne).

        Column j holds hyperedge j's K ascending members, so ``members`` is
        the compressed layout as it stands. ``sparse @ e`` adds each node's
        hyperedge rows one at a time, in ascending hyperedge order.
        """
        ne, k = self.members.shape
        ones = np.ones(ne * k, dtype=np.float32)
        return sp.csc_array((ones, self.members.ravel(), np.arange(0, ne * k + 1, k)), shape=(self.n_nodes, ne))

    @cached_property
    def sparse_t(self) -> sp.csr_array:
        """Hᵀ of shape (Ne, N), sharing :attr:`sparse`'s arrays; adds members in ascending order."""
        return self.sparse.T

    def dense(self) -> np.ndarray:
        """Explicit {0,1} incidence of shape (N, Ne), for oracle comparisons."""
        h = np.zeros((self.n_nodes, self.n_edges), dtype=np.float64)
        h[self.members.T, np.arange(self.n_edges)] = 1.0
        return h


# --------------------------------------------------------------------------
# similarity


def similarity(refs: np.ndarray, tokens: np.ndarray, kind: str = "dot") -> np.ndarray:
    """Pairwise similarity of reference vectors ``(R,C)`` against tokens ``(N,C)``.

    Larger means nearer for every kind. ``dot`` is the scaled dot product
    ``(r . x) / sqrt(C)``; ``softmax`` normalizes those rows (a monotone map,
    so rankings match ``dot``); ``euclidean`` is the negated distance.
    """
    refs = np.asarray(refs)
    tokens = np.asarray(tokens)
    c = tokens.shape[1]
    add_flops(2 * refs.shape[0] * tokens.shape[0] * c)
    if kind in ("dot", "softmax"):
        s = (refs @ tokens.T) / np.sqrt(c)
        if kind == "softmax":
            z = s - s.max(axis=1, keepdims=True)
            e = np.exp(z)
            s = e / e.sum(axis=1, keepdims=True)
        return s
    if kind == "cosine":
        rn = np.linalg.norm(refs, axis=1, keepdims=True)
        tn = np.linalg.norm(tokens, axis=1, keepdims=True)
        return (refs @ tokens.T) / np.maximum(rn * tn.T, 1e-12)
    if kind == "euclidean":
        sq = (refs * refs).sum(axis=1, keepdims=True) + (tokens * tokens).sum(axis=1) - 2.0 * (refs @ tokens.T)
        return -np.sqrt(np.maximum(sq, 0.0))
    raise ConfigError(f"unknown distance kind {kind!r}; expected one of {DISTANCE_KINDS}")


def score_tokens(tokens: TokenSet, distance: str = "dot") -> np.ndarray:
    """Per-node informativeness: similarity of the class token to each node."""
    return similarity(tokens.class_token.data, tokens.nodes.data, distance)[0]


def _top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Per row, mark the first k entries of a stable descending sort.

    Every entry above the row's k-th largest value is kept; the slots left
    go to the entries equal to it, lowest index first. NaN has no rank.
    """
    if np.isnan(values).any():
        raise NumericalError("construction ranking met a NaN similarity")
    n = values.shape[1]
    if k == n:
        return np.ones(values.shape, dtype=bool)
    kth = np.partition(values, n - k, axis=1)[:, n - k, None]
    mask = values > kth
    tied = values == kth
    free = k - mask.sum(axis=1)
    crowded = np.flatnonzero(tied.sum(axis=1) > free)
    if crowded.size:
        tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= free[crowded, None]
    return mask | tied


def sample_centers(scores: np.ndarray, n_edges: int) -> np.ndarray:
    """Indices of the ``n_edges`` largest scores, ties to the lower index, sorted."""
    scores = np.asarray(scores).reshape(1, -1)
    n = scores.shape[1]
    if not 1 <= n_edges <= n:
        raise ConfigError(f"need 1 <= n_edges <= {n}, got {n_edges}")
    return np.flatnonzero(_top_k_mask(scores, n_edges)[0]).astype(np.int64)


def _rank_members(sims: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    """Top-k nodes per similarity row with forced center inclusion, each row ascending.

    A center outside its row's top k replaces the k-th ranked member: the
    smallest selected value and, among ties, the highest index.
    """
    mask = _top_k_mask(sims, k)
    miss = np.flatnonzero(~mask[np.arange(len(centers)), centers])
    if miss.size:
        sel, vals = mask[miss], sims[miss]
        low = np.min(vals, axis=1, where=sel, initial=np.inf, keepdims=True)
        last = sims.shape[1] - 1 - np.argmax((sel & (vals == low))[:, ::-1], axis=1)
        mask[miss, last] = False
        mask[miss, centers[miss]] = True
    rows, n = mask.shape
    # every row holds exactly k marks, so the flat indices split evenly by row
    return np.flatnonzero(mask).reshape(rows, k) - np.arange(0, rows * n, n)[:, None]


def knn_assign(tokens: TokenSet, centers: np.ndarray, k: int, distance: str = "dot") -> IncidenceMatrix:
    """One hyperedge per center: the k most similar nodes, center force-included.

    The center competes in the ranking like any node; if it still misses the
    top k (possible under the dot-product similarity), it replaces the k-th
    ranked member so every hyperedge contains its own center.
    """
    n = tokens.n_tokens
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= {n}, got {k}")
    centers = np.asarray(centers, dtype=np.int64)
    sims = similarity(tokens.nodes.data[centers], tokens.nodes.data, distance)
    return IncidenceMatrix(n_nodes=n, members=_rank_members(sims, centers, k), centers=centers)


def cs_knn(tokens: TokenSet, n_edges: int, k: int, distance: str = "dot") -> IncidenceMatrix:
    """Center-sampling k-NN: score by class token, sample centers, gather neighbors."""
    scores = score_tokens(tokens, distance)
    centers = sample_centers(scores, n_edges)
    return knn_assign(tokens, centers, k, distance)


# --------------------------------------------------------------------------
# baseline constructors


def _lloyd(points: np.ndarray, n_clusters: int, rng: np.random.Generator, iters: int = KMEANS_ITERS) -> np.ndarray:
    """Plain Lloyd iterations with euclidean assignment; empty clusters keep
    their previous centroid."""
    n = points.shape[0]
    centroids = points[rng.choice(n, size=n_clusters, replace=False)].astype(np.float64, copy=True)
    for _ in range(iters):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(n_clusters):
            mask = assign == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
    add_flops(iters * 3 * n * n_clusters * points.shape[1])
    return centroids


def _dpc_centers(points: np.ndarray, n_edges: int, k: int) -> np.ndarray:
    """Density-peak centers: k-NN gaussian density times distance-to-higher-density."""
    n = points.shape[0]
    sq = (points * points).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
    add_flops(2 * n * n * points.shape[1])
    kd = min(k, n - 1)
    if kd >= 1:
        knn_d2 = np.sort(d2, axis=1)[:, 1 : kd + 1]
        rho = np.exp(-knn_d2.mean(axis=1))
    else:
        rho = np.ones(n)
    dist = np.sqrt(d2)
    order = np.argsort(-rho, kind="stable")
    delta = np.empty(n)
    delta[order[0]] = dist[order[0]].max()
    for pos in range(1, n):
        i = order[pos]
        delta[i] = dist[i, order[:pos]].min()
    peak = rho * delta
    return np.sort(np.argsort(-peak, kind="stable")[:n_edges]).astype(np.int64)


def baseline_construct(
    tokens: TokenSet,
    algo: str,
    n_edges: int,
    k: int,
    seed: int = 0,
    distance: str = "dot",
) -> IncidenceMatrix:
    """Reference constructors for ablation arms: KNN, K-Means, DPC-KNN.

    KNN makes every node the center of its own k-neighborhood (the hyperedge
    count is forced to N). K-Means runs Lloyd for a fixed iteration budget and
    gathers the k nearest nodes per centroid. DPC-KNN picks density peaks as
    centers and then assigns like CS-KNN. All three are deterministic for a
    fixed seed.
    """
    n = tokens.n_tokens
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= {n}, got {k}")
    pts = tokens.nodes.data.astype(np.float64)
    if algo == "knn":
        centers = np.arange(n, dtype=np.int64)
        return knn_assign(tokens, centers, k, distance)
    if algo == "kmeans":
        if not 1 <= n_edges <= n:
            raise ConfigError(f"need 1 <= n_edges <= {n}, got {n_edges}")
        rng = np.random.default_rng(seed)
        centroids = _lloyd(pts, n_edges, rng)
        sims = similarity(centroids, pts, distance)
        # nearest node to each centroid doubles as the column's center; it is
        # rank 0 in its own row, so force-inclusion is automatic
        centers = np.argmax(sims, axis=1).astype(np.int64)
        return IncidenceMatrix(n_nodes=n, members=_rank_members(sims, centers, k), centers=centers)
    if algo == "dpc_knn":
        if not 1 <= n_edges <= n:
            raise ConfigError(f"need 1 <= n_edges <= {n}, got {n_edges}")
        centers = _dpc_centers(pts, n_edges, k)
        return knn_assign(tokens, centers, k, distance)
    raise ConfigError(f"unknown construction algo {algo!r}; expected one of {BASELINE_ALGOS}")


def build_incidence(
    tokens: TokenSet,
    algo: str,
    n_edges: int,
    k: int,
    seed: int = 0,
    distance: str = "dot",
) -> IncidenceMatrix:
    """Dispatch over all construction algorithms, CS-KNN included."""
    if algo == "cs_knn":
        return cs_knn(tokens, n_edges, k, distance)
    return baseline_construct(tokens, algo, n_edges, k, seed=seed, distance=distance)


# --------------------------------------------------------------------------
# serialization


def topology_dump(tokens: TokenSet, h: IncidenceMatrix, scores: np.ndarray) -> dict:
    """JSON-ready record of a constructed topology (stable key order)."""
    return {
        "n_nodes": int(h.n_nodes),
        "n_edges": int(h.n_edges),
        "k": int(h.k),
        "grid": [int(tokens.grid[0]), int(tokens.grid[1])],
        "centers": [int(c) for c in h.centers],
        "scores": [float(s) for s in np.asarray(scores).reshape(-1)],
        "edges": [[int(i) for i in row] for row in h.members],
    }


def topology_dump_json(tokens: TokenSet, h: IncidenceMatrix, scores: np.ndarray) -> str:
    return json.dumps(topology_dump(tokens, h, scores), indent=2) + "\n"
