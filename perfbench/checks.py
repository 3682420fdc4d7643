"""Correctness checks made apart from the program.

Each check takes plain arrays (or a loss callable) captured from a run and
returns a list of failure messages; an empty list means the check passed.
Nothing here calls into ``hgformer``: every expected value is recomputed in
float64 from the inputs, with a stated rounding tolerance for the float32
result under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

U32 = 2.0**-24  # unit roundoff of float32


def _dot_bound(n_terms: int) -> float:
    """Relative worst-case rounding of an n-term float32 sum of products."""
    g = n_terms * U32
    return g / (1.0 - g) + 2.0 * U32


def check_topk(nodes: np.ndarray, class_token: np.ndarray, members: np.ndarray, centers: np.ndarray,
               n_edges: int, k: int) -> list[str]:
    """CS-KNN output against a float64 recomputation of the dot similarities.

    Centres must be the ``n_edges`` best class-token scores and each
    hyperedge's non-centre members must beat every non-member, both up to
    the float32 rounding bound of the program's dot products. Each centre is
    in its own hyperedge; members are strictly ascending and ``k`` distinct.
    """
    x = np.asarray(nodes, dtype=np.float64)
    n, c = x.shape
    members = np.asarray(members)
    centers = np.asarray(centers)
    fails = []
    if members.shape != (n_edges, k) or centers.shape != (n_edges,):
        return [f"incidence shape {members.shape}/{centers.shape}, expected ({n_edges},{k})"]
    if members.min() < 0 or members.max() >= n:
        return ["member index out of range"]
    if np.any(np.diff(members, axis=1) <= 0):
        fails.append("members not strictly ascending (or repeated)")
    if not np.all((members == centers[:, None]).any(axis=1)):
        fails.append("a centre is missing from its own hyperedge")
    if np.any(np.diff(centers) <= 0):
        fails.append("centres not distinct and ascending")

    inv = 1.0 / math.sqrt(c)
    cls = np.asarray(class_token, dtype=np.float64).reshape(1, c)
    scores = (cls @ x.T)[0] * inv
    s_bnd = _dot_bound(c) * (np.abs(cls) @ np.abs(x).T)[0] * inv + 1e-30
    chosen = np.zeros(n, dtype=bool)
    chosen[centers] = True
    if (~chosen).any() and (scores + s_bnd)[chosen].min() < (scores - s_bnd)[~chosen].max():
        fails.append("centres are not the top-n_edges class-token scores")

    xc = x[centers]
    sims = (xc @ x.T) * inv
    bnd = _dot_bound(c) * (np.abs(xc) @ np.abs(x).T) * inv + 1e-30
    member = np.zeros((n_edges, n), dtype=bool)
    member[np.arange(n_edges)[:, None], members] = True
    rest = member.copy()
    rest[np.arange(n_edges), centers] = False  # a forced centre need not rank
    lo = np.where(rest, sims + bnd, np.inf).min(axis=1)
    hi = np.where(member, -np.inf, sims - bnd).max(axis=1)
    bad = np.flatnonzero(lo < hi)
    if bad.size:
        fails.append(f"{bad.size} hyperedges miss the top-k property (first: {int(bad[0])})")
    return fails


def _gelu64(y: np.ndarray) -> np.ndarray:
    return y * 0.5 * (1.0 + erf(y / math.sqrt(2.0)))


def _dense_incidence(members: np.ndarray, n_nodes: int) -> np.ndarray:
    ne = members.shape[0]
    h = np.zeros((n_nodes, ne))
    h[members.T, np.arange(ne)] = 1.0
    return h


def _compare(out: np.ndarray, expected: np.ndarray, bound: np.ndarray, what: str) -> list[str]:
    err = np.abs(np.asarray(out, dtype=np.float64) - expected)
    bad = np.flatnonzero((err > 2.0 * bound + 1e-30).any(axis=1))
    if bad.size:
        return [f"{what}: {bad.size} rows off the dense formula (first row {int(bad[0])}, "
                f"max err {float(err.max()):.3g})"]
    return []


def check_hgconv_n2e(v: np.ndarray, members: np.ndarray, w: np.ndarray, out: np.ndarray) -> list[str]:
    """``out`` against GELU(D_e^-1 H^T X W) with a dense incidence H."""
    x = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    h = _dense_incidence(np.asarray(members), x.shape[0])
    d_e = h.sum(axis=0)
    pre = (h.T @ x) / d_e[:, None] @ w
    pre_abs = (h.T @ np.abs(x)) / d_e[:, None] @ np.abs(w)
    bound = _dot_bound(int(d_e.max()) + w.shape[0] + 4) * pre_abs * 1.2
    return _compare(out, _gelu64(pre), bound, "hgconv_n2e")


def check_hgconv_e2n(e: np.ndarray, members: np.ndarray, n_nodes: int, w: np.ndarray, out: np.ndarray) -> list[str]:
    """``out`` against GELU(D_v^+ H E W); a zero-degree node aggregates to 0."""
    ed = np.asarray(e, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    h = _dense_incidence(np.asarray(members), n_nodes)
    d_v = h.sum(axis=1)
    d_v_pinv = np.divide(1.0, d_v, out=np.zeros_like(d_v), where=d_v > 0)
    pre = (d_v_pinv[:, None] * (h @ ed)) @ w
    pre_abs = (d_v_pinv[:, None] * (h @ np.abs(ed))) @ np.abs(w)
    bound = _dot_bound(int(d_v.max()) + w.shape[0] + 4) * pre_abs * 1.2
    return _compare(out, _gelu64(pre), bound, "hgconv_e2n")


def check_attention_rows(weights: np.ndarray) -> list[str]:
    """Every attention row is a distribution: it sums to 1 within ``2 (n + 8) u``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.min(initial=0.0) < 0:
        return ["negative attention weight"]
    dev = float(np.abs(w.sum(axis=1) - 1.0).max(initial=0.0))
    tol = 2.0 * (w.shape[1] + 8) * U32
    return [f"attention row sums off 1 by {dev:.3g} (tolerance {tol:.3g})"] if dev > tol else []


def check_logits(first: np.ndarray, again: np.ndarray) -> list[str]:
    """Logits are finite and byte-identical when the image runs again."""
    fails = []
    if not np.isfinite(first).all():
        fails.append("non-finite logits")
    if np.asarray(first).tobytes() != np.asarray(again).tobytes():
        fails.append("logits differ when the image runs again")
    return fails


def cross_entropy64(logits: np.ndarray, label: int) -> float:
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[label])


def check_directional_derivative(grad: dict[str, np.ndarray], loss_at, rng: np.random.Generator,
                                 step: float = 1e-5, rtol: float = 1e-4) -> list[str]:
    """The tape gradient against a float64 central difference along one direction.

    ``loss_at(delta)`` evaluates the batch loss with each named parameter
    shifted by ``delta[name]``. The direction is a random unit vector plus
    the gradient's own unit direction, so the derivative along it is never
    near zero and a relative tolerance is meaningful.
    """
    names = sorted(grad)
    g = {n: np.asarray(grad[n], dtype=np.float64) for n in names}
    g_norm = math.sqrt(sum(float((a * a).sum()) for a in g.values()))
    if not math.isfinite(g_norm) or g_norm == 0.0:
        return [f"gradient norm {g_norm} cannot be checked"]
    r = {n: rng.standard_normal(g[n].shape) for n in names}
    r_norm = math.sqrt(sum(float((a * a).sum()) for a in r.values()))
    u = {n: g[n] / g_norm + r[n] / r_norm for n in names}
    u_norm = math.sqrt(sum(float((a * a).sum()) for a in u.values()))
    u = {n: a / u_norm for n, a in u.items()}
    analytic = sum(float((g[n] * u[n]).sum()) for n in names)
    plus = loss_at({n: step * u[n] for n in names})
    minus = loss_at({n: -step * u[n] for n in names})
    fd = (plus - minus) / (2.0 * step)
    err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12)
    if not err <= rtol:
        return [f"tape gradient {analytic:.8g} vs finite difference {fd:.8g} (rel err {err:.3g} > {rtol})"]
    return []


def check_clipped_gradient(pre_clip: dict[str, np.ndarray], applied: dict[str, np.ndarray],
                           max_norm: float) -> list[str]:
    """The applied gradient is the pre-clip one rescaled to a norm of at most ``max_norm``."""
    norm = math.sqrt(sum(float((np.asarray(g, np.float64) ** 2).sum()) for g in pre_clip.values()))
    coef = min(1.0, max_norm / norm) if norm > 0 else 1.0
    fails = []
    applied_norm = math.sqrt(sum(float((np.asarray(g, np.float64) ** 2).sum()) for g in applied.values()))
    if not applied_norm <= max_norm * (1.0 + 1e-5):
        fails.append(f"applied gradient norm {applied_norm:.8g} exceeds {max_norm}")
    if set(applied) != set(pre_clip):
        fails.append("applied and merged gradients name different parameters")
        return fails
    for name in sorted(pre_clip):
        want = np.asarray(pre_clip[name], np.float64) * coef
        got = np.asarray(applied[name], np.float64)
        # the program sums squares in float32, so its clip coefficient may
        # differ from this float64 one by a few parts in a million
        if np.abs(got - want).max(initial=0.0) > 1e-5 * np.abs(want).max(initial=0.0) + 1e-30:
            fails.append(f"{name}: applied gradient is not the clipped merged gradient")
            break
    return fails


def check_first_adamw_step(before: dict[str, np.ndarray], grads: dict[str, np.ndarray | None],
                           after: dict[str, np.ndarray], lr: float, weight_decay: float,
                           eps: float = 1e-8) -> list[str]:
    """At t = 1 AdamW moves p to ``p - lr * (g / (|g| + eps) + wd * p)``.

    Bias correction makes the first moment g and the second g^2, so the
    update needs no optimizer state. A parameter without a gradient stays.
    """
    fails = []
    for name in sorted(before):
        p = np.asarray(before[name], dtype=np.float64)
        new = np.asarray(after[name], dtype=np.float64)
        g = grads.get(name)
        if g is None:
            if not np.array_equal(p, new):
                fails.append(f"{name}: moved without a gradient")
            continue
        g = np.asarray(g, dtype=np.float64)
        step = lr * (g / (np.abs(g) + eps) + weight_decay * p)
        want = p - step
        # float32 rounding of p and of the update; g^2 of a tiny g loses
        # precision in float32, which the lr * 1e-6 floor absorbs
        tol = 2 * U32 * np.abs(want) + 16 * U32 * np.abs(step) + lr * 1e-6
        if np.any(np.abs(new - want) > tol):
            fails.append(f"{name}: first AdamW update differs from lr*(g/(|g|+eps)+wd*p)")
    return fails[:3]


def check_losses_finite(losses) -> list[str]:
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    return [f"non-finite loss in epochs {bad}"] if bad else []
