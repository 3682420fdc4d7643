import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, strategies as st

import hgformer.construct as construct
from hgformer.construct import (
    IncidenceMatrix,
    TokenSet,
    _rank_members,
    build_incidence,
    cs_knn,
    knn_assign,
    sample_centers,
    score_tokens,
    similarity,
    topology_dump,
)
from hgformer.tensor import ConfigError, FlopCounter, NumericalError, Tensor


def make_tokens(nodes, cls=None, grid=None):
    nodes = np.asarray(nodes, dtype=np.float64)
    n = nodes.shape[0]
    grid = grid or (1, n)
    cls_t = None if cls is None else Tensor(np.asarray(cls, dtype=np.float64).reshape(1, -1))
    return TokenSet.from_nodes(Tensor(nodes), grid, class_token=cls_t)


def four_token_fixture():
    # scores/sqrt(2): [1.414, 0, 1.344, -0.707] -> centers {0, 2}; both
    # hyperedges come out as {0, 2}, leaving nodes 1 and 3 uncovered
    return make_tokens(
        [[2.0, 0.0], [0.0, 2.0], [1.9, 0.1], [-1.0, 0.0]],
        cls=[1.0, 0.0],
    )


# --------------------------------------------------------------------------
# brute-force oracle (pure python, O(N^2 * Ne))


def oracle_cs_knn(nodes, cls_vec, ne, k):
    n, c = len(nodes), len(nodes[0])

    def dot_scaled(u, v):
        return sum(ui * vi for ui, vi in zip(u, v)) / math.sqrt(c)

    scores = [dot_scaled(cls_vec, nodes[i]) for i in range(n)]
    ranked = sorted(range(n), key=lambda i: (-scores[i], i))
    centers = sorted(ranked[:ne])
    edges = []
    for ctr in centers:
        sims = [dot_scaled(nodes[ctr], nodes[i]) for i in range(n)]
        top = sorted(range(n), key=lambda i: (-sims[i], i))[:k]
        if ctr not in top:
            top[-1] = ctr
        edges.append(sorted(top))
    return centers, edges


# --------------------------------------------------------------------------
# scoring


def test_zero_class_token_gives_zero_scores(rng):
    ts = make_tokens(rng.uniform(-1, 1, (5, 3)), cls=[0.0, 0.0, 0.0])
    npt.assert_array_equal(score_tokens(ts), np.zeros(5))


def test_score_hand_example():
    ts = make_tokens([[2.0, 0.0]], cls=[1.0, 0.0])
    npt.assert_allclose(score_tokens(ts)[0], 2.0 / math.sqrt(2.0), atol=1e-9)
    npt.assert_allclose(score_tokens(ts)[0], 1.41421, atol=1e-5)


def test_scores_pointwise_under_permutation(rng):
    nodes = rng.uniform(-1, 1, (6, 4))
    cls = rng.uniform(-1, 1, 4)
    perm = rng.permutation(6)
    s1 = score_tokens(make_tokens(nodes, cls=cls))
    s2 = score_tokens(make_tokens(nodes[perm], cls=cls))
    npt.assert_allclose(s1[perm], s2, atol=1e-12)


# --------------------------------------------------------------------------
# center sampling


def test_sample_centers_examples():
    npt.assert_array_equal(sample_centers(np.array([0.1, 0.9, 0.5]), 2), [1, 2])
    npt.assert_array_equal(sample_centers(np.array([0.1, 0.9, 0.5]), 3), [0, 1, 2])
    npt.assert_array_equal(sample_centers(np.array([0.7, 0.7, 0.7]), 2), [0, 1])


def test_sample_centers_rejects_bad_ne():
    with pytest.raises(ConfigError):
        sample_centers(np.zeros(3), 4)
    with pytest.raises(ConfigError):
        sample_centers(np.zeros(3), 0)


def test_nan_similarity_is_a_numerical_error():
    with pytest.raises(NumericalError):
        sample_centers(np.array([0.5, np.nan, 0.1]), 2)
    with pytest.raises(NumericalError):
        _rank_members(np.array([[1.0, 2.0], [np.nan, 0.0]]), np.array([0, 1]), 1)


# stable-argsort references: the first k of a stable descending sort, then
# (for members) the center swapped in for the k-th ranked node


def ref_sample_centers(scores, n_edges):
    return np.sort(np.argsort(-scores, kind="stable")[:n_edges])


def ref_rank_members(sims, centers, k):
    order = np.argsort(-sims, axis=1, kind="stable")
    members = np.empty((len(centers), k), dtype=np.int64)
    for j, ctr in enumerate(centers):
        sel = order[j, :k].copy()
        if ctr not in sel:
            sel[k - 1] = ctr
        members[j] = np.sort(sel)
    return members


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.integers(1, 40),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["one", "all", "any"]),
)
def test_top_k_matches_stable_argsort_reference(seed, rows, n, dtype, k_kind):
    rng = np.random.default_rng(seed)
    k = {"one": 1, "all": n, "any": int(rng.integers(1, n + 1))}[k_kind]
    # one decimal over a unit normal: most rows hold ties, at the k-th value too
    vals = np.round(rng.normal(size=(rows, n)), 1).astype(dtype)
    zeros = rng.random(vals.shape) < 0.2
    vals[zeros] = rng.choice(np.array([0.0, -0.0], dtype=dtype), size=int(zeros.sum()))
    centers = rng.integers(0, n, rows)
    members = _rank_members(vals, centers, k)
    assert members.dtype == np.int64
    npt.assert_array_equal(members, ref_rank_members(vals, centers, k))
    for row in vals:
        got = sample_centers(row, k)
        assert got.dtype == np.int64
        npt.assert_array_equal(got, ref_sample_centers(row, k))


def test_center_outside_top_k_replaces_the_kth_ranked_member():
    # top 3 by stable rank: 1 (5.0), then 0 and 2 of the tied 2.0s; node 4
    # misses and takes the place of node 2, the tied member ranked last
    sims = np.array([[2.0, 5.0, 2.0, 2.0, 1.0], [-0.0, 0.0, 0.0, 1.0, -1.0]])
    centers = np.array([4, 4])
    expected = [[0, 1, 4], [0, 3, 4]]
    npt.assert_array_equal(_rank_members(sims, centers, 3), expected)
    npt.assert_array_equal(ref_rank_members(sims, centers, 3), expected)


# --------------------------------------------------------------------------
# knn assignment


def test_k1_hyperedge_is_center_only(rng):
    ts = make_tokens(rng.uniform(-1, 1, (6, 3)))
    h = knn_assign(ts, np.array([0, 3, 5]), k=1)
    npt.assert_array_equal(h.members, [[0], [3], [5]])


def test_four_token_derived_membership():
    ts = four_token_fixture()
    h = cs_knn(ts, n_edges=2, k=2)
    npt.assert_array_equal(h.centers, [0, 2])
    npt.assert_array_equal(h.members, [[0, 2], [0, 2]])
    npt.assert_array_equal(h.d_v, [2, 0, 2, 0])
    npt.assert_array_equal(h.dense().sum(axis=0), [2, 2])


@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 6), st.sampled_from([0.5, 0.1, 3.7]))
def test_dot_knn_ranks_like_the_scaled_float64_similarity(seed, n, c, unit):
    rng = np.random.default_rng(seed)
    # a few levels per channel: rows hold many ties and duplicate tokens
    nodes = (rng.integers(-2, 3, (n, c)) * unit).astype(np.float32)
    centers = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    k = int(rng.integers(1, n + 1))
    with FlopCounter() as fc:
        h = knn_assign(TokenSet.from_nodes(Tensor(nodes), (1, n)), centers, k)
    assert fc.total == 2 * centers.size * n * c
    scaled = similarity(nodes[centers], nodes, "dot")
    assert scaled.dtype == np.float64
    npt.assert_array_equal(h.members, _rank_members(scaled, centers, k))


def test_dot_knn_ranks_in_the_token_dtype(monkeypatch):
    seen = []

    def spy(sims, *args):
        seen.append(sims.dtype)
        return _rank_members(sims, *args)

    monkeypatch.setattr(construct, "_rank_members", spy)
    nodes = np.random.default_rng(0).normal(size=(12, 4)).astype(np.float32)
    knn_assign(TokenSet.from_nodes(Tensor(nodes), (3, 4)), np.array([1, 5]), 3)
    assert seen == [np.float32]


def test_cs_knn_identity_pattern():
    rng = np.random.default_rng(3)
    ts = make_tokens(rng.uniform(-1, 1, (5, 3)))
    h = cs_knn(ts, n_edges=5, k=1)
    assert sorted(h.members.ravel().tolist()) == [0, 1, 2, 3, 4]
    npt.assert_array_equal(h.members[:, 0], h.centers)
    npt.assert_array_equal(h.d_v, np.ones(5))
    npt.assert_array_equal(h.dense().sum(axis=0), np.ones(5))


def test_cs_knn_single_edge_covers_everything():
    rng = np.random.default_rng(4)
    ts = make_tokens(rng.uniform(-1, 1, (6, 3)))
    h = cs_knn(ts, n_edges=1, k=6)
    npt.assert_array_equal(h.members, [[0, 1, 2, 3, 4, 5]])


def test_cs_knn_matches_bruteforce_oracle_seeded():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 65))
        c = int(rng.integers(1, 9))
        ne = int(rng.integers(1, min(n, 8) + 1))
        k = int(rng.integers(1, min(n, 16) + 1))
        nodes = rng.uniform(-1, 1, (n, c))
        cls = rng.uniform(-1, 1, c)
        h = cs_knn(make_tokens(nodes, cls=cls), ne, k)
        centers, edges = oracle_cs_knn(nodes.tolist(), cls.tolist(), ne, k)
        npt.assert_array_equal(h.centers, centers)
        npt.assert_array_equal(h.members, edges)


def test_cs_knn_tie_fixture_duplicate_tokens():
    # identical vectors produce bit-equal scores and distances; ties must
    # resolve toward the lower index
    nodes = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    ts = make_tokens(nodes, cls=[1.0, 0.0])
    h = cs_knn(ts, n_edges=2, k=2)
    npt.assert_array_equal(h.centers, [0, 1])
    npt.assert_array_equal(h.members, [[0, 1], [0, 1]])


def test_all_equal_scores_tiebreak():
    nodes = np.ones((4, 2))
    h = cs_knn(make_tokens(nodes, cls=[1.0, 1.0]), n_edges=2, k=3)
    npt.assert_array_equal(h.centers, [0, 1])
    npt.assert_array_equal(h.members, [[0, 1, 2], [0, 1, 2]])


@given(st.integers(0, 2**31 - 1), st.integers(2, 24), st.integers(1, 5))
def test_cs_knn_permutation_equivariance(seed, n, c):
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(-1, 1, (n, c))
    cls = rng.uniform(-1, 1, c)
    scores = (nodes @ cls) / np.sqrt(c)
    sims = (nodes @ nodes.T) / np.sqrt(c)
    assume(len(np.unique(scores)) == n)
    assume(all(len(np.unique(sims[i])) == n for i in range(n)))
    ne, k = max(1, n // 3), max(1, n // 2)
    h = cs_knn(make_tokens(nodes, cls=cls), ne, k)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    h2 = cs_knn(make_tokens(nodes[perm], cls=cls), ne, k)
    # centers and memberships map through the permutation (as sets of columns)
    mapped_centers = np.sort(inv[h.centers])
    npt.assert_array_equal(np.sort(h2.centers), mapped_centers)
    cols1 = sorted(tuple(sorted(inv[row])) for row in h.members)
    cols2 = sorted(tuple(sorted(row)) for row in h2.members)
    assert cols1 == cols2


@given(st.integers(0, 2**31 - 1))
def test_degree_double_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    ne = int(rng.integers(1, min(n, 8) + 1))
    k = int(rng.integers(1, min(n, 12) + 1))
    ts = make_tokens(rng.uniform(-1, 1, (n, 4)))
    h = cs_knn(ts, ne, k)
    edge_degrees = h.dense().sum(axis=0)
    assert h.d_v.sum() == edge_degrees.sum() == ne * k
    assert (edge_degrees == k).all()


# --------------------------------------------------------------------------
# build_incidence over every algorithm


def test_knn_baseline_k1_is_identity_pattern(rng):
    ts = make_tokens(rng.uniform(-1, 1, (5, 3)))
    h = build_incidence(ts, "knn", n_edges=5, k=1, seed=0)
    npt.assert_array_equal(h.centers, np.arange(5))
    npt.assert_array_equal(h.members[:, 0], np.arange(5))


def test_knn_baseline_forces_ne_to_n(rng):
    ts = make_tokens(rng.uniform(-1, 1, (6, 3)))
    h = build_incidence(ts, "knn", n_edges=2, k=3, seed=0)
    assert h.n_edges == 6


def oracle_two_means(points):
    """Exhaustive best 2-partition by within-cluster sum of squares."""
    n = len(points)
    best, best_cost = None, np.inf
    for mask in range(1, 2 ** (n - 1)):  # point 0 pinned to cluster a halves the space
        b = [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        a = [i for i in range(n) if i not in b]
        cost = 0.0
        for grp in (a, b):
            pts = points[grp]
            cost += float(((pts - pts.mean(axis=0)) ** 2).sum())
        if cost < best_cost:
            best_cost, best = cost, (sorted(a), sorted(b))
    return best


def test_kmeans_two_blobs_match_exhaustive_partition():
    rng = np.random.default_rng(5)
    blob_a = rng.normal(0.0, 0.05, (4, 2)) + np.array([0.0, 0.0])
    blob_b = rng.normal(0.0, 0.05, (4, 2)) + np.array([5.0, 5.0])
    points = np.vstack([blob_a, blob_b])
    ts = make_tokens(points, grid=(2, 4))
    h = build_incidence(ts, "kmeans", n_edges=2, k=4, seed=0, distance="euclidean")
    got = sorted(tuple(sorted(row)) for row in h.members)
    want = sorted(tuple(g) for g in oracle_two_means(points))
    assert got == [tuple(w) for w in want]


def test_dpc_knn_picks_density_peaks():
    # two tight clusters and one far outlier: the outlier must not be a center
    pts = np.array(
        [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1], [50.0, -50.0]]
    )
    ts = make_tokens(pts, grid=(1, 7))
    h = build_incidence(ts, "dpc_knn", n_edges=2, k=3, seed=0, distance="euclidean")
    assert 6 not in h.centers
    assert {int(c) // 3 for c in h.centers} == {0, 1}


def test_baseline_determinism_bit_for_bit(rng):
    ts = make_tokens(rng.uniform(-1, 1, (12, 4)), grid=(3, 4))
    for algo in ("knn", "kmeans", "dpc_knn"):
        h1 = build_incidence(ts, algo, n_edges=3, k=4, seed=9)
        h2 = build_incidence(ts, algo, n_edges=3, k=4, seed=9)
        assert h1.members.tobytes() == h2.members.tobytes()
        assert h1.centers.tobytes() == h2.centers.tobytes()


def test_unknown_algo_error_names_every_algorithm(rng):
    ts = make_tokens(rng.uniform(-1, 1, (4, 2)))
    with pytest.raises(ConfigError) as exc:
        build_incidence(ts, "agglomerative", n_edges=2, k=2)
    assert all(repr(algo) in str(exc.value) for algo in ("cs_knn", "knn", "kmeans", "dpc_knn"))


@pytest.mark.parametrize("distance", ["dot", "cosine", "euclidean"])
def test_distance_variants_keep_structural_invariants(distance, rng):
    nodes = rng.uniform(-1, 1, (20, 5))
    ts = make_tokens(nodes, grid=(4, 5))
    h = cs_knn(ts, n_edges=4, k=6, distance=distance)
    assert h.n_edges == 4 and h.k == 6
    for j, row in enumerate(h.members):
        assert len(set(row.tolist())) == 6
        assert h.centers[j] in row
    assert h.d_v.sum() == 24


# --------------------------------------------------------------------------
# validation and serialization


def test_incidence_validates_center_membership():
    with pytest.raises(ConfigError, match=r"^center 3 missing from its hyperedge 0$"):
        IncidenceMatrix(n_nodes=4, members=np.array([[0, 1]]), centers=np.array([3]))
    # the first offending hyperedge is named, whichever fault a later one has
    members = np.array([[0, 1], [1, 2], [2, 1], [0, 3]])
    with pytest.raises(ConfigError, match=r"^center 0 missing from its hyperedge 1$"):
        IncidenceMatrix(n_nodes=4, members=members, centers=np.array([0, 0, 1, 1]))


@pytest.mark.parametrize(
    "members, centers, first",
    [
        ([[0, 1], [2, 1], [0, 0]], [0, 1, 0], 1),  # descending pair
        ([[0, 1, 2], [1, 2, 3], [1, 1, 3], [3, 2, 1]], [0, 1, 1, 1], 2),  # repeated member
        ([[1, 0], [0, 3]], [2, 3], 0),  # unordered and missing its center: order is checked first
    ],
)
def test_incidence_names_first_unordered_hyperedge(members, centers, first):
    with pytest.raises(ConfigError, match=rf"^hyperedge {first} members not strictly ascending$"):
        IncidenceMatrix(n_nodes=4, members=np.array(members), centers=np.array(centers))


def test_incidence_compares_and_hashes_by_identity():
    h1 = IncidenceMatrix(n_nodes=4, members=np.array([[0, 1]]), centers=np.array([0]))
    h2 = IncidenceMatrix(n_nodes=4, members=np.array([[0, 1]]), centers=np.array([0]))
    assert h1 == h1 and h1 != h2
    assert len({h1, h2, h1}) == 2


def test_cs_knn_rejects_bad_k(rng):
    ts = make_tokens(rng.uniform(-1, 1, (4, 2)))
    with pytest.raises(ConfigError):
        cs_knn(ts, n_edges=2, k=5)


def test_topology_dump_schema():
    ts = four_token_fixture()
    h = cs_knn(ts, 2, 2)
    d = topology_dump(ts, h, score_tokens(ts))
    assert list(d.keys()) == ["n_nodes", "n_edges", "k", "grid", "centers", "scores", "edges"]
    assert d["n_nodes"] == 4 and d["n_edges"] == 2 and d["k"] == 2
    assert d["edges"] == [[0, 2], [0, 2]]
    for row in d["edges"]:
        assert row == sorted(row)


def test_build_incidence_dispatch(rng):
    ts = make_tokens(rng.uniform(-1, 1, (9, 3)), grid=(3, 3))
    h = build_incidence(ts, "cs_knn", 3, 3, seed=0)
    assert h.n_edges == 3
