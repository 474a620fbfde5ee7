"""Moment engine: connectivity probabilities, exponents, intensities,
asymptotic covariances."""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmlab.census import edge_class, path_class, single_vertex_class
from rcmlab.connection import ConnectionFunction, radial_sampler
from rcmlab.geometry import Window, unit_ball_volume
from rcmlab.moments import (AnchorProposal, ClusterProposal, asy_cov,
                            asy_cov_kl, asy_var_quadratic,
                            expected_count_intensity,
                            finite_window_cross_moment, indicator_union_exponent,
                            inner_exponent, is_lex_sorted, joint_prob_coupled,
                            mixed_exponent, p_phi_k, prob_connected,
                            prob_isomorphic, prufer_decode, q_kl,
                            sigma_total_partial, window_overlap_volume)
from rcmlab.moments import _is_anchor_lexmin, _mc_estimate, _pair_values

GILBERT = ConnectionFunction("gilbert", 2, r=1.0)
GAUSS = ConnectionFunction("gaussian", 2, s=1.0)

# Derived oracles, frozen from independent adaptive quadrature (see the
# closed-form reductions in the corresponding tests):
#   isolated-vertex intensity e^{-pi}
RHO_1 = math.exp(-math.pi)
#   edge-class intensity: (1/2) int_{|x|<=1} exp(-area of union of two
#   unit disks at distance |x|) dx, via 1d radial quadrature
RHO_EDGE = 0.02062964160312044
#   sigma^{(1,1)}: e^{-pi} - pi e^{-2pi}
#   + int_{1<|x|<2} (e^{-2pi+overlap(|x|)} - e^{-2pi}) dx
SIGMA_11 = 0.04875794395983793


def _brute_prob_connected(pe):
    """P(connected) over all 2^m edge subsets, tiny k only."""
    m = len(pe)
    k = int((1 + math.sqrt(1 + 8 * m)) / 2)
    iu = list(zip(*np.triu_indices(k, 1)))
    total = 0.0
    for bits in range(1 << m):
        prob = 1.0
        adj = np.zeros((k, k), dtype=bool)
        for b in range(m):
            if (bits >> b) & 1:
                prob *= pe[b]
                i, j = iu[b]
                adj[i, j] = adj[j, i] = True
            else:
                prob *= 1.0 - pe[b]
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in range(k):
                if adj[v, w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == k:
            total += prob
    return total


def test_prob_connected_pairs_and_triples():
    assert prob_connected(np.array([[0.3]]), 2) == pytest.approx(0.3)
    rng = np.random.default_rng(0)
    for k in (3, 4):
        pe = rng.uniform(0, 1, (5, k * (k - 1) // 2))
        got = prob_connected(pe, k)
        for row, g in zip(pe, got):
            assert g == pytest.approx(_brute_prob_connected(row), rel=1e-12)


def test_prob_isomorphic_edge_and_path():
    # two points: P(shape = edge) is just the edge probability
    pe = np.array([[0.4]])
    assert prob_isomorphic(pe, edge_class())[0] == pytest.approx(0.4)
    # three points, path class: exactly two of three edges, all placements
    p = np.array([0.5, 0.2, 0.7])
    expect = (p[0] * p[1] * (1 - p[2]) + p[0] * (1 - p[1]) * p[2]
              + (1 - p[0]) * p[1] * p[2])
    assert prob_isomorphic(p[None, :], path_class(3))[0] == \
        pytest.approx(expect)


def test_joint_prob_coupled_reduces_when_equal():
    # psi = phi: joint probability of (G, G) is the plain shape probability
    rng = np.random.default_rng(1)
    pe = rng.uniform(0, 1, (4, 3))
    for cls in (path_class(3),):
        joint = joint_prob_coupled(pe, pe, cls, cls)
        plain = prob_isomorphic(pe, cls)
        np.testing.assert_allclose(joint, plain, rtol=1e-12)


def test_joint_prob_coupled_marginals():
    # summing the joint over all H classes of the same order recovers
    # P(phi-graph isomorphic to G, psi-graph connected or not) <= P_G
    rng = np.random.default_rng(2)
    pe_phi = rng.uniform(0, 1, (6, 3))
    pe_psi = pe_phi * rng.uniform(0, 1, (6, 3))
    G = path_class(3)
    joint = sum(joint_prob_coupled(pe_phi, pe_psi, G, H)
                for H in (path_class(3), _triangle()))
    assert np.all(joint <= prob_isomorphic(pe_phi, G) + 1e-12)


def _triangle():
    from rcmlab.census import canonical_form
    return canonical_form(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                   dtype=bool))


def test_inner_exponent_single_point():
    assert inner_exponent(np.zeros((1, 2)), GILBERT, 1.0) == \
        pytest.approx(-math.pi)
    assert inner_exponent(np.zeros((1, 2)), GILBERT, 2.0) == \
        pytest.approx(-2.0 * math.pi)


def test_inner_exponent_two_disks():
    # exponent of a 2-point indicator cluster is minus the union area
    t = 1.2
    X = np.array([[0.0, 0.0], [t, 0.0]])
    overlap = 2 * math.acos(t / 2) - (t / 2) * math.sqrt(4 - t * t)
    assert inner_exponent(X, GILBERT, 1.0) == \
        pytest.approx(-(2 * math.pi - overlap), rel=1e-6)
    # far apart: areas add
    X2 = np.array([[0.0, 0.0], [5.0, 0.0]])
    assert inner_exponent(X2, GILBERT, 1.0) == pytest.approx(-2 * math.pi)


def test_inner_exponent_d1():
    phi1 = ConnectionFunction("gilbert", 1, r=1.0)
    X = np.array([[0.0], [1.5]])
    # union of two intervals of length 2 overlapping by 0.5
    assert inner_exponent(X, phi1, 1.0) == pytest.approx(-3.5)


def test_indicator_union_exponent_matches_public():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (8, 3, 2))
    fast = indicator_union_exponent(X, np.array([1.0] * 3),
                                    np.array([1.0] * 3), 1.0)
    for x, f in zip(X, fast):
        assert f == pytest.approx(inner_exponent(x, GILBERT, 1.0), rel=1e-4)


def test_mixed_exponent_smooth_kind():
    gauss = ConnectionFunction("gaussian", 2, s=1.0)
    # single point: -beta * m_phi
    val = mixed_exponent(np.zeros((4, 1, 2)), [gauss], 1.5)
    np.testing.assert_allclose(val, -1.5 * math.pi, rtol=1e-3)


def test_p_phi_k_sorted_indicator():
    X = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert is_lex_sorted(X)
    assert p_phi_k(X, GILBERT) == pytest.approx(1.0)
    bad = X[::-1]
    assert not is_lex_sorted(bad)
    assert p_phi_k(bad, GILBERT) == 0.0


def test_expected_count_intensity_closed_form():
    est = expected_count_intensity(single_vertex_class(), GILBERT, 1.0)
    assert est.method == "closed_form"
    assert est.value == pytest.approx(RHO_1, rel=1e-12)


def test_expected_count_intensity_edge_oracle():
    est = expected_count_intensity(edge_class(), GILBERT, 1.0,
                                   n_samples=120000, seed=5)
    assert est.std_error < 0.01 * RHO_EDGE
    assert abs(est.value - RHO_EDGE) < 4.0 * est.std_error


def test_asy_cov_kl_diagonal_oracle():
    est = asy_cov_kl(1, 1, GILBERT, GILBERT, 1.0, n_samples=120000, seed=6)
    assert abs(est.value - SIGMA_11) < 4.0 * est.std_error
    assert est.std_error < 0.01 * SIGMA_11


def test_asy_cov_symmetry():
    a = asy_cov_kl(1, 2, GILBERT, GILBERT, 1.0, n_samples=30000, seed=7)
    b = asy_cov_kl(2, 1, GILBERT, GILBERT, 1.0, n_samples=30000, seed=8)
    assert abs(a.value - b.value) < 4.0 * math.hypot(a.std_error, b.std_error)


def test_asy_cov_class_vs_order_level():
    # order 1 has a single class, so the class-level covariance agrees
    byk = asy_cov_kl(1, 1, GILBERT, GILBERT, 1.0, n_samples=40000, seed=9)
    byg = asy_cov(single_vertex_class(), single_vertex_class(), GILBERT,
                  GILBERT, 1.0, n_samples=40000, seed=10)
    assert abs(byk.value - byg.value) < \
        4.0 * math.hypot(byk.std_error, byg.std_error)


def test_asy_var_quadratic_matrix_shape_and_symmetry():
    classes = [single_vertex_class(), edge_class()]
    est, mat, errs = asy_var_quadratic((1.0, -1.0), classes, GILBERT, 1.0,
                                       n_samples=20000, seed=11)
    mat = np.asarray(mat)
    assert mat.shape == (2, 2)
    assert mat[0, 1] == mat[1, 0]
    a = np.array([1.0, -1.0])
    assert est.value == pytest.approx(float(a @ mat @ a))
    assert np.all(np.diag(mat) > 0)


def test_sigma_total_partial_monotone_budget():
    est, partials = sigma_total_partial(2, GILBERT, 0.5 / math.pi,
                                        n_samples=20000, seed=12)
    assert len(partials) == 2
    assert est.value == partials[-1].value
    for p in partials:
        assert p.value > 0


def test_q_kl_vanishes_for_distant_clusters():
    X1 = np.zeros((3, 1, 2))
    X2 = np.full((3, 1, 2), 50.0)
    vals = q_kl(X1, X2, GILBERT, GILBERT, 1.0)
    np.testing.assert_allclose(vals, 0.0, atol=1e-12)


def test_window_overlap_volume_box():
    w = Window("box", 2.0, 2)
    assert window_overlap_volume(w, [1.0, 0.0]) == pytest.approx(3.0 * 4.0)
    assert window_overlap_volume(w, [5.0, 0.0]) == 0.0
    assert window_overlap_volume(w, [0.0, 0.0]) == pytest.approx(16.0)
    wb = Window("ball", 1.0, 2)
    assert window_overlap_volume(wb, [0.0, 0.0]) == pytest.approx(math.pi)
    assert window_overlap_volume(wb, [2.5, 0.0]) == 0.0


def test_finite_window_cross_moment_consistent_with_asymptotic():
    # large window: finite-window second moment per volume approaches the
    # asymptotic covariance
    w = Window("box", 25.0, 2)
    fin = finite_window_cross_moment(single_vertex_class(),
                                     single_vertex_class(), GILBERT, GILBERT,
                                     w, 1.0, n_samples=60000, seed=13)
    # anchored counting is stationary, so the mean is exactly rho_1 * volume
    mean_count = RHO_1 * w.volume
    cov_per_vol = (fin.value - mean_count ** 2) / w.volume
    assert abs(cov_per_vol - SIGMA_11) < max(0.1 * SIGMA_11,
                                             4.0 * fin.std_error / w.volume)


def _edge_density(phi):
    """Proposal density of one tree edge's displacement, from the radial
    sampler: radial density over the sphere's surface at that radius."""
    _, radial = radial_sampler(phi)
    d = phi.dim

    def f(disp):
        t = np.linalg.norm(disp, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = radial(t) / (d * unit_ball_volume(d) * t ** (d - 1))
        return np.where(t > 0, out, 0.0)

    return f


@pytest.mark.parametrize("phi", [
    GILBERT, ConnectionFunction("gaussian", 2, s=1.0),
    ConnectionFunction("exponential", 3, theta=1.0)],
    ids=["gilbert", "gaussian", "exponential-d3"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_cluster_density_equals_tree_sum(phi, k):
    # matrix-tree determinant against the mixture over every labeled tree
    prop = ClusterProposal(phi, k)
    X = prop.sample(np.random.default_rng(20 + k), 16)
    f = _edge_density(phi)
    total = np.zeros(len(X))
    codes = list(itertools.product(range(k), repeat=k - 2))
    for code in codes:
        tree = nx.from_prufer_sequence(list(code))
        prod = np.ones(len(X))
        for a, b in tree.edges:
            prod *= f(X[:, a] - X[:, b])
        total += prod
    assert len(prop.trees) == len(codes) == k ** (k - 2)
    np.testing.assert_allclose(prop.density(X), total / len(codes),
                               rtol=1e-12, atol=0)


def test_prufer_decode_matches_networkx():
    rng = np.random.default_rng(21)
    for k in (3, 4, 5, 6):
        codes = rng.integers(0, k, size=(50, k - 2))
        child, parent = prufer_decode(codes, k)
        for code, c, p in zip(codes, child, parent):
            tree = nx.from_prufer_sequence(code.tolist())
            assert {frozenset(e) for e in zip(c, p)} == \
                {frozenset(e) for e in tree.edges}
            # rooted at k-1: each parent is the root or a later child,
            # which is the order the sampler places vertices in
            for e in range(k - 1):
                assert p[e] == k - 1 or p[e] in c[e + 1:]
    child, parent = prufer_decode(np.zeros((3, 0), dtype=int), 2)
    assert child.tolist() == [[0]] * 3 and parent.tolist() == [[1]] * 3
    child, parent = prufer_decode(np.zeros((3, 0), dtype=int), 1)
    assert child.shape == parent.shape == (3, 0)


def test_cluster_sample_matches_density():
    # the path tree's edge-density product p is a normalized density of
    # the anchored cluster, so E_q[p / q] = 1 under the proposal q
    prop = ClusterProposal(GILBERT, 4)
    X = prop.sample(np.random.default_rng(22), 200000)
    assert np.all(X[:, 0] == 0.0)
    f = _edge_density(GILBERT)
    p = f(X[:, 1] - X[:, 0]) * f(X[:, 2] - X[:, 1]) * f(X[:, 3] - X[:, 2])
    ratio = p / prop.density(X)
    se = np.std(ratio, ddof=1) / math.sqrt(len(ratio))
    assert abs(np.mean(ratio) - 1.0) < 4.0 * se


def test_one_radial_grid_per_proposal(monkeypatch):
    """Proposals draw from the sampler built once in their constructor."""
    from rcmlab import connection, moments
    built = []

    def counting_sampler(*args, **kwargs):
        built.append(args[0].kind)
        return radial_sampler(*args, **kwargs)

    monkeypatch.setattr(moments, "radial_sampler", counting_sampler)
    monkeypatch.setattr(connection, "radial_sampler", counting_sampler)
    rng = np.random.default_rng(23)
    prop = ClusterProposal(GILBERT, 5)
    X = prop.sample(rng, 100)
    prop.sample(rng, 100)
    prop.density(X)
    assert built == ["gilbert"]
    anchor = AnchorProposal(GILBERT, widen=3.0)
    a = anchor.sample(rng, X)
    anchor.sample(rng, X)
    anchor.density(X, a)
    assert built == ["gilbert", "gilbert"]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 2]), st.integers(2, 40),
       st.integers(0, 2 ** 32 - 1))
def test_indicator_union_exponent_rows_independent_of_batch(m, d, n, seed):
    # pruning rows from a batch must not change the remaining rows' bits
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(n, m, d))
    radii = rng.uniform(0.5, 1.5, size=m)
    scales = rng.uniform(0.2, 1.0, size=m)
    batch = indicator_union_exponent(X, radii, scales, 1.3)
    for s in range(n):
        alone = indicator_union_exponent(X[s: s + 1], radii, scales, 1.3)
        assert batch[s] == alone[0]


def _dense_intensity(G, phi, beta, n, seed):
    """expected_count_intensity with the kernel on every lexmin row,
    from the same draws (one chunk); also returns the number of rows
    with a nonzero probability."""
    k = G.order
    prop = ClusterProposal(phi, k)
    X = prop.sample(np.random.default_rng(seed), n)
    dens = prop.density(X)
    ok = _is_anchor_lexmin(X) & (dens > 0)
    p = prob_isomorphic(_pair_values(X[ok], phi), G)
    kernel = np.exp(mixed_exponent(X[ok], [phi] * k, beta))
    w = np.zeros(n)
    w[ok] = p * kernel * (1.0 / math.factorial(k - 1)) / dens[ok]
    return _mc_estimate(w, beta ** k), int(np.sum(p != 0)), int(ok.sum())


@pytest.mark.parametrize("G, phi", [(path_class(5), GILBERT),
                                    (edge_class(), GAUSS)],
                         ids=["path5-gilbert", "edge-gaussian"])
def test_kernel_only_on_nonzero_probability_rows(monkeypatch, G, phi):
    from rcmlab import moments
    n, seed = (4000, 41) if phi is GILBERT else (300, 42)
    (value, se), live, lexmin_rows = _dense_intensity(G, phi, 1.0, n, seed)
    rows = []

    def counting_exponent(X, funcs, beta, **kwargs):
        rows.append(len(X))
        return mixed_exponent(X, funcs, beta, **kwargs)

    monkeypatch.setattr(moments, "mixed_exponent", counting_exponent)
    est = expected_count_intensity(G, phi, 1.0, n_samples=n, seed=seed)
    assert sum(rows) == live
    if phi is GILBERT:
        assert 0 < live < lexmin_rows
    else:
        # no zero probabilities: nothing is pruned
        assert live == lexmin_rows
    assert (est.value, est.std_error) == (value, se)


def test_pruned_pair_estimate_equals_dense_reference():
    G, H = path_class(3), edge_class()
    k, l, n, seed = 3, 2, 3000, 43
    rng = np.random.default_rng(seed)
    prop1, prop2 = ClusterProposal(GILBERT, k), ClusterProposal(GILBERT, l)
    anchor = AnchorProposal(GILBERT, widen=float(l + 2))
    X1 = prop1.sample(rng, n)
    a2 = anchor.sample(rng, X1)
    X2rel = prop2.sample(rng, n)
    X2 = X2rel + a2[:, None, :]
    dens = prop1.density(X1) * anchor.density(X1, a2) * prop2.density(X2rel)
    ok = _is_anchor_lexmin(X1) & (dens > 0)
    p = prob_isomorphic(_pair_values(X1[ok], GILBERT), G) \
        * prob_isomorphic(_pair_values(X2[ok], GILBERT), H)
    assert np.any(p == 0)
    w = np.zeros(n)
    w[ok] = p * q_kl(X1[ok], X2[ok], GILBERT, GILBERT, 1.0) \
        * (1.0 / (math.factorial(k - 1) * math.factorial(l))) / dens[ok]
    value, se = _mc_estimate(w, 1.0)
    est = asy_cov(G, H, GILBERT, GILBERT, 1.0, n_samples=n, seed=seed)
    assert (est.value, est.std_error) == (value, se)
