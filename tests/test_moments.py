"""Moment engine: connectivity probabilities, exponents, intensities,
asymptotic covariances."""

import inspect
import itertools
import math
import pathlib
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from rcmlab.census import (GraphClass, canonical_form, census, edge_class,
                           enumerate_classes, path_class, single_vertex_class)
from rcmlab.connection import ConnectionFunction, radial_sampler
from rcmlab.experiments import run_scenario
from rcmlab.geometry import Window, squared_lengths, unit_ball_volume
from rcmlab.moments import (ENUM_CAP, AnchorProposal,
                            ClusterProposal, MomentEstimate, asy_cov,
                            asy_cov_kl,
                            asy_var_quadratic, expected_count_intensity,
                            finite_window_cov,
                            gaussian_union_exponent, indicator_union_exponent,
                            iso_masks,
                            joint_prob_coupled, mixed_exponent, prob_connected,
                            prob_isomorphic, prufer_decode, q_kl,
                            sigma_total_partial, window_overlap_volume)
from rcmlab.moments import (_blocked_volume, _gl_nodes,
                            _is_anchor_lexmin, _lexmin_points, _mc_estimate,
                            _mc_moment, _overlapping_triples, _pair_dists,
                            _pair_values, _two_ball_volume,
                            generic_union_exponent)
from rcmlab.moments import _arrangement_sums
from rcmlab.sampling import build_rcm, seeded_sample

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


def _bit_scan_prob_connected(pe, k):
    """prob_connected as a subset recursion that scans each mask's bits
    for its anchored proper submasks and starts every cross product from
    ones: the reference the scheduled recursion must match bit for bit."""
    n = len(pe)
    if k == 1:
        return np.ones(n)
    iu = np.triu_indices(k, 1)
    pair_of = np.zeros((k, k), dtype=np.intp)
    pair_of[iu] = pair_of[iu[::-1]] = np.arange(len(iu[0]))
    qe = 1.0 - pe
    qv = [dict() for _ in range(k)]
    for j in range(k):
        qv[j][0] = np.ones(n)
        for mask in range(1, 1 << k):
            if (mask >> j) & 1:
                continue
            low = mask & -mask
            i = low.bit_length() - 1
            qv[j][mask] = qv[j][mask ^ low] * qe[:, pair_of[i, j]]
    conn = {0: np.zeros(n)}
    for mask in range(1, 1 << k):
        anchor = mask & -mask
        bits = [j for j in range(k) if (mask >> j) & 1]
        if len(bits) == 1:
            conn[mask] = np.ones(n)
            continue
        total = np.ones(n)
        sub = (mask - 1) & mask
        while sub:
            if sub & anchor and sub != mask:
                rest = mask ^ sub
                cross = np.ones(n)
                for j in range(k):
                    if (rest >> j) & 1:
                        cross = cross * qv[j][sub]
                total = total - conn[sub] * cross
            sub = (sub - 1) & mask
        conn[mask] = total
    return conn[(1 << k) - 1]


@pytest.mark.parametrize("k", range(1, 9))
def test_prob_connected_matches_the_bit_scan_recursion(k):
    rng = np.random.default_rng(100 + k)
    pe = rng.choice([0.0, 1.0, 0.3, 0.85], size=(40, k * (k - 1) // 2))
    pe[20:] = rng.uniform(0.0, 1.0, size=(20, k * (k - 1) // 2))
    assert np.array_equal(prob_connected(pe, k),
                          _bit_scan_prob_connected(pe, k))


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


def inner_exponent(x, phi, beta):
    """The interaction exponent of one tuple x (k, d) of phi points."""
    return mixed_exponent(x[None], [phi] * len(x), beta)[0]


def test_inner_exponent_single_point():
    # one ball's term of the inclusion-exclusion table
    assert inner_exponent(np.zeros((1, 2)), GILBERT, 1.0) == \
        pytest.approx(-math.pi)
    assert inner_exponent(np.zeros((1, 2)), GILBERT, 2.0) == \
        pytest.approx(-2.0 * math.pi)


def test_inner_exponent_two_disks():
    # exponent of a 2-point indicator cluster is minus the union area;
    # for the scaled indicator it is -beta * (2 p pi - p^2 overlap)
    scaled = ConnectionFunction("scaled_indicator", 2, p=0.6, r=1.0)
    for t in (0.1, 0.5, 1.2, 1.9):
        X = np.array([[0.0, 0.0], [t, 0.0]])
        overlap = 2 * math.acos(t / 2) - (t / 2) * math.sqrt(4 - t * t)
        assert inner_exponent(X, GILBERT, 1.0) == \
            pytest.approx(-(2 * math.pi - overlap), rel=1e-12)
        assert inner_exponent(X, scaled, 1.3) == pytest.approx(
            -1.3 * (2 * 0.6 * math.pi - 0.6 ** 2 * overlap), rel=1e-12)
    # far apart: areas add
    X2 = np.array([[0.0, 0.0], [5.0, 0.0]])
    assert inner_exponent(X2, GILBERT, 1.0) == pytest.approx(-2 * math.pi)


def test_inner_exponent_d3_disjoint_balls():
    # no pair overlaps, so only the exact single-ball terms remain
    phi3 = ConnectionFunction("gilbert", 3, r=1.0)
    X = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert inner_exponent(X, phi3, 1.0) == \
        pytest.approx(-2.0 * 4.0 / 3.0 * math.pi, rel=1e-9)


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.2, 1.9])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
                         ids=["along-x1", "diagonal"])
def test_inner_exponent_d3_overlapping_balls(delta, axis):
    # minus beta times the union volume, 2 kappa_3 minus the lens
    phi3 = ConnectionFunction("gilbert", 3, r=1.0)
    u = np.array(axis) / np.linalg.norm(axis)
    X = np.array([[0.1, 0.2, -0.3], [0.1, 0.2, -0.3] + delta * u])
    lens = math.pi * (4 + delta) * (2 - delta) ** 2 / 12
    assert inner_exponent(X, phi3, 1.3) == pytest.approx(
        -1.3 * (2 * unit_ball_volume(3) - lens), rel=1e-12)


def test_inner_exponent_d1():
    phi1 = ConnectionFunction("gilbert", 1, r=1.0)
    X = np.array([[0.0], [1.5]])
    # union of two intervals of length 2 overlapping by 0.5
    assert inner_exponent(X, phi1, 1.0) == pytest.approx(-3.5)


def _lens_volume(d, r1, r2, t):
    """Closed-form volume of B(0, r1) intersected with B(x, r2), |x| = t."""
    if t >= r1 + r2:
        return 0.0
    if t <= abs(r1 - r2):
        return unit_ball_volume(d) * min(r1, r2) ** d
    if d == 1:
        return r1 + r2 - t
    if d == 2:
        # the angles the lens subtends at the centres, by the half-angle
        # form of the law of cosines: no acos of an argument near 1. The
        # radius difference is taken first, so a tiny t is not absorbed
        # into r1 before r2 cancels it
        p, u, v, w = r1 + r2 - t, t + (r1 - r2), t - (r1 - r2), t + r1 + r2
        return (2 * r1 ** 2 * math.atan2(math.sqrt(p * v), math.sqrt(u * w))
                + 2 * r2 ** 2 * math.atan2(math.sqrt(p * u),
                                           math.sqrt(v * w))
                - 0.5 * math.sqrt(p * u * v * w))
    return math.pi * (r1 + r2 - t) ** 2 \
        * (t * t + 2 * t * (r1 + r2) - 3 * (r1 - r2) ** 2) / (12 * t)


def _betainc_lens(window, x):
    """Volume of a ball window intersected with its shift by x, by the
    regularized incomplete beta function: two caps of height R - t/2."""
    t = math.sqrt(sum(float(c) ** 2 for c in x))
    R = window.extent
    if t >= 2.0 * R:
        return 0.0
    return float(window.volume * betainc((window.dim + 1) / 2, 0.5,
                                         1.0 - t ** 2 / (4.0 * R ** 2)))


@st.composite
def _balls(draw, min_size=1):
    """Centers (m, d) and radii (m,) of up to four balls in d = 1, 2, 3."""
    d = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(min_size, 4))
    centers = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                     max_size=d), min_size=m, max_size=m))
    radii = draw(st.lists(st.floats(0.2, 1.5), min_size=m, max_size=m))
    return np.array(centers), np.array(radii)


def _volume(centers, radii):
    """The volume rule on one set of balls, with the kernels' 64 nodes."""
    return _blocked_volume(centers[:, None], radii[:, None], 64)[0]


# the 64-node rule, which takes three or more balls, is within 8.5e-5 of
# the smallest ball's volume where a lens rim kinks a slice (measured on
# 300 random triples per dimension against 2048 nodes in d = 2, 384 in
# d = 3); two balls take the exact lens, within a few rounding errors
_SLICE_TOL = 2e-4
_LENS_TOL = 1e-12


@settings(max_examples=60, deadline=None)
@given(_balls(), st.randoms(use_true_random=False))
def test_ball_intersection_ignores_ball_order(balls, rnd):
    centers, radii = balls
    perm = list(range(len(radii)))
    rnd.shuffle(perm)
    assert _volume(centers[perm], radii[perm]) == _volume(centers, radii)


@settings(max_examples=60, deadline=None)
@given(_balls(min_size=2))
def test_ball_intersection_shrinks_as_balls_are_added(balls):
    centers, radii = balls
    d = centers.shape[1]
    smallest = unit_ball_volume(d) * radii.min() ** d
    vols = [_volume(centers[:j], radii[:j]) for j in range(1, len(radii) + 1)]
    assert vols[0] == pytest.approx(unit_ball_volume(d) * radii[0] ** d,
                                    rel=_SLICE_TOL)
    assert vols[-1] <= smallest * (1 + _SLICE_TOL)
    for a, b in zip(vols, vols[1:]):
        assert b <= a + _SLICE_TOL * smallest


@settings(max_examples=60, deadline=None)
@given(_balls())
def test_concentric_balls_intersect_in_the_smallest(balls):
    centers, radii = balls
    d = centers.shape[1]
    same = np.broadcast_to(centers[0], centers.shape)
    assert _volume(same, radii) == pytest.approx(
        unit_ball_volume(d) * radii.min() ** d, rel=1e-5)


@settings(max_examples=60, deadline=None)
@given(_balls(min_size=2))
def test_two_balls_intersect_in_the_closed_form_lens(balls):
    centers, radii = balls
    centers, radii = centers[:2], radii[:2]
    d = centers.shape[1]
    lens = _lens_volume(d, radii[0], radii[1],
                        float(np.linalg.norm(centers[1] - centers[0])))
    assert abs(_volume(centers, radii) - lens) <= \
        _LENS_TOL * unit_ball_volume(d) * radii.min() ** d


@st.composite
def _ball_pairs(draw):
    """Two balls in d = 1, 2, 3 at a distance t along a random direction:
    t anywhere up to past touching, or exactly 0, |r1 - r2| (internal
    tangency), r1 + r2 (touching), or inside the larger ball; the radii
    equal or not."""
    d = draw(st.sampled_from([1, 2, 3]))
    r1 = draw(st.floats(0.2, 1.5))
    r2 = r1 if draw(st.booleans()) else draw(st.floats(0.2, 1.5))
    gap = abs(r1 - r2)
    t = draw(st.one_of(st.floats(0.0, r1 + r2 + 0.5),
                       st.sampled_from([0.0, gap, r1 + r2]),
                       st.floats(0.0, gap)))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                               max_size=d)))
    norm = np.linalg.norm(u)
    u = u / norm if norm > 1e-3 else np.eye(d)[0]
    start = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                   max_size=d)))
    return np.array([start, start + t * u]), np.array([r1, r2])


@settings(max_examples=200, deadline=None)
@given(_ball_pairs())
def test_two_ball_volume_is_the_closed_form_lens(balls):
    centers, radii = balls
    d = centers.shape[1]
    t = float(np.linalg.norm(centers[1] - centers[0]))
    got = _volume(centers, radii)
    assert abs(got - _lens_volume(d, radii[0], radii[1], t)) <= \
        _LENS_TOL * unit_ball_volume(d) * radii.min() ** d
    assert _volume(centers[::-1], radii[::-1]) == got


@pytest.mark.parametrize("d", [4, 5])
def test_two_ball_volume_matches_the_incomplete_beta_lens(d):
    for extent in (0.4, 1.0, 1.7):
        w = Window("ball", extent, d)
        u = np.random.default_rng(d).normal(size=d)
        u /= np.linalg.norm(u)
        for t in np.linspace(0.0, 2.0 * extent, 41)[:-1]:
            x = t * u
            got = _volume(np.array([np.zeros(d), x]), np.full(2, extent))
            assert got == pytest.approx(_betainc_lens(w, x), rel=1e-9)


@pytest.mark.parametrize("k", range(1, ENUM_CAP + 1))
def test_iso_masks_match_brute_force_permutations(k):
    iu = np.triu_indices(k, 1)
    for G in enumerate_classes(k):
        adj = G.adjacency()
        rows = []
        for perm in itertools.permutations(range(k)):
            bits = adj[np.ix_(perm, perm)][iu].tolist()
            if bits not in rows:
                rows.append(bits)
        expect = np.array(rows, dtype=bool).reshape(len(rows), len(iu[0]))
        np.testing.assert_array_equal(iso_masks(G), expect)


def test_indicator_union_exponent_matches_public():
    # d = 3, where rows with a pairwise overlapping triple take the
    # slicing rule and n_nodes changes their values; in d <= 2 every row
    # is exact and n_nodes is never read
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (8, 3, 3))
    assert np.any(_overlapping_triples(X, np.ones(3)))
    fast = indicator_union_exponent(X, np.array([1.0] * 3),
                                    np.array([1.0] * 3), 1.0)
    for x, f in zip(X, fast):
        ref = indicator_union_exponent(x[None], [1.0] * 3, [1.0] * 3, 1.0,
                                       n_nodes=1024)[0]
        assert f == pytest.approx(ref, rel=1e-4)


def test_gaussian_estimate_carries_a_float_truncation_radius():
    est = expected_count_intensity(edge_class(), GAUSS, 1.0, n_samples=200,
                                   seed=1)
    assert type(est.truncation_radius) is float
    assert est.truncation_radius == GAUSS.s * np.sqrt(np.log(1e6))


def test_mixed_exponent_smooth_kind():
    gauss = ConnectionFunction("gaussian", 2, s=1.0)
    # single point: -beta * m_phi
    val = mixed_exponent(np.zeros((4, 1, 2)), [gauss], 1.5)
    np.testing.assert_allclose(val, -1.5 * math.pi, rtol=1e-3)


def test_expected_count_intensity_closed_form():
    est = expected_count_intensity(single_vertex_class(), GILBERT, 1.0)
    assert est.method == "closed_form"
    assert est.value == pytest.approx(RHO_1, rel=1e-12)


def test_expected_count_intensity_edge_oracle():
    est = expected_count_intensity(edge_class(), GILBERT, 1.0,
                                   n_samples=120000, seed=5)
    assert est.std_error < 0.01 * RHO_EDGE
    assert abs(est.value - RHO_EDGE) < 4.0 * est.std_error


# In d = 1 the gaps between consecutive Poisson points are iid Exp(beta),
# and under Gilbert phi a component is a maximal run of gaps shorter than
# r, which gives these moments exactly (Mecke formula, at beta = r = 1)
GILBERT1 = ConnectionFunction("gilbert", 1, r=1.0)
#   rho_2:1 = beta e^{-2 beta r} (1 - e^{-beta r})
RHO_EDGE_D1 = math.exp(-2.0) * (1.0 - math.exp(-1.0))
#   sigma^{(1,1)} = beta e^{-2 beta r} + 2 beta (e^{-3 beta r} - e^{-4 beta r})
#   - 4 r beta^2 e^{-4 beta r}
SIGMA_11_D1 = (math.exp(-2.0) + 2.0 * (math.exp(-3.0) - math.exp(-4.0))
               - 4.0 * math.exp(-4.0))


def test_d1_edge_intensity_is_exact():
    assert RHO_EDGE_D1 == pytest.approx(0.0855482, abs=1e-7)
    est = expected_count_intensity(edge_class(), GILBERT1, 1.0,
                                   n_samples=40000, seed=1)
    assert abs(est.value - RHO_EDGE_D1) < 3.0 * est.std_error


def test_d1_isolated_vertex_covariance_is_exact():
    assert SIGMA_11_D1 == pytest.approx(0.1250156, abs=1e-7)
    est = asy_cov_kl(1, 1, GILBERT1, GILBERT1, 1.0, n_samples=40000, seed=1)
    assert abs(est.value - SIGMA_11_D1) < 3.0 * est.std_error


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_d1_order_intensity_is_exact(k):
    """rho_k = beta e^{-2 beta r} q^(k-1), q = 1 - e^{-beta r}: k - 1 gaps
    shorter than r between two longer ones, summed over every class of
    order k (class n at seed 1 + n). At 20,000 draws per class the sums
    read z = -0.07, 0.92, 0.19 and -0.13 for k = 3, 4, 5, 6."""
    ests = [expected_count_intensity(G, GILBERT1, 1.0, n_samples=20000,
                                     seed=1 + n)
            for n, G in enumerate(enumerate_classes(k))]
    value = sum(est.value for est in ests)
    se = math.hypot(*(est.std_error for est in ests))
    exact = math.exp(-2.0) * (1.0 - math.exp(-1.0)) ** (k - 1)
    assert abs(value - exact) < 3.0 * se


GILBERT3 =ConnectionFunction("gilbert", 3, r=1.0)


@pytest.mark.acceptance
def test_expected_count_intensity_d3_edge_oracle():
    # rho_2:1 = (beta^2 / 2) int_{|x|<=1} exp(-beta |B(0,1) u B(x,1)|) dx,
    # the union 2 kappa_3 minus the lens pi (4 + t)(2 - t)^2 / 12
    beta = 0.3

    def radial(t):
        lens = math.pi * (4 + t) * (2 - t) ** 2 / 12
        return 4 * math.pi * t * t * math.exp(
            -beta * (2 * unit_ball_volume(3) - lens))

    oracle = beta ** 2 / 2 * quad(radial, 0.0, 1.0, epsabs=1e-14)[0]
    est = expected_count_intensity(edge_class(), GILBERT3, beta,
                                   n_samples=20000, seed=0)
    assert abs(est.value - oracle) <= 3.0 * est.std_error
    assert est.std_error < 0.02 * oracle


def _gaussian_edge_intensity(d, beta, s):
    """rho of the edge class under phi = exp(-|x|^2 / s^2) in R^d:
    (beta^2 / 2) int phi(x) exp(beta [-2 m_phi + (phi * phi)(x)]) dx with
    m_phi = (pi s^2)^(d/2) and (phi * phi)(x) = (pi s^2 / 2)^(d/2)
    exp(-|x|^2 / (2 s^2)), as one radial quadrature."""
    m_phi = (math.pi * s * s) ** (d / 2)
    half = (math.pi * s * s / 2) ** (d / 2)

    def radial(t):
        return d * unit_ball_volume(d) * t ** (d - 1) * math.exp(
            -(t / s) ** 2
            + beta * (half * math.exp(-t * t / (2 * s * s)) - 2 * m_phi))

    return beta ** 2 / 2 * quad(radial, 0.0, math.inf, epsabs=0.0,
                                epsrel=1e-12, limit=200)[0]


@pytest.mark.parametrize("d, exact", [(1, 0.0732430), (2, 0.0089064),
                                      (3, 0.00013181)])
def test_gaussian_edge_intensity_matches_exact_oracle(d, exact):
    oracle = _gaussian_edge_intensity(d, 1.0, 1.0)
    assert oracle == pytest.approx(exact, rel=1e-5)
    est = expected_count_intensity(
        edge_class(), ConnectionFunction("gaussian", d, s=1.0), 1.0,
        n_samples=20000, seed=0)
    assert abs(est.value - oracle) <= 3.0 * est.std_error
    assert est.std_error < 0.03 * oracle


@pytest.mark.acceptance
def test_expected_count_intensity_d3_path_matches_simulation():
    # subcritical: mean degree beta kappa_3 = 1.26; a 3:3 component with
    # its lexmin inside lies within 2 of it, so padding 3.5 keeps it off
    # the sampled region's boundary band of width r = 1
    beta, w = 0.3, Window("box", 6.0, 3)
    cls = GraphClass.from_class_id("3:3")
    counts = []
    for s in range(400):
        pts, marks = seeded_sample(w, 3.5, beta, 40_000 + s)
        counts.append(census(build_rcm(pts, GILBERT3, marks), w,
                             k_max=3).eta_G(cls))
    rates = np.array(counts) / w.volume
    sim_se = float(np.std(rates, ddof=1)) / math.sqrt(len(rates))
    est = expected_count_intensity(cls, GILBERT3, beta, n_samples=5000,
                                   seed=1)
    assert abs(est.value - float(np.mean(rates))) <= \
        3.0 * math.hypot(est.std_error, sim_se)


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


def test_asy_var_quadratic_adds_the_upper_triangle_in_order():
    """The value adds a_i a_j sigma_ij over the upper triangle row by row
    from +0.0, each entry off the diagonal twice, and the s.e. is the
    hypot of the scaled entry errors."""
    a = (0.3, -2.7, 1.0)
    classes = [single_vertex_class(), edge_class(), path_class(3)]
    est, mat, errs = asy_var_quadratic(a, classes, GILBERT, 1.0,
                                       n_samples=1000, seed=13)
    value, scaled = 0.0, []
    for i in range(3):
        for j in range(i, 3):
            c = a[i] * a[j] * (1.0 if i == j else 2.0)
            value = value + c * mat[i, j]
            scaled.append(c * errs[i, j])
    assert est == MomentEstimate(value, math.hypot(*scaled), 1000,
                                 GILBERT.truncation_radius(), "monte_carlo")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_asy_var_quadratic_refuses_non_finite_weights(bad):
    with pytest.raises(ValueError, match="weights a must be finite"):
        asy_var_quadratic((bad, 1.0), [single_vertex_class(), edge_class()],
                          GILBERT, 1.0, n_samples=2)


@pytest.mark.parametrize("m", [0, -1, True, 2.5])
def test_sigma_total_partial_refuses_levels_below_one(m):
    # a bool is not a level, though it compares as 1
    with pytest.raises(ValueError, match=(
            f"^m must be an integer >= 1, got {m!r}$")):
        sigma_total_partial(m, GILBERT, 1.0, n_samples=2)


@pytest.mark.parametrize("k, l, named", [
    (0, 1, "k"), (True, 1, "k"), (2.0, 2, "k"), (1, -1, "l"),
    (1, False, "l"), (1, 1.5, "l")])
def test_asy_cov_kl_refuses_an_order_that_is_not_an_integer_above_0(
        k, l, named):
    bad = k if named == "k" else l
    with pytest.raises(ValueError, match=(
            f"^{named} must be an integer >= 1, got {bad!r}$")):
        asy_cov_kl(k, l, GILBERT, GILBERT, 1.0, n_samples=100)


def test_asy_cov_kl_reads_a_numpy_integer_order_as_an_int():
    est = asy_cov_kl(np.int64(1), np.int64(1), GILBERT, GILBERT, 1.0,
                     n_samples=100)
    assert type(est.value) is float
    assert est == asy_cov_kl(1, 1, GILBERT, GILBERT, 1.0, n_samples=100)


@pytest.mark.parametrize("se", [-1.0, math.nan])
def test_moment_estimate_refuses_a_negative_or_nan_std_error(se):
    with pytest.raises(ValueError, match="std_error must be nonnegative"):
        MomentEstimate(0.0, se, 2, 1.0, "monte_carlo")


def test_one_combination_rule_in_the_sources():
    """Sums of independent estimates add their errors in quadrature in
    _linear_combination alone, and no quadratic form is a matrix product."""
    from rcmlab import moments
    src = pathlib.Path(moments.__file__).parent
    texts = [path.read_text() for path in sorted(src.glob("*.py"))]
    assert sum(text.count("hypot(") for text in texts) == 1
    assert "hypot(" in inspect.getsource(moments._linear_combination)
    assert not any("@ mat @" in text for text in texts)


def test_one_monte_carlo_rule_in_the_sources():
    """Draws become a MomentEstimate in _mc_moment alone; the only other
    record built from scratch is the closed-form singleton intensity."""
    from rcmlab import analysis, moments
    src = pathlib.Path(moments.__file__).parent
    texts = [path.read_text() for path in sorted(src.glob("*.py"))]
    assert sum(text.count("MomentEstimate(") for text in texts) == 2
    assert "MomentEstimate(" not in inspect.getsource(analysis)
    assert "MomentEstimate(" in inspect.getsource(moments._mc_moment)
    closed = inspect.getsource(moments.expected_count_intensity)
    assert closed.count("MomentEstimate(") == 1
    assert 'method="closed_form"' in closed


def test_mc_moment_counts_its_draws_and_refuses_fewer_than_two():
    values = np.array([1.0, 4.0, 2.5])
    value, se = _mc_estimate(values, 2.0)
    assert _mc_moment(values, 2.0, 0.5) == MomentEstimate(
        value, se, 3, 0.5, "monte_carlo")
    for short in (np.array([]), np.array([1.0])):
        with pytest.raises(ValueError, match="at least 2 draws"):
            _mc_moment(short, 1.0, 0.5)


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_overlap_volume_ball_matches_closed_forms(d):
    w = Window("ball", 1.3, d)
    for t in (0.0, 0.3, 1.3, 2.2, 2.59):
        x = np.zeros(d)
        x[-1] = t
        assert window_overlap_volume(w, x) == pytest.approx(
            _lens_volume(d, 1.3, 1.3, t), rel=1e-10)


def test_window_overlap_volume_ball_d4_matches_slicing():
    w = Window("ball", 1.5, 4)
    for t in (0.4, 1.5, 2.6):
        x = t * np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        # a third ball that holds both makes the 64-node slicing rule
        # take the lens
        centers = np.array([np.zeros(4), x, 0.5 * x])[:, None]
        radii = np.array([1.5, 1.5, 10.0])[:, None]
        sliced = _blocked_volume(centers, radii, 64)[0]
        assert window_overlap_volume(w, x) == pytest.approx(sliced, rel=1e-4)


def test_finite_window_cov_on_4d_ball_window():
    phi4 = ConnectionFunction("gilbert", 4, r=1.0)
    est = finite_window_cov(
        single_vertex_class(), single_vertex_class(), phi4, phi4,
        Window("ball", 1.0, 4), 0.5, n_samples=200, seed=3)
    assert math.isfinite(est.value) and est.value > 0


ISOLATED = (single_vertex_class(), single_vertex_class(), GILBERT, GILBERT)


def test_finite_window_cov_consistent_with_asymptotic():
    # isolated vertices at extent 25 on the draws of asy_cov: the
    # boundary correction, O(|boundary| / |W|), is below 3 combined
    # standard errors, and the overlap weight does not inflate the
    # standard error
    fin = finite_window_cov(*ISOLATED, Window("box", 25.0, 2), 1.0,
                            n_samples=60000, seed=13)
    asy = asy_cov(*ISOLATED, 1.0, n_samples=60000, seed=13)
    assert 0.5 < fin.std_error / asy.std_error < 2.0
    assert abs(fin.value - asy.value) < 3.0 * math.hypot(fin.std_error,
                                                         asy.std_error)


def test_finite_window_cov_matches_census_variance():
    # isolated vertices at extent 5 against the sample variance per
    # volume of the lexmin count over census replicates on that window;
    # a sample variance s^2 of n counts with fourth central moment m4
    # has Var(s^2) ~ (m4 - s^4 (n - 3) / (n - 1)) / n
    window = Window("box", 5.0, 2)
    res = run_scenario({
        "dimension": 2, "beta": 1.0, "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [window.extent]},
        "statistics": [{"statistic": "count_class", "class": "1:0"}],
        "replicates": 4000, "seed_base": 700000}, threads=1)
    counts = res.rungs[0].values[:, 0]
    n = len(counts)
    s2 = float(np.var(counts, ddof=1))
    m4 = float(np.mean((counts - np.mean(counts)) ** 4))
    census_se = math.sqrt((m4 - s2 ** 2 * (n - 3) / (n - 1)) / n)
    fin = finite_window_cov(*ISOLATED, window, 1.0, n_samples=60000,
                            seed=13)
    asy = asy_cov(*ISOLATED, 1.0, n_samples=60000, seed=13)
    assert 0.5 < fin.std_error / asy.std_error < 2.0
    assert abs(fin.value - s2 / window.volume) < 3.0 * math.hypot(
        fin.std_error, census_se / window.volume)


@pytest.mark.parametrize("extent", [5.0, 25.0])
def test_finite_window_cov_matches_radial_quadrature(extent):
    # isolated vertices (beta = r = 1): Cov / |W| = rho_1 + int g(|z|)
    # |W intersected with W + z| / |W| dz with g(t) = 1{t > 1}
    # e^{-(2 pi - lens(t))} - e^{-2 pi} for t < 2, 0 beyond; over the
    # angle the box's overlap fraction (1 - |z_1|/L)(1 - |z_2|/L), L the
    # side, integrates to 4 (pi/2 - 2t/L + t^2/(2 L^2))
    side = 2.0 * extent

    def g(t):
        inside = math.exp(-(2.0 * math.pi - _lens_volume(2, 1.0, 1.0, t)))
        return (inside if t > 1.0 else 0.0) - math.exp(-2.0 * math.pi)

    exact = RHO_1 + sum(quad(
        lambda t: 4.0 * t * g(t) * (math.pi / 2 - 2.0 * t / side
                                    + t * t / (2.0 * side * side)),
        lo, hi, epsabs=1e-14)[0] for lo, hi in ((0.0, 1.0), (1.0, 2.0)))
    fin = finite_window_cov(*ISOLATED, Window("box", extent, 2), 1.0,
                            n_samples=60000, seed=13)
    assert abs(fin.value - exact) < 3.0 * fin.std_error


def test_window_overlap_volume_refuses_a_shift_of_another_dimension():
    with pytest.raises(ValueError, match=(
            r"^shifts need the window's dimension 2 in their last axis, "
            r"got shape \(3,\)$")):
        window_overlap_volume(Window("box", 1.0, 2), [0.5, 0.0, 0.0])


@pytest.mark.parametrize("window", [Window("box", 3.0, 3),
                                    Window("ball", 3.0, 1)],
                         ids=["box-d3", "ball-d1"])
def test_finite_window_cov_refuses_a_window_of_another_dimension(window):
    with pytest.raises(ValueError, match=(
            f"^window dimension {window.dim} differs from the connection "
            f"function's dimension 2$")):
        finite_window_cov(*ISOLATED, window, 1.0, n_samples=1000)


def test_finite_window_cov_refuses_a_window_of_volume_zero():
    # Cov / |W| would be 0 / 0 in the overlap fraction
    with pytest.raises(ValueError, match="^window: a covariance per volume "
                       "needs a window of positive volume$"):
        finite_window_cov(*ISOLATED, Window("box", 0.0, 2), 1.0,
                          n_samples=1000)


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


def _sample_by_decoding(prop, rng, n):
    """ClusterProposal.sample as it was before the tree table: every
    sample's Pruefer code decoded on the spot, the vertices placed by
    (row, vertex) fancy indexing in root-to-leaf order."""
    k, d = prop.k, prop.d
    X = np.zeros((n, k, d))
    if k == 1:
        return X
    child, parent = prufer_decode(rng.integers(0, k, size=(n, k - 2)), k)
    disp = prop._displacements(rng, n * (k - 1))[0].reshape(n, k - 1, d)
    rows = np.arange(n)
    for e in range(k - 2, -1, -1):
        X[rows, child[:, e]] = X[rows, parent[:, e]] + disp[:, e]
    return X - X[:, :1, :]


@pytest.mark.parametrize("phi", [
    GILBERT, GAUSS, ConnectionFunction("exponential", 3, theta=1.0)],
    ids=["gilbert", "gaussian", "exponential-d3"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_cluster_sample_equals_decoding_reference(phi, k):
    # every bit, sign bits included, and the same share of the stream
    prop = ClusterProposal(phi, k)
    rng, ref_rng = np.random.default_rng(30 + k), np.random.default_rng(30 + k)
    X = prop.sample(rng, 3000)
    ref = _sample_by_decoding(prop, ref_rng, 3000)
    assert X.shape == ref.shape and X.flags.c_contiguous
    assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))
    assert rng.random() == ref_rng.random()


def test_tree_table_is_shared_read_only_and_decoded_once(monkeypatch):
    from rcmlab import moments
    moments._tree_table.cache_clear()
    decoded = []

    def counting_decode(codes, k):
        decoded.append(k)
        return prufer_decode(codes, k)

    monkeypatch.setattr(moments, "prufer_decode", counting_decode)
    a, b = ClusterProposal(GILBERT, 6), ClusterProposal(GILBERT, 6)
    a.sample(np.random.default_rng(0), 50)
    b.sample(np.random.default_rng(1), 50)
    ClusterProposal(GAUSS, 6).sample(np.random.default_rng(2), 50)
    assert decoded == [6]
    assert a._child is b._child and a._parent is b._parent
    assert a._draw is b._draw and a._radial is b._radial
    assert a._child.shape == (6 ** 4, 5)
    for table in (a._child, a._parent):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def test_cluster_proposal_refuses_order_beyond_cap():
    with pytest.raises(ValueError, match="enumeration cap"):
        ClusterProposal(GILBERT, ENUM_CAP + 1)


@pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("estimator", [
    lambda b: expected_count_intensity(edge_class(), GILBERT, b,
                                       n_samples=100),
    lambda b: expected_count_intensity(single_vertex_class(), GILBERT, b),
    lambda b: asy_cov(edge_class(), edge_class(), GILBERT, GILBERT, b,
                      n_samples=100),
    lambda b: asy_cov_kl(1, 2, GILBERT, GILBERT, b, n_samples=100),
    lambda b: finite_window_cov(
        edge_class(), edge_class(), GILBERT, GILBERT, Window("box", 2.0, 2),
        b, n_samples=100),
    lambda b: asy_var_quadratic([1.0], [edge_class()], GILBERT, b,
                                n_samples=100),
    lambda b: sigma_total_partial(1, GILBERT, b, n_samples=100)],
    ids=["intensity", "intensity-k1", "asy_cov", "asy_cov_kl",
         "window_cross_moment", "asy_var_quadratic", "sigma_total_partial"])
def test_estimators_refuse_a_bad_beta(estimator, beta):
    with pytest.raises(ValueError, match="^beta: must be positive"):
        estimator(beta)


def test_one_radial_grid_per_proposal(monkeypatch):
    """Proposals draw from the sampler built once in their constructor."""
    from rcmlab import connection
    built = []

    def counting_sampler(*args, **kwargs):
        built.append(args[0].kind)
        return radial_sampler(*args, **kwargs)

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
@given(st.integers(1, 6), st.sampled_from([1, 2, 3]), st.integers(2, 40),
       st.integers(0, 2 ** 32 - 1))
def test_indicator_union_exponent_rows_independent_of_batch(m, d, n, seed):
    # pruning rows from a batch, or splitting it into blocks, must not
    # change the remaining rows' bits
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


def test_anchor_and_lexmin_point_share_one_order():
    """Ties in the first coordinate are decided by the second, for the
    anchor rule of the drivers and for the point that carries the window
    overlap weight alike, as python's tuple order decides them."""
    X = np.array([[[0.0, 1.0], [0.0, 0.5], [2.0, -1.0]],
                  [[0.0, 0.5], [0.0, 1.0], [2.0, -1.0]],
                  [[1.0, 0.0], [-1.0, 3.0], [-1.0, 2.0]],
                  [[-1.0, 0.0], [1.0, -3.0], [1.0, -4.0]]])
    expect = [min(map(tuple, cluster.tolist())) for cluster in X]
    assert [tuple(p) for p in _lexmin_points(X).tolist()] == expect
    assert _is_anchor_lexmin(X).tolist() == [False, True, False, True]
    assert np.array_equal(_is_anchor_lexmin(X),
                          np.all(_lexmin_points(X) == X[:, 0], axis=1))


SCALED = ConnectionFunction("scaled_indicator", 2, r=1.0, p=0.5)


def _same_draw_pair_term(phi, psi, k, l, prob1, prob2, kernel, beta, n, seed,
                         anchor):
    """The two-cluster term of a second moment from the draws the engine
    makes at this seed (one batch): X1, then the anchor, then X2."""
    rng = np.random.default_rng(seed)
    prop1, prop2 = ClusterProposal(phi, k), ClusterProposal(psi, l)
    X1 = prop1.sample(rng, n)
    a2 = anchor.sample(rng, X1)
    X2rel = prop2.sample(rng, n)
    X2 = X2rel + a2[:, None, :]
    dens = prop1.density(X1) * anchor.density(X1, a2) * prop2.density(X2rel)
    ok = _is_anchor_lexmin(X1) & (dens > 0)
    p = prob1(_pair_values(X1[ok], phi)) * prob2(_pair_values(X2[ok], psi))
    w = np.zeros(n)
    w[ok] = p * kernel(X1[ok], X2[ok]) \
        * (1.0 / (math.factorial(k - 1) * math.factorial(l))) / dens[ok]
    return _mc_estimate(w, beta ** (k + l))


def _same_draw_shared_term(phi, psi, k, diag_prob, beta, n, seed):
    """The shared-tuple term: its own stream at seed + 1 and
    max(n // 2, 1000) draws of one phi cluster."""
    n = max(n // 2, 1000)
    prop = ClusterProposal(phi, k)
    X = prop.sample(np.random.default_rng(seed + 1), n)
    dens = prop.density(X)
    ok = _is_anchor_lexmin(X) & (dens > 0)
    p = diag_prob(_pair_values(X[ok], phi), _pair_values(X[ok], psi))
    w = np.zeros(n)
    w[ok] = p * np.exp(mixed_exponent(X[ok], [phi] * k, beta)) \
        * (1.0 / math.factorial(k - 1)) / dens[ok]
    return _mc_estimate(w, beta ** k)


def test_window_cross_moment_equals_same_draw_reference():
    G = H = edge_class()
    k = l = 2
    window, beta, n, seed = Window("box", 1.5, 2), 1.2, 3000, 44

    def kernel(X1, X2):
        # q_kl weighted by the overlap fraction at X2's lexmin point
        ov = np.array([window_overlap_volume(window, min(map(tuple, x)))
                       for x in X2.tolist()])
        return q_kl(X1, X2, GILBERT, SCALED, beta) * ov / window.volume

    v1, se1 = _same_draw_pair_term(
        GILBERT, SCALED, k, l, lambda pe: prob_isomorphic(pe, G),
        lambda pe: prob_isomorphic(pe, H), kernel, beta, n, seed,
        AnchorProposal(GILBERT, widen=float(l + 2)))
    v2, se2 = _same_draw_shared_term(
        GILBERT, SCALED, k, lambda a, b: joint_prob_coupled(a, b, G, H),
        beta, n, seed)
    assert v1 != 0 and v2 != 0
    est = finite_window_cov(G, H, GILBERT, SCALED, window, beta,
                            n_samples=n, seed=seed)
    assert (est.value, est.std_error) == (v1 + v2, math.hypot(se1, se2))


def test_coupled_asy_cov_kl_equals_same_draw_reference():
    k = l = 2
    beta, n, seed = 1.0, 1500, 45
    v1, se1 = _same_draw_pair_term(
        GILBERT, SCALED, k, l, lambda pe: prob_connected(pe, k),
        lambda pe: prob_connected(pe, l),
        lambda X1, X2: q_kl(X1, X2, GILBERT, SCALED, beta), beta, n, seed,
        AnchorProposal(GILBERT, widen=float(l + 2)))
    # both coupled graphs connected is the psi graph connected; n // 2 is
    # below the floor of 1000 shared-tuple draws
    v2, se2 = _same_draw_shared_term(
        GILBERT, SCALED, k, lambda a, b: prob_connected(b, k), beta, n, seed)
    assert v1 != 0 and v2 != 0
    est = asy_cov_kl(k, l, GILBERT, SCALED, beta, n_samples=n, seed=seed)
    assert (est.value, est.std_error) == (v1 + v2, math.hypot(se1, se2))


@pytest.mark.parametrize("n", [0, 1])
def test_monte_carlo_budgets_below_two_are_refused(n):
    W = Window("box", 2.0, 2)
    calls = [
        lambda: expected_count_intensity(path_class(3), GILBERT, 1.0,
                                         n_samples=n),
        lambda: asy_cov(edge_class(), path_class(3), GILBERT, GILBERT, 1.0,
                        n_samples=n),
        lambda: asy_cov_kl(2, 2, GILBERT, SCALED, 1.0, n_samples=n),
        lambda: finite_window_cov(edge_class(), edge_class(), GILBERT,
                                  GILBERT, W, 1.0, n_samples=n),
        lambda: asy_var_quadratic([1.0], [edge_class()], GILBERT, 1.0,
                                  n_samples=n),
        lambda: sigma_total_partial(2, GILBERT, 1.0, n_samples=n),
    ]
    for call in calls:
        with pytest.raises(ValueError,
                           match="n_samples must be an integer >= 2"):
            call()
    # the isolated-vertex intensity is a closed form and draws nothing
    est = expected_count_intensity(single_vertex_class(), GILBERT, 1.0,
                                   n_samples=n)
    assert est.value == pytest.approx(RHO_1, rel=1e-12)


@pytest.mark.parametrize("estimator", [
    lambda: expected_count_intensity(path_class(ENUM_CAP + 1), GILBERT, 1.0,
                                     n_samples=50),
    lambda: sigma_total_partial(ENUM_CAP + 1, GILBERT, 1.0, n_samples=50)],
    ids=["intensity", "sigma_total_partial"])
def test_estimators_refuse_orders_beyond_enumeration_cap(estimator):
    with pytest.raises(ValueError, match=f"enumeration cap {ENUM_CAP}$"):
        estimator()


@pytest.mark.parametrize("estimator", [
    lambda psi: asy_cov(edge_class(), edge_class(), GILBERT, psi, 1.0,
                        n_samples=50),
    lambda psi: asy_cov_kl(1, 2, GILBERT, psi, 1.0, n_samples=50),
    lambda psi: finite_window_cov(edge_class(), edge_class(), GILBERT, psi,
                                  Window("box", 2.0, 2), 1.0, n_samples=50)],
    ids=["asy_cov", "asy_cov_kl", "finite_window_cov"])
def test_second_moments_refuse_a_psi_above_phi(estimator):
    with pytest.raises(ValueError, match="^psi must be dominated by phi$"):
        estimator(ConnectionFunction("gilbert", 2, r=1.5))


@pytest.mark.parametrize("a, message", [
    ((0.0, 0.0), "weights must not all vanish"),
    ((1.0,), "weight and class lists differ in length")])
def test_asy_var_quadratic_refuses_vanishing_or_unmatched_weights(a,
                                                                  message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        asy_var_quadratic(a, [single_vertex_class(), edge_class()], GILBERT,
                          1.0, n_samples=50)


def test_window_cross_moment_refuses_orders_beyond_enumeration_cap():
    with pytest.raises(ValueError, match=f"enumeration cap {ENUM_CAP}"):
        finite_window_cov(path_class(ENUM_CAP + 1), edge_class(), GILBERT,
                          GILBERT, Window("box", 2.0, 2), 1.0, n_samples=50)


# ---------------------------------------------------------------------------
# smooth-kind exponent and overlap volumes against per-sample references

def _per_sample_union_exponent(X, funcs, beta, n_nodes=48):
    """generic_union_exponent one sample at a time, on the materialised
    tensor grid: the reference the batched kernel must match bit for bit."""
    n, m, d = X.shape
    reach = np.array([f.truncation_radius() for f in funcs])
    nodes, weights = _gl_nodes(n_nodes)
    out = np.empty(n)
    for s in range(n):
        lo = np.min(X[s] - reach[:, None], axis=0)
        hi = np.max(X[s] + reach[:, None], axis=0)
        axes = [lo[a] + (nodes + 1.0) * 0.5 * (hi[a] - lo[a]) for a in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        Y = np.stack([g.ravel() for g in grids], axis=-1)
        prod = np.ones(len(Y))
        for i, f in enumerate(funcs):
            dist = np.linalg.norm(Y - X[s, i], axis=1)
            prod *= 1.0 - f.phi_of_dist(dist)
        wts = weights
        for _ in range(d - 1):
            wts = np.multiply.outer(wts, weights)
        scale = np.prod(0.5 * (hi - lo))
        out[s] = np.sum((prod - 1.0) * wts.ravel()) * scale
    return beta * out


def _smooth_funcs(d, m):
    gauss = ConnectionFunction("gaussian", d, s=1.0)
    expo = ConnectionFunction("exponential", d, theta=0.4)
    gilbert = ConnectionFunction("gilbert", d, r=0.8)
    return {"gaussian": [gauss] * m, "exponential": [expo] * m,
            "mixed": [(gauss, expo, gilbert)[i % 3] for i in range(m)]}


@pytest.mark.parametrize("block", [1, 2 ** 30])
@pytest.mark.parametrize("n_nodes", [48, 96])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generic_union_exponent_equals_per_sample_loop(monkeypatch, d,
                                                       n_nodes, block):
    # one block per row, or every row in one block: a row's value must
    # not depend on its block
    from rcmlab import moments
    monkeypatch.setattr(moments, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(100 * d + n_nodes)
    n = 2 if (d, n_nodes) == (3, 96) else 7
    for m in range(1, 5):
        for kind, funcs in _smooth_funcs(d, m).items():
            X = rng.normal(scale=0.8, size=(n, m, d))
            got = generic_union_exponent(X, funcs, 1.3, n_nodes=n_nodes)
            ref = _per_sample_union_exponent(X, funcs, 1.3, n_nodes)
            assert np.array_equal(got, ref), (kind, m)


def test_generic_union_exponent_of_no_rows():
    out = generic_union_exponent(np.zeros((0, 2, 2)), [GAUSS] * 2, 1.0)
    assert out.shape == (0,)


def _scalar_overlap_volume(window, x):
    """window_overlap_volume for one shift, as a scalar formula: a box's
    product of overlaps, a ball's incomplete-beta lens."""
    x = np.asarray(x, dtype=float)
    if window.shape == "box":
        return float(np.prod(np.maximum(0.0, 2.0 * window.extent - np.abs(x))))
    return _betainc_lens(window, x)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", ["box", "ball"])
def test_window_overlap_volume_rows_equal_scalar_reference(shape, d):
    window = Window(shape, 1.3, d)
    # shifts inside and beyond the difference body 2W
    x = np.random.default_rng(d).uniform(-3.0, 3.0, size=(5000, d))
    rows = window_overlap_volume(window, x)
    ref = np.array([_scalar_overlap_volume(window, p) for p in x])
    assert 0 < np.count_nonzero(ref) < len(x)
    if shape == "box":
        assert np.array_equal(rows, ref)
    else:
        # the exact lens against the betainc lens (measured worst 5.7e-14)
        assert np.max(np.abs(rows - ref)) <= 1e-12 * window.volume
    one = [window_overlap_volume(window, p) for p in x[:200]]
    assert all(type(v) is float for v in one)
    assert np.array_equal(one, rows[:200])
    assert window_overlap_volume(window, x[:0]).shape == (0,)


GAUSS_NARROW = ConnectionFunction("gaussian", 2, s=0.6)
EXPO_1D = ConnectionFunction("exponential", 1, theta=1.0)

def _per_row_gaussian_integrals(X, prec):
    """moments._gaussian_integrals one row and one point subset at a
    time, in scalar arithmetic: the members added to the empty subset in
    increasing order by the weighted Welford update. The reference the
    table must match bit for bit."""
    n, m, d = X.shape
    table = np.empty(((1 << m) - 1, n))
    for row in range(n):
        x = X[row]
        for sub in range(1, 1 << m):
            total, centre, spread = 0.0, [0.0] * d, 0.0
            for i in range(m):
                if not (sub >> i) & 1:
                    continue
                w = prec[i]
                new = total + w
                diff = [x[i, a] - centre[a] for a in range(d)]
                sq = diff[0] * diff[0]
                for a in range(1, d):
                    sq = sq + diff[a] * diff[a]
                spread = spread + total * w / new * sq
                centre = [centre[a] + w / new * diff[a] for a in range(d)]
                total = new
            root = math.sqrt(math.pi / total)
            norm = root
            for _ in range(d - 1):
                norm = norm * root
            table[sub - 1, row] = norm * np.exp(-spread)
    return table


def _per_subset_gaussian_exponent(X, widths, beta):
    """gaussian_union_exponent one row and one point subset at a time:
    the terms (-1)^|S| times the subset integral, added in increasing
    bitmask order."""
    widths = np.asarray(widths, dtype=float)
    table = _per_row_gaussian_integrals(X, 1.0 / (widths * widths))
    out = np.empty(X.shape[0])
    for row in range(X.shape[0]):
        total = 0.0
        for sub in range(1, len(table) + 1):
            total = total + (-1.0) ** bin(sub).count("1") * table[sub - 1, row]
        out[row] = total
    return beta * out


def _no_grid(*args, **kwargs):
    raise AssertionError("the tensor grid serves no Gaussian tuple")


_SMOOTH_ESTIMATES = {
    "asy_cov-edge-vertex": ("gaussian", lambda: asy_cov(
        edge_class(), single_vertex_class(), GAUSS, GAUSS_NARROW, 1.0,
        n_samples=400, seed=61)),
    "asy_cov_kl-2-2": ("gaussian", lambda: asy_cov_kl(
        2, 2, GAUSS, GAUSS, 1.0, n_samples=400, seed=62)),
    "window-box": ("gaussian", lambda: finite_window_cov(
        edge_class(), edge_class(), GAUSS, GAUSS, Window("box", 2.0, 2), 1.0,
        n_samples=400, seed=63)),
    "window-ball": ("gaussian", lambda: finite_window_cov(
        edge_class(), edge_class(), GAUSS, GAUSS, Window("ball", 2.0, 2),
        1.0, n_samples=400, seed=64)),
    "intensity-path3-d1": ("exponential", lambda: expected_count_intensity(
        path_class(3), EXPO_1D, 1.0, n_samples=2000, seed=65)),
}


@pytest.mark.parametrize("name", list(_SMOOTH_ESTIMATES))
def test_smooth_estimates_equal_per_sample_loop_estimates(monkeypatch, name):
    # Gaussian estimates against the per-row, per-subset closed form (and
    # no grid at all); the exponential kind against the grid's loop
    from rcmlab import moments
    kind, run = _SMOOTH_ESTIMATES[name]
    est = run()
    if kind == "gaussian":
        monkeypatch.setattr(moments, "_gaussian_integrals",
                            _per_row_gaussian_integrals)
        monkeypatch.setattr(moments, "generic_union_exponent", _no_grid)
    else:
        monkeypatch.setattr(moments, "generic_union_exponent",
                            _per_sample_union_exponent)
    ref = run()
    assert est.value != 0
    assert est == ref


# ---------------------------------------------------------------------------
# Gaussian exponent in closed form

def _gaussian_widths(m, mixed):
    return [1.0 if i % 2 == 0 or not mixed else 0.6 for i in range(m)]


@pytest.mark.parametrize("mixed", [False, True], ids=["one-width", "s=1,0.6"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_union_exponent_agrees_with_fine_grid(d, mixed):
    # the grid at 96 nodes carries its truncation and quadrature errors,
    # about 1e-7 relative; the closed form carries neither
    rng = np.random.default_rng(40 + 2 * d + mixed)
    orders = (1, 2, 3, 4, 6) if d == 3 else (1, 2, 3, 4, 6, 8, 12)
    for m in orders:
        n = 2 if d == 3 else 4
        X = rng.normal(scale=0.8, size=(n, m, d))
        widths = _gaussian_widths(m, mixed)
        funcs = [ConnectionFunction("gaussian", d, s=w) for w in widths]
        got = gaussian_union_exponent(X, widths, 1.3)
        grid = generic_union_exponent(X, funcs, 1.3, n_nodes=96)
        np.testing.assert_allclose(got, grid, rtol=1e-5, atol=0, err_msg=m)
        assert np.array_equal(mixed_exponent(X, funcs, 1.3), got)


@pytest.mark.parametrize("block", [1, 2 ** 30])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_union_exponent_equals_per_subset_loop(monkeypatch, d,
                                                        block):
    # one row per block, or every row in one block: a row's value must not
    # depend on its block
    from rcmlab import moments
    monkeypatch.setattr(moments, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(50 + d)
    for m in (1, 2, 3, 5, 8):
        for mixed in (False, True):
            X = rng.normal(scale=0.8, size=(3 if m == 8 else 6, m, d))
            widths = _gaussian_widths(m, mixed)
            got = gaussian_union_exponent(X, widths, 1.3)
            ref = _per_subset_gaussian_exponent(X, widths, 1.3)
            assert np.array_equal(got, ref), (m, mixed)


def test_gaussian_union_exponent_memory_is_bounded():
    # every Gaussian subset is active, and in d = 3 the centres and
    # offsets of a block take 3 floats per (subset, row) entry; a full
    # (4095 subsets x 300 rows) float table would take 9.8 MB
    m, n, bound = 2 * ENUM_CAP, 300, 4_000_000
    X = np.random.default_rng(6).normal(scale=0.8, size=(n, m, 3))
    gaussian_union_exponent(X[:2], [1.0] * m, 1.0)
    tracemalloc.start()
    try:
        gaussian_union_exponent(X, [1.0] * m, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_gaussian_inner_exponent_is_exact():
    # two points: -beta (2 m_phi - (pi s^2 / 2)^(d/2) exp(-|x|^2 / (2 s^2)))
    for d in (1, 2, 3):
        phi = ConnectionFunction("gaussian", d, s=0.7)
        x = np.zeros((2, d))
        x[1, 0] = 0.9
        exact = -1.3 * (2 * phi.m_phi - (math.pi * 0.49 / 2) ** (d / 2)
                        * math.exp(-0.81 / (2 * 0.49)))
        assert inner_exponent(x, phi, 1.3) == pytest.approx(exact,
                                                            rel=1e-14)


# ---------------------------------------------------------------------------
# Gilbert-kind kernels and _importance_mc against their loop references

def _per_subset_union_exponent(X, radii, scales, beta, n_nodes=64):
    """indicator_union_exponent one point subset at a time: the reference
    the subset table must match bit for bit."""
    n, m, d = X.shape
    radii = np.asarray(radii, dtype=float)
    scales = np.asarray(scales, dtype=float)
    iu = np.triu_indices(m, 1)
    disjoint = _pair_dists(X) >= (radii[iu[0]] + radii[iu[1]])[None, :]
    total = np.zeros(n)
    for sub in range(1, 1 << m):
        members = [i for i in range(m) if (sub >> i) & 1]
        coef = np.prod(-scales[members])
        if len(members) == 1:
            i = members[0]
            vol = np.full(n, unit_ball_volume(d) * radii[i] ** d)
            total = total + coef * vol
            continue
        active = np.ones(n, dtype=bool)
        for e, (i, j) in enumerate(zip(*iu)):
            if (sub >> int(i)) & 1 and (sub >> int(j)) & 1:
                active &= ~disjoint[:, e]
        if not active.any():
            continue
        vol = np.zeros(n)
        centers = X[active][:, members, :]
        vol[active] = _blocked_volume(
            centers.transpose(1, 0, 2),
            np.broadcast_to(radii[members], centers.shape[:2]).T, n_nodes)
        total = total + coef * vol
    return beta * total


@pytest.mark.parametrize("block", [1, 2 ** 30])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_indicator_union_exponent_equals_per_subset_loop(monkeypatch, d,
                                                         block):
    # one row and one ball intersection per block, or everything in one
    # block: a row's value must not depend on its block. Rows that take
    # the subset table (every row in d = 3) equal the loop bit for bit;
    # in d <= 2 a row with three pairwise overlapping balls takes the
    # arrangement, exact in d = 1 and within the 1024-node rule's error
    # in d = 2
    from rcmlab import moments
    monkeypatch.setattr(moments, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(10 * d + (block > 1))
    arranged = 0
    for m in (1, 2, 3, 4, 5, 6, 8):
        n = 3 if m == 8 else 6
        # unequal radii and scales; spread enough that some subsets are
        # active on some rows only
        X = rng.uniform(-1.2, 1.2, size=(n, m, d))
        radii = rng.uniform(0.4, 1.1, size=m)
        scales = rng.uniform(0.3, 1.0, size=m)
        got = indicator_union_exponent(X, radii, scales, 1.3)
        ref = _per_subset_union_exponent(X, radii, scales, 1.3)
        table = ~_overlapping_triples(X, radii) if d <= 2 \
            else np.ones(n, dtype=bool)
        assert np.array_equal(got[table], ref[table]), m
        if d == 2:
            ref = _per_subset_union_exponent(X, radii, scales, 1.3,
                                             n_nodes=1024)
        np.testing.assert_allclose(got[~table], ref[~table],
                                   rtol=1e-12 if d == 1 else 1e-6,
                                   err_msg=str(m))
        arranged += np.count_nonzero(~table)
    assert arranged > 0 if d <= 2 else arranged == 0


def test_indicator_union_exponent_of_no_rows_and_no_active_subset():
    out = indicator_union_exponent(np.zeros((0, 3, 2)), [1.0] * 3, [1.0] * 3,
                                   1.0)
    assert out.shape == (0,)
    # balls at distance 10: no subset of two or more points is active
    X = 10.0 * np.arange(4.0)[None, :, None] * np.ones((5, 4, 2))
    radii, scales = [1.0, 0.5, 0.8, 1.2], [0.3, 1.0, 0.6, 0.9]
    got = indicator_union_exponent(X, radii, scales, 1.3)
    assert np.array_equal(got, _per_subset_union_exponent(X, radii, scales,
                                                          1.3))
    assert got == pytest.approx(-1.3 * math.pi * np.dot(
        scales, np.square(radii)), rel=1e-12)


def test_indicator_union_exponent_memory_is_bounded():
    # m = 12 is the largest order asy_cov reaches at ENUM_CAP; a full
    # (4095 subsets x 300 rows) float table would take 9.8 MB. Points
    # spread over a wide box leave few subsets active, which keeps the
    # call short.
    m, n, bound = 2 * ENUM_CAP, 300, 4_000_000
    assert ((1 << m) - 1) * n * 8 > 2 * bound
    X = np.random.default_rng(5).uniform(-6.0, 6.0, size=(n, m, 2))
    indicator_union_exponent(X[:2], [1.0] * m, [0.7] * m, 1.0)
    tracemalloc.start()
    try:
        indicator_union_exponent(X, [1.0] * m, [0.7] * m, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def _triple_free_rows(n, m, d, seed):
    """n rows of m balls along a jittered chain: neighbours 1.5 apart, so
    some neighbour pairs overlap, and balls two links apart at least 2.6
    apart, so no three balls overlap pairwise. Radii in [0.8, 1)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.2, 0.2, size=(n, m, d))
    X[..., 0] += 1.5 * np.arange(m)
    return X, rng.uniform(0.8, 1.0, size=m), rng.uniform(0.3, 1.0, size=m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triple_free_rows_equal_per_subset_loop_at_order_12(d):
    # every subset of three or more points holds a 0.0 volume here, so
    # summing the singles and pairs alone changes no bit
    X, radii, scales = _triple_free_rows(4, 12, d, 82 + d)
    assert not _overlapping_triples(X, radii).any()
    assert np.array_equal(indicator_union_exponent(X, radii, scales, 1.3),
                          _per_subset_union_exponent(X, radii, scales, 1.3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triple_free_rows_list_no_subset_beyond_three_points(monkeypatch,
                                                             d):
    # only singles and pairs can be active on such a row, so neither the
    # routing nor the table lists the 2^m - 1 subsets
    from rcmlab import moments
    listed = []
    subsets = moments._subsets

    def counted(*args):
        out = subsets(*args)
        listed.append(len(out[0]))
        return out

    monkeypatch.setattr(moments, "_subsets", counted)
    for m in (12, 16):
        X, radii, scales = _triple_free_rows(4, m, d, 70 + m + d)
        assert not _overlapping_triples(X, radii).any()
        listed.clear()
        indicator_union_exponent(X, radii, scales, 1.3)
        assert listed and max(listed) <= m + math.comb(m, 2) + math.comb(m, 3)


def test_triple_free_row_memory_is_bounded_from_a_cold_cache():
    # a full m = 16 subset table holds a (65,535 x 120) float pair matrix,
    # 63 MB, before any volume is taken
    from rcmlab import moments
    X, radii, scales = _triple_free_rows(1, 16, 2, 7)
    moments._subsets.cache_clear()
    tracemalloc.start()
    try:
        indicator_union_exponent(X, radii, scales, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("d", [1, 2, 3])
def test_overlapping_triples_equal_a_loop_over_the_triples(d):
    # spreads from packed to sparse give rows with and without triples;
    # a pair of balls that touch is disjoint
    rng = np.random.default_rng(60 + d)
    for m in range(1, 13):
        for spread in (0.3, 1.0, 2.5):
            X = rng.normal(size=(150, m, d)) * spread
            radii = rng.uniform(0.3, 1.2, m)
            if m > 1:
                X[0, 1] = X[0, 0] + np.eye(d)[0] * (radii[0] + radii[1])
            dist = np.sqrt(squared_lengths(
                np.moveaxis(X[:, :, None] - X[:, None], -1, 0)))
            apart = dist >= radii[:, None] + radii[None, :]
            expect = np.zeros(len(X), dtype=bool)
            for a, b, c in itertools.combinations(range(m), 3):
                expect |= ~(apart[:, a, b] | apart[:, a, c] | apart[:, b, c])
            assert np.array_equal(_overlapping_triples(X, radii), expect)


def test_triple_routing_memory_is_bounded_in_rows():
    # the routing once held a (3-subsets x pairs) @ (pairs x rows) float
    # product for all rows at once: 52.9 MB here
    X, radii, scales = _triple_free_rows(20_000, 12, 2, 9)
    indicator_union_exponent(X[:2], radii, scales, 1.0)
    tracemalloc.start()
    try:
        assert not _overlapping_triples(X, radii).any()
        routing = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        indicator_union_exponent(X, radii, scales, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert routing < 1_000_000
    # X[rows] is a 3.8 MB copy of X
    assert peak < 8_000_000


# ---------------------------------------------------------------------------
# the indicator exponent from the arrangement of the balls (d <= 2)

def _loop_sums(X, radii, scales, n_nodes=64):
    """The arrangement's sum by the per-subset loop: the exponent of the
    whole tuple (without beta)."""
    return _per_subset_union_exponent(X, np.asarray(radii),
                                      np.asarray(scales), 1.0, n_nodes)


@st.composite
def _interval_tuples(draw):
    """Rows of up to 8 intervals with unequal radii and scales, ends
    often on a grid of quarters, so ends coincide and intervals nest,
    touch or repeat."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    quarter = st.integers(-8, 8).map(lambda i: i / 4.0)
    centers = draw(st.lists(st.one_of(st.floats(-2.0, 2.0), quarter),
                            min_size=n * m, max_size=n * m))
    radii = draw(st.lists(st.one_of(st.floats(0.2, 1.5),
                                    st.sampled_from([0.25, 0.5, 1.0])),
                          min_size=m, max_size=m))
    scales = draw(st.lists(st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
                           min_size=m, max_size=m))
    return (np.array(centers).reshape(n, m, 1), np.array(radii),
            np.array(scales))


@settings(max_examples=150, deadline=None)
@given(_interval_tuples())
def test_arrangement_equals_the_exact_table_in_d1(case):
    # in d = 1 the table's intersections are exact interval overlaps
    X, radii, scales = case
    np.testing.assert_allclose(_arrangement_sums(X, radii, scales),
                               _loop_sums(X, radii, scales), rtol=1e-12)


def test_arrangement_is_within_the_fine_table_in_d2():
    # the 1024-node slicing rule is within about 1e-7 of exact here; the
    # kernels' 64-node rule is off by up to 3e-4 on such rows
    rng = np.random.default_rng(30)
    for m in range(2, 7):
        X = rng.uniform(-1.0, 1.0, size=(5, m, 2))
        radii = rng.uniform(0.5, 1.1, size=m)
        scales = np.where(rng.random(m) < 0.3, 1.0, rng.uniform(0.2, 1.0, m))
        np.testing.assert_allclose(
            _arrangement_sums(X, radii, scales),
            _loop_sums(X, radii, scales, n_nodes=1024), rtol=1e-6,
            err_msg=str(m))


@settings(max_examples=200, deadline=None)
@given(_ball_pairs().filter(lambda balls: balls[0].shape[1] <= 2),
       st.floats(0.05, 1.0), st.sampled_from([0.3, 1.0]))
def test_arrangement_of_two_balls_is_the_exact_lens(balls, p1, p2):
    centers, radii = balls
    d = centers.shape[1]
    scales = np.array([p1, p2])
    lens = _two_ball_volume(centers[:, None], radii[:, None])[0]
    expect = -np.dot(scales, unit_ball_volume(d) * radii ** d) \
        + p1 * p2 * lens
    got = _arrangement_sums(centers[None], radii, scales)
    assert abs(got[0] - expect) <= \
        1e-12 * unit_ball_volume(d) * radii.max() ** d


def _cover_integral(cells):
    """integral(prod(1 - p) - 1) over disjoint cells, each given as its
    volume and the scales of the balls that cover it."""
    return sum(vol * (np.prod(1.0 - np.asarray(ps)) - 1.0)
               for vol, ps in cells)


@pytest.mark.parametrize("d", [1, 2])
def test_arrangement_of_degenerate_balls(d):
    # each case by its cells: coincident equal balls share one boundary,
    # which must count once; nested, internally and externally tangent
    # and disjoint balls
    k = unit_ball_volume(d)
    p = np.array([0.6, 1.0, 0.3])
    e = np.eye(d)[0]
    cases = {
        "coincident": (np.array([e, e, e]) * 0.3, np.ones(3), [(k, p)]),
        "concentric": (np.zeros((3, d)), np.array([1.0, 0.7, 0.4]),
                       [(k * (1 - 0.7 ** d), p[:1]),
                        (k * (0.7 ** d - 0.4 ** d), p[:2]),
                        (k * 0.4 ** d, p)]),
        # a ball inside two coincident ones, touching their boundary
        "inner tangent": (np.array([0 * e, 0.5 * e, 0 * e]),
                          np.array([1.0, 0.5, 1.0]),
                          [(k * (1 - 0.5 ** d), p[[0, 2]]),
                           (k * 0.5 ** d, p)]),
        # a ball touching two coincident ones from outside
        "outer tangent": (np.array([-e, e, -e]), np.ones(3),
                          [(k, p[[0, 2]]), (k, p[1:2])]),
        "disjoint": (np.array([-3 * e, 0 * e, 3 * e]), np.ones(3),
                     [(k, p[:1]), (k, p[1:2]), (k, p[2:])]),
    }
    for name, (centers, radii, cells) in cases.items():
        got = _arrangement_sums(centers[None], radii, p)
        assert got[0] == pytest.approx(_cover_integral(cells), rel=1e-12), \
            name
        # the public exponent, whichever route the row takes
        assert indicator_union_exponent(centers[None], radii, p, 1.0)[0] \
            == pytest.approx(got[0], rel=1e-12), name


@pytest.mark.parametrize("d", [1, 2])
def test_arrangement_sums_with_phi_and_psi_balls(d):
    # q_kl's joint tuple, with the first cluster's balls of one radius and
    # scale and the second's of another, against the per-subset loop
    rng = np.random.default_rng(40 + d)
    pairs = [((1.0, 1.0), (0.7, 0.6)), ((1.2, 0.8), (1.0, 1.0)),
             ((0.9, 0.5), (0.6, 0.3))]
    for (r1, p1), (r2, p2) in pairs:
        for k, l in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 3)]:
            X = rng.uniform(-0.9, 0.9, size=(8, k + l, d))
            radii = np.array([r1] * k + [r2] * l)
            scales = np.array([p1] * k + [p2] * l)
            assert np.any(_overlapping_triples(X, radii))
            np.testing.assert_allclose(
                indicator_union_exponent(X, radii, scales, 1.0),
                _loop_sums(X, radii, scales, n_nodes=1024 if d == 2 else 64),
                rtol=1e-12 if d == 1 else 1e-6,
                err_msg=str((r1, p1, r2, p2, k, l)))


@pytest.mark.parametrize("d", [1, 2])
def test_arrangement_rows_do_not_depend_on_their_block(monkeypatch, d):
    from rcmlab import moments
    rng = np.random.default_rng(50 + d)
    X = rng.uniform(-1.0, 1.0, size=(300, 6, d))
    radii = np.array([1.0, 1.0, 1.0, 0.7, 0.7, 0.7])
    scales = np.array([1.0, 1.0, 1.0, 0.6, 0.6, 0.6])
    whole = _arrangement_sums(X, radii, scales)
    monkeypatch.setattr(moments, "_BLOCK_ELEMENTS", 1)
    assert np.array_equal(_arrangement_sums(X, radii, scales), whole)


@pytest.mark.parametrize("radii,scales,name", [
    ([1.0, 1.0], [1.0, 1.0, 1.0], "radii"),
    ([1.0] * 4, [1.0] * 3, "radii"),
    ([1.0] * 3, [1.0, 1.0], "scales"),
    ([1.0] * 3, [[1.0] * 3], "scales"),
    ([1.0, -1.0, 1.0], [1.0] * 3, "radii"),
    ([1.0, 0.0, 1.0], [1.0] * 3, "radii"),
    ([1.0, math.inf, 1.0], [1.0] * 3, "radii"),
    ([1.0, math.nan, 1.0], [1.0] * 3, "radii"),
    ([1.0] * 3, [1.0, 2.0, 1.0], "scales"),
    ([1.0] * 3, [1.0, 0.0, 1.0], "scales"),
    ([1.0] * 3, [1.0, -0.5, 1.0], "scales"),
    ([1.0] * 3, [1.0, math.nan, 1.0], "scales"),
])
def test_indicator_union_exponent_refuses_bad_balls(radii, scales, name):
    X = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4, 3, 2))
    with pytest.raises(ValueError, match=f"^{name}: "):
        indicator_union_exponent(X, radii, scales, 1.0)


@pytest.mark.parametrize("widths", [
    [1.0, 1.0], [1.0] * 4, [[1.0] * 3], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0],
    [1.0, math.nan, 1.0], [1.0, math.inf, 1.0],
])
def test_gaussian_union_exponent_refuses_bad_widths(widths):
    # a width of -1 used to be taken as 1, one of 0, NaN or inf gave NaN
    X = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4, 3, 2))
    with pytest.raises(ValueError, match="^widths: "):
        gaussian_union_exponent(X, widths, 1.0)


def test_union_exponents_refuse_a_tuple_of_no_points():
    X = np.zeros((4, 0, 2))
    with pytest.raises(ValueError, match="^radii: "):
        indicator_union_exponent(X, [], [], 1.0)
    with pytest.raises(ValueError, match="^widths: "):
        gaussian_union_exponent(X, [], 1.0)


def _per_pair_cross_phibar(X1, X2, phi):
    """The inter-cluster factor one row and one pair at a time: the
    distances in scalar arithmetic, then per point of X1 the product over
    X2's points, multiplied into the row's value in X1's order."""
    n, k, d = X1.shape
    dist = np.empty((n, k, X2.shape[1]))
    for row in range(n):
        for i, x in enumerate(X1[row]):
            for j, y in enumerate(X2[row]):
                sq = (y[0] - x[0]) * (y[0] - x[0])
                for a in range(1, d):
                    sq = sq + (y[a] - x[a]) * (y[a] - x[a])
                dist[row, i, j] = math.sqrt(sq)
    phibar = 1.0 - phi.phi_of_dist(dist)
    out = np.empty(n)
    for row in range(n):
        cross = 1.0
        for i in range(k):
            part = 1.0
            for value in phibar[row, i]:
                part = part * value
            cross = cross * part
        out[row] = cross
    return out


def _three_call_q_kl(X1, X2, phi, psi, beta):
    """q_kl with the joint and the two cluster exponents from three
    separate calls."""
    k, l = X1.shape[1], X2.shape[1]
    e_joint = mixed_exponent(np.concatenate([X1, X2], axis=1),
                             [phi] * k + [psi] * l, beta)
    e1 = mixed_exponent(X1, [phi] * k, beta)
    e2 = mixed_exponent(X2, [psi] * l, beta)
    if phi.kind == "gaussian":
        # factors below 1 of many values: the product's bits depend on
        # its order
        cross = _per_pair_cross_phibar(X1, X2, phi)
    else:
        cross = np.prod(1.0 - phi.phi_of_dist(np.linalg.norm(
            X1[:, :, None, :] - X2[:, None, :, :], axis=-1)), axis=(1, 2))
    return cross * np.exp(e_joint) - np.exp(e1 + e2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_kl_exponents_equal_three_separate_calls(d):
    rng = np.random.default_rng(70 + d)
    pairs = [(ConnectionFunction("gilbert", d, r=1.0),
              ConnectionFunction("scaled_indicator", d, r=0.7, p=0.6)),
             (ConnectionFunction("gaussian", d, s=1.0),
              ConnectionFunction("gaussian", d, s=0.6))]
    for phi, psi in pairs:
        for k, l in [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)]:
            for second in (phi, psi):
                X1 = rng.uniform(-0.8, 0.8, size=(40, k, d))
                X2 = rng.uniform(-0.8, 0.8, size=(40, l, d)) \
                    + rng.uniform(-2.0, 2.0, size=(40, 1, d))
                got = q_kl(X1, X2, phi, second, 1.2)
                ref = _three_call_q_kl(X1, X2, phi, second, 1.2)
                assert np.any(got != 0), (phi.kind, k, l)
                assert np.array_equal(got, ref), (phi.kind, k, l)


def _per_copy_prob_isomorphic(pe, G):
    """prob_isomorphic one labeled copy at a time."""
    qe = 1.0 - pe
    out = np.zeros(len(pe))
    for bits in iso_masks(G):
        out += np.prod(np.where(bits[None, :], pe, qe), axis=1)
    return out


def _per_copy_joint_prob_coupled(pe_phi, pe_psi, G, H):
    """joint_prob_coupled one nested pair of copies at a time."""
    if G.order != H.order:
        return np.zeros(len(pe_phi))
    out = np.zeros(len(pe_phi))
    for mphi in iso_masks(G):
        for mpsi in iso_masks(H):
            if np.any(mpsi & ~mphi):
                continue
            band = np.where(mpsi[None, :], pe_psi,
                            np.where(mphi[None, :], pe_phi - pe_psi,
                                     1.0 - pe_phi))
            out += np.prod(band, axis=1)
    return out


def _star(k):
    adj = np.zeros((k, k), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return canonical_form(adj)


def _edge_probabilities(rng, n, k):
    """Per-pair probabilities with exact 0s and 1s, as Gilbert kinds
    give, and values between; psi's below phi's."""
    npairs = k * (k - 1) // 2
    pe_phi = rng.choice([0.0, 1.0, 0.3, 0.85], size=(n, npairs))
    pe_phi[n // 2:] = rng.uniform(0.0, 1.0, size=(n - n // 2, npairs))
    pe_psi = pe_phi * rng.choice([0.0, 0.5, 1.0], size=pe_phi.shape)
    return pe_phi, pe_psi


def test_class_probabilities_equal_per_copy_loops(monkeypatch):
    # one copy per block, three (40 products of 12 rows), or every copy
    # in one block; and one row alone
    from rcmlab import moments
    rng = np.random.default_rng(80)
    groups = [enumerate_classes(k) for k in range(2, 6)]
    groups.append([path_class(6), _star(6)])
    for classes in groups:
        pe_phi, pe_psi = _edge_probabilities(rng, 12, classes[0].order)
        for G in classes:
            ref = _per_copy_prob_isomorphic(pe_phi, G)
            joint = [_per_copy_joint_prob_coupled(pe_phi, pe_psi, G, H)
                     for H in classes]
            for block in (1, 40, 2 ** 30):
                monkeypatch.setattr(moments, "_BLOCK_ELEMENTS", block)
                assert np.array_equal(prob_isomorphic(pe_phi, G), ref)
                assert prob_isomorphic(pe_phi[-1:], G)[0] == ref[-1]
                for H, expect in zip(classes, joint):
                    got = joint_prob_coupled(pe_phi, pe_psi, G, H)
                    assert np.array_equal(got, expect), (G, H, block)
    assert prob_isomorphic(np.zeros((0, 3)), path_class(3)).shape == (0,)


@st.composite
def _class_and_rows(draw):
    """A connected class of order 2..6 (a path, a star or any other) and
    per-pair probabilities that mix exact 0s, exact 1s and fractions."""
    k = draw(st.integers(2, 6))
    G = draw(st.one_of(st.just(path_class(k)), st.just(_star(k)),
                       st.sampled_from(enumerate_classes(k))))
    npairs = k * (k - 1) // 2
    value = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(0.0, 1.0, allow_subnormal=False))
    rows = draw(st.lists(st.lists(value, min_size=npairs, max_size=npairs),
                         min_size=1, max_size=8))
    return G, np.array(rows)


@settings(max_examples=60, deadline=None)
@given(case=_class_and_rows())
def test_prob_isomorphic_multiplies_only_rows_that_can_be_nonzero(case):
    # a row with more certain pairs (pe = 1) than G has edges, or fewer
    # possible pairs (pe > 0), is exactly 0 and takes no band products
    from rcmlab import moments
    G, pe = case
    m = int(iso_masks(G)[0].sum())
    seen = []
    band_products = moments._sum_band_products

    def recording(bands, codes):
        seen.append(bands[1].copy())
        return band_products(bands, codes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_sum_band_products", recording)
        got = prob_isomorphic(pe, G)
    assert np.array_equal(got, _per_copy_prob_isomorphic(pe, G))
    for rows in seen:
        assert np.all(np.count_nonzero(rows == 1.0, axis=1) <= m)
        assert np.all(np.count_nonzero(rows > 0.0, axis=1) >= m)


_NOT_CANONICAL = {"3:1-edge-and-vertex": GraphClass(3, 1),
                  "3:0-no-edge": GraphClass(3, 0),
                  "3:63-bits-beyond-pairs": GraphClass(3, 99)}

_CLASS_ESTIMATORS = {
    "intensity": lambda g: expected_count_intensity(
        g, SCALED, 1.0, n_samples=200, seed=1),
    "asy_cov-first": lambda g: asy_cov(g, edge_class(), GILBERT, GILBERT,
                                       1.0, n_samples=200, seed=1),
    "asy_cov-second": lambda g: asy_cov(edge_class(), g, GILBERT, GILBERT,
                                        1.0, n_samples=200, seed=1),
    "window-first": lambda g: finite_window_cov(
        g, edge_class(), GILBERT, GILBERT, Window("box", 2.0, 2), 1.0,
        n_samples=200, seed=1),
    "window-second": lambda g: finite_window_cov(
        edge_class(), g, GILBERT, GILBERT, Window("box", 2.0, 2), 1.0,
        n_samples=200, seed=1),
    "quadratic": lambda g: asy_var_quadratic(
        [1.0, 1.0], [edge_class(), g], GILBERT, 1.0, n_samples=200, seed=1),
}


@pytest.mark.parametrize("cls", list(_NOT_CANONICAL))
@pytest.mark.parametrize("estimator", list(_CLASS_ESTIMATORS))
def test_estimators_refuse_a_class_that_is_not_canonical(estimator, cls):
    g = _NOT_CANONICAL[cls]
    with pytest.raises(ValueError, match=(
            f"^class {g.class_id} is not the canonical id of a connected "
            f"graph of order <= 8$")):
        _CLASS_ESTIMATORS[estimator](g)


def _density_first_importance_mc(phi, beta, k, prob_fn, kernel_fn,
                                 n_samples, seed, second=None):
    """_importance_mc taking every draw's proposal density before the
    lexmin test: the reference it must match bit for bit."""
    from rcmlab import moments
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = np.random.default_rng(seed)
    prop1 = ClusterProposal(phi, k)
    if second is None:
        batch, n_points = moments._SINGLE_BATCH, k
        factor = 1.0 / math.factorial(k - 1)
    else:
        psi, l, anchor = second
        prop2 = ClusterProposal(psi, l)
        batch, n_points = moments._PAIR_BATCH, k + l
        factor = 1.0 / (math.factorial(k - 1) * math.factorial(l))
    weights = np.zeros(n_samples)
    for done in range(0, n_samples, batch):
        m = min(batch, n_samples - done)
        X1 = prop1.sample(rng, m)
        if second is None:
            Xs, dens = (X1,), prop1.density(X1)
        else:
            a2 = anchor.sample(rng, X1)
            X2rel = prop2.sample(rng, m)
            Xs = (X1, X2rel + a2[:, None, :])
            dens = prop1.density(X1) * anchor.density(X1, a2) \
                * prop2.density(X2rel)
        rows = np.flatnonzero(_is_anchor_lexmin(X1) & (dens > 0))
        p = prob_fn(*(X[rows] for X in Xs))
        live = p != 0
        rows, p = rows[live], p[live]
        if rows.size:
            weights[done + rows] = p * kernel_fn(*(X[rows] for X in Xs)) \
                * factor / dens[rows]
    return _mc_moment(weights, beta ** n_points, phi.truncation_radius())


_MONTE_CARLO_ESTIMATES = {
    "intensity-path4": lambda: expected_count_intensity(
        path_class(4), GILBERT, 1.0, n_samples=3000, seed=91),
    "intensity-edge-gauss": lambda: expected_count_intensity(
        edge_class(), GAUSS, 1.0, n_samples=300, seed=92),
    "asy_cov-path3-edge": lambda: asy_cov(
        path_class(3), edge_class(), GILBERT, SCALED, 1.0, n_samples=2000,
        seed=93),
    "asy_cov_kl-2-3": lambda: asy_cov_kl(2, 3, GILBERT, GILBERT, 1.0,
                                         n_samples=2000, seed=94),
    "window-box": lambda: finite_window_cov(
        path_class(3), edge_class(), GILBERT, GILBERT, Window("box", 3.0, 2),
        1.0, n_samples=3000, seed=95),
    "window-ball": lambda: finite_window_cov(
        edge_class(), edge_class(), GILBERT, SCALED, Window("ball", 2.0, 2),
        1.0, n_samples=3000, seed=96),
    "quadratic": lambda: asy_var_quadratic(
        [1.0, -0.5], [edge_class(), path_class(3)], GILBERT, 1.0,
        n_samples=1000, seed=97)[0],
    "total": lambda: sigma_total_partial(2, GILBERT, 1.0, n_samples=1000,
                                         seed=98)[0],
    # the benchmark's rho_k6: about 700 lexmin rows, about 20 of which
    # pass prob_isomorphic's count rule
    "intensity-path6": lambda: expected_count_intensity(
        path_class(6), GILBERT, 1.0, n_samples=4000, seed=7),
    # fractional pair probabilities pass the count rule
    "intensity-star4-scaled": lambda: expected_count_intensity(
        _star(4), SCALED, 1.0, n_samples=3000, seed=100),
    "intensity-edge-expo": lambda: expected_count_intensity(
        edge_class(), EXPO_1D, 1.0, n_samples=300, seed=101),
}


@pytest.mark.parametrize("name", list(_MONTE_CARLO_ESTIMATES))
def test_estimates_equal_density_first_reference(monkeypatch, name):
    from rcmlab import moments
    est = _MONTE_CARLO_ESTIMATES[name]()
    monkeypatch.setattr(moments, "_importance_mc",
                        _density_first_importance_mc)
    ref = _MONTE_CARLO_ESTIMATES[name]()
    assert est.value != 0
    assert est == ref


def test_cluster_density_sees_only_live_lexmin_rows(monkeypatch):
    # the probability comes before the density: ClusterProposal.density
    # sees exactly the lexmin rows whose probability is nonzero, in order
    seen = []
    density = ClusterProposal.density

    def recording_density(self, X):
        seen.append(X.copy())
        return density(self, X)

    monkeypatch.setattr(ClusterProposal, "density", recording_density)
    n, seed = 3000, 99
    expected_count_intensity(path_class(4), GILBERT, 1.0, n_samples=n,
                             seed=seed)
    X = ClusterProposal(GILBERT, 4).sample(np.random.default_rng(seed), n)
    X = X[_is_anchor_lexmin(X)]
    live = prob_isomorphic(_pair_values(X, GILBERT), path_class(4)) != 0
    assert 0 < live.sum() < len(X) < n
    assert len(seen) == 1 and np.array_equal(seen[0], X[live])
    # two clusters: the first cluster's rows and the second's relative
    # positions, both on the lexmin rows whose probability is nonzero.
    # Under Gilbert a cluster drawn along a tree is always connected, so
    # asy_cov_kl(2, 3) has no zero rows; the (edge, 3-path) covariance
    # draws the same orders and gives 0 where the 3-path closes a triangle
    seen.clear()
    asy_cov(edge_class(), path_class(3), GILBERT, GILBERT, 1.0,
            n_samples=n, seed=seed)
    rng = np.random.default_rng(seed)
    X1 = ClusterProposal(GILBERT, 2).sample(rng, n)
    a2 = AnchorProposal(GILBERT, widen=5.0).sample(rng, X1)
    X2rel = ClusterProposal(GILBERT, 3).sample(rng, n)
    lexmin = _is_anchor_lexmin(X1)
    X1, X2rel, a2 = X1[lexmin], X2rel[lexmin], a2[lexmin]
    live = (prob_isomorphic(_pair_values(X1, GILBERT), edge_class())
            * prob_isomorphic(_pair_values(X2rel + a2[:, None, :], GILBERT),
                              path_class(3))) != 0
    assert 0 < live.sum() < len(X1)
    assert len(seen) == 2
    assert np.array_equal(seen[0], X1[live])
    assert np.array_equal(seen[1], X2rel[live])
