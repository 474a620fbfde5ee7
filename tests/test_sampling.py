"""Poisson sampling and RCM construction."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rcmlab.connection import ConnectionFunction
from rcmlab.geometry import Window
from rcmlab.marks import PairMarkSource
from rcmlab.sampling import PointSet, build_coupled, build_rcm, sample_poisson


def test_sample_deterministic_and_sorted():
    w = Window("box", 3.0, 2)
    a = sample_poisson(w, 1.0, 1.0, 42)
    b = sample_poisson(w, 1.0, 1.0, 42)
    np.testing.assert_array_equal(a.points, b.points)
    for u, v in zip(a.points[:-1], a.points[1:]):
        assert tuple(u) < tuple(v)
    assert a.region.extent == 4.0


def test_sample_count_distribution():
    w = Window("box", 4.0, 2)
    counts = [sample_poisson(w, 0.0, 2.0, s).n for s in range(300)]
    mean = np.mean(counts)
    expect = 2.0 * w.volume
    assert abs(mean - expect) < 3.0 * np.sqrt(expect / 300)


def test_beta_validation():
    with pytest.raises(ValueError):
        sample_poisson(Window("box", 1.0, 2), 0.0, 0.0, 0)


def test_build_rcm_edges_follow_marks():
    w = Window("box", 4.0, 2)
    pts = sample_poisson(w, 0.0, 1.0, 3)
    phi = ConnectionFunction("scaled_indicator", 2, p=0.7, r=1.2)
    marks = PairMarkSource(3)
    g = build_rcm(pts, phi, marks)
    edge_set = set(map(tuple, g.edges))
    for i in range(pts.n):
        for j in range(i + 1, pts.n):
            d = float(np.linalg.norm(pts.points[i] - pts.points[j]))
            expect = marks.mark(i, j) <= phi.phi_of_dist(d)
            assert ((i, j) in edge_set) == expect
    assert np.all(g.edges[:, 0] < g.edges[:, 1])


def test_neighbors_of_point_consistent():
    w = Window("box", 3.0, 2)
    pts = sample_poisson(w, 0.0, 1.0, 9)
    phi = ConnectionFunction("gilbert", 2, r=1.0)
    g = build_rcm(pts, phi, PairMarkSource(9))
    x = np.array([0.25, -0.5])
    n1 = g.neighbors_of_point(x, -1)
    n2 = g.neighbors_of_point(x, -1)
    np.testing.assert_array_equal(n1, n2)
    # gilbert: neighbors are exactly the points within distance r
    d = np.linalg.norm(pts.points - x, axis=1)
    np.testing.assert_array_equal(n1, np.flatnonzero(d <= 1.0))


def test_one_kdtree_per_graph(monkeypatch):
    """neighbors_of_point reuses the kd-tree that built the edge set."""
    from rcmlab import sampling
    built = []

    def counting_tree(points):
        built.append(len(points))
        return cKDTree(points)

    monkeypatch.setattr(sampling, "cKDTree", counting_tree)
    w = Window("box", 3.0, 2)
    phi = ConnectionFunction("gilbert", 2, r=1.0)
    psi = ConnectionFunction("gilbert", 2, r=0.5)
    pts = sample_poisson(w, 0.0, 1.0, 4)
    g = build_rcm(pts, phi, PairMarkSource(4))
    g.neighbors_of_point(np.array([0.1, 0.2]), -1)
    g_phi, g_psi = build_coupled(pts, phi, psi, PairMarkSource(4))
    g_phi.neighbors_of_point(np.array([0.1, 0.2]), -1)
    g_psi.neighbors_of_point(np.array([0.1, 0.2]), -1)
    assert built == [pts.n, pts.n]
    assert g_psi.rmax == g_phi.rmax


def test_coupled_edges_nested():
    w = Window("box", 4.0, 2)
    phi = ConnectionFunction("gilbert", 2, r=1.0)
    psi = ConnectionFunction("scaled_indicator", 2, p=0.5, r=1.0)
    for seed in range(30):
        pts = sample_poisson(w, 0.0, 1.0, seed)
        g_phi, g_psi = build_coupled(pts, phi, psi, PairMarkSource(seed))
        e_phi = set(map(tuple, g_phi.edges))
        e_psi = set(map(tuple, g_psi.edges))
        assert e_psi <= e_phi
        # the same edges as a graph built from psi alone
        alone = build_rcm(pts, psi, PairMarkSource(seed))
        assert e_psi == set(map(tuple, alone.edges))


def test_coupled_requires_domination():
    w = Window("box", 2.0, 2)
    pts = sample_poisson(w, 0.0, 1.0, 0)
    phi = ConnectionFunction("gilbert", 2, r=1.0)
    big = ConnectionFunction("gilbert", 2, r=2.0)
    with pytest.raises(ValueError):
        build_coupled(pts, phi, big, PairMarkSource(0))


def test_dimension_mismatch():
    pts = sample_poisson(Window("box", 2.0, 2), 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        build_rcm(pts, ConnectionFunction("gilbert", 3, r=1.0),
                  PairMarkSource(0))


def test_fresh_pairs_follow_the_base_edge_rule():
    """A pair of points at the Gilbert radius, give or take one ulp, is
    joined alike when both are fresh, when one is, and in build_rcm."""
    rng = np.random.default_rng(11)
    marks = PairMarkSource(0)
    for dim in (1, 2, 3):
        region = Window("box", 5.0, dim)

        def graph(pts, phi):
            return build_rcm(PointSet(points=np.reshape(pts, (-1, dim)),
                                      seed=0, region=region, beta=1.0),
                             phi, marks)
        for _ in range(60):
            a = rng.uniform(-2.0, 2.0, dim)
            b = a + rng.normal(0.0, 1.0, dim)
            for d in (np.linalg.norm(a - b), np.sqrt(np.sum((a - b) ** 2))):
                for r in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
                    phi = ConnectionFunction("gilbert", dim, r=float(r))
                    joined = len(graph([a, b], phi).edges)
                    assert len(graph([a], phi).fresh_edges([(b, -1)])) \
                        == joined
                    assert len(graph([], phi).fresh_edges(
                        [(a, -1), (b, -2)])) == joined
