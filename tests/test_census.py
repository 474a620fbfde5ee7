"""Canonical labeling, class enumeration, component census."""

import itertools
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmlab.census import (ComponentTable, GraphClass, canonical_form,
                           census, edge_class, enumerate_classes,
                           is_canonical, path_class, single_vertex_class)
from rcmlab.connection import ConnectionFunction
from rcmlab.geometry import Window
from rcmlab.marks import PairMarkSource
from rcmlab.sampling import PointSet, RcmBatch, build_rcm, sample_poisson


def _brute_canon(adj):
    """Minimum packed bitset over all permutations, straightforwardly."""
    k = len(adj)
    iu = list(zip(*np.triu_indices(k, 1)))
    best = None
    for perm in itertools.permutations(range(k)):
        bits = 0
        for b, (i, j) in enumerate(iu):
            if adj[perm[i], perm[j]]:
                bits |= 1 << b
        best = bits if best is None else min(best, bits)
    return best


def _connected(adj):
    k = len(adj)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(k):
            if adj[v, w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == k


def test_class_counts_small_orders():
    # connected graphs up to isomorphism on 1..5 vertices
    for k, expect in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)]:
        assert len(enumerate_classes(k)) == expect


@pytest.mark.parametrize("k", [2, 3, 4])
def test_canonical_matches_brute_force_exhaustive(k):
    iu = np.triu_indices(k, 1)
    n_bits = len(iu[0])
    for bits in range(1 << n_bits):
        adj = np.zeros((k, k), dtype=bool)
        vals = [(bits >> b) & 1 for b in range(n_bits)]
        adj[iu] = np.array(vals, dtype=bool)
        adj |= adj.T
        if not _connected(adj):
            continue
        assert canonical_form(adj).canon == _brute_canon(adj)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 10 - 1))
def test_canonical_matches_brute_force_k5(bits):
    adj = np.zeros((5, 5), dtype=bool)
    iu = np.triu_indices(5, 1)
    adj[iu] = np.array([(bits >> b) & 1 for b in range(10)], dtype=bool)
    adj |= adj.T
    if not _connected(adj):
        return
    assert canonical_form(adj).canon == _brute_canon(adj)


def test_canonical_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = rng.integers(2, 7)
        adj = np.zeros((k, k), dtype=bool)
        # random connected graph: random tree plus extra edges
        for v in range(1, k):
            u = rng.integers(0, v)
            adj[u, v] = adj[v, u] = True
        for _ in range(k):
            u, v = rng.integers(0, k, 2)
            if u != v:
                adj[u, v] = adj[v, u] = True
        base = canonical_form(adj)
        perm = rng.permutation(k)
        assert canonical_form(adj[np.ix_(perm, perm)]) == base


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        canonical_form(np.ones((2, 2), dtype=bool))       # diagonal set
    with pytest.raises(ValueError):
        canonical_form(np.zeros((3, 3), dtype=bool))      # disconnected
    with pytest.raises(ValueError):
        canonical_form(np.zeros((9, 9), dtype=bool))      # too large
    with pytest.raises(ValueError):
        canonical_form(np.zeros((0, 0), dtype=bool))      # no vertex


def test_named_classes():
    assert single_vertex_class() == GraphClass(1, 0)
    assert edge_class() == GraphClass(2, 1)
    assert path_class(2) == edge_class()
    assert path_class(3).order == 3
    assert path_class(3) != _triangle()
    cid = path_class(4).class_id
    assert GraphClass.from_class_id(cid) == path_class(4)


def _triangle():
    return canonical_form(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                   dtype=bool))


def test_class_adjacency_roundtrip():
    for k in range(1, 6):
        for cls in enumerate_classes(k):
            assert canonical_form(cls.adjacency()) == cls


def _graph(seed, extent=4.0, beta=1.0, r=1.0):
    w = Window("box", extent, 2)
    pts = sample_poisson(w, 2.0 * r, beta, seed)
    g = build_rcm(pts, ConnectionFunction("gilbert", 2, r=r),
                  PairMarkSource(seed))
    return w, g


def test_census_structural_identities():
    for seed in range(30):
        w, g = _graph(seed)
        rep = census(g, w, k_max=5)
        assert rep.alpha == sum(rep.order_counts_inside.values())
        for k in range(1, 6):
            by_class = sum(v for cid, v in rep.class_counts_lexmin.items()
                           if GraphClass.from_class_id(cid).order == k)
            assert by_class == rep.eta_k(k)
        # inside-counted components are a subset of lexmin-counted ones
        assert rep.alpha <= sum(rep.order_counts_lexmin.values()) \
            + rep.boundary_touching


def test_census_boundary_rule():
    # one component near the region boundary is excluded and tallied
    w, g = _graph(17, extent=3.0)
    rep = census(g, w, k_max=5)
    region = g.points.region
    n_boundary = 0
    from rcmlab.census import component_labels
    labels = component_labels(g.n, g.edges)
    for root in set(labels):
        pos = g.points.points[labels == root]
        if np.min(region.boundary_distance(pos)) < g.rmax:
            n_boundary += 1
    assert rep.boundary_touching == n_boundary


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                max_size=40, unique=True),
       st.floats(0.3, 1.5), st.integers(0, 2 ** 32 - 1))
def test_table_and_census_match_networkx(coords, r, seed):
    """Components of small point sets, ids in arbitrary order, recounted
    with networkx, plain coordinate comparisons and brute-force classes."""
    k_max = 5
    region = Window("box", 3.0, 2)
    window = Window("box", 1.5, 2)
    pts = np.array(coords, dtype=float).reshape(-1, 2)
    g = build_rcm(PointSet(points=pts, seed=0, region=region, beta=1.0),
                  ConnectionFunction("gilbert", 2, r=r), PairMarkSource(seed))
    table = ComponentTable(g.batch, window, k_max)
    rep = census(g, window, k_max=k_max)

    graph = nx.empty_graph(len(pts))
    graph.add_edges_from(map(tuple, g.edges.tolist()))
    lexmin, inside = Counter(), Counter()
    lexmin_cls, inside_cls = Counter(), Counter()
    n_boundary = 0
    for comp in nx.connected_components(graph):
        ids = sorted(comp)
        sup = np.abs(pts[ids]).max(axis=1)
        lex = min(pts[i].tolist() for i in ids)
        (label,) = set(table.labels[ids])
        row = table[label]
        assert sorted(row.ids) == ids
        assert row.order == len(ids)
        assert row.lexmin_pos.tolist() == lex
        assert row.boundary == bool(np.min(3.0 - sup) < g.rmax)
        if row.boundary:
            n_boundary += 1
            assert row.canon == -1
            continue
        counted_lexmin = max(abs(lex[0]), abs(lex[1])) <= 1.5
        counted_inside = bool(np.all(sup <= 1.5))
        lexmin[len(ids)] += counted_lexmin
        inside[len(ids)] += counted_inside
        if len(ids) <= k_max:
            adj = nx.to_numpy_array(graph, nodelist=ids).astype(bool)
            assert row.canon == _brute_canon(adj)
            cid = GraphClass(len(ids), row.canon).class_id
            lexmin_cls[cid] += counted_lexmin
            inside_cls[cid] += counted_inside
        else:
            assert row.canon == -1
    assert len(table) == nx.number_connected_components(graph)
    assert rep.order_counts_lexmin == {k: v for k, v in lexmin.items() if v}
    assert rep.order_counts_inside == {k: v for k, v in inside.items() if v}
    assert rep.class_counts_lexmin == {
        c: v for c, v in lexmin_cls.items() if v}
    assert rep.class_counts_inside == {
        c: v for c, v in inside_cls.items() if v}
    assert rep.alpha == sum(inside.values())
    assert rep.boundary_touching == n_boundary


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gilbert", "gaussian"]), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(["window", "outside", "band"]), min_size=1,
                max_size=3),
       st.integers(0, 5))
def test_merged_component_equals_a_table_from_scratch(kind, seed, where,
                                                      k_max):
    """Each merged component that ComponentTable.merged gives for a
    group of fresh points equals the row of a table built on the points
    and edges with the fresh points appended (fresh id -1 - k as id
    n + k), the merged components in order of their first fresh point,
    each joining every row it contains once."""
    phi = (ConnectionFunction("gilbert", 2, r=0.8) if kind == "gilbert"
           else ConnectionFunction("gaussian", 2, s=0.3))
    window = Window("box", 1.0, 2)
    pts = sample_poisson(window, 1.5, 1.5, seed)
    g = build_rcm(pts, phi, PairMarkSource(seed))
    region, rmax = pts.region, g.rmax
    rng = np.random.default_rng(seed)
    pos = []
    for w in where:
        if w == "window":
            pos.append(rng.uniform(-1.0, 1.0, 2))
        elif w == "outside":
            pos.append(rng.uniform(1.0, region.extent - rmax, 2)
                       * rng.choice([-1.0, 1.0], 2))
        else:
            p = rng.uniform(-region.extent, region.extent, 2)
            p[rng.integers(2)] = region.extent - rng.uniform(0.0, rmax)
            pos.append(p)
    ids = [-1 - k for k in range(len(pos))]
    fresh = g.fresh_edges(list(zip(pos, ids)))

    n = g.n
    aug = np.where(fresh < 0, n - 1 - fresh, fresh)
    points = np.concatenate([pts.points, pos])
    edges = np.concatenate([g.edges, np.sort(aug, axis=1)])
    whole = ComponentTable(RcmBatch(points, edges, np.array([0, len(points)]),
                                    np.array([0, len(edges)]), region, rmax),
                           window, k_max)
    base = ComponentTable(g.batch, window, k_max)
    ins = np.zeros(len(pos), dtype=np.int64)
    rows = base.merged(ins, np.array(pos),
                       *g.batch.fresh_edges(ins, ins, ids, pos))
    comps = list(dict.fromkeys(whole.labels[n:].tolist()))
    assert len(rows.order) == len(comps)
    assert rows.insertion.tolist() == [0] * len(comps)
    for m, c in enumerate(comps):
        roots = rows.roots[rows.joins == m].tolist()
        assert len(roots) == len(set(roots))
        assert set(roots) == set(base.labels[whole.labels[:n] == c].tolist())
        row = whole[c]
        assert rows.order[m] == row.order
        assert rows.n_inside[m] == row.n_inside
        assert rows.boundary[m] == row.boundary
        assert rows.lexmin_pos[m].tolist() == row.lexmin_pos.tolist()
        assert rows.lexmin_inside[m] == row.lexmin_inside
        assert rows.canon[m] == row.canon


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_is_canonical_accepts_exactly_the_enumerated_classes(k):
    # every class id of order k whose canon fits the k-choose-2 pair bits,
    # and one more with a bit beyond them
    npairs = k * (k - 1) // 2
    accepted = {GraphClass(k, c) for c in range(1 << npairs)
                if is_canonical(GraphClass(k, c))}
    assert accepted == set(enumerate_classes(k))
    assert not is_canonical(GraphClass(k, 1 << npairs))


@pytest.mark.parametrize("g", [GraphClass(3, 99), GraphClass(0, 0),
                               GraphClass(9, 1)],
                         ids=["3:63", "0:0", "9:1"])
def test_is_canonical_refuses_ids_beyond_the_pairs_or_order_range(g):
    assert not is_canonical(g)
