"""Batched realizations: many graphs built and labelled as one union.

Every realization of a batch must be the graph, component table and
functional values that the same points and marks give alone, and those
must agree with a brute-force rebuild recounted with networkx.
"""

import dataclasses
import pathlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from rcmlab import analysis, marks as marks_mod, sampling
from rcmlab.analysis import (EvaluationContext, FunctionalSpec,
                             _SplitMarkSource, birth_time_variance,
                             cluster_tail, gamma_terms,
                             pilot_standardization, poincare_bound)
from rcmlab.census import (ComponentTable, canonical_form, component_table,
                           edge_class, path_class, single_vertex_class)
from rcmlab.connection import ConnectionFunction
from rcmlab.experiments import (emit, load_scenario, replicate_graphs,
                                run_scenario)
from rcmlab.geometry import Window, lex_order
from rcmlab.marks import PairMarkSource
from rcmlab.sampling import PointSet, build_rcm, build_rcm_batch

REGION = Window("box", 2.5, 2)
WINDOW = Window("box", 1.0, 2)
PHIS = {"gilbert": ConnectionFunction("gilbert", 2, r=1.0),
        "gaussian": ConnectionFunction("gaussian", 2, s=0.4)}
TABLE_ROWS = ("order", "n_inside", "boundary", "lexmin", "lexmin_inside",
              "canon", "labels", "vertices", "vertex_start", "edge_start",
              "realization")


def _specs(phi):
    classes = (single_vertex_class(), edge_class(), path_class(3))
    return [
        FunctionalSpec("count_order", WINDOW, phi, 1.0, k=2),
        FunctionalSpec("count_order", WINDOW, phi, 1.0, k=1, mode="inside"),
        FunctionalSpec("total_components", WINDOW, phi, 1.0),
        FunctionalSpec("count_class", WINDOW, phi, 1.0, cls=path_class(3)),
        FunctionalSpec("weighted", WINDOW, phi, 1.0, a=(0.3, -1.7, 2.9),
                       classes=classes),
    ]


def _recount(spec, points, marks, rmax, additions):
    """f of the points plus fresh points: every pair within rmax is
    tested with its mark, networkx finds the components, and the window,
    boundary and lexicographic-minimum rules are applied to coordinates.
    The components' counts, one per weight, are summed as integers and
    combined as a0*N0 + a1*N1 + ... in the order of a from +0.0."""
    pts = np.vstack([points] + [np.asarray(p)[None] for p, _ in additions])
    ids = np.array(list(range(len(points))) + [i for _, i in additions])
    graph = nx.empty_graph(len(pts))
    a, b = np.triu_indices(len(pts), 1)
    dist = np.linalg.norm(pts[a] - pts[b], axis=1)
    near = dist <= rmax
    a, b, dist = a[near], b[near], dist[near]
    if len(a):
        joined = (np.atleast_1d(marks.mark(ids[a], ids[b]))
                  <= spec.phi.phi_of_dist(dist))
        graph.add_edges_from(zip(a[joined].tolist(), b[joined].tolist()))
    inside = spec.window.contains(pts) if len(pts) else np.zeros(0, bool)
    weights = spec.a if spec.statistic == "weighted" else (1.0,)
    classes = (spec.cls,) if spec.statistic == "count_class" else spec.classes
    n = [0] * len(weights)
    for members in nx.connected_components(graph):
        idx = sorted(members)
        if np.min(REGION.boundary_distance(pts[idx])) < rmax:
            continue
        if spec.statistic == "total_components":
            n[0] += int(np.all(inside[idx]))
            continue
        counted = (inside[idx][lex_order(pts[idx])[0]]
                   if spec.mode == "lexmin" else np.all(inside[idx]))
        if not counted:
            continue
        if spec.statistic == "count_order":
            n[0] += int(len(idx) == spec.k)
        elif len(idx) <= 3:
            cls = canonical_form(
                nx.to_numpy_array(graph.subgraph(idx), dtype=bool))
            n = [m + int(cls == c) for m, c in zip(n, classes)]
    value = 0.0
    for w, m in zip(weights, n):
        value += w * m
    return value


def _edge_set(edges):
    return set(map(tuple, edges.tolist()))


@st.composite
def batches(draw):
    """1-6 point sets on REGION (some empty or single points), a mark
    source for each (all plain or all split, as a batch is of one mark
    source class), and a connection function."""
    phi = PHIS[draw(st.sampled_from(sorted(PHIS)))]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    split = draw(st.booleans())
    rng = np.random.default_rng(seed)
    sets, sources = [], []
    for r in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from([0, 1, 2, 5, 12, 25]))
        pts = rng.uniform(-2.5, 2.5, (n, 2))
        sets.append(PointSet(points=pts, seed=r, region=REGION, beta=1.0))
        if split:
            sources.append(_SplitMarkSource(
                PairMarkSource(seed + r), PairMarkSource(seed + 100 + r),
                draw(st.integers(0, n))))
        else:
            sources.append(PairMarkSource(seed + r))
    fresh = rng.uniform(-1.6, 1.6, (len(sets), 2))
    second = fresh + rng.normal(0.0, 0.5, (len(sets), 2))
    return phi, sets, sources, fresh, second


@settings(max_examples=40, deadline=None)
@given(batches())
def test_batch_realizations_equal_alone_and_networkx(batch):
    phi, sets, sources, fresh, second = batch
    graphs = build_rcm_batch(sets, phi, sources)
    union = graphs[0].batch
    assert np.all(union.edges[:, 0] < union.edges[:, 1])
    for r, (g, pts, src) in enumerate(zip(graphs, sets, sources)):
        alone = build_rcm(pts, phi, src)
        assert g.points is pts and g.marks is src and g.rmax == alone.rmax
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert np.all(alone.edges[:, 0] < alone.edges[:, 1])
        assert _edge_set(g.edges) == _edge_set(alone.edges)
        # the union holds the same edges, shifted to union ids
        lo, hi = union.edge_starts[r], union.edge_starts[r + 1]
        assert np.array_equal(union.edges[lo:hi] - union.starts[r], g.edges)

        rows = component_table(g, WINDOW, 3)
        own = ComponentTable(alone.batch, WINDOW, 3)
        for name in TABLE_ROWS:
            assert np.array_equal(getattr(rows, name), getattr(own, name)), \
                name
        assert len(rows) == len(own)
        for c in own:
            assert _edge_set(rows[c].edges) == _edge_set(own[c].edges)
            assert np.array_equal(rows[c].ids, own[c].ids)

        one = [(fresh[r], -1)]
        two = [(fresh[r], -1), (second[r], -2)]
        for spec in _specs(phi):
            ctx = EvaluationContext(g, spec)
            ctx_alone = EvaluationContext(alone, spec)
            assert ctx.base_value == ctx_alone.base_value
            for additions in ([], one, two):
                value = ctx.value_with_additions(additions)
                assert value == ctx_alone.value_with_additions(additions)
                assert value == _recount(spec, pts.points, src, g.rmax,
                                         additions)


def test_single_and_batched_edges_are_ordered_pairs():
    """Candidate pairs come from the kd-tree as (i < j) rows, unsorted."""
    phi = PHIS["gaussian"]
    rng = np.random.default_rng(3)
    sets = [PointSet(points=rng.uniform(-2.5, 2.5, (n, 2)), seed=0,
                     region=REGION, beta=1.0) for n in (40, 0, 1, 60)]
    sources = [PairMarkSource(s) for s in range(len(sets))]
    for g in build_rcm_batch(sets, phi, sources):
        assert g.edges.dtype == np.int64
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
    alone = build_rcm(sets[3], phi, sources[3])
    assert len(alone.edges) > 0
    assert np.all(alone.edges[:, 0] < alone.edges[:, 1])


def test_batch_shares_one_kdtree(monkeypatch):
    built = []

    def counting_tree(points):
        built.append(len(points))
        return cKDTree(points)

    monkeypatch.setattr(sampling, "cKDTree", counting_tree)
    rng = np.random.default_rng(5)
    sets = [PointSet(points=rng.uniform(-2.5, 2.5, (n, 2)), seed=0,
                     region=REGION, beta=1.0) for n in (10, 20, 30)]
    graphs = build_rcm_batch(sets, PHIS["gilbert"],
                             [PairMarkSource(s) for s in range(3)])
    for g in graphs:
        g.neighbors_of_point(np.array([0.1, 0.2]), -1)
    assert built == [60]


def test_fresh_point_may_repeat_another_realizations_vertex():
    phi = PHIS["gilbert"]
    a = PointSet(points=np.array([[0.0, 0.0], [0.5, 0.0]]), seed=0,
                 region=REGION, beta=1.0)
    b = PointSet(points=np.array([[0.2, 0.3]]), seed=1, region=REGION,
                 beta=1.0)
    ga, gb = build_rcm_batch([a, b], phi,
                             [PairMarkSource(1), PairMarkSource(2)])
    spec = FunctionalSpec("total_components", WINDOW, phi, 1.0)
    # a vertex of realization a, inserted into realization b
    assert len(gb.fresh_edges([(a.points[0], -1)])) == 1
    assert EvaluationContext(gb, spec).value_with_additions(
        [(a.points[1], -1)]) == _recount(spec, b.points, gb.marks, gb.rmax,
                                         [(a.points[1], -1)])
    with pytest.raises(ValueError, match="duplicates"):
        ga.fresh_edges([(a.points[1], -1)])
    with pytest.raises(ValueError, match="duplicates"):
        gb.fresh_edges([(b.points[0], -2)])


def test_lexmin_ties_go_to_the_smallest_id():
    """Equal first coordinates are decided by the next one, and a point
    that repeats is the lexicographic minimum at its smallest id, as
    with a stable lexicographic sort."""
    region = Window("box", 10.0, 2)
    pts = np.array([[0.0, 1.0], [0.0, 0.0], [3.0, 3.0], [0.0, 0.0],
                    [1.0, -5.0], [3.0, 2.5], [3.0, 2.5]])
    g = build_rcm(PointSet(points=pts, seed=0, region=region, beta=1.0),
                  ConnectionFunction("gilbert", 2, r=1.5), PairMarkSource(0))
    table = ComponentTable(g.batch, Window("box", 5.0, 2), 0)
    for c in table:
        ids = np.flatnonzero(table.labels == c)
        expect = ids[lex_order(pts[ids])[0]]
        assert table.lexmin[c] == expect
    assert sorted(table.lexmin.tolist()) == [1, 4, 5]


def test_a_copy_with_other_edges_is_a_batch_of_its_own():
    """dataclasses.replace copies no cache: the copy's table and
    insertions follow its own edges, not those of its batch."""
    phi = PHIS["gilbert"]
    pts = PointSet(points=np.array([[0.0, 0.0], [0.5, 0.0], [1.2, 0.0]]),
                   seed=0, region=REGION, beta=1.0)
    g = build_rcm_batch([pts, pts], phi, [PairMarkSource(4)] * 2)[1]
    spec = FunctionalSpec("count_order", WINDOW, phi, 1.0, k=1)
    assert len(g.edges) == 2 and EvaluationContext(g, spec).base_value == 0
    cut = dataclasses.replace(g, edges=g.edges[:0])
    assert cut.batch is not g.batch and cut.index == 0
    assert list(component_table(cut, WINDOW, 0).order) == [1, 1, 1]
    assert EvaluationContext(cut, spec).base_value == 2.0


def test_batch_arguments_are_checked():
    phi = PHIS["gilbert"]
    p = PointSet(points=np.zeros((1, 2)), seed=0, region=REGION, beta=1.0)
    other = PointSet(points=np.zeros((1, 2)), seed=0,
                     region=Window("box", 3.0, 2), beta=1.0)
    assert build_rcm_batch([], phi, []) == []
    with pytest.raises(ValueError, match="one mark source"):
        build_rcm_batch([p, p], phi, [PairMarkSource(0)])
    with pytest.raises(ValueError, match="region"):
        build_rcm_batch([p, other], phi, [PairMarkSource(0)] * 2)
    # equal regions need not be one object
    same = PointSet(points=np.ones((1, 2)), seed=0,
                    region=Window("box", 2.5, 2), beta=1.0)
    assert len(build_rcm_batch([p, same], phi, [PairMarkSource(0)] * 2)) == 2
    split = _SplitMarkSource(PairMarkSource(0), PairMarkSource(1), 1)
    with pytest.raises(ValueError, match="one class"):
        build_rcm_batch([p, same], phi, [PairMarkSource(0), split])


def test_split_marks_hash_each_pair_once(monkeypatch):
    a, b = PairMarkSource(11), PairMarkSource(12)
    split = _SplitMarkSource(a, b, 5)
    rng = np.random.default_rng(0)
    i = rng.integers(-3, 9, 500)
    j = rng.integers(-3, 9, 500)
    i, j = i[i != j], j[i != j]
    # the values of hashing every pair with both sources, then selecting
    use_a = (np.maximum(i, j) < 5) & (np.minimum(i, j) >= 0)
    both = np.where(use_a, a.mark(i, j), b.mark(i, j))
    hashed = []

    def counting(keys, u, v):
        hashed.append(np.size(u))
        return marks_mod.pair_marks(keys, u, v)

    monkeypatch.setattr(analysis, "pair_marks", counting)
    assert np.array_equal(split.mark(i, j), both)
    assert hashed == [len(i)]
    assert split.mark(1, 3) == a.mark(1, 3)
    assert split.mark(-1, 3) == b.mark(-1, 3)
    assert split.mark(2, 7) == b.mark(2, 7)


# a ladder whose extent-10 rung holds all six replicates in one chunk
LADDER = {
    "dimension": 2, "beta": 0.5, "phi": {"kind": "gilbert", "r": 1.0},
    "window": {"shape": "box", "extents": [10.0, 20.0]},
    "statistics": [{"statistic": "weighted", "a": [0.3, -1.7],
                    "classes": ["1:0", "2:1"]},
                   {"statistic": "point_count"}],
    "replicates": 6, "seed_base": 11,
}


def _emitted(result, out: pathlib.Path) -> dict:
    """Every file emit writes, by path under out, with its bytes."""
    return {pathlib.Path(p).relative_to(out): pathlib.Path(p).read_bytes()
            for p in emit(result, str(out))}


@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_estimators_do_not_depend_on_the_chunk_budget(monkeypatch, tmp_path,
                                                      budget):
    """One graph per chunk, or every graph in one chunk: the same numbers
    and, from the ladder under 1 and 3 threads, the same bytes."""
    phi = PHIS["gilbert"]
    spec = FunctionalSpec("count_order", WINDOW, phi, 1.0, k=1)
    weighted = FunctionalSpec("weighted", WINDOW, phi, 1.0, a=(0.3, -1.7),
                              classes=(single_vertex_class(), edge_class()))
    ladder = load_scenario(LADDER)
    assert [g.index for g in replicate_graphs(ladder, 0, range(6))] == [
        0, 1, 2, 3, 4, 5]

    def run(tag):
        std = pilot_standardization(weighted, n_reps=12, seed=3)
        return (birth_time_variance(spec, n_outer=12, n_inner=4, seed=2),
                poincare_bound(weighted, n_outer=4, n_points=5, seed=4),
                std,
                gamma_terms(weighted, std, n_outer=3, n_inner=4, seed=6),
                cluster_tail(phi, 1.0, 3, n_samples=40, seed=7),
                *(_emitted(run_scenario(ladder, threads=t),
                           tmp_path / f"{tag}-{t}") for t in (1, 3)))

    reference = run("default")
    assert reference[-1] == reference[-2]
    monkeypatch.setattr(sampling, "_CHUNK_POINTS", budget)
    assert run("budget") == reference
