"""Shared test oracles."""

from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest


class Reach:
    """Hop reach in an RCM graph with fresh points, found by networkx.

    The base graph is built once; each query adds the fresh points
    (negative ids) with the edges that graph.fresh_edges gives them, and
    removes them again.
    """

    def __init__(self, graph):
        self.graph = graph
        self.nx = nx.Graph()
        self.nx.add_nodes_from(range(graph.n))
        self.nx.add_edges_from(graph.edges.tolist())

    @contextmanager
    def adding(self, additions):
        self.pos = {i: p for p, i in additions}
        self.nx.add_nodes_from(self.pos)
        self.nx.add_edges_from(self.graph.fresh_edges(additions).tolist())
        try:
            yield
        finally:
            self.nx.remove_nodes_from(self.pos)

    def hops(self, start, depth) -> dict:
        """Vertex id -> hop distance from start, up to depth hops."""
        return nx.single_source_shortest_path_length(self.nx, start,
                                                     cutoff=depth)

    def reaches(self, start, depth, window) -> bool:
        """Whether a vertex within depth hops of start lies in window."""
        pts = [self.pos[v] if v < 0 else self.graph.points.points[v]
               for v in self.hops(start, depth)]
        return bool(window.contains(np.array(pts)).any())

    def envelopes(self, x, y, window, a_inf, k):
        """The per-sample bounds on |D_x F| and |D^2_{x,y} F| of a
        statistic with weights |a| <= a_inf on classes of order <= k:
        a_inf (deg x + 1) 1{x reaches W} and
        a_inf (2 deg y + 3) 1{y within k + 1 hops of x} max(1{x reaches W},
        1{y reaches W}). A fresh point reaches W when a point of W lies
        within k hops of it; deg x and the reach of x are taken with x
        added alone, and likewise for y."""
        with self.adding([(x, -1)]):
            degx, indx = self.nx.degree(-1), self.reaches(-1, k, window)
        with self.adding([(y, -2)]):
            degy, indy = self.nx.degree(-2), self.reaches(-2, k, window)
        with self.adding([(x, -1), (y, -2)]):
            hop = -2 in self.hops(-1, k + 1)
        return (a_inf * (degx + 1) * indx,
                a_inf * (2 * degy + 3) * hop * max(indx, indy))


def insertion_recount(graph, spec, additions) -> float:
    """F of the graph with fresh points, recounted by networkx and summed
    as value_with_additions sums it, so that non-integer weights compare
    exactly.

    Fresh edges follow from the definition: a pair is a candidate when
    its squared coordinate differences, summed in coordinate order, are
    at most rmax**2, and is joined when its mark is at most phi of the
    square root. F is the base components' shares added in order of
    their smallest id; each group of fresh points, taken in order of its
    first fresh point, then adds its share and subtracts those of the
    base components it joins, in the order of a Python set of their
    numbers (base components numbered by smallest id), the set built in
    the order the fresh points (in turn) reach them through base ids
    ascending. A component's share is read from its coordinates and
    graph: counted by its lexicographic minimum or all of its points in
    the window, off the boundary band, its class by isomorphism.
    """
    pts = graph.points.points
    region, rmax, window = graph.points.region, graph.rmax, spec.window
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from(graph.edges.tolist())
    base = sorted((sorted(c) for c in nx.connected_components(nxg)),
                  key=lambda c: c[0])
    number = {v: c for c, members in enumerate(base) for v in members}
    pos = {v: pts[v] for v in range(graph.n)}
    reached = []
    for k, (x, i) in enumerate(additions):
        x = np.asarray(x, dtype=float)
        nxg.add_node(i)
        for j in range(graph.n):
            sq = sum(float(d) * float(d) for d in pts[j] - x)
            if sq <= rmax * rmax and graph.marks.mark(i, j) <= \
                    spec.phi.phi_of_dist(np.sqrt(sq)):
                nxg.add_edge(i, j)
                reached.append((i, number[j]))
        for y, other in additions[:k]:
            sq = sum(float(d) * float(d) for d in x - np.asarray(y, float))
            if sq <= rmax * rmax and graph.marks.mark(i, other) <= \
                    spec.phi.phi_of_dist(np.sqrt(sq)):
                nxg.add_edge(i, other)
        pos[i] = x

    def share(members):
        xy = np.array([pos[v] for v in members])
        inside = window.contains(xy)
        if spec.statistic == "point_count":
            return float(inside.sum())
        if (region.boundary_distance(xy) < rmax).any():
            return 0.0
        lexmin = min(range(len(xy)), key=lambda v: xy[v].tolist())
        if spec.statistic == "total_components" or spec.mode == "inside":
            if not inside.all():
                return 0.0
        elif not inside[lexmin]:
            return 0.0
        if spec.statistic == "total_components":
            return 1.0
        if spec.statistic == "count_order":
            return float(len(members) == spec.k)
        pairs = (((1.0, spec.cls),) if spec.statistic == "count_class"
                 else zip(spec.a, spec.classes))
        sub = nxg.subgraph(members)
        return sum(w * nx.is_isomorphic(sub, nx.from_numpy_array(
            g.adjacency())) for w, g in pairs)

    value = 0.0
    for members in base:
        value += share(members)
    seen = set()
    for _, i in additions:
        if i in seen:
            continue
        group = nx.node_connected_component(nxg, i)
        seen |= group
        roots = list(dict.fromkeys(c for f, c in reached if f in group))
        value += share(sorted(group))
        for c in set(roots):
            value -= share(base[c])
    return value


@pytest.fixture
def reach_oracle():
    """The Reach class, to build once per sampled graph."""
    return Reach
