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
    """F of the graph with fresh points, recounted from scratch by
    networkx: every component of the augmented graph gives its integer
    counts, one per weight, and F is their sums a0*N0 + a1*N1 + ...,
    added in the order of a from +0.0, so that non-integer weights
    compare exactly.

    Fresh edges follow from the definition: a pair is a candidate when
    its squared coordinate differences, summed in coordinate order, are
    at most rmax**2, and is joined when its mark is at most phi of the
    square root. A component's counts are read from its coordinates and
    graph: counted by its lexicographic minimum or all of its points in
    the window, off the boundary band, its class by isomorphism.
    """
    pts = graph.points.points
    region, rmax, window = graph.points.region, graph.rmax, spec.window
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from(graph.edges.tolist())
    pos = {v: pts[v] for v in range(graph.n)}
    for k, (x, i) in enumerate(additions):
        x = np.asarray(x, dtype=float)
        nxg.add_node(i)
        others = [(j, pts[j]) for j in range(graph.n)] + \
            [(other, np.asarray(y, float)) for y, other in additions[:k]]
        for j, y in others:
            sq = sum(float(d) * float(d) for d in x - y)
            if sq <= rmax * rmax and graph.marks.mark(i, j) <= \
                    spec.phi.phi_of_dist(np.sqrt(sq)):
                nxg.add_edge(i, j)
        pos[i] = x
    weights = spec.a if spec.statistic == "weighted" else (1.0,)
    classes = (spec.cls,) if spec.statistic == "count_class" else spec.classes

    def counts(members):
        xy = np.array([pos[v] for v in members])
        inside = window.contains(xy)
        if spec.statistic == "point_count":
            return [int(inside.sum())]
        none = [0] * len(weights)
        if (region.boundary_distance(xy) < rmax).any():
            return none
        lexmin = min(range(len(xy)), key=lambda v: xy[v].tolist())
        if spec.statistic == "total_components" or spec.mode == "inside":
            if not inside.all():
                return none
        elif not inside[lexmin]:
            return none
        if spec.statistic == "total_components":
            return [1]
        if spec.statistic == "count_order":
            return [int(len(members) == spec.k)]
        sub = nxg.subgraph(members)
        return [int(nx.is_isomorphic(sub, nx.from_numpy_array(g.adjacency())))
                for g in classes]

    n = [0] * len(weights)
    for members in nx.connected_components(nxg):
        n = [m + c for m, c in zip(n, counts(sorted(members)))]
    value = 0.0
    for w, m in zip(weights, n):
        value += w * m
    return value


@pytest.fixture
def reach_oracle():
    """The Reach class, to build once per sampled graph."""
    return Reach
