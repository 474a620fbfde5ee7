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


@pytest.fixture
def reach_oracle():
    """The Reach class, to build once per sampled graph."""
    return Reach
