"""Seeded Poisson sampling and random connection model construction.

A sample lives on a padded region around the observation window.
Sampled points are stored in lexicographic order and carry ids 0..n-1
in that order. Ids need not follow that order in general: the census
takes each component's lexicographic minimum from the coordinates, so
point sets assembled in any order count correctly. Edges follow from
deterministic pair marks: {i, j} is an edge iff mark(i, j) <=
phi(x_i - x_j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .connection import ConnectionFunction
from .geometry import Window, lex_order
from .marks import PairMarkSource


@dataclass(frozen=True)
class PointSet:
    """A Poisson sample on a (padded) region; id i is row i of points."""

    points: np.ndarray          # (n, d)
    seed: int
    region: Window
    beta: float

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)


def sample_poisson(window: Window, padding: float, beta: float,
                   seed: int) -> PointSet:
    """Poisson(beta * volume) points, uniform on window grown by padding."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    region = window.pad(padding)
    rng = np.random.default_rng(seed)
    n = rng.poisson(beta * region.volume)
    pts = region.sample_uniform(rng, n)
    pts = pts[lex_order(pts)]
    if n > 1 and np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise ValueError("duplicate points in Poisson sample")
    return PointSet(points=pts, seed=int(seed), region=region, beta=float(beta))


def _candidate_pairs(points: np.ndarray, rmax: float):
    """All id pairs (i < j) within distance rmax, as an (m, 2) array,
    and the kd-tree that found them (None for fewer than two points)."""
    if len(points) < 2:
        return np.empty((0, 2), dtype=np.int64), None
    tree = cKDTree(points)
    pairs = tree.query_pairs(rmax, output_type="ndarray")
    pairs.sort(axis=1)
    return pairs.astype(np.int64), tree


def _joined(i, j, dist, phi: ConnectionFunction,
            marks: PairMarkSource) -> np.ndarray:
    """Which id pairs (i, j) at these distances are edges: the pair's
    mark is at most phi of its distance."""
    return np.atleast_1d(marks.mark(i, j)) <= phi.phi_of_dist(dist)


def _marked_edges(points: np.ndarray, pairs: np.ndarray,
                  phi: ConnectionFunction,
                  marks: PairMarkSource) -> np.ndarray:
    """The id pairs, ids being rows of points, that are edges."""
    if len(pairs) == 0:
        return pairs
    dist = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    return pairs[_joined(pairs[:, 0], pairs[:, 1], dist, phi, marks)]


@dataclass(frozen=True)
class RcmGraph:
    """A random connection model realization: points, marks, edge set."""

    points: PointSet
    phi: ConnectionFunction
    marks: PairMarkSource
    edges: np.ndarray           # (m, 2) ids with edges[:, 0] < edges[:, 1]
    rmax: float                 # pair-search radius used to build the edge set
    _adjacency: dict = field(default=None, repr=False, compare=False)
    _tree: object = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.points.n

    def adjacency(self) -> dict[int, np.ndarray]:
        """Per-vertex sorted neighbor id arrays (computed once, cached)."""
        if self._adjacency is None:
            adj = {i: [] for i in range(self.n)}
            for i, j in self.edges:
                adj[int(i)].append(int(j))
                adj[int(j)].append(int(i))
            adj = {i: np.array(sorted(v), dtype=np.int64)
                   for i, v in adj.items()}
            object.__setattr__(self, "_adjacency", adj)
        return self._adjacency

    def degree(self, i: int) -> int:
        return len(self.adjacency()[i])

    def neighbors_of_point(self, x: np.ndarray, new_id: int) -> np.ndarray:
        """Ids adjacent to a fresh point at x carrying id new_id.

        Uses the same mark source, so repeated queries with the same
        (x, new_id) are consistent with each other and with the base graph.
        """
        pts = self.points.points
        if len(pts) == 0:
            return np.empty(0, dtype=np.int64)
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(pts))
        cand = np.asarray(
            self._tree.query_ball_point(np.asarray(x, dtype=float),
                                        self.rmax), dtype=np.int64)
        if len(cand) == 0:
            return cand
        dist = np.linalg.norm(pts[cand] - np.asarray(x, dtype=float), axis=1)
        keep = _joined(np.full(len(cand), new_id, dtype=np.int64), cand,
                       dist, self.phi, self.marks)
        return np.sort(cand[keep])

    def fresh_edges(self, additions) -> np.ndarray:
        """The edges that fresh points add to the graph, as (m, 2) id rows.

        additions: sequence of (position, id) with distinct negative ids,
        none at the position of a base point. The rows are (fresh id,
        base id) for each fresh point in turn, base ids ascending, then
        the edges among fresh points in ascending (smaller id, larger id)
        order. Marks come from the graph's mark source keyed by the ids,
        so repeated queries are coupled with each other and the graph.
        """
        pos = {int(i): np.asarray(p, dtype=float) for p, i in additions}
        if len(pos) != len(additions) or any(i >= 0 for i in pos):
            raise ValueError("added points need distinct negative ids")
        pts = self.points.points
        if len(pts) and any(np.any(np.all(pts == p, axis=1))
                            for p in pos.values()):
            raise ValueError("added point duplicates an existing point")
        rows = [(i, b) for i, p in pos.items()
                for b in self.neighbors_of_point(p, i).tolist()]
        for u, v in itertools.combinations(sorted(pos), 2):
            dist = float(np.linalg.norm(pos[u] - pos[v]))
            if dist <= self.rmax and _joined(u, v, dist, self.phi,
                                             self.marks)[0]:
                rows.append((u, v))
        return np.array(rows, dtype=np.int64).reshape(-1, 2)


def build_rcm(points: PointSet, phi: ConnectionFunction,
              marks: PairMarkSource, eps_trunc: float = 1e-6) -> RcmGraph:
    """Construct the RCM edge set from a point sample and a mark source."""
    if points.dim != phi.dim:
        raise ValueError("dimension mismatch between points and phi")
    rmax = phi.truncation_radius(eps_trunc)
    pairs, tree = _candidate_pairs(points.points, rmax)
    return RcmGraph(points=points, phi=phi, marks=marks,
                    edges=_marked_edges(points.points, pairs, phi, marks),
                    rmax=rmax, _tree=tree)


def build_coupled(points: PointSet, phi: ConnectionFunction,
                  psi: ConnectionFunction, marks: PairMarkSource,
                  eps_trunc: float = 1e-6) -> tuple[RcmGraph, RcmGraph]:
    """Two RCM graphs on shared points and marks, with psi <= phi.

    Both graphs use the search radius of phi, so the edge sets are nested
    by construction: an edge of the psi graph is always a phi edge, and
    since psi <= phi the psi edges are the phi edges whose mark is at
    most psi of their distance.
    """
    if not phi.dominates(psi):
        raise ValueError("psi must be dominated by phi")
    graph_phi = build_rcm(points, phi, marks, eps_trunc)
    graph_psi = RcmGraph(
        points=points, phi=psi, marks=marks,
        edges=_marked_edges(points.points, graph_phi.edges, psi, marks),
        rmax=graph_phi.rmax, _tree=graph_phi._tree)
    return graph_phi, graph_psi
