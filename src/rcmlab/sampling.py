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
from .marks import PairMarkSource, pair_marks, stacked_keys


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
    """All id pairs (i < j) within distance rmax, as an (m, 2) int64
    array, and the kd-tree that found them (None for fewer than two
    points)."""
    if len(points) < 2:
        return np.empty((0, 2), dtype=np.int64), None
    tree = cKDTree(points)
    return tree.query_pairs(rmax, output_type="ndarray"), tree


def _distances(diffs) -> np.ndarray:
    """Euclidean lengths from coordinate differences, one array per
    coordinate, the squares summed in coordinate order as
    np.linalg.norm sums them."""
    diffs = iter(diffs)
    first = next(diffs)
    sq = first * first
    for d in diffs:
        sq += d * d
    return np.sqrt(sq)


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
    dist = _distances(np.take(c, pairs[:, 0]) - np.take(c, pairs[:, 1])
                      for c in points.T)
    return pairs[_joined(pairs[:, 0], pairs[:, 1], dist, phi, marks)]


class RcmBatch:
    """Independent realizations on one region, stacked as a disjoint union.

    Realization r owns the union ids starts[r]:starts[r + 1] (its own
    ids shifted by starts[r]) and the union edge rows
    edge_starts[r]:edge_starts[r + 1]. The kd-tree holds every point
    lifted by one extra coordinate, its realization index times a
    spacing greater than rmax, so no two realizations' points are ever
    within rmax of each other, while squared distances within one
    realization only gain an exact +0.0. The spacing also exceeds the
    region's diameter, so the tree splits realizations apart before it
    splits any of them.
    """

    def __init__(self, points: np.ndarray, edges: np.ndarray,
                 starts: np.ndarray, edge_starts: np.ndarray,
                 region: Window, rmax: float, tree=None):
        self.points = points            # (N, d) union coordinates
        self.edges = edges              # (M, 2) union ids
        self.starts = starts
        self.edge_starts = edge_starts
        self.region = region
        self.rmax = rmax
        self.spacing = rmax + 2.0 * region.extent + 1.0
        self._tree = tree
        self._shared = {}

    def lifted(self) -> np.ndarray:
        """The union points with their realization coordinate appended."""
        level = np.arange(len(self.starts) - 1) * self.spacing
        return np.column_stack([self.points,
                                np.repeat(level, np.diff(self.starts))])

    def shared(self, key, keep, build):
        """build(), computed once per key for the whole batch. keep is
        held with the value, so the ids a key names stay unique."""
        if key not in self._shared:
            self._shared[key] = (keep, build())
        return self._shared[key][1]

    def ball(self, x: np.ndarray, r: int) -> np.ndarray:
        """Ids of realization r within rmax of x, ascending, in r's own
        ids; x is in r's coordinates."""
        if self._tree is None:
            self._tree = cKDTree(self.lifted())
        lifted = np.empty(len(x) + 1)
        lifted[:-1] = x
        lifted[-1] = r * self.spacing
        found = self._tree.query_ball_point(lifted, self.rmax,
                                            return_sorted=True)
        return np.asarray(found, dtype=np.int64) - self.starts[r]


@dataclass(frozen=True)
class RcmGraph:
    """A random connection model realization: points, marks, edge set.

    A graph may be one realization of an RcmBatch, which holds the
    kd-tree and component tables for all of them; a graph made directly,
    or copied with other fields, is a batch of one.
    """

    points: PointSet
    phi: ConnectionFunction
    marks: PairMarkSource
    edges: np.ndarray           # (m, 2) ids with edges[:, 0] < edges[:, 1]
    rmax: float                 # pair-search radius used to build the edge set
    # caches of what the fields above determine, never copied
    _adjacency: dict = field(default=None, init=False, repr=False,
                             compare=False)
    _batch: RcmBatch = field(default=None, init=False, repr=False,
                             compare=False)
    _index: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def batch(self) -> RcmBatch:
        """The disjoint union this graph is realization `index` of."""
        if self._batch is None:
            object.__setattr__(self, "_batch", RcmBatch(
                self.points.points, self.edges, np.array([0, self.n]),
                np.array([0, len(self.edges)]), self.points.region,
                self.rmax))
        return self._batch

    @property
    def index(self) -> int:
        return self._index

    def _join(self, batch: RcmBatch, index: int = 0) -> "RcmGraph":
        """This graph, as realization `index` of batch."""
        object.__setattr__(self, "_batch", batch)
        object.__setattr__(self, "_index", index)
        return self

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

    def _near(self, x: np.ndarray):
        """Ids within rmax of x, ascending, and their points' offsets
        from x."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, len(x)))
        cand = self.batch.ball(x, self._index)
        return cand, self.points.points[cand] - x

    def _linked(self, new_id: int, cand, offsets) -> np.ndarray:
        """The candidate ids that a fresh point with id new_id joins."""
        return cand[_joined(np.full(len(cand), new_id, dtype=np.int64),
                            cand, _distances(offsets.T), self.phi,
                            self.marks)]

    def neighbors_of_point(self, x: np.ndarray, new_id: int) -> np.ndarray:
        """Ids adjacent to a fresh point at x carrying id new_id.

        Uses the same mark source, so repeated queries with the same
        (x, new_id) are consistent with each other and with the base graph.
        """
        return self._linked(new_id, *self._near(np.asarray(x, dtype=float)))

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
        rows = []
        for i, p in pos.items():
            # a base point at p is at distance 0, so always a candidate
            cand, offsets = self._near(p)
            if (offsets == 0).all(axis=1).any():
                raise ValueError("added point duplicates an existing point")
            rows += [(i, b) for b in self._linked(i, cand, offsets).tolist()]
        for u, v in itertools.combinations(sorted(pos), 2):
            dist = float(np.linalg.norm(pos[u] - pos[v]))
            if dist <= self.rmax and _joined(u, v, dist, self.phi,
                                             self.marks)[0]:
                rows.append((u, v))
        return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _same_region(a: Window, b: Window) -> bool:
    return a is b or (a.shape == b.shape and a.extent == b.extent
                      and a.dim == b.dim and np.array_equal(a.center,
                                                            b.center))


def build_rcm_batch(points, phi: ConnectionFunction, marks) -> list[RcmGraph]:
    """RCM graphs of independent point sets, built as one disjoint union.

    points: PointSets on one region; marks: one mark source for each.
    One kd-tree finds the candidate pairs of all realizations, each
    pair's mark is hashed under its own realization's key, and graph r
    is a view of realization r: its own points, edges in its own ids,
    mark source, phi and rmax. Each graph has the edge set that
    build_rcm gives its points and marks alone, though its rows may
    come in another order.
    """
    points, marks = list(points), list(marks)
    if len(points) != len(marks):
        raise ValueError("need one mark source per point set")
    if not points:
        return []
    region = points[0].region
    if any(not _same_region(p.region, region) for p in points):
        raise ValueError("batched point sets must share their region")
    if any(p.dim != phi.dim for p in points):
        raise ValueError("dimension mismatch between points and phi")
    rmax = phi.truncation_radius()
    sizes = np.array([p.n for p in points])
    starts = np.concatenate(([0], np.cumsum(sizes)))
    batch = RcmBatch(np.concatenate([p.points for p in points]), None,
                     starts, None, region, rmax)
    pairs, batch._tree = _candidate_pairs(batch.lifted(), rmax)
    n_real = len(points)
    # a small index type makes the stable sort below a radix sort
    owner = np.repeat(np.arange(n_real, dtype=np.min_scalar_type(n_real)),
                      sizes)[pairs[:, 0]]
    dist = _distances(np.take(c, pairs[:, 0]) - np.take(c, pairs[:, 1])
                      for c in batch.points.T)
    # marks are keyed by each realization's own ids
    local = pairs - starts[owner, None]
    del pairs
    i, j = local[:, 0], local[:, 1]
    joined = (pair_marks(stacked_keys(marks, owner, i, j), i, j)
              <= phi.phi_of_dist(dist))
    # the edges realization by realization, in the tree's order within one
    owner = owner[joined]
    by_owner = np.argsort(owner, kind="stable")
    local = np.take(local[joined], by_owner, axis=0)
    owner = owner[by_owner]
    batch.edges = local + starts[owner, None]
    batch.edge_starts = np.concatenate(([0], np.cumsum(
        np.bincount(owner, minlength=n_real))))
    return [RcmGraph(points=p, phi=phi, marks=m, rmax=rmax,
                     edges=local[batch.edge_starts[r]:
                                 batch.edge_starts[r + 1]])._join(batch, r)
            for r, (p, m) in enumerate(zip(points, marks))]


def build_rcm(points: PointSet, phi: ConnectionFunction,
              marks: PairMarkSource) -> RcmGraph:
    """Construct the RCM edge set from a point sample and a mark source."""
    return build_rcm_batch([points], phi, [marks])[0]


def build_coupled(points: PointSet, phi: ConnectionFunction,
                  psi: ConnectionFunction,
                  marks: PairMarkSource) -> tuple[RcmGraph, RcmGraph]:
    """Two RCM graphs on shared points and marks, with psi <= phi.

    Both graphs use the search radius of phi, so the edge sets are nested
    by construction: an edge of the psi graph is always a phi edge, and
    since psi <= phi the psi edges are the phi edges whose mark is at
    most psi of their distance.
    """
    if not phi.dominates(psi):
        raise ValueError("psi must be dominated by phi")
    graph_phi = build_rcm(points, phi, marks)
    edges = _marked_edges(points.points, graph_phi.edges, psi, marks)
    shared = graph_phi.batch
    batch = RcmBatch(shared.points, edges, shared.starts,
                     np.array([0, len(edges)]), shared.region, shared.rmax,
                     shared._tree)
    graph_psi = RcmGraph(points=points, phi=psi, marks=marks, edges=edges,
                         rmax=graph_phi.rmax)._join(batch)
    return graph_phi, graph_psi
