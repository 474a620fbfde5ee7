"""Seeded Poisson sampling and random connection model construction.

A sample lives on a padded region around the observation window.
Sampled points are stored in lexicographic order and carry ids 0..n-1
in that order. Ids need not follow that order in general: the census
takes each component's lexicographic minimum from the coordinates, so
point sets assembled in any order count correctly. Edges follow from
deterministic pair marks: {i, j} is an edge iff mark(i, j) <=
phi(x_i - x_j). A pair is a candidate when geometry.squared_lengths,
the kd-tree's own sum, is <= rmax**2, and phi takes its square root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .connection import ConnectionFunction
from .geometry import Window, lex_order, squared_lengths
from .marks import PairMarkSource, pair_marks

# build_chunks' chunk size, in points (each graph counting one more):
# large enough that per-graph set-up is shared, small enough that long
# runs hold little at a time and that graphs of thousands of points are
# built one at a time.
_CHUNK_POINTS = 1 << 12


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


def sample_poisson(window: Window, padding: float, beta: float,
                   seed: int) -> PointSet:
    """Poisson(beta * volume) points, uniform on window grown by padding."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    region = window.pad(padding)
    try:
        mean = beta * region.volume
    except OverflowError:
        raise ValueError(f"sampling region volume overflows: extent "
                         f"{region.extent:g} in d = {region.dim}") from None
    rng = np.random.default_rng(seed)
    n = rng.poisson(mean)
    pts = region.sample_uniform(rng, n)
    pts = pts[lex_order(pts)]
    if n > 1 and np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise ValueError("duplicate points in Poisson sample")
    return PointSet(points=pts, seed=int(seed), region=region, beta=float(beta))


def seeded_sample(window: Window, padding: float, beta: float,
                  seed: int) -> tuple[PointSet, PairMarkSource]:
    """The point set and mark source of the graph with this seed: Poisson
    points on window grown by padding, and pair marks, both from seed."""
    return sample_poisson(window, padding, beta, seed), PairMarkSource(seed)


def _candidate_pairs(points: np.ndarray, rmax: float):
    """All id pairs (i < j) within distance rmax, as an (m, 2) int64
    array, and the kd-tree that found them (None for fewer than two
    points)."""
    if len(points) < 2:
        return np.empty((0, 2), dtype=np.int64), None
    tree = cKDTree(points)
    return tree.query_pairs(rmax, output_type="ndarray"), tree


class RcmBatch:
    """Independent realizations on one region, stacked as a disjoint union.

    Realization r owns the union ids starts[r]:starts[r + 1] (its own
    ids shifted by starts[r]) and the union edge rows
    edge_starts[r]:edge_starts[r + 1]; its edges follow phi and the
    marks of its source marks[r]. The kd-tree holds every point lifted
    by one extra coordinate, its realization index times a spacing
    greater than rmax, so no two realizations' points are ever within
    rmax of each other, while squared distances within one realization
    only gain an exact +0.0. The spacing also exceeds the region's
    diameter, so the tree splits realizations apart before it splits
    any of them.
    """

    def __init__(self, points: np.ndarray, edges: np.ndarray,
                 starts: np.ndarray, edge_starts: np.ndarray,
                 region: Window, rmax: float,
                 phi: ConnectionFunction = None, marks=None, tree=None):
        self.points = points            # (N, d) union coordinates
        self.edges = edges              # (M, 2) union ids
        self.starts = starts
        self.edge_starts = edge_starts
        self.region = region
        self.rmax = rmax
        self.phi = phi
        self.marks = marks              # one mark source per realization
        self.spacing = rmax + 2.0 * region.extent + 1.0
        self._tree = tree
        self._shared = {}

    def lifted(self) -> np.ndarray:
        """The union points with their realization coordinate appended."""
        level = np.arange(len(self.starts) - 1) * self.spacing
        return np.column_stack([self.points,
                                np.repeat(level, np.diff(self.starts))])

    def shared(self, key, build):
        """build(), computed once per key for the whole batch."""
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    def _marks(self, owner, i, j) -> np.ndarray:
        """Marks of the id pairs (i, j) of realizations owner, each pair
        hashed once under its own realization's key. A batch of one
        hashes through its source's own mark, so any source with
        mark(i, j) serves there."""
        if len(self.marks) == 1:
            return np.atleast_1d(self.marks[0].mark(i, j))
        return pair_marks(type(self.marks[0]).stacked_keys(
            self.marks, owner, i, j), i, j)

    def fresh_edges(self, owner, ins, ids, pos):
        """The edges that fresh points add, for many insertions at once.

        Fresh point k, with id ids[k] and position pos[k], is added to
        realization owner[k] together with the other points of insertion
        ins[k]; ins is nondecreasing, so an insertion's points are
        consecutive, and its ids are distinct and negative. Returns
        (links, pairs): links has a row (k, b) for each base point, by
        union id b, that fresh point k joins, k ascending and b ascending
        within k; pairs has a row (k, m), k < m, for each pair of fresh
        points of one insertion that is joined, in the same order. One
        query of the lifted kd-tree finds every fresh point's candidates,
        pairs of fresh points pass the tree's candidate test as base
        pairs do, and all marks are hashed in one call, keyed by the ids
        (fresh ids and the realization's own base ids), so repeated
        queries are coupled with each other and with the base graph.
        """
        owner = np.asarray(owner, dtype=np.int64)
        ins = np.asarray(ins, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.asarray(pos, dtype=float).reshape(len(ids),
                                                   self.points.shape[1])
        by_id = np.lexsort((ids, ins))
        if np.any(ids >= 0) or np.any(
                (np.diff(ins[by_id]) == 0) & (np.diff(ids[by_id]) == 0)):
            raise ValueError("added points need distinct negative ids")
        if self._tree is None:
            self._tree = cKDTree(self.lifted())
        found = self._tree.query_ball_point(
            np.column_stack([pos, owner * self.spacing]), self.rmax,
            return_sorted=True)
        counts = np.fromiter(map(len, found), dtype=np.int64,
                             count=len(ids))
        base = np.fromiter(itertools.chain.from_iterable(found),
                           dtype=np.int64, count=int(counts.sum()))
        fresh = np.repeat(np.arange(len(ids)), counts)
        offsets = self.points[base] - pos[fresh]
        # a base point at the fresh point's position is at distance 0,
        # so always a candidate
        if (offsets == 0).all(axis=1).any():
            raise ValueError("added point duplicates an existing point")
        sq = squared_lengths(offsets.T)
        # every pair (u, v), u < v, of points of one insertion
        after = np.searchsorted(ins, ins, side="right") - 1 - np.arange(
            len(ids))
        u = np.repeat(np.arange(len(ids)), after)
        v = u + 1 + np.arange(len(u)) - np.repeat(np.cumsum(after) - after,
                                                  after)
        sq_uv = squared_lengths((pos[u] - pos[v]).T)
        near = sq_uv <= self.rmax * self.rmax
        u, v = u[near], v[near]
        links = np.column_stack([fresh, base])
        pairs = np.column_stack([u, v])
        k = np.concatenate([fresh, u])
        j = np.concatenate([base - self.starts[owner[fresh]], ids[v]])
        dist = np.sqrt(np.concatenate([sq, sq_uv[near]]))
        joined = (self._marks(owner[k], ids[k], j)
                  <= self.phi.phi_of_dist(dist))
        return links[joined[:len(links)]], pairs[joined[len(links):]]


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
                self.rmax, self.phi, [self.marks]))
        return self._batch

    @property
    def index(self) -> int:
        return self._index

    def _join(self, batch: RcmBatch, index: int = 0) -> "RcmGraph":
        """This graph, as realization `index` of batch."""
        object.__setattr__(self, "_batch", batch)
        object.__setattr__(self, "_index", index)
        return self

    def neighbors_of_point(self, x: np.ndarray, new_id: int) -> np.ndarray:
        """Ids adjacent to a fresh point at x carrying id new_id, ascending.

        Uses the same mark source, so repeated queries with the same
        (x, new_id) are consistent with each other and with the base graph.
        """
        return self.fresh_edges([(x, new_id)])[:, 1]

    def fresh_edges(self, additions) -> np.ndarray:
        """The edges that fresh points add to the graph, as (m, 2) id rows.

        additions: sequence of (position, id) with distinct negative ids,
        none at the position of a base point. The rows are (fresh id,
        base id) for each fresh point in turn, base ids ascending, then
        (fresh id, fresh id) for the joined pairs of fresh points, in
        the order of the additions; RcmBatch.fresh_edges decides them.
        """
        ids = np.array([i for _, i in additions], dtype=np.int64)
        links, pairs = self.batch.fresh_edges(
            np.full(len(ids), self.index), np.zeros(len(ids), dtype=int), ids,
            [p for p, _ in additions])
        return np.concatenate([
            np.column_stack([ids[links[:, 0]],
                             links[:, 1] - self.batch.starts[self.index]]),
            ids[pairs]]).reshape(-1, 2)


def build_rcm_batch(points, phi: ConnectionFunction, marks) -> list[RcmGraph]:
    """RCM graphs of independent point sets, built as one disjoint union.

    points: PointSets on one region; marks: one mark source for each,
    all of one class, whose stacked_keys keys the pairs of all of them.
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
    if any(p.region != region for p in points):
        raise ValueError("batched point sets must share their region")
    if any(p.dim != phi.dim for p in points):
        raise ValueError("dimension mismatch between points and phi")
    kinds = {type(m) for m in marks}
    if len(kinds) > 1:
        raise ValueError("batched mark sources must be of one class")
    rmax = phi.truncation_radius()
    sizes = np.array([p.n for p in points])
    starts = np.concatenate(([0], np.cumsum(sizes)))
    batch = RcmBatch(np.concatenate([p.points for p in points]), None,
                     starts, None, region, rmax, phi, marks)
    pairs, batch._tree = _candidate_pairs(batch.lifted(), rmax)
    n_real = len(points)
    # a small index type makes the stable sort below a radix sort
    owner = np.repeat(np.arange(n_real, dtype=np.min_scalar_type(n_real)),
                      sizes)[pairs[:, 0]]
    dist = np.sqrt(squared_lengths(
        np.take(c, pairs[:, 0]) - np.take(c, pairs[:, 1])
        for c in batch.points.T))
    # marks are keyed by each realization's own ids
    local = pairs - starts[owner, None]
    del pairs
    i, j = local[:, 0], local[:, 1]
    keys = kinds.pop().stacked_keys(marks, owner, i, j)
    joined = pair_marks(keys, i, j) <= phi.phi_of_dist(dist)
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


def build_chunks(draws, phi: ConnectionFunction):
    """The graphs of consecutive draws, built in chunks.

    draws: iterable of (payload, samples), samples a list of (point set,
    mark source) pairs on one region. Consecutive draws are collected up
    to _CHUNK_POINTS (a larger draw is built alone), and each chunk's
    graphs are built by one build_rcm_batch, so they are realizations of
    one RcmBatch; yields, per chunk, the list of (payload, graphs) of
    its draws, in order. Draws are taken lazily and in order, so a
    random stream they share is read as a loop over them reads it, and
    only one chunk is held at a time.
    """
    chunk, size = [], 0
    for draw in draws:
        n = sum(p.n + 1 for p, _ in draw[1])
        if chunk and size + n > _CHUNK_POINTS:
            yield _built(chunk, phi)
            chunk, size = [], 0
        chunk.append(draw)
        size += n
    if chunk:
        yield _built(chunk, phi)


def _built(chunk, phi: ConnectionFunction) -> list:
    samples = [s for _, draw in chunk for s in draw]
    graphs = iter(build_rcm_batch([p for p, _ in samples], phi,
                                  [m for _, m in samples]))
    return [(payload, [next(graphs) for _ in draw])
            for payload, draw in chunk]


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
    i, j = graph_phi.edges.T
    dist = np.sqrt(squared_lengths(np.take(c, i) - np.take(c, j)
                                   for c in points.points.T))
    edges = graph_phi.edges[np.atleast_1d(marks.mark(i, j))
                            <= psi.phi_of_dist(dist)]
    shared = graph_phi.batch
    batch = RcmBatch(shared.points, edges, shared.starts,
                     np.array([0, len(edges)]), shared.region, shared.rmax,
                     psi, shared.marks, shared._tree)
    graph_psi = RcmGraph(points=points, phi=psi, marks=marks, edges=edges,
                         rmax=graph_phi.rmax)._join(batch)
    return graph_phi, graph_psi
