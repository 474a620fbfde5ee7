"""Component extraction and isomorphism-class census statistics.

Components of an RCM realization are counted in two modes: by the
lexicographic minimum falling in the window, and by all vertices falling
in the window. Small components (order <= k_max) are additionally
resolved into isomorphism classes via a canonical labeling that
minimizes the packed upper-triangular adjacency bitset over all vertex
permutations.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import Window
from .sampling import RcmBatch, RcmGraph

K_MAX = 8

_canon_cache: dict[tuple, int] = {}


@dataclass(frozen=True, order=True)
class GraphClass:
    """Isomorphism class of a small connected graph.

    canon is the minimum over all k! vertex permutations of the
    upper-triangular adjacency matrix packed into an integer bitset.
    """

    order: int
    canon: int

    @property
    def class_id(self) -> str:
        return f"{self.order}:{self.canon:x}"

    @staticmethod
    def from_class_id(s: str) -> "GraphClass":
        k, canon = s.split(":")
        return GraphClass(order=int(k), canon=int(canon, 16))

    def adjacency(self) -> np.ndarray:
        """A representative k x k boolean adjacency matrix."""
        return _unpack(self.order, self.canon)


def _unpack(k: int, packed: int) -> np.ndarray:
    """The k x k adjacency matrix whose upper triangle packs to `packed`."""
    iu = np.triu_indices(k, 1)
    bits = (packed >> np.arange(len(iu[0]))) & 1
    a = np.zeros((k, k), dtype=bool)
    a[iu] = bits.astype(bool)
    return a | a.T


@cache
def _perm_tables(k: int):
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    iu = np.triu_indices(k, 1)
    weights = (np.int64(1) << np.arange(len(iu[0]), dtype=np.int64))
    return perms, iu, weights


def _pair_bits(k, a, b) -> np.ndarray:
    """The bit of each vertex pair {a, b} in the packed code of a graph on
    k vertices: pair (lo, hi) sits at its position in np.triu_indices(k, 1)."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.left_shift(1, lo * (2 * k - lo - 1) // 2 + hi - lo - 1)


def _pack(k: int, a, b) -> int:
    """Packed code of the graph on k vertices with edges {a[i], b[i]}."""
    return int(np.bitwise_or.reduce(_pair_bits(k, a, b)))


def permuted_bits(adjacency: np.ndarray) -> np.ndarray:
    """Upper-triangular adjacency bits of a graph under every vertex
    permutation, as a (k!, k(k-1)/2) bool array.

    Row p holds the bits of the graph relabeled by the p-th permutation
    of itertools order, in np.triu_indices(k, 1) order: bit (i, j) is
    adjacency[perm[i], perm[j]].
    """
    adj = np.asarray(adjacency, dtype=bool)
    perms, iu, _ = _perm_tables(len(adj))
    return adj[perms[:, iu[0]], perms[:, iu[1]]]


def canon_of_packed(k: int, packed: int) -> int:
    """Canonical code of the graph on k vertices with packed code
    `packed`: the least packing over all k! relabelings. The graph is
    taken as given; canonical_form validates outside input."""
    key = (k, packed)
    canon = _canon_cache.get(key)
    if canon is None:
        weights = _perm_tables(k)[2]
        canon = int((permuted_bits(_unpack(k, packed)).astype(np.int64)
                     @ weights).min())
        _canon_cache[key] = canon
    return canon


def canonical_form(adjacency: np.ndarray) -> GraphClass:
    """Canonical class of a connected graph given as a symmetric bool matrix."""
    adj = np.asarray(adjacency, dtype=bool)
    k = len(adj)
    if not 1 <= k <= K_MAX:
        raise ValueError(f"graph order {k} outside [1, K_MAX={K_MAX}]")
    if adj.shape != (k, k) or np.any(adj != adj.T) or np.any(np.diag(adj)):
        raise ValueError("adjacency must be symmetric with empty diagonal")
    # vertex 0 reaches every vertex within k - 1 steps
    if not np.linalg.matrix_power(adj | np.eye(k, dtype=bool), k - 1)[0].all():
        raise ValueError("graph is not connected")
    return GraphClass(order=k, canon=canon_of_packed(
        k, _pack(k, *np.nonzero(np.triu(adj)))))


def is_canonical(g: GraphClass) -> bool:
    """Whether g is the class of a connected graph of order in [1, K_MAX]:
    its canon is the least packing of its own graph, and so holds no bit
    beyond the order's pairs."""
    if not 1 <= g.order <= K_MAX:
        return False
    try:
        return canonical_form(g.adjacency()) == g
    except ValueError:      # not connected
        return False


def check_canonical(g: GraphClass) -> None:
    """Refuse a class that is not the canonical id of a connected graph."""
    if not is_canonical(g):
        raise ValueError(f"class {g.class_id} is not the canonical id of a "
                         f"connected graph of order <= {K_MAX}")


def enumerate_classes(k: int) -> list[GraphClass]:
    """All connected isomorphism classes on k vertices, sorted by canon.

    Generated by augmentation: every connected graph on k vertices arises
    from a connected graph on k-1 vertices by adding one vertex joined to
    a nonempty subset of the others.
    """
    if not 1 <= k <= K_MAX:
        raise ValueError(f"k must lie in [1, {K_MAX}]")
    classes = {GraphClass(order=1, canon=0)}
    for order in range(2, k + 1):
        grown = set()
        for cls in classes:
            base = _pack(order, *np.nonzero(np.triu(cls.adjacency())))
            for sub in range(1, 1 << (order - 1)):
                attach = np.flatnonzero((sub >> np.arange(order - 1)) & 1)
                grown.add(GraphClass(order=order, canon=canon_of_packed(
                    order, base | _pack(order, attach, order - 1))))
        classes = grown
    return sorted(classes)


def _lexmin(points: np.ndarray, labels: np.ndarray,
            n_comp: int) -> np.ndarray:
    """Per label, the id of its lexicographically smallest point (the
    smallest such id where points repeat), without sorting the points:
    coordinate by coordinate, only the ids that attain their label's
    minimum so far stay candidates."""
    cand = np.arange(len(points))
    for col in points.T:
        value = col[cand]
        best = np.full(n_comp, np.inf)
        np.minimum.at(best, labels[cand], value)
        cand = cand[value == best[labels[cand]]]
    first = np.full(n_comp, len(points))
    np.minimum.at(first, labels[cand], cand)
    return first


def component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Component label per vertex id under the given edge set.

    Labels run over 0..(number of components - 1), numbered in order of
    each component's smallest vertex id.
    """
    graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)[1].astype(np.int64)


@dataclass(frozen=True)
class Component:
    """One connected component of a realization relative to a window.

    canon is the canonical bitset of the component's isomorphism class,
    or -1 where the class is not resolved. ids and edges are None for a
    component that exists only in a difference-operator evaluation.
    """

    order: int
    n_inside: int
    boundary: bool
    lexmin_pos: np.ndarray
    lexmin_inside: bool
    canon: int
    ids: np.ndarray = None
    edges: np.ndarray = None


@dataclass(frozen=True)
class MergedRows:
    """The components that fresh points form with rows of a
    ComponentTable, one entry per merged component, in the table's
    columns order, n_inside, boundary, lexmin_inside and canon, with
    the coordinates lexmin_pos of the lexicographic minimum and the
    insertion that formed each. roots are the labels of the rows that
    the merged components join, each once, in no particular order;
    merged component joins[j] joins row roots[j].
    """

    insertion: np.ndarray
    order: np.ndarray
    n_inside: np.ndarray
    boundary: np.ndarray
    lexmin_pos: np.ndarray
    lexmin_inside: np.ndarray
    canon: np.ndarray
    roots: np.ndarray
    joins: np.ndarray


def _ranges(lo, hi) -> np.ndarray:
    """lo[0]:hi[0], lo[1]:hi[1], ... concatenated."""
    count = hi - lo
    end = np.cumsum(count)
    return (np.repeat(lo - end + count, count)
            + np.arange(end[-1] if len(end) else 0))


def _canons(order, packed) -> np.ndarray:
    """canon_of_packed of each (order, packed) pair, looked up once per
    distinct pair."""
    codes, inverse = np.unique(packed * (K_MAX + 1) + order,
                               return_inverse=True)
    return np.array([canon_of_packed(int(c) % (K_MAX + 1),
                                     int(c) // (K_MAX + 1))
                     for c in codes], dtype=np.int64)[inverse]


class ComponentTable(Mapping):
    """The connected components of a batch's realizations, by label.

    Every count the census and the difference operators read comes from
    these per-component arrays:
      order          number of vertices
      n_inside       vertices inside the window
      boundary       some vertex lies within rmax of the sampled region's
                     boundary, so the component may extend beyond it
      lexmin         vertex id of the lexicographic minimum
      lexmin_inside  the lexicographic minimum lies inside the window
      canon          canonical class bitset for non-boundary components
                     of order <= k_max, else -1
      realization    index of the realization the component lies in
    Vertex ids are grouped by label in `vertices[vertex_start[c]:
    vertex_start[c + 1]]`, ascending within each group, and edge rows
    likewise in `edges[edge_index[edge_start[c]:edge_start[c + 1]]]`. As
    a mapping, the table takes a label to its Component; `merged` gives
    the components that fresh points form with some of the rows.

    The table covers all realizations of the RcmBatch at once, in union
    ids: realization r owns the ids starts[r]:starts[r + 1], the edge
    rows edge_starts[r]:edge_starts[r + 1] and the labels
    label_start[r]:label_start[r + 1], the labels in the order the
    realization's own table would give them, and `view(r)` is that table.
    """

    def __init__(self, batch: RcmBatch, window: Window, k_max: int):
        if k_max > K_MAX:
            raise ValueError(f"k_max exceeds K_MAX={K_MAX}")
        self.window, self.k_max = window, k_max
        self.region, self.rmax = batch.region, batch.rmax
        self.points = pts = batch.points
        self.edges = edges = batch.edges
        self.starts = starts = batch.starts
        self.edge_starts = batch.edge_starts
        # labels follow each component's smallest id, so the stacked
        # realizations' labels are contiguous and in their own order
        self.labels = labels = component_labels(len(pts), edges)
        n_comp = int(labels.max()) + 1 if len(labels) else 0
        self.order = np.bincount(labels, minlength=n_comp)
        self.lexmin = _lexmin(pts, labels, n_comp)
        self.realization = np.repeat(np.arange(len(starts) - 1),
                                     np.diff(starts))[self.lexmin]
        self.label_start = np.searchsorted(self.realization,
                                           np.arange(len(starts)))

        inside = window.contains(pts)
        self.n_inside = np.bincount(labels[inside], minlength=n_comp)
        self.lexmin_inside = inside[self.lexmin]
        near = self.region.boundary_distance(pts) < self.rmax
        self.boundary = np.bincount(labels[near], minlength=n_comp) > 0
        self.canon = self._classes()

    def _resolved(self, order, boundary):
        """Whether a class is resolved: off the boundary, order <= k_max."""
        return np.logical_not(boundary) & (order <= self.k_max)

    def view(self, r: int) -> "ComponentTable":
        """Realization r's rows, as its own table in its own ids.

        Its components are those of realization r's edges in a batch
        of one, and are numbered alike.
        """
        c0, c1 = self.label_start[r], self.label_start[r + 1]
        v0, v1 = self.starts[r], self.starts[r + 1]
        e0, e1 = self.edge_starts[r], self.edge_starts[r + 1]
        t = object.__new__(ComponentTable)
        t.window, t.k_max = self.window, self.k_max
        t.region, t.rmax = self.region, self.rmax
        t.points = self.points[v0:v1]
        t.edges = self.edges[e0:e1] - v0
        t.labels = self.labels[v0:v1] - c0
        t.starts = np.array([0, v1 - v0])
        t.edge_starts = np.array([0, e1 - e0])
        t.lexmin = self.lexmin[c0:c1] - v0
        t.realization = self.realization[c0:c1] - r
        t.label_start = np.array([0, c1 - c0])
        for name in ("order", "n_inside", "lexmin_inside", "boundary",
                     "canon"):
            setattr(t, name, getattr(self, name)[c0:c1])
        return t

    # the groupings below are read only to list a component's vertices
    # and edges or to resolve classes, so they are built on first use

    @cached_property
    def vertex_start(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.order)))

    @cached_property
    def vertices(self) -> np.ndarray:
        return np.argsort(self.labels, kind="stable")

    @cached_property
    def vertex_rank(self) -> np.ndarray:
        """Each vertex's position in its label's group of vertices."""
        rank = np.empty(len(self.labels), dtype=np.int64)
        rank[self.vertices] = (np.arange(len(self.labels))
                               - self.vertex_start[self.labels[self.vertices]])
        return rank

    @cached_property
    def edge_index(self) -> np.ndarray:
        return np.argsort(self.labels[self.edges[:, 0]], kind="stable")

    @cached_property
    def edge_start(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(np.bincount(
            self.labels[self.edges[:, 0]], minlength=len(self.order)))))

    def _classes(self) -> np.ndarray:
        """Canonical bitsets of the components whose class is resolved.

        Each component's adjacency is packed in the order of its vertex
        ids; the canonical code does not depend on that order and is
        looked up once per distinct packing.
        """
        resolve = self._resolved(self.order, self.boundary)
        canon = np.full(len(resolve), -1, dtype=np.int64)
        if not np.any(resolve):
            return canon
        edge_label = self.labels[self.edges[:, 0]]
        sel = resolve[edge_label]
        lab = edge_label[sel]
        a = self.vertex_rank[self.edges[sel, 0]]
        b = self.vertex_rank[self.edges[sel, 1]]
        packed = np.zeros(len(resolve), dtype=np.int64)
        np.bitwise_or.at(packed, lab, _pair_bits(self.order[lab], a, b))
        canon[resolve] = _canons(self.order[resolve], packed[resolve])
        return canon

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, c) -> Component:
        if not 0 <= c < len(self):
            raise KeyError(c)
        vs, ve = self.vertex_start[c], self.vertex_start[c + 1]
        es, ee = self.edge_start[c], self.edge_start[c + 1]
        return Component(
            order=int(self.order[c]), n_inside=int(self.n_inside[c]),
            boundary=bool(self.boundary[c]),
            lexmin_pos=self.points[self.lexmin[c]],
            lexmin_inside=bool(self.lexmin_inside[c]),
            canon=int(self.canon[c]), ids=self.vertices[vs:ve],
            edges=self.edges[self.edge_index[es:ee]])

    def merged(self, ins, pos, links, pairs) -> MergedRows:
        """The components that fresh points form with the rows they join.

        Fresh point k of insertion ins[k] (nondecreasing) lies at pos[k]
        and joins the base points of the links rows (k, union id) and
        the fresh points of the pairs rows (k, l), as
        RcmBatch.fresh_edges gives them. Each insertion is taken alone:
        a group of its fresh points, with the rows its links reach,
        becomes one merged component, placed against the table's window
        and boundary band, its class resolved where the table would
        resolve a row of its order and boundary. Merged components come
        in order of their first fresh point.
        """
        n_fresh = len(ins)
        fresh, base = links[:, 0], links[:, 1]
        # one node per fresh point, then one per (insertion, row) that
        # its links reach, first the link that reaches it first
        _, first, node = np.unique(ins[fresh] * len(self.order)
                                   + self.labels[base],
                                   return_index=True, return_inverse=True)
        roots = self.labels[base[first]]
        n_roots = len(roots)
        # fresh points are grouped when a pair joins them or they link to
        # one row: each group takes its least fresh point, the least
        # spreading one edge further each round, and the groups are
        # numbered in that order
        p = np.concatenate([fresh, pairs[:, 0]])
        q = np.concatenate([fresh[first[node]], pairs[:, 1]])
        least = np.arange(n_fresh)
        while True:
            step = least.copy()
            np.minimum.at(step, p, least[q])
            np.minimum.at(step, q, least[p])
            if np.array_equal(step, least):
                break
            least = step
        _, at = np.unique(least, return_inverse=True)
        joins = at[fresh[first]]
        row = np.concatenate([joins, at])
        n_rows = int(at.max()) + 1 if n_fresh else 0

        def total(root_terms, fresh_terms):
            return (np.bincount(joins, root_terms, minlength=n_rows)
                    + np.bincount(at, fresh_terms, minlength=n_rows))

        inside = self.window.contains(pos)
        order = total(self.order[roots], None).astype(np.int64)
        boundary = total(self.boundary[roots], self.region.boundary_distance(
            pos) < self.rmax) > 0
        # lexicographic minimum among the rows' minima and the fresh
        # points; ties go to the smallest index, so the fresh points come
        # last
        cand = np.concatenate([self.points[self.lexmin[roots]], pos])
        lexmin = _lexmin(cand, row, n_rows)
        insertion = np.empty(n_rows, dtype=np.int64)
        insertion[at] = ins
        canon = np.full(n_rows, -1, dtype=np.int64)
        resolve = self._resolved(order, boundary)
        if np.any(resolve):
            # number the vertices of each resolved merged component: its
            # rows' vertices, row after row in group order, then its
            # fresh points, node n's first at start[n]
            size = np.concatenate([self.order[roots],
                                   np.ones(n_fresh, dtype=np.int64)])
            sel = np.flatnonzero(resolve[row])
            sel = sel[np.argsort(row[sel], kind="stable")]
            before = np.cumsum(size[sel]) - size[sel]
            start = np.zeros(len(row), dtype=np.int64)
            start[sel] = before - before[np.searchsorted(row[sel], row[sel])]
            rank = self.vertex_rank
            # its rows' own edges, its links and its fresh pairs
            u = np.flatnonzero(resolve[joins])
            lo, hi = self.edge_start[roots[u]], self.edge_start[roots[u] + 1]
            u = np.repeat(u, hi - lo)
            a, b = self.edges[self.edge_index[_ranges(lo, hi)]].T
            k = np.flatnonzero(resolve[at[fresh]])
            f, g = (pairs[resolve[at[pairs[:, 0]]]] + n_roots).T
            of = np.concatenate([joins[u], at[fresh[k]], row[f]])
            packed = np.zeros(n_rows, dtype=np.int64)
            np.bitwise_or.at(packed, of, _pair_bits(
                order[of],
                np.concatenate([start[u] + rank[a],
                                start[n_roots + fresh[k]], start[f]]),
                np.concatenate([start[u] + rank[b],
                                start[node[k]] + rank[base[k]], start[g]])))
            canon[resolve] = _canons(order[resolve], packed[resolve])
        return MergedRows(
            insertion=insertion, order=order, boundary=boundary,
            n_inside=total(self.n_inside[roots], inside).astype(np.int64),
            lexmin_pos=cand[lexmin],
            lexmin_inside=np.concatenate([self.lexmin_inside[roots],
                                          inside])[lexmin],
            canon=canon, roots=roots, joins=joins)

    def realization_totals(self, n) -> np.ndarray:
        """Per realization, the integer sum of its rows of n: those of
        realization r are n[label_start[r]:label_start[r + 1]]."""
        cum = np.zeros((len(n) + 1,) + n.shape[1:], dtype=np.int64)
        np.cumsum(n, axis=0, out=cum[1:])
        return cum[self.label_start[1:]] - cum[self.label_start[:-1]]

    def class_counts(self, mask: np.ndarray) -> dict:
        """class_id -> number of resolved components selected by mask."""
        mask = mask & (self.canon >= 0)
        codes, counts = np.unique(
            self.canon[mask] * (K_MAX + 1) + self.order[mask],
            return_counts=True)
        return {GraphClass(order=int(c) % (K_MAX + 1),
                           canon=int(c) // (K_MAX + 1)).class_id: int(m)
                for c, m in zip(codes, counts)}

    def order_counts(self, mask: np.ndarray) -> dict:
        """order -> number of components selected by mask."""
        orders, counts = np.unique(self.order[mask], return_counts=True)
        return {int(k): int(m) for k, m in zip(orders, counts)}


def batch_table(graph: RcmGraph, window: Window,
                k_max: int) -> ComponentTable:
    """The table over the graph's whole batch, labelled once per
    (window, k_max) for every realization of the batch."""
    batch = graph.batch
    return batch.shared(("table", window, k_max),
                        lambda: ComponentTable(batch, window, k_max))


def component_table(graph: RcmGraph, window: Window,
                    k_max: int) -> ComponentTable:
    """The graph's table: its rows of the table over its whole batch."""
    return batch_table(graph, window, k_max).view(graph.index)


@dataclass
class CensusReport:
    """Component counts of one realization, in both counting modes."""

    class_counts_lexmin: dict = field(default_factory=dict)
    order_counts_lexmin: dict = field(default_factory=dict)
    class_counts_inside: dict = field(default_factory=dict)
    order_counts_inside: dict = field(default_factory=dict)
    alpha: int = 0
    boundary_touching: int = 0

    def eta_G(self, cls: GraphClass) -> int:
        return self.class_counts_lexmin.get(cls.class_id, 0)

    def eta_k(self, k: int) -> int:
        return self.order_counts_lexmin.get(k, 0)

    def eta_tilde_k(self, k: int) -> int:
        return self.order_counts_inside.get(k, 0)


def counted(c, mode: str):
    """Whether a Component, or each row of a ComponentTable, is counted
    under mode: its lexicographic minimum ("lexmin") or all its vertices
    ("inside") lie in the window, and it does not touch the sampled
    region's boundary, so it cannot extend beyond the sample."""
    inside = c.lexmin_inside if mode == "lexmin" else c.n_inside == c.order
    return inside & np.logical_not(c.boundary)


def census(graph: RcmGraph, window: Window, k_max: int = 5) -> CensusReport:
    """Count components of the realization relative to the window.

    Per-order counts cover every component order; isomorphism classes are
    resolved only up to k_max. Components are counted as `counted` says;
    those that touch the sampled region's boundary are tallied
    separately.
    """
    table = component_table(graph, window, k_max)
    lexmin = counted(table, "lexmin")
    inside = counted(table, "inside")
    return CensusReport(
        class_counts_lexmin=table.class_counts(lexmin),
        order_counts_lexmin=table.order_counts(lexmin),
        class_counts_inside=table.class_counts(inside),
        order_counts_inside=table.order_counts(inside),
        alpha=int(np.sum(inside)),
        boundary_touching=int(np.sum(table.boundary)))


def single_vertex_class() -> GraphClass:
    return GraphClass(order=1, canon=0)


def edge_class() -> GraphClass:
    return GraphClass(order=2, canon=1)


def path_class(k: int) -> GraphClass:
    """The path on k vertices."""
    adj = np.zeros((k, k), dtype=bool)
    for i in range(k - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return canonical_form(adj)
