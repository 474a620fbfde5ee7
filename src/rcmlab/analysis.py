"""Difference operators and variance / normal-approximation estimators.

A functional F is a component statistic of one RCM realization. Adding a
fresh point x only merges the components adjacent to x, so difference
operators are evaluated incrementally: the base census is computed once
per realization and each insertion recomputes only the merged block.

Fresh points carry reserved negative ids, so their pair marks against
existing points are fixed by the same mark source and all four
evaluations behind a second-order difference share every common mark.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.stats import norm

from .census import (K_MAX, Component, ComponentTable, GraphClass,
                     batch_table, canonical_form)
from .connection import ConnectionFunction
from .geometry import Window, unit_ball_volume
from .marks import PairMarkSource, pair_marks, stacked_keys
from .moments import MomentEstimate, _mc_estimate
from .sampling import (PointSet, RcmGraph, build_rcm, build_rcm_batch,
                       sample_poisson)


def _is_canonical(g: GraphClass) -> bool:
    if not 1 <= g.order <= K_MAX:
        return False
    try:
        return canonical_form(g.adjacency()) == g
    except ValueError:      # not connected
        return False


@dataclass(frozen=True)
class FunctionalSpec:
    """A component statistic of the RCM on a window.

    statistic is one of: count_class (components isomorphic to cls),
    count_order (components with k vertices), weighted (linear
    combination over classes), total_components (all finite components
    inside the window), point_count (number of points in the window).
    mode selects the counting convention: "lexmin" counts a component
    when its lexicographic minimum lies in the window, "inside" when all
    vertices do.
    """

    statistic: str
    window: Window
    phi: ConnectionFunction
    beta: float
    cls: GraphClass = None
    k: int = None
    a: tuple = None
    classes: tuple = None
    mode: str = "lexmin"
    k_max: int = 5

    def __post_init__(self):
        kinds = ("count_class", "count_order", "weighted",
                 "total_components", "point_count")
        if self.statistic not in kinds:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.mode not in ("lexmin", "inside"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.statistic == "weighted":
            if not self.a or not self.classes or len(self.a) != len(self.classes):
                raise ValueError("weighted statistic needs matching a, classes")
        for g in self.named_classes:
            if not _is_canonical(g):
                raise ValueError(
                    f"class {g.class_id} is not the canonical id of a "
                    f"connected graph of order <= {K_MAX}")

    @property
    def named_classes(self) -> tuple:
        """The isomorphism classes whose counts the statistic reads."""
        if self.statistic == "count_class":
            return (self.cls,)
        if self.statistic == "weighted":
            return self.classes
        return ()

    @property
    def class_order(self) -> int:
        """Largest order of a class the statistic names (0 for none);
        isomorphism classes are resolved only up to this order."""
        return max((g.order for g in self.named_classes), default=0)

    @property
    def max_order(self) -> int:
        """Largest component order that can contribute (None = unbounded)."""
        if self.statistic == "count_order":
            return self.k
        return self.class_order or None

    def padding(self) -> float:
        """Sampling padding so that no contributing component is cut off."""
        if self.statistic == "point_count":
            return 0.0
        reach = self.phi.truncation_radius()
        korder = self.max_order
        if korder is None:
            korder = self.k_max
        return (korder + 1) * reach


# ---------------------------------------------------------------------------
# incremental evaluation

class EvaluationContext:
    """Base-realization census with support for fresh-point insertions.

    The context reads its realization's rows of the component table over
    the graph's whole batch, and f's share of every component of the
    batch, both computed once per batch: realization r's labels c0 + c
    and ids v0 + i are its own labels c and ids i.
    """

    def __init__(self, graph: RcmGraph, spec: FunctionalSpec):
        self.graph = graph
        self.spec = spec
        self.window = spec.window
        self.region = graph.points.region
        table = batch_table(graph, spec.window, spec.class_order)
        self._table = table
        self._shares = graph.batch.shared(
            ("contributions", id(spec)), spec,
            lambda: self._contribution(table))
        r = graph.index
        self._c0, c1 = table.label_start[r:r + 2].tolist()
        self._v0 = int(table.starts[r])
        self.contributions = self._shares[self._c0:c1]
        # summed one term at a time in label order: a pairwise np.sum
        # rounds non-integer weights differently
        self.base_value = float(sum(self.contributions.tolist()))

    @cached_property
    def comps(self) -> ComponentTable:
        """The realization's component table, in its own labels and ids."""
        return self._table.view(self.graph.index)

    def _contribution(self, c):
        """f's share of one Component, or of each row of a ComponentTable."""
        spec = self.spec
        if spec.statistic == "point_count":
            return c.n_inside * 1.0
        counted = c.lexmin_inside if spec.mode == "lexmin" else c.all_inside
        if spec.statistic == "total_components":
            value = c.all_inside
        elif spec.statistic == "count_order":
            value = counted & (c.order == spec.k)
        else:
            pairs = (((1.0, spec.cls),) if spec.statistic == "count_class"
                     else zip(spec.a, spec.classes))
            value = counted * sum(
                w * ((c.order == g.order) & (c.canon == g.canon))
                for w, g in pairs)
        return np.where(c.boundary, 0.0, value)

    def value_with_additions(self, additions) -> float:
        """f of the realization augmented by fresh points.

        additions: sequence of (position, negative id). Marks between an
        added point and every other point come from the graph's mark
        source keyed by the ids, so repeated evaluations are coupled.
        Only the components that the fresh points join change: each
        group of fresh points, with the base components it touches,
        becomes one merged component.
        """
        if not additions:
            return self.base_value
        fresh = self.graph.fresh_edges(additions)
        labels, c0, v0 = self._table.labels, self._c0, self._v0
        ids = [int(i) for _, i in additions]
        # where each fresh point lies, found once for all its groups
        pos = np.array([p for p, _ in additions], dtype=float)
        inside = self.window.contains(pos).tolist()
        near_edge = (self.region.boundary_distance(pos)
                     < self.graph.rmax).tolist()
        row = {i: k for k, i in enumerate(ids)}
        # every fresh edge joins a fresh point (negative id) to another
        # one or to a base component (its label); each of these nodes
        # maps to a representative of its group
        ends = [(u, v if v < 0 else int(labels[v0 + v]) - c0)
                for u, v in fresh.tolist()]
        group = {k: k for k in [*ids, *(v for _, v in ends)]}
        for u, v in ends:
            a, b = group[u], group[v]
            if a != b:
                group = {k: a if g == b else g for k, g in group.items()}
        value = self.base_value
        for g in dict.fromkeys(group[u] for u in ids):
            members = [k for k, h in group.items() if h == g]
            adds = [row[k] for k in members if k < 0]
            roots = [k for k in members if k >= 0]
            value += float(self._contribution(self._merged(
                [ids[k] for k in adds], pos[adds], [inside[k] for k in adds],
                any(near_edge[k] for k in adds), roots, fresh)))
            # subtracted in set order, which fixes how non-integer
            # weights round
            for root in set(roots):
                value -= float(self._shares[c0 + root])
        return value

    def _merged(self, ids, pos, inside, near_edge, roots,
                fresh) -> Component:
        """The component that fresh points form with the base components
        labelled roots, joined by the fresh edges.

        ids, pos, inside: the fresh points' ids, positions and window
        membership; near_edge: some fresh point lies within rmax of the
        region's boundary.
        """
        t, v0 = self._table, self._v0
        roots = [self._c0 + r for r in roots]
        order = len(ids) + sum(int(t.order[r]) for r in roots)
        boundary = near_edge or any(t.boundary[r] for r in roots)
        # lexicographic minimum among the components' and the fresh
        # points, the first of them on ties
        cands = ([(t.points[t.lexmin[r]], bool(t.lexmin_inside[r]))
                  for r in roots] + list(zip(pos, inside)))
        lexmin_pos, lexmin_inside = min(cands, key=lambda c: c[0].tolist())
        canon = -1
        if not boundary and order <= self.spec.class_order:
            comps = [t[r] for r in roots]
            vertices = np.concatenate([c.ids - v0 for c in comps] + [ids])
            edges = np.concatenate([c.edges - v0 for c in comps]
                                   + [fresh[np.isin(fresh[:, 0], ids)]])
            by_id = np.argsort(vertices)
            local = by_id[np.searchsorted(vertices, edges, sorter=by_id)]
            adj = np.zeros((order, order), dtype=bool)
            adj[local[:, 0], local[:, 1]] = adj[local[:, 1], local[:, 0]] = True
            canon = canonical_form(adj).canon
        return Component(
            order=order, boundary=bool(boundary), canon=canon,
            n_inside=sum(int(t.n_inside[r]) for r in roots) + sum(inside),
            lexmin_pos=lexmin_pos, lexmin_inside=lexmin_inside)


def evaluate(spec: FunctionalSpec, graph: RcmGraph) -> float:
    """F = f(realization), via the incremental context's base census."""
    return EvaluationContext(graph, spec).base_value


@dataclass(frozen=True)
class DifferenceSample:
    base: float
    with_x: float
    with_y: float
    with_xy: float

    @property
    def delta_x(self) -> float:
        return self.with_x - self.base

    @property
    def delta_y(self) -> float:
        return self.with_y - self.base

    @property
    def second(self) -> float:
        return self.with_xy - self.with_x - self.with_y + self.base


def difference(spec: FunctionalSpec, graph: RcmGraph, x) -> float:
    """First-order difference of the functional at a fresh point x."""
    ctx = EvaluationContext(graph, spec)
    return ctx.value_with_additions([(x, -1)]) - ctx.base_value


def second_difference(spec: FunctionalSpec, graph: RcmGraph,
                      x, y) -> DifferenceSample:
    """All four coupled evaluations behind the second-order difference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.all(x == y):
        raise ValueError("x and y must differ")
    ctx = EvaluationContext(graph, spec)
    return DifferenceSample(
        base=ctx.base_value,
        with_x=ctx.value_with_additions([(x, -1)]),
        with_y=ctx.value_with_additions([(y, -2)]),
        with_xy=ctx.value_with_additions([(x, -1), (y, -2)]))


# ---------------------------------------------------------------------------
# graph exploration helpers (used by the per-sample bound checks)

def neighbors_with_additions(graph: RcmGraph, additions):
    """Neighbor lookup over the base graph plus fresh points.

    additions: list of (position, negative id). Returns a callable
    id -> list of adjacent ids.
    """
    base_adj = graph.adjacency()
    extra: dict[int, list] = {int(i): [] for _, i in additions}
    for u, v in graph.fresh_edges(additions).tolist():
        extra[u].append(v)
        extra.setdefault(v, []).append(u)

    def neighbors(v: int):
        out = list(base_adj[v]) if 0 <= v < graph.n else []
        out.extend(extra.get(v, []))
        return out

    return neighbors


def degree_with_additions(graph: RcmGraph, additions, vertex: int) -> int:
    return len(neighbors_with_additions(graph, additions)(vertex))


def hop_ball(graph: RcmGraph, additions, start: int, depth: int):
    """All vertex ids within the given number of edges from start."""
    neighbors = neighbors_with_additions(graph, additions)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if seen[v] == depth:
            continue
        for w in neighbors(v):
            if w not in seen:
                seen[w] = seen[v] + 1
                queue.append(w)
    return seen


def connects_to_window(graph: RcmGraph, additions, start: int,
                       depth: int, window: Window) -> bool:
    """True if some vertex within `depth` hops of start lies in the window."""
    reach = hop_ball(graph, additions, start, depth)
    add_pos = {int(i): np.asarray(p, dtype=float) for p, i in additions}
    for v in reach:
        pos = add_pos[v] if v < 0 else graph.points.points[v]
        if bool(window.contains(pos)[0]):
            return True
    return False


def hops_between(graph: RcmGraph, additions, a: int, b: int,
                 depth: int) -> bool:
    """True if a and b are connected by at most `depth` edges."""
    return b in hop_ball(graph, additions, a, depth)


# ---------------------------------------------------------------------------
# variance bounds

# The Monte Carlo estimators build their graphs in chunks of outer
# draws, each chunk one disjoint union of at most this many points (each
# graph counting one more) unless one draw alone has more: large enough
# that per-graph set-up is shared, small enough that long runs never
# hold more than one chunk and that graphs of thousands of points are
# built one at a time.
_CHUNK_POINTS = 1 << 12


def _spec_sample(spec: FunctionalSpec, seed: int):
    """The point set and mark source of the graph with this seed."""
    points = sample_poisson(spec.window, spec.padding(), spec.beta, seed)
    return points, PairMarkSource(seed)


def _spec_draw(spec: FunctionalSpec, draw, seeds):
    """An outer draw whose graphs are the spec's graphs of these seeds."""
    samples = [_spec_sample(spec, s) for s in seeds]
    return draw, [p for p, _ in samples], [m for _, m in samples]


def _batched(spec: FunctionalSpec, draws):
    """Each outer draw with the evaluation contexts of its graphs.

    draws: iterable of (draw, point sets, mark sources). Consecutive
    draws are collected up to _CHUNK_POINTS, and all their graphs are
    built and labelled as one batch. The draws are taken in order, so a
    random stream they share is read in the order of a loop over them.
    """
    chunk, size = [], 0
    for item in draws:
        n = sum(p.n + 1 for p in item[1])
        if chunk and size + n > _CHUNK_POINTS:
            yield from _chunk_contexts(spec, chunk)
            chunk, size = [], 0
        chunk.append(item)
        size += n
    yield from _chunk_contexts(spec, chunk)


def _chunk_contexts(spec: FunctionalSpec, chunk):
    graphs = iter(build_rcm_batch(
        [p for _, sets, _ in chunk for p in sets], spec.phi,
        [m for _, _, marks in chunk for m in marks]))
    for draw, sets, _ in chunk:
        yield draw, [EvaluationContext(next(graphs), spec) for _ in sets]


def poincare_bound(spec: FunctionalSpec, n_outer: int = 200,
                   n_points: int = 20, seed: int = 0) -> MomentEstimate:
    """Monte Carlo upper variance bound beta * int E(Delta_x F)^2 dx.

    The integration domain is the padded region; outside it the
    difference vanishes for compact-support connection functions.
    """
    if n_outer < 2 or n_points < 1:
        raise ValueError("budgets must be positive (n_outer >= 2)")
    rng = np.random.default_rng(seed)
    region = spec.window.pad(spec.padding())
    draws = (_spec_draw(spec, region.sample_uniform(rng, n_points),
                        [seed + 1 + i]) for i in range(n_outer))
    per_sample = np.empty(n_outer)
    for i, (xs, (ctx,)) in enumerate(_batched(spec, draws)):
        vals = np.array([ctx.value_with_additions([(x, -1)])
                         - ctx.base_value for x in xs])
        per_sample[i] = np.mean(vals ** 2)
    value, se = _mc_estimate(per_sample, spec.beta * region.volume)
    return MomentEstimate(value=value, std_error=se, n_samples=n_outer,
                          truncation_radius=spec.phi.truncation_radius(),
                          method="monte_carlo")


class _SplitMarkSource:
    """Marks from source A among old points, from source B otherwise.

    Old points are those with id in [0, n_old). Pairs among old points
    keep the fixed marks of source A; every pair involving a newer or a
    fresh (negative-id) point draws from B. The conditioning of the
    inner expectation therefore covers exactly the past configuration
    and its internal marks, while the marks carried by later-born and
    inserted points are resampled.
    """

    def __init__(self, a: PairMarkSource, b: PairMarkSource, n_old: int):
        self.a = a
        self.b = b
        self.n_old = n_old

    @staticmethod
    def _select(n_old, key_a, key_b, i, j) -> np.ndarray:
        use_a = (np.maximum(i, j) < n_old) & (np.minimum(i, j) >= 0)
        return np.where(use_a, key_a, key_b)

    def keys(self, i, j) -> np.ndarray:
        """Each pair's hash key: source A's among old points, else B's."""
        return self._select(self.n_old, self.a.keys(i, j),
                            self.b.keys(i, j), i, j)

    @staticmethod
    def stacked_keys(sources, owner, i, j) -> np.ndarray:
        """keys of many split sources at once; see marks.stacked_keys."""
        return _SplitMarkSource._select(
            np.array([s.n_old for s in sources])[owner],
            stacked_keys([s.a for s in sources], owner, i, j),
            stacked_keys([s.b for s in sources], owner, i, j), i, j)

    def mark(self, i, j):
        """Each pair hashed once, under the key of its source."""
        return pair_marks(self.keys(i, j), i, j)


def birth_time_variance(spec: FunctionalSpec, n_outer: int = 2000,
                        n_inner: int = 16, seed: int = 0) -> MomentEstimate:
    """Nested Monte Carlo evaluation of the birth-time variance identity.

    Outer draws: insertion point x, birth time t, and the points born
    before t with their mutual marks. Inner draws: the points born after
    t, resampled with fresh marks. The squared inner conditional mean is
    debiased by splitting the inner replicates into two halves. The
    padded region's volume may be at most 64.
    """
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    if n_inner < 4:
        raise ValueError("n_inner must be at least 4 for the debiasing split")
    region = spec.window.pad(spec.padding())
    if region.volume > 64.0:
        raise ValueError("padded region volume exceeds the nested-MC cap")
    rng = np.random.default_rng(seed)
    vol = region.volume
    beta = spec.beta

    def draws():
        for i in range(n_outer):
            t = rng.uniform()
            x = region.sample_uniform(rng, 1)[0]
            n_past = rng.poisson(beta * t * vol)
            past = region.sample_uniform(rng, n_past)
            past_marks = PairMarkSource(seed * 1000003 + 7 * i + 1)
            sets, marks = [], []
            for r in range(n_inner):
                n_fut = rng.poisson(beta * (1.0 - t) * vol)
                fut = region.sample_uniform(rng, n_fut)
                pts = np.concatenate([past, fut], axis=0) if n_fut else past
                sets.append(PointSet(points=pts, seed=0, region=region,
                                     beta=beta))
                fut_marks = PairMarkSource(seed * 2000003 + 7919 * i + r + 1)
                marks.append(_SplitMarkSource(past_marks, fut_marks, n_past))
            yield x, sets, marks

    half = n_inner // 2
    outer_vals = np.empty(n_outer)
    for i, (x, ctxs) in enumerate(_batched(spec, draws())):
        deltas = np.array([ctx.value_with_additions([(x, -1)])
                           - ctx.base_value for ctx in ctxs])
        outer_vals[i] = np.mean(deltas[:half]) * np.mean(deltas[half:])
    value, se = _mc_estimate(outer_vals, beta * vol)
    return MomentEstimate(value=value, std_error=se, n_samples=n_outer,
                          truncation_radius=spec.phi.truncation_radius(),
                          method="monte_carlo")


# ---------------------------------------------------------------------------
# normal-approximation terms

@dataclass(frozen=True)
class Standardization:
    mean: float
    variance: float
    source: str = "pilot"    # analytic | pilot

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive to standardize")


def pilot_standardization(spec: FunctionalSpec, n_reps: int = 400,
                          seed: int = 0) -> Standardization:
    draws = (_spec_draw(spec, None, [seed + i]) for i in range(n_reps))
    vals = np.array([ctx.base_value
                     for _, (ctx,) in _batched(spec, draws)])
    return Standardization(mean=float(np.mean(vals)),
                           variance=float(np.var(vals, ddof=1)),
                           source="pilot")


def gamma_terms(spec: FunctionalSpec, std: Standardization,
                n_outer: int = 200, n_inner: int = 8,
                seed: int = 0) -> dict[str, MomentEstimate]:
    """The six moment integrals controlling the distance to normal.

    All first and second difference values are divided by the standard
    deviation, matching the standardized functional. Inner expectations
    at sampled locations use n_inner independent realizations; square
    roots are taken after inner averaging.
    """
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    if n_inner < 4:
        raise ValueError("n_inner must be at least 4")
    rng = np.random.default_rng(seed)
    region = spec.window.pad(spec.padding())
    vol = region.volume
    beta = spec.beta
    sd = math.sqrt(std.variance)
    trunc = spec.phi.truncation_radius()

    # Second differences vanish unless the two points are within graph
    # reach of each other, so x3 is proposed in a ball around x1 and x2
    # in a ball around x3; the ball volumes enter as importance weights.
    korder = spec.max_order if spec.max_order is not None else spec.k_max
    reach = (korder + 2) * trunc
    dim = spec.window.dim
    vol_ball = unit_ball_volume(dim) * reach ** dim

    def _ball_offset():
        while True:
            u = rng.uniform(-reach, reach, dim)
            if np.dot(u, u) <= reach * reach:
                return u

    # accumulators of per-outer-draw integrand values, volume weights
    # already included
    acc = {name: np.empty(n_outer) for name in
           ("g1", "g2", "g3", "g4_inner", "g5", "g6")}
    f4 = np.empty(n_outer)

    def draws():
        for i in range(n_outer):
            x1 = region.sample_uniform(rng, 1)[0]
            x3 = x1 + _ball_offset()
            x2 = x3 + _ball_offset()
            yield _spec_draw(spec, (x1, x2, x3), range(
                seed + 1 + i * n_inner, seed + 1 + (i + 1) * n_inner))

    for i, ((x1, x2, x3), ctxs) in enumerate(_batched(spec, draws())):
        d1 = np.empty(n_inner)
        d2 = np.empty(n_inner)
        s13 = np.empty(n_inner)
        s23 = np.empty(n_inner)
        for r, ctx in enumerate(ctxs):
            base = ctx.base_value
            v1 = ctx.value_with_additions([(x1, -1)])
            v2 = ctx.value_with_additions([(x2, -1)])
            v3 = ctx.value_with_additions([(x3, -2)])
            v13 = ctx.value_with_additions([(x1, -1), (x3, -2)])
            v23 = ctx.value_with_additions([(x2, -1), (x3, -2)])
            d1[r] = (v1 - base) / sd
            d2[r] = (v2 - base) / sd
            s13[r] = (v13 - v1 - v3 + base) / sd
            s23[r] = (v23 - v2 - v3 + base) / sd
            if r == 0:
                f4[i] = ((base - std.mean) / sd) ** 4
        m_sq = max(np.mean(d1 ** 2 * d2 ** 2), 0.0)
        m_ss = max(np.mean(s13 ** 2 * s23 ** 2), 0.0)
        w3 = vol * vol_ball * vol_ball
        acc["g1"][i] = w3 * math.sqrt(m_sq) * math.sqrt(m_ss)
        acc["g2"][i] = w3 * m_ss
        acc["g3"][i] = vol * np.mean(np.abs(d1) ** 3)
        m4 = max(np.mean(d1 ** 4), 0.0)
        acc["g4_inner"][i] = vol * m4 ** 0.75
        acc["g5"][i] = vol * m4
        m4_s = max(np.mean(s13 ** 4), 0.0)
        acc["g6"][i] = vol * vol_ball * (
            6.0 * math.sqrt(m4) * math.sqrt(m4_s) + 3.0 * m4_s)

    def integ(name, lam_power):
        return _mc_estimate(acc[name], beta ** lam_power)

    ef4 = max(float(np.mean(f4)), 0.0)
    out = {}
    m, s = integ("g1", 3)
    out["gamma1"] = _sqrt_estimate(2.0, m, s, n_outer, trunc)
    m, s = integ("g2", 3)
    out["gamma2"] = _sqrt_estimate(1.0, m, s, n_outer, trunc)
    m, s = integ("g3", 1)
    out["gamma3"] = MomentEstimate(value=m, std_error=s, n_samples=n_outer,
                                   truncation_radius=trunc,
                                   method="monte_carlo")
    m, s = integ("g4_inner", 1)
    out["gamma4"] = MomentEstimate(value=0.5 * ef4 ** 0.25 * m,
                                   std_error=0.5 * ef4 ** 0.25 * s,
                                   n_samples=n_outer,
                                   truncation_radius=trunc,
                                   method="monte_carlo")
    m, s = integ("g5", 1)
    out["gamma5"] = _sqrt_estimate(1.0, m, s, n_outer, trunc)
    m, s = integ("g6", 2)
    out["gamma6"] = _sqrt_estimate(1.0, m, s, n_outer, trunc)
    return out


def _sqrt_estimate(prefactor, value, se, n, trunc) -> MomentEstimate:
    root = math.sqrt(max(value, 0.0))
    root_se = 0.5 * se / root if root > 0 else math.sqrt(max(se, 0.0))
    return MomentEstimate(value=prefactor * root,
                          std_error=prefactor * root_se,
                          n_samples=n, truncation_radius=trunc,
                          method="monte_carlo")


def fourth_moment_bound(spec: FunctionalSpec, std: Standardization,
                        n_outer: int = 300, n_inner: int = 8,
                        seed: int = 0) -> MomentEstimate:
    """Upper bound on E F^4 from fourth moments of the first difference."""
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    rng = np.random.default_rng(seed)
    region = spec.window.pad(spec.padding())
    vol = region.volume
    beta = spec.beta
    sd = math.sqrt(std.variance)
    inner_sqrt = np.empty(n_outer)
    inner_raw = np.empty(n_outer)
    draws = (_spec_draw(spec, region.sample_uniform(rng, 1)[0], range(
        seed + 1 + i * n_inner, seed + 1 + (i + 1) * n_inner))
        for i in range(n_outer))
    for i, (x, ctxs) in enumerate(_batched(spec, draws)):
        vals = np.array([(ctx.value_with_additions([(x, -1)])
                          - ctx.base_value) / sd for ctx in ctxs])
        m4 = max(float(np.mean(vals ** 4)), 0.0)
        inner_sqrt[i] = math.sqrt(m4)
        inner_raw[i] = m4
    i_sqrt, i_sqrt_se = _mc_estimate(inner_sqrt, beta * vol)
    i_raw, i_raw_se = _mc_estimate(inner_raw, beta * vol)
    branch1 = 256.0 * i_sqrt ** 2
    branch1_se = 256.0 * 2.0 * i_sqrt * i_sqrt_se
    branch2 = 4.0 * i_raw + 2.0
    branch2_se = 4.0 * i_raw_se
    if branch1 >= branch2:
        value, se = branch1, branch1_se
    else:
        value, se = branch2, branch2_se
    return MomentEstimate(value=value, std_error=se, n_samples=n_outer,
                          truncation_radius=spec.phi.truncation_radius(),
                          method="monte_carlo")


# ---------------------------------------------------------------------------
# cluster tail

@dataclass(frozen=True)
class ClusterTailEstimate:
    lower: MomentEstimate
    upper: MomentEstimate


def cluster_tail(phi: ConnectionFunction, beta: float, m: int,
                 n_samples: int = 2000, seed: int = 0) -> ClusterTailEstimate:
    """Interval estimate of the probability that the finite components
    attached to an added origin point have total order at least m.

    A component reaching the simulated boundary band has unknown extent:
    it counts toward the event in the upper estimate and against it in
    the lower one. The simulated ball has radius (m + 2) times the
    truncation radius.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    sim_radius = (m + 2) * phi.truncation_radius()
    window = Window("ball", sim_radius, phi.dim)
    hits_lo = np.zeros(n_samples)
    hits_hi = np.zeros(n_samples)
    for i in range(n_samples):
        points = sample_poisson(window, 0.0, beta, seed + i)
        graph = build_rcm(points, phi, PairMarkSource(seed + i))
        nbrs = graph.neighbors_of_point(np.zeros(phi.dim), -1)
        if len(nbrs) == 0:
            continue
        table = ComponentTable(graph, window, k_max=0)
        roots = np.unique(table.labels[nbrs])
        total = int(np.sum(table.order[roots]))
        uncertain = bool(np.any(table.boundary[roots]))
        hits_hi[i] = 1.0 if (total >= m or uncertain) else 0.0
        hits_lo[i] = 1.0 if (total >= m and not uncertain) else 0.0

    def est(vals):
        value, se = _mc_estimate(vals, 1.0)
        return MomentEstimate(value=value, std_error=se, n_samples=n_samples,
                              truncation_radius=sim_radius,
                              method="monte_carlo")

    return ClusterTailEstimate(lower=est(hits_lo), upper=est(hits_hi))


# ---------------------------------------------------------------------------
# empirical distances

def empirical_distance(samples, kind: str) -> float:
    """Distance between the empirical law and the standard normal."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    if kind == "kolmogorov":
        cdf = norm.cdf(x)
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    if kind == "wasserstein":
        n_q = 512
        u = (np.arange(n_q) + 0.5) / n_q
        emp_q = x[np.minimum((u * n).astype(int), n - 1)]
        return float(np.mean(np.abs(emp_q - norm.ppf(u))))
    raise ValueError(f"unknown distance kind {kind!r}")


def dkw_bound(n: int, confidence: float = 0.99) -> float:
    """Dvoretzky-Kiefer-Wolfowitz envelope for the Kolmogorov statistic."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))

