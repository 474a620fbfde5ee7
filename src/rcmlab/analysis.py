"""Difference operators and variance / normal-approximation estimators.

A functional F is a component statistic of one RCM realization. Adding a
fresh point x only merges the components adjacent to x, so difference
operators are evaluated incrementally: the base census is computed once
per batch of realizations and each insertion recomputes only the merged
block. The estimators evaluate every insertion of a chunk of graphs at
once (_with_additions): one kd-tree query and one mark hash decide the
fresh edges of all of them, and one pass over the component table
forms every merged component.

Every value follows one rule: a statistic gives each component integer
counts N (counts), which are summed as integers, and F = a0*N0 +
a1*N1 + ... is added in the order of a (combine). F thus depends on
the point set alone, not on ids or the realization's place in a batch.

Fresh points carry reserved negative ids, so their pair marks against
existing points are fixed by the same mark source and all four
evaluations behind a second-order difference share every common mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .census import (ComponentTable, GraphClass, MergedRows, batch_table,
                     check_canonical, counted)
from .connection import ConnectionFunction
from .geometry import Window, squared_lengths, unit_ball_volume
from .marks import PairMarkSource, pair_marks
from .moments import (MomentEstimate, _check_beta, _check_dimension,
                      _check_order, _check_weights, _linear_combination,
                      _mc_moment, _sqrt_estimate)
from .sampling import (PointSet, RcmBatch, RcmGraph, build_chunks,
                       seeded_sample)


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
        _check_beta(self.beta)
        _check_dimension(self.window, self.phi)
        if self.statistic == "count_order":
            _check_order("k", self.k)
        if self.statistic == "count_class" and not isinstance(self.cls,
                                                              GraphClass):
            raise ValueError(f"count_class needs a GraphClass cls, "
                             f"got {self.cls!r}")
        if self.statistic == "weighted":
            if not self.a or not self.classes or len(self.a) != len(self.classes):
                raise ValueError("weighted statistic needs matching a, classes")
            _check_weights("a", self.a)
        for g in self.named_classes:
            check_canonical(g)

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


def counts(spec: FunctionalSpec, rows) -> np.ndarray:
    """The statistic's int64 counts on each row of a ComponentTable or
    MergedRows, one column per weight (one per class of a weighted
    statistic, else one): 1 where the row is of the column's class
    (count_class, weighted) or has k vertices (count_order), 1 for
    total_components, and the row's points inside the window for
    point_count. A row that census.counted does not count reads 0 except
    under point_count; total_components counts in "inside" mode."""
    if spec.statistic == "point_count":
        return rows.n_inside.astype(np.int64)[:, None]
    mode = "inside" if spec.statistic == "total_components" else spec.mode
    keep = counted(rows, mode)
    if spec.statistic == "total_components":
        cols = [keep]
    elif spec.statistic == "count_order":
        cols = [keep & (rows.order == spec.k)]
    else:
        cols = [keep & (rows.order == g.order) & (rows.canon == g.canon)
                for g in spec.named_classes]
    return np.stack(cols, axis=-1).astype(np.int64)


def combine(spec: FunctionalSpec, n) -> np.ndarray:
    """F = a0*N0 + a1*N1 + ... of counts n, one column per weight on the
    last axis (a = (1.0,) unless the statistic is weighted): the terms
    added in the order of a, starting from +0.0, so that a zero count
    never reads -0."""
    value = 0.0
    for j, w in enumerate(spec.a if spec.statistic == "weighted" else (1.0,)):
        value = value + float(w) * n[..., j]
    return value


# ---------------------------------------------------------------------------
# incremental evaluation

class EvaluationContext:
    """Base-realization census with support for fresh-point insertions.

    The context reads its realization's rows of the component table over
    the graph's whole batch, the statistic's counts on every component
    of the batch, every realization's counts and F, all computed once per
    batch and spec: realization r's labels c0 + c and ids v0 + i are its
    own labels c and ids i. Values with additions that _batched
    evaluated for the whole chunk are looked up; any other is evaluated
    on its own.
    """

    def __init__(self, graph: RcmGraph, spec: FunctionalSpec):
        self.graph = graph
        self.spec = spec

        def values():
            table = batch_table(graph, spec.window, spec.class_order)
            n = counts(spec, table)
            totals = table.realization_totals(n)
            return table, n, totals, combine(spec, totals)

        # the table, the counts and F ride in the spec's entry, so that a
        # context hashes the spec, its costliest key, once
        self._values = graph.batch.shared(("values", spec), values)
        self._table, _, _, base = self._values
        self.base_value = float(base[graph.index])
        self._known = {}

    @cached_property
    def comps(self) -> ComponentTable:
        """The realization's component table, in its own labels and ids."""
        return self._table.view(self.graph.index)

    def value_with_additions(self, additions) -> float:
        """f of the realization augmented by fresh points.

        additions: sequence of (position, negative id). Marks between an
        added point and every other point come from the graph's mark
        source keyed by the ids, so repeated evaluations are coupled.
        The value is _with_additions' for this one insertion.
        """
        if not additions:
            return self.base_value
        value = self._known.get(_key(additions))
        if value is None:
            value = float(_with_additions(
                self.graph.batch, self.spec, self._values,
                [(self.graph.index, additions)])[0])
        return value


def _key(additions) -> tuple:
    """The additions by value: each fresh point's id and position bytes."""
    return tuple((int(i), np.asarray(p, dtype=float).tobytes())
                 for p, i in additions)


def _inserted(table: ComponentTable, batch: RcmBatch,
              insertions) -> MergedRows:
    """The merged components of many insertions into batch's
    realizations, table being the batch's table: insertions are
    (realization, additions) pairs, each taken alone, additions a
    sequence of (position, negative id). One kd-tree query and one mark
    hash serve every fresh point (RcmBatch.fresh_edges), one pass over
    the table every merged component (ComponentTable.merged)."""
    owner, ins, ids, pos = [], [], [], []
    for q, (r, additions) in enumerate(insertions):
        for p, i in additions:
            owner.append(r)
            ins.append(q)
            ids.append(i)
            pos.append(p)
    ins = np.array(ins, dtype=np.int64)
    pos = np.array(pos, dtype=float).reshape(len(ins), batch.points.shape[1])
    return table.merged(ins, pos, *batch.fresh_edges(owner, ins, ids, pos))


def _with_additions(batch: RcmBatch, spec: FunctionalSpec, values,
                    insertions) -> np.ndarray:
    """F of each realization r augmented by additions, for each
    (r, additions) of insertions; values is the batch's (table, row
    counts, realization counts, F) entry for spec.

    Only the components that an insertion's fresh points join change:
    each group of fresh points, with the components it touches, becomes
    one merged component. An insertion's counts are its realization's,
    plus its merged components' counts, minus the counts of the
    components they join; its value is their combination.
    """
    table, n, totals, _ = values
    rows = _inserted(table, batch, insertions)
    total = totals[[r for r, _ in insertions]]
    np.add.at(total, rows.insertion, counts(spec, rows))
    np.subtract.at(total, rows.insertion[rows.joins], n[rows.roots])
    return combine(spec, total)


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
# variance bounds

def _spec_draw(spec: FunctionalSpec, draw, seeds):
    """An outer draw whose graphs are the spec's graphs of these seeds."""
    return draw, [seeded_sample(spec.window, spec.padding(), spec.beta, s)
                  for s in seeds]


def _batched(spec: FunctionalSpec, draws, insertions):
    """Each outer draw's payload with F on each of its graphs (base,
    shape (g,)) and F with each insertion of insertions(payload) (values,
    shape (g, len(insertions(payload)))), the graphs built by
    sampling.build_chunks.

    _with_additions evaluates the insertions of a whole chunk at once,
    and each value is read through its context's value_with_additions.
    """
    for chunk in build_chunks(draws, spec.phi):
        drawn = [(payload, [EvaluationContext(g, spec) for g in graphs],
                  insertions(payload)) for payload, graphs in chunk]
        asked = [(ctx, additions) for _, ctxs, adds in drawn
                 for additions in adds for ctx in ctxs]
        if asked:
            head = asked[0][0]
            values = _with_additions(
                head.graph.batch, spec, head._values,
                [(ctx.graph.index, additions) for ctx, additions in asked])
            for (ctx, additions), value in zip(asked, values.tolist()):
                ctx._known[_key(additions)] = value
        for payload, ctxs, adds in drawn:
            yield (payload, np.array([ctx.base_value for ctx in ctxs]),
                   np.array([[ctx.value_with_additions(additions)
                              for additions in adds] for ctx in ctxs]))


def poincare_bound(spec: FunctionalSpec, n_outer: int = 200,
                   n_points: int = 20, seed: int = 0) -> MomentEstimate:
    """Monte Carlo upper variance bound beta * int E(Delta_x F)^2 dx.

    The integration domain is the padded region; outside it the
    difference vanishes for compact-support connection functions.
    """
    n_outer = _check_order("n_outer", n_outer, 2)
    n_points = _check_order("n_points", n_points)
    seed = _check_order("seed", seed, 0)
    rng = np.random.default_rng(seed)
    region = spec.window.pad(spec.padding())
    draws = (_spec_draw(spec, region.sample_uniform(rng, n_points),
                        [seed + 1 + i]) for i in range(n_outer))
    per_sample = np.array([
        np.mean((values[0] - base[0]) ** 2) for _, base, values in _batched(
            spec, draws, lambda xs: [[(x, -1)] for x in xs])])
    return _mc_moment(per_sample, spec.beta * region.volume,
                      spec.phi.truncation_radius())


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
        """keys of many split sources at once; see PairMarkSource."""
        return _SplitMarkSource._select(
            np.array([s.n_old for s in sources])[owner],
            PairMarkSource.stacked_keys([s.a for s in sources], owner, i, j),
            PairMarkSource.stacked_keys([s.b for s in sources], owner, i, j),
            i, j)

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
    n_outer = _check_order("n_outer", n_outer, 2)
    n_inner = _check_order("n_inner", n_inner, 4)
    seed = _check_order("seed", seed, 0)
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
            samples = []
            for r in range(n_inner):
                n_fut = rng.poisson(beta * (1.0 - t) * vol)
                fut = region.sample_uniform(rng, n_fut)
                pts = np.concatenate([past, fut], axis=0) if n_fut else past
                fut_marks = PairMarkSource(seed * 2000003 + 7919 * i + r + 1)
                samples.append((
                    PointSet(points=pts, seed=0, region=region, beta=beta),
                    _SplitMarkSource(past_marks, fut_marks, n_past)))
            yield x, samples

    half = n_inner // 2
    deltas = (values[:, 0] - base for _, base, values in _batched(
        spec, draws(), lambda x: [[(x, -1)]]))
    outer_vals = np.array([np.mean(d[:half]) * np.mean(d[half:])
                           for d in deltas])
    return _mc_moment(outer_vals, beta * vol, spec.phi.truncation_radius())


# ---------------------------------------------------------------------------
# normal-approximation terms

@dataclass(frozen=True)
class Standardization:
    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be finite and positive to "
                             "standardize")


def pilot_standardization(spec: FunctionalSpec, n_reps: int = 400,
                          seed: int = 0) -> Standardization:
    n_reps = _check_order("n_reps", n_reps, 2)
    seed = _check_order("seed", seed, 0)
    draws = (_spec_draw(spec, None, [seed + i]) for i in range(n_reps))
    vals = np.concatenate([base for _, base, _ in _batched(
        spec, draws, lambda _: ())])
    return Standardization(mean=float(np.mean(vals)),
                           variance=float(np.var(vals, ddof=1)))


def gamma_terms(spec: FunctionalSpec, std: Standardization,
                n_outer: int = 200, n_inner: int = 8,
                seed: int = 0) -> dict[str, MomentEstimate]:
    """The six moment integrals controlling the distance to normal.

    All first and second difference values are divided by the standard
    deviation, matching the standardized functional. Inner expectations
    at sampled locations use n_inner independent realizations; square
    roots are taken after inner averaging.
    """
    n_outer = _check_order("n_outer", n_outer, 2)
    n_inner = _check_order("n_inner", n_inner, 4)
    seed = _check_order("seed", seed, 0)
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
            if squared_lengths(u) <= reach * reach:
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

    def insertions(points):
        x1, x2, x3 = points
        return ([(x1, -1)], [(x2, -1)], [(x3, -2)], [(x1, -1), (x3, -2)],
                [(x2, -1), (x3, -2)])

    w3 = vol * vol_ball * vol_ball
    for i, (_, base, values) in enumerate(_batched(spec, draws(), insertions)):
        v1, v2, v3, v13, v23 = values.T
        d1 = (v1 - base) / sd
        d2 = (v2 - base) / sd
        s13 = (v13 - v1 - v3 + base) / sd
        s23 = (v23 - v2 - v3 + base) / sd
        f4[i] = ((base[0] - std.mean) / sd) ** 4
        m_sq = max(np.mean(d1 ** 2 * d2 ** 2), 0.0)
        m_ss = max(np.mean(s13 ** 2 * s23 ** 2), 0.0)
        acc["g1"][i] = w3 * math.sqrt(m_sq) * math.sqrt(m_ss)
        acc["g2"][i] = w3 * m_ss
        acc["g3"][i] = vol * np.mean(np.abs(d1) ** 3)
        m4 = max(np.mean(d1 ** 4), 0.0)
        acc["g4_inner"][i] = vol * m4 ** 0.75
        acc["g5"][i] = vol * m4
        m4_s = max(np.mean(s13 ** 4), 0.0)
        acc["g6"][i] = vol * vol_ball * (
            6.0 * math.sqrt(m4) * math.sqrt(m4_s) + 3.0 * m4_s)

    ef4 = max(float(np.mean(f4)), 0.0)
    est = {name: _mc_moment(acc[name], beta ** power, trunc) for name, power
           in (("g1", 3), ("g2", 3), ("g3", 1), ("g4_inner", 1), ("g5", 1),
               ("g6", 2))}
    return {"gamma1": _sqrt_estimate(2.0, est["g1"]),
            "gamma2": _sqrt_estimate(1.0, est["g2"]),
            "gamma3": est["g3"],
            "gamma4": _linear_combination([(0.5 * ef4 ** 0.25,
                                            est["g4_inner"])]),
            "gamma5": _sqrt_estimate(1.0, est["g5"]),
            "gamma6": _sqrt_estimate(1.0, est["g6"])}


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
    _check_beta(beta)
    m = _check_order("m", m)
    n_samples = _check_order("n_samples", n_samples, 2)
    seed = _check_order("seed", seed, 0)
    sim_radius = (m + 2) * phi.truncation_radius()
    window = Window("ball", sim_radius, phi.dim)
    hits_lo = np.zeros(n_samples)
    hits_hi = np.zeros(n_samples)
    draws = ((i, [seeded_sample(window, 0.0, beta, seed + i)])
             for i in range(n_samples))
    origin = [(np.zeros(phi.dim), -1)]
    for chunk in build_chunks(draws, phi):
        graphs = [graph for _, (graph,) in chunk]
        # one merged component per sample: the origin and the components
        # it joins; the origin lies m + 2 truncation radii inside the
        # boundary, so the merged component touches the boundary band
        # exactly when a component it joins does
        rows = _inserted(batch_table(graphs[0], window, 0), graphs[0].batch,
                         [(graph.index, origin) for graph in graphs])
        total = rows.order - 1
        i = [i for i, _ in chunk]
        hits_hi[i] = (total >= m) | rows.boundary
        hits_lo[i] = (total >= m) & ~rows.boundary
    return ClusterTailEstimate(lower=_mc_moment(hits_lo, 1.0, sim_radius),
                               upper=_mc_moment(hits_hi, 1.0, sim_radius))


# ---------------------------------------------------------------------------
# empirical distances

def empirical_distance(samples, kind: str) -> float:
    """Distance between the empirical law and the standard normal."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 2 or not np.all(np.isfinite(x)):
        raise ValueError("need at least two samples, all finite")
    if kind == "kolmogorov":
        cdf = ndtr(x)
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    if kind == "wasserstein":
        n_q = 512
        u = (np.arange(n_q) + 0.5) / n_q
        emp_q = x[np.minimum((u * n).astype(int), n - 1)]
        return float(np.mean(np.abs(emp_q - ndtri(u))))
    raise ValueError(f"unknown distance kind {kind!r}")


def dkw_bound(n: int, confidence: float = 0.99) -> float:
    """Dvoretzky-Kiefer-Wolfowitz envelope for the Kolmogorov statistic."""
    n = _check_order("n", n)
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))

