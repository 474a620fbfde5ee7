"""Functionals, difference operators, variance bounds, distances."""

import math
import re

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from rcmlab.analysis import (DifferenceSample, EvaluationContext,
                             FunctionalSpec, Standardization,
                             birth_time_variance, cluster_tail,
                             difference, dkw_bound, empirical_distance,
                             evaluate, gamma_terms, pilot_standardization,
                             poincare_bound, second_difference)
from rcmlab.census import (ComponentTable, GraphClass, canonical_form,
                           census, edge_class, path_class,
                           single_vertex_class)
from rcmlab.connection import ConnectionFunction
from rcmlab.geometry import Window, lex_order
from rcmlab.marks import PairMarkSource
from rcmlab.moments import (asy_cov, asy_cov_kl, asy_var_quadratic,
                            expected_count_intensity, finite_window_cov,
                            sigma_total_partial)
from rcmlab.sampling import PointSet, RcmGraph, build_rcm, sample_poisson

GILBERT = ConnectionFunction("gilbert", 2, r=1.0)
W = Window("box", 3.0, 2)


def _graph(seed, spec, beta=1.0):
    pts = sample_poisson(spec.window, spec.padding(), beta, seed)
    return build_rcm(pts, spec.phi, PairMarkSource(seed))


def _empty_graph(spec):
    region = spec.window.pad(spec.padding())
    pts = PointSet(points=np.empty((0, 2)), seed=0, region=region, beta=1.0)
    return build_rcm(pts, spec.phi, PairMarkSource(0))


def test_spec_validation_and_padding():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=3)
    assert spec.padding() == pytest.approx(4.0)
    assert FunctionalSpec("point_count", W, GILBERT, 1.0).padding() == 0.0
    assert FunctionalSpec("total_components", W, GILBERT, 1.0,
                          k_max=5).padding() == pytest.approx(6.0)


def test_evaluate_matches_census():
    spec1 = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    spec2 = FunctionalSpec("count_class", W, GILBERT, 1.0, cls=edge_class())
    spec3 = FunctionalSpec("total_components", W, GILBERT, 1.0)
    for seed in range(10):
        g = _graph(seed, spec3)
        rep = census(g, W, k_max=5)
        assert evaluate(spec1, g) == rep.eta_k(1)
        assert evaluate(spec2, g) == rep.eta_G(edge_class())
        assert evaluate(spec3, g) == rep.alpha


def test_difference_isolated_vertex_on_empty_sample():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    g = _empty_graph(spec)
    assert difference(spec, g, np.array([0.0, 0.0])) == 1.0
    # outside the window: the new isolated vertex is not counted
    assert difference(spec, g, np.array([3.5, 0.0])) == 0.0


def test_difference_far_point_is_local():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=2)
    for seed in range(5):
        g = _graph(seed, spec)
        # far outside every interaction range and outside W
        assert difference(spec, g, np.array([60.0, 60.0])) == 0.0


def test_difference_duplicate_point_rejected():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    g = _graph(3, spec)
    with pytest.raises(ValueError):
        second_difference(spec, g, g.points.points[0], g.points.points[0])


def test_second_difference_independent_insertions():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    g = _empty_graph(spec)
    s = second_difference(spec, g, np.array([0.0, 0.0]),
                          np.array([2.5, 2.5]))
    assert s.second == 0.0
    assert s.delta_x == 1.0 and s.delta_y == 1.0


def test_second_difference_symmetry():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=2)
    rng = np.random.default_rng(4)
    for seed in range(20):
        g = _graph(seed, spec)
        x = rng.uniform(-4, 4, 2)
        y = rng.uniform(-4, 4, 2)
        a = second_difference(spec, g, x, y)
        b = second_difference(spec, g, y, x)
        assert a.second == pytest.approx(b.second)


def _recount(spec, g, additions):
    """f of the graph plus fresh points, from a rebuild in which every
    pair is re-tested with the same marks and networkx finds the
    components; classes come from canonical_form of each component.
    The components' counts, one per weight, are summed as integers and
    combined as a0*N0 + a1*N1 + ... in the order of a from +0.0."""
    pts = np.vstack([g.points.points] + [np.asarray(p)[None]
                                         for p, _ in additions])
    ids = np.array(list(range(g.n)) + [i for _, i in additions])
    inside = W.contains(pts)
    if spec.statistic == "point_count":
        return float(np.sum(inside))
    a, b = np.triu_indices(len(pts), 1)
    d = np.linalg.norm(pts[a] - pts[b], axis=1)
    near = d <= g.rmax
    a, b, d = a[near], b[near], d[near]
    joined = g.marks.mark(ids[a], ids[b]) <= spec.phi.phi_of_dist(d)
    full = nx.empty_graph(len(pts))
    full.add_edges_from(zip(a[joined].tolist(), b[joined].tolist()))
    region = g.points.region
    weights = spec.a if spec.statistic == "weighted" else (1.0,)
    classes = (spec.cls,) if spec.statistic == "count_class" else spec.classes
    n = [0] * len(weights)
    for members in nx.connected_components(full):
        idx = sorted(members)
        if np.min(region.boundary_distance(pts[idx])) < g.rmax:
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
        elif len(idx) <= max(c.order for c in classes):
            adj = nx.to_numpy_array(full.subgraph(idx), dtype=bool)
            cls = canonical_form(adj)
            n = [m + int(cls == c) for m, c in zip(n, classes)]
    val = 0.0
    for w, m in zip(weights, n):
        val += w * m
    return val


def test_difference_against_full_recount():
    """Incremental insertion agrees with a from-scratch rebuild."""
    spec = FunctionalSpec("total_components", W, GILBERT, 1.0)
    rng = np.random.default_rng(7)
    for seed in range(10):
        g = _graph(seed, spec)
        x = rng.uniform(-5, 5, 2)
        ctx = EvaluationContext(g, spec)
        incremental = ctx.value_with_additions([(x, -1)])
        assert incremental == pytest.approx(_recount(spec, g, [(x, -1)]))
    # every statistic, one to three fresh points placed close together
    # so that they join each other and the same components
    classes = (single_vertex_class(), edge_class(), path_class(3))
    specs = [
        FunctionalSpec("count_class", W, GILBERT, 1.0, cls=path_class(3)),
        FunctionalSpec("count_order", W, GILBERT, 1.0, k=2, mode="inside"),
        FunctionalSpec("weighted", W, GILBERT, 1.0, a=(0.3, -1.7, 2.9),
                       classes=classes),
        FunctionalSpec("weighted", W, GILBERT, 1.0, a=(0.3, -1.7, 2.9),
                       classes=classes, mode="inside"),
        FunctionalSpec("total_components", W, GILBERT, 1.0),
        FunctionalSpec("point_count", W, GILBERT, 1.0),
    ]
    for spec in specs:
        for seed in range(6):
            g = _graph(seed, spec, beta=0.6)
            ctx = EvaluationContext(g, spec)
            for m in (1, 2, 3, 2, 3):
                centre = rng.uniform(-3.5, 3.5, 2)
                ids = rng.permutation([-1, -2, -3])[:m].tolist()
                additions = [(centre + rng.normal(0, 0.6, 2), i)
                             for i in ids]
                incremental = ctx.value_with_additions(additions)
                assert incremental == _recount(spec, g, additions)


def test_fresh_ids_are_validated():
    """Fresh points need distinct negative ids; a nonnegative id would
    be taken for a base vertex."""
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    g = _graph(1, spec)
    x = -g.points.points[3]
    y = x + 0.5
    ctx = EvaluationContext(g, spec)
    for additions in ([(x, 3)], [(x, 0)], [(x, -1), (y, -1)]):
        with pytest.raises(ValueError, match="distinct negative ids"):
            g.fresh_edges(additions)
        with pytest.raises(ValueError, match="distinct negative ids"):
            ctx.value_with_additions(additions)
    with pytest.raises(ValueError, match="duplicates"):
        g.fresh_edges([(g.points.points[3], -1)])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), "x", True])
def test_weights_must_be_finite_real_numbers(weight):
    """A spec refuses weights that are not finite real numbers, bools
    included, whether or not a configuration file named them."""
    with pytest.raises(ValueError, match="weights a must be finite real"):
        FunctionalSpec("weighted", W, GILBERT, 1.0, a=(1.0, weight),
                       classes=(single_vertex_class(), edge_class()))


@pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf])
def test_spec_refuses_a_bad_beta(beta):
    with pytest.raises(ValueError, match="^beta: must be positive"):
        FunctionalSpec("count_order", W, GILBERT, beta, k=1)


def test_classes_resolved_beyond_k_max():
    """The statistic's class, not k_max, sets which classes are resolved:
    k_max only sets the padding of unbounded statistics."""
    spec = FunctionalSpec("count_class", Window("box", 10.0, 2), GILBERT,
                          1.0, cls=path_class(3), k_max=2)
    assert spec.padding() == pytest.approx(4.0)
    counts = []
    for seed in range(5):
        g = _graph(seed, spec)
        counts.append(census(g, spec.window, k_max=5).eta_G(path_class(3)))
        assert evaluate(spec, g) == counts[-1]
    assert counts == [1, 4, 5, 2, 1]


def test_equal_specs_share_one_table(monkeypatch):
    """Windows and specs are cache keys by value: an equal spec that is
    another object, and a census on an equal window, reuse the table."""
    built = []
    init = ComponentTable.__init__
    monkeypatch.setattr(ComponentTable, "__init__",
                        lambda self, *args: built.append(init(self, *args)))
    spec = FunctionalSpec("count_class", W, GILBERT, 1.0, cls=edge_class())
    twin = FunctionalSpec("count_class", Window("box", 3.0, 2),
                          ConnectionFunction("gilbert", 2, r=1.0), 1.0,
                          cls=GraphClass.from_class_id("2:1"))
    assert twin is not spec and twin == spec and hash(twin) == hash(spec)
    g = _graph(3, spec)
    assert EvaluationContext(g, spec).base_value == \
        EvaluationContext(g, twin).base_value == \
        census(g, Window("box", 3.0, 2), k_max=2).eta_G(edge_class())
    assert len(built) == 1


class _RelabeledMarks:
    """The marks of a graph whose ids were permuted: id i is perm[i] there.

    Negative (inserted-point) ids keep their marks.
    """

    def __init__(self, marks, perm):
        self.marks = marks
        self.perm = perm

    def _id(self, i):
        i = np.asarray(i, dtype=np.int64)
        return np.where(i >= 0, self.perm[np.maximum(i, 0)], i)

    def mark(self, i, j):
        return self.marks.mark(self._id(i), self._id(j))


def test_lexmin_independent_of_id_order():
    """Lexmin counts follow the coordinates, not the order of the ids.

    The weighted spec resolves classes of order up to 3, so the shuffled
    ids reach the component table's class packing and the merged
    components of insertions in an order that is not lexicographic.
    Its values combine integer counts, so they agree exactly.
    """
    classes = tuple(GraphClass.from_class_id(c) for c in ("1:0", "2:1", "3:3"))
    specs = [FunctionalSpec("count_order", W, GILBERT, 1.0, k=2,
                            mode="lexmin"),
             FunctionalSpec("weighted", W, GILBERT, 1.0, a=(0.3, -1.7, 2.9),
                            classes=classes)]
    for spec in specs:
        rng = np.random.default_rng(11)
        for seed in range(20):
            g = _graph(seed, spec)
            perm = rng.permutation(g.n)
            points = PointSet(points=g.points.points[perm],
                              seed=g.points.seed, region=g.points.region,
                              beta=g.points.beta)
            edges = np.sort(np.argsort(perm)[g.edges], axis=1)
            shuffled = RcmGraph(points=points, phi=g.phi,
                                marks=_RelabeledMarks(g.marks, perm),
                                edges=edges, rmax=g.rmax)
            assert census(shuffled, W) == census(g, W)
            ctx = EvaluationContext(g, spec)
            ctx_shuffled = EvaluationContext(shuffled, spec)
            assert ctx_shuffled.base_value == ctx.base_value
            for x in rng.uniform(-4, 4, (3, 2)):
                assert ctx_shuffled.value_with_additions([(x, -1)]) == \
                    ctx.value_with_additions([(x, -1)])


def test_per_sample_difference_bounds(reach_oracle):
    """Degree-based envelopes for first and second differences."""
    a = (1.0, -2.0)
    classes = (single_vertex_class(), edge_class())
    spec = FunctionalSpec("weighted", W, GILBERT, 1.0, a=a, classes=classes)
    a_inf = 2.0
    k = 2
    rng = np.random.default_rng(0)
    for seed in range(60):
        g = _graph(seed, spec)
        x = rng.uniform(-4.5, 4.5, 2)
        y = rng.uniform(-4.5, 4.5, 2)
        env1, env2 = reach_oracle(g).envelopes(x, y, W, a_inf, k)
        assert abs(difference(spec, g, x)) <= env1 + 1e-9
        assert abs(second_difference(spec, g, x, y).second) <= env2 + 1e-9


def test_poincare_pure_count_exact():
    spec = FunctionalSpec("point_count", Window("box", 2.0, 2), GILBERT, 1.0)
    est = poincare_bound(spec, n_outer=150, n_points=20, seed=0)
    # Delta_x F = 1{x in W}; the bound equals beta * volume
    assert abs(est.value - 16.0) <= 3.0 * est.std_error


def test_poincare_error_scaling():
    spec = FunctionalSpec("count_order", Window("box", 2.0, 2), GILBERT,
                          1.0, k=1)
    a = poincare_bound(spec, n_outer=100, n_points=10, seed=1)
    b = poincare_bound(spec, n_outer=400, n_points=10, seed=2)
    assert b.std_error < a.std_error


def test_poincare_budget_validation():
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    with pytest.raises(ValueError):
        poincare_bound(spec, n_outer=1)
    with pytest.raises(ValueError, match="n_points must be an integer >= 1"):
        poincare_bound(spec, n_points=0)


@pytest.mark.parametrize("estimator", [
    lambda spec, std: poincare_bound(spec, n_outer=1),
    lambda spec, std: birth_time_variance(spec, n_outer=1, n_inner=4),
    lambda spec, std: gamma_terms(spec, std, n_outer=1),
    lambda spec, std: cluster_tail(GILBERT, 1.0, 2, n_samples=1),
], ids=["poincare_bound", "birth_time_variance", "gamma_terms",
        "cluster_tail"])
def test_single_draw_budgets_are_rejected(estimator):
    # one draw has no sample standard error
    spec = FunctionalSpec("point_count", Window("box", 1.5, 2), GILBERT, 1.0)
    std = Standardization(mean=9.0, variance=9.0)
    with pytest.raises(ValueError, match="must be an integer >= 2"):
        estimator(spec, std)


_POINTS = FunctionalSpec("point_count", Window("box", 1.5, 2), GILBERT, 1.0)
_STD = Standardization(mean=9.0, variance=9.0)

# (count or seed argument, least value, call with it); every other budget
# small
_COUNTS = [pytest.param(name, least, call, id=f"{fn}-{name}")
           for fn, name, least, call in [
    ("poincare_bound", "n_outer", 2,
     lambda n: poincare_bound(_POINTS, n_outer=n, n_points=1)),
    ("poincare_bound", "n_points", 1,
     lambda n: poincare_bound(_POINTS, n_outer=2, n_points=n)),
    ("birth_time_variance", "n_outer", 2,
     lambda n: birth_time_variance(_POINTS, n_outer=n, n_inner=4)),
    ("birth_time_variance", "n_inner", 4,
     lambda n: birth_time_variance(_POINTS, n_outer=2, n_inner=n)),
    ("gamma_terms", "n_outer", 2,
     lambda n: gamma_terms(_POINTS, _STD, n_outer=n, n_inner=4)),
    ("gamma_terms", "n_inner", 4,
     lambda n: gamma_terms(_POINTS, _STD, n_outer=2, n_inner=n)),
    ("pilot_standardization", "n_reps", 2,
     lambda n: pilot_standardization(_POINTS, n_reps=n)),
    ("cluster_tail", "n_samples", 2,
     lambda n: cluster_tail(GILBERT, 1.0, 2, n_samples=n)),
    ("expected_count_intensity", "n_samples", 2,
     lambda n: expected_count_intensity(edge_class(), GILBERT, 1.0,
                                        n_samples=n)),
    ("asy_cov", "n_samples", 2,
     lambda n: asy_cov(edge_class(), edge_class(), GILBERT, GILBERT, 1.0,
                       n_samples=n)),
    ("asy_cov_kl", "n_samples", 2,
     lambda n: asy_cov_kl(1, 1, GILBERT, GILBERT, 1.0, n_samples=n)),
    ("finite_window_cov", "n_samples", 2,
     lambda n: finite_window_cov(edge_class(), edge_class(), GILBERT,
                                 GILBERT, W, 1.0, n_samples=n)),
    ("asy_var_quadratic", "n_samples", 2,
     lambda n: asy_var_quadratic([1.0], [edge_class()], GILBERT, 1.0,
                                 n_samples=n)),
    ("sigma_total_partial", "n_samples", 2,
     lambda n: sigma_total_partial(1, GILBERT, 1.0, n_samples=n)),
    ("FunctionalSpec", "k", 1,
     lambda n: FunctionalSpec("count_order", W, GILBERT, 1.0, k=n)),
    ("poincare_bound", "seed", 0,
     lambda n: poincare_bound(_POINTS, n_outer=2, n_points=1, seed=n)),
    ("birth_time_variance", "seed", 0,
     lambda n: birth_time_variance(_POINTS, n_outer=2, n_inner=4, seed=n)),
    ("gamma_terms", "seed", 0,
     lambda n: gamma_terms(_POINTS, _STD, n_outer=2, n_inner=4, seed=n)),
    ("pilot_standardization", "seed", 0,
     lambda n: pilot_standardization(_POINTS, n_reps=2, seed=n)),
    ("cluster_tail", "seed", 0,
     lambda n: cluster_tail(GILBERT, 1.0, 2, n_samples=2, seed=n)),
    ("expected_count_intensity", "seed", 0,
     lambda n: expected_count_intensity(edge_class(), GILBERT, 1.0,
                                        n_samples=2, seed=n)),
    ("asy_cov", "seed", 0,
     lambda n: asy_cov(edge_class(), edge_class(), GILBERT, GILBERT, 1.0,
                       n_samples=2, seed=n)),
    ("asy_cov_kl", "seed", 0,
     lambda n: asy_cov_kl(1, 1, GILBERT, GILBERT, 1.0, n_samples=2,
                          seed=n)),
    ("finite_window_cov", "seed", 0,
     lambda n: finite_window_cov(edge_class(), edge_class(), GILBERT,
                                 GILBERT, W, 1.0, n_samples=2, seed=n)),
    ("asy_var_quadratic", "seed", 0,
     lambda n: asy_var_quadratic([1.0], [edge_class()], GILBERT, 1.0,
                                 n_samples=2, seed=n)),
    ("sigma_total_partial", "seed", 0,
     lambda n: sigma_total_partial(1, GILBERT, 1.0, n_samples=2, seed=n)),
]]


@pytest.mark.parametrize("bad", ["true", "2.5", "float64", "below"])
@pytest.mark.parametrize("name, least, call", _COUNTS)
def test_every_count_refuses_what_is_not_an_integer_at_its_least(
        name, least, call, bad):
    """Floats, numpy floats and bools are refused like a count below its
    least value, by one check that names the argument."""
    value = {"true": True, "2.5": 2.5, "float64": np.float64(3.0),
             "below": least - 1}[bad]
    with pytest.raises(ValueError, match=(
            f"^{name} must be an integer >= {least}, "
            f"got {re.escape(repr(value))}$")):
        call(value)


@pytest.mark.parametrize("weight", [True, "1.5", math.nan],
                         ids=["true", "string", "nan"])
@pytest.mark.parametrize("call", [
    lambda a: FunctionalSpec("weighted", W, GILBERT, 1.0, a=a,
                             classes=(single_vertex_class(), edge_class())),
    lambda a: asy_var_quadratic(a, [single_vertex_class(), edge_class()],
                                GILBERT, 1.0, n_samples=2),
], ids=["FunctionalSpec", "asy_var_quadratic"])
def test_every_weight_vector_refuses_what_is_not_a_finite_real(call, weight):
    with pytest.raises(ValueError, match="^weights a must be finite real "
                                         "numbers, got "):
        call((1.0, weight))


def test_birth_time_pure_count_exact():
    w = Window("box", 1.5, 2)
    spec = FunctionalSpec("point_count", w, GILBERT, 1.0)
    est = birth_time_variance(spec, n_outer=100, n_inner=8, seed=0)
    assert est.value == pytest.approx(w.volume)
    assert est.std_error == pytest.approx(0.0)


def test_birth_time_budget_and_cap():
    w = Window("box", 1.5, 2)
    spec = FunctionalSpec("point_count", w, GILBERT, 1.0)
    with pytest.raises(ValueError):
        birth_time_variance(spec, n_outer=10, n_inner=2)
    big = FunctionalSpec("count_order", Window("box", 20.0, 2), GILBERT,
                         1.0, k=1)
    with pytest.raises(ValueError):
        birth_time_variance(big, n_outer=10, n_inner=8)


def test_standardization_rejects_zero_variance():
    with pytest.raises(ValueError):
        Standardization(mean=0.0, variance=0.0)


@pytest.mark.parametrize("variance", [math.nan, math.inf, -1.0])
def test_standardization_rejects_non_finite_variance(variance):
    with pytest.raises(ValueError, match="finite and positive"):
        Standardization(mean=0.0, variance=variance)


@pytest.mark.parametrize("n_reps", [0, 1])
def test_pilot_needs_two_replicates(n_reps):
    # fewer than two values have no sample variance (NaN, not an error)
    spec = FunctionalSpec("count_order", W, GILBERT, 1.0, k=1)
    with pytest.raises(ValueError, match="n_reps must be an integer >= 2"):
        pilot_standardization(spec, n_reps=n_reps)


def test_gamma_pure_count_oracle():
    w = Window("box", 3.0, 2)
    spec = FunctionalSpec("point_count", w, GILBERT, 1.0)
    std = Standardization(mean=w.volume, variance=w.volume)
    g = gamma_terms(spec, std, n_outer=120, n_inner=8, seed=5)
    # linear functional: second differences vanish identically
    assert g["gamma1"].value == 0.0
    assert g["gamma2"].value == 0.0
    assert g["gamma6"].value == 0.0
    expect = (w.volume) ** -0.5
    assert abs(g["gamma3"].value - expect) <= \
        3.0 * g["gamma3"].std_error + 1e-12


def test_gamma_budget_validation():
    spec = FunctionalSpec("point_count", W, GILBERT, 1.0)
    std = Standardization(mean=36.0, variance=36.0)
    with pytest.raises(ValueError):
        gamma_terms(spec, std, n_inner=2)


def test_cluster_tail_degree_lower_bound():
    beta = 1.0
    est = cluster_tail(GILBERT, beta, 1, n_samples=800, seed=6)
    floor = 1.0 - math.exp(-beta * GILBERT.m_phi)
    assert est.upper.value >= est.lower.value
    assert est.upper.value >= floor - 3.0 * est.upper.std_error


@pytest.mark.parametrize("m", [4, 6])
def test_cluster_tail_brackets_the_d1_tail(m):
    """In d = 1 under Gilbert phi (beta = r = 1) the origin's left and right
    run lengths L, R are iid geometric with q = 1 - e^{-1}, so
    P(L + R >= m) = 1 - sum_{j<m} (j+1) q^j (1-q)^2 exactly. At seed 3 the
    upper bound reads z = -1.18 (m = 4) and -1.95 (m = 6), the lower
    bound z = -4.09 and -2.38."""
    q = 1.0 - math.exp(-1.0)
    tail = 1.0 - sum((j + 1) * q ** j * (1.0 - q) ** 2 for j in range(m))
    est = cluster_tail(ConnectionFunction("gilbert", 1, r=1.0), 1.0, m,
                       n_samples=20000, seed=3)
    assert est.lower.value - 3.0 * est.lower.std_error <= tail
    assert tail <= est.upper.value + 3.0 * est.upper.std_error


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_cluster_tail_refuses_a_bad_beta(beta):
    with pytest.raises(ValueError, match="^beta: must be positive"):
        cluster_tail(GILBERT, beta, 2, n_samples=10)


@pytest.mark.parametrize("m", [2.5, True, 0])
def test_cluster_tail_refuses_an_order_that_is_not_an_integer_above_0(m):
    with pytest.raises(ValueError, match=(
            f"^m must be an integer >= 1, got {m!r}$")):
        cluster_tail(GILBERT, 1.0, m, n_samples=10)


def test_cluster_tail_takes_a_numpy_integer_order():
    est = cluster_tail(GILBERT, 1.0, np.int64(2), n_samples=10, seed=1)
    assert est == cluster_tail(GILBERT, 1.0, 2, n_samples=10, seed=1)


def test_cluster_tail_monotone_in_m():
    beta = 0.5 / math.pi
    vals = [cluster_tail(GILBERT, beta, m, n_samples=600, seed=7).upper.value
            for m in (1, 2, 4)]
    assert vals[0] >= vals[1] >= vals[2]


def test_empirical_distance_kolmogorov_exact():
    with pytest.raises(ValueError):
        empirical_distance(np.array([0.0]), "kolmogorov")
    z = np.array([-1.0, 0.0, 1.0])
    n = 3
    xs = np.sort(z)
    expect = max(max(abs((i + 1) / n - stats.norm.cdf(x)),
                     abs(i / n - stats.norm.cdf(x)))
                 for i, x in enumerate(xs))
    assert empirical_distance(z, "kolmogorov") == pytest.approx(expect)


@pytest.mark.parametrize("kind", ["kolmogorov", "wasserstein"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_distance_refuses_non_finite_samples(kind, bad):
    # a NaN sorts last and made the Kolmogorov distance NaN
    with pytest.raises(ValueError, match="all finite"):
        empirical_distance([0.0, bad, 1.0], kind)


def test_empirical_distance_gaussian_sample():
    rng = np.random.default_rng(8)
    z = rng.normal(size=4000)
    dk = empirical_distance(z, "kolmogorov")
    assert dk < dkw_bound(4000)
    w1 = empirical_distance(z, "wasserstein")
    assert w1 < 0.06


def test_empirical_distance_detects_shift():
    rng = np.random.default_rng(9)
    z = rng.normal(loc=1.0, size=2000)
    assert empirical_distance(z, "kolmogorov") > 0.3
    assert empirical_distance(z, "wasserstein") == pytest.approx(1.0,
                                                                 abs=0.1)


def _norm_distance(samples, kind):
    """empirical_distance's formula with scipy.stats.norm's cdf and ppf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if kind == "kolmogorov":
        cdf = stats.norm.cdf(x)
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    u = (np.arange(512) + 0.5) / 512
    emp_q = x[np.minimum((u * n).astype(int), n - 1)]
    return float(np.mean(np.abs(emp_q - stats.norm.ppf(u))))


def _distance_samples():
    rng = np.random.default_rng(20)
    yield from (rng.normal(size=n) for n in (3, 17, 200, 4001))
    yield rng.standard_t(2, size=500) * 3.0               # heavy tails
    yield rng.integers(-3, 4, size=300).astype(float)     # ties
    yield np.repeat([-0.5, 0.25, 2.0], [4, 1, 7])         # ties
    yield np.array([-40.0, 40.0])                         # n = 2
    yield np.array([0.0, -0.0])                           # n = 2, ties
    yield rng.normal(size=2)                              # n = 2
    yield np.full(9, 1.5)                                 # constant


@pytest.mark.parametrize("kind", ["kolmogorov", "wasserstein"])
def test_empirical_distance_bytes_match_scipy_stats_norm(kind):
    for z in _distance_samples():
        assert empirical_distance(z, kind) == _norm_distance(z, kind)


def test_dkw_bound_formula():
    n, conf = 1000, 0.99
    expect = math.sqrt(math.log(2.0 / (1.0 - conf)) / (2.0 * n))
    assert dkw_bound(n, conf) == pytest.approx(expect)
    assert dkw_bound(np.int64(n), conf) == dkw_bound(n, conf)


@pytest.mark.parametrize("args, named", [
    ((0,), "n"), ((-3,), "n"),
    ((10, 1.0), "confidence"), ((10, 1.5), "confidence"),
    ((10, 0.0), "confidence"), ((10, math.nan), "confidence"),
    ((True,), "n"), ((2.5,), "n")])
def test_dkw_bound_refuses_bad_arguments(args, named):
    with pytest.raises(ValueError, match=f"^{named} must"):
        dkw_bound(*args)


@pytest.mark.parametrize("k", [None, 0, -2, 2.5, True])
def test_count_order_needs_a_positive_integer_order(k):
    """At each of these k, count_order was 0 on every graph."""
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        FunctionalSpec("count_order", W, GILBERT, 1.0, k=k)
    FunctionalSpec("count_order", W, GILBERT, 1.0, k=np.int64(2))


def test_spec_refuses_a_window_of_another_dimension():
    # refused here, before numpy's broadcasting or the sampler meets it
    with pytest.raises(ValueError, match=(
            "^window dimension 3 differs from the connection function's "
            "dimension 2$")):
        FunctionalSpec("count_order", Window("box", 2.0, 3), GILBERT, 1.0,
                       k=1)


@pytest.mark.parametrize("cls", [None, "2:1", 2])
def test_count_class_needs_a_graph_class(cls):
    with pytest.raises(ValueError, match="needs a GraphClass"):
        FunctionalSpec("count_class", W, GILBERT, 1.0, cls=cls)


def test_difference_sample_properties():
    s = DifferenceSample(base=1.0, with_x=3.0, with_y=0.0, with_xy=2.5)
    assert s.delta_x == 2.0
    assert s.delta_y == -1.0
    assert s.second == pytest.approx(0.5)


def test_estimators_read_insertions_only_through_batched():
    """_batched is the one loop over contexts and insertions: besides it,
    only difference and second_difference call value_with_additions in
    the package. fourth_moment_bound stays out: gamma_terms takes E F^4
    from the replicates' own fourth moment."""
    import ast
    import pathlib

    import rcmlab

    callers = set()
    texts = []
    for path in sorted(pathlib.Path(rcmlab.__file__).parent.glob("*.py")):
        texts.append(path.read_text())
        for fn in ast.walk(ast.parse(texts[-1])):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "value_with_additions"
                    for node in ast.walk(fn)):
                callers.add(fn.name)
    assert callers == {"_batched", "difference", "second_difference"}
    assert not any("fourth_moment_bound" in text for text in texts)
