"""Difference operators per chunk: every insertion of a batch at once.

analysis._with_additions evaluates F with additions for many
(realization, additions) pairs of one batch in one pass: one kd-tree
query, one mark hash and one merge over the component table. Each of
its values must equal the same insertion evaluated on its own, on the
graph built alone, and the networkx recount of conftest.py, exactly,
for every statistic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import insertion_recount
from rcmlab.analysis import (EvaluationContext, FunctionalSpec,
                             _SplitMarkSource, _with_additions)
from rcmlab.census import edge_class, path_class, single_vertex_class
from rcmlab.connection import ConnectionFunction
from rcmlab.geometry import Window
from rcmlab.marks import PairMarkSource
from rcmlab.sampling import PointSet, build_rcm, build_rcm_batch

REGION = Window("box", 2.5, 2)
WINDOW = Window("box", 1.0, 2)
# under Gilbert's phi the marks decide no pair, under the others they do
PHIS = {"gilbert": ConnectionFunction("gilbert", 2, r=0.8),
        "scaled": ConnectionFunction("scaled_indicator", 2, p=0.6, r=0.8),
        "gaussian": ConnectionFunction("gaussian", 2, s=0.3)}


def _specs(phi):
    classes = (single_vertex_class(), edge_class(), path_class(3))
    weighted = dict(a=(0.3, -1.7, 2.9), classes=classes)
    return [
        FunctionalSpec("count_class", WINDOW, phi, 1.0, cls=path_class(3)),
        FunctionalSpec("count_order", WINDOW, phi, 1.0, k=2),
        FunctionalSpec("count_order", WINDOW, phi, 1.0, k=1, mode="inside"),
        FunctionalSpec("weighted", WINDOW, phi, 1.0, **weighted),
        FunctionalSpec("weighted", WINDOW, phi, 1.0, mode="inside",
                       **weighted),
        FunctionalSpec("total_components", WINDOW, phi, 1.0),
        FunctionalSpec("point_count", WINDOW, phi, 1.0),
    ]


@st.composite
def chunks(draw):
    """1-5 point sets on REGION (some empty), one mark source each (all
    plain or all split), and 1-8 insertions of 1-3 fresh points each,
    placed close together so that they join each other and the same
    components. An insertion may repeat an earlier one's points in
    another realization, or put a point on another realization's base
    point."""
    phi = PHIS[draw(st.sampled_from(sorted(PHIS)))]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    split = draw(st.booleans())
    rng = np.random.default_rng(seed)
    sets, sources = [], []
    for r in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([0, 1, 6, 20, 40, 40]))
        sets.append(PointSet(points=rng.uniform(-2.5, 2.5, (n, 2)), seed=r,
                             region=REGION, beta=1.0))
        sources.append(_SplitMarkSource(
            PairMarkSource(seed + r), PairMarkSource(seed + 100 + r),
            draw(st.integers(0, n))) if split else PairMarkSource(seed + r))
    insertions = []
    for _ in range(draw(st.integers(1, 8))):
        r = draw(st.integers(0, len(sets) - 1))
        how = draw(st.sampled_from(["near", "repeat", "other base"]))
        if how == "repeat" and insertions:
            additions = insertions[-1][1]
            # not onto a base point of r's own, which is refused
            if not any((sets[r].points == p).all(axis=1).any()
                       for p, _ in additions):
                insertions.append((r, additions))
            continue
        centre = rng.uniform(-2.0, 2.0, 2)
        m = draw(st.integers(1, 3))
        points = centre + rng.normal(0.0, 0.4, (m, 2))
        others = [p for q, p in enumerate(sets) if q != r and p.n]
        if how == "other base" and others:
            other = others[rng.integers(len(others))].points
            points[0] = other[rng.integers(len(other))]
        ids = rng.permutation([-1, -2, -3])[:m].tolist()
        insertions.append((r, [(p, i) for p, i in zip(points, ids)]))
    return phi, sets, sources, insertions


@settings(max_examples=80, deadline=None)
@given(chunks())
def test_chunk_values_equal_one_at_a_time_and_networkx(chunk):
    phi, sets, sources, insertions = chunk
    graphs = build_rcm_batch(sets, phi, sources)
    batch = graphs[0].batch
    for spec in _specs(phi):
        values = _with_additions(batch, spec,
                                 EvaluationContext(graphs[0], spec)._values,
                                 insertions)
        assert len(values) == len(insertions)
        for value, (r, additions) in zip(values.tolist(), insertions):
            alone = build_rcm(sets[r], phi, sources[r])
            assert value == EvaluationContext(
                alone, spec).value_with_additions(additions)
            assert value == EvaluationContext(
                graphs[r], spec).value_with_additions(additions)
            assert value == insertion_recount(graphs[r], spec, additions)


def test_a_point_on_its_own_base_point_is_refused():
    """A fresh point may sit on another realization's base point but not
    on one of its own realization's, in a chunk as on its own."""
    phi = PHIS["gilbert"]
    rng = np.random.default_rng(4)
    sets = [PointSet(points=rng.uniform(-2.0, 2.0, (n, 2)), seed=0,
                     region=REGION, beta=1.0) for n in (10, 0, 10)]
    graphs = build_rcm_batch(sets, phi,
                             [PairMarkSource(s) for s in range(3)])
    spec = _specs(phi)[0]
    values = EvaluationContext(graphs[0], spec)._values
    other = [(1, [(sets[0].points[2], -1)]), (2, [(sets[0].points[2], -1)])]
    assert len(_with_additions(graphs[0].batch, spec, values, other)) == 2
    own = [(2, [(sets[2].points[5], -1)])]
    with pytest.raises(ValueError, match="duplicates"):
        _with_additions(graphs[0].batch, spec, values, other + own)
    with pytest.raises(ValueError, match="duplicates"):
        EvaluationContext(graphs[2], spec).value_with_additions(own[0][1])


@pytest.mark.parametrize("kind, seed", [("gilbert", 59), ("gaussian", 77)])
def test_weighted_insertions_into_a_later_realization_are_exact(kind, seed):
    """Weighted insertions into realization 1 of a two-realization batch,
    whose labels there are its own plus realization 0's count, each
    joining several components: their values are the values of the
    realization built alone and of the recount, exactly. With these
    seeds a sum of non-integer weights that depended on the order of
    the joined components would round differently."""
    phi = PHIS[kind]
    rng = np.random.default_rng(seed)
    sets = [PointSet(points=rng.uniform(-2.5, 2.5, (40, 2)), seed=0,
                     region=REGION, beta=1.0) for _ in range(2)]
    sources = [PairMarkSource(seed + r) for r in range(2)]
    graphs = build_rcm_batch(sets, phi, sources)
    alone = build_rcm(sets[1], phi, sources[1])
    insertions = []
    for _ in range(8):
        centre = rng.uniform(-1.5, 1.5, 2)
        insertions.append((1, [(centre + rng.normal(0.0, 0.4, 2), -1 - k)
                               for k in range(3)]))
    for spec in _specs(phi)[3:5]:
        values = _with_additions(graphs[0].batch, spec,
                                 EvaluationContext(graphs[0], spec)._values,
                                 insertions)
        for value, (r, additions) in zip(values.tolist(), insertions):
            assert value == EvaluationContext(
                alone, spec).value_with_additions(additions)
            assert value == insertion_recount(graphs[r], spec, additions)
