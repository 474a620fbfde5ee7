"""The benchmark's span hooks name entry points that exist in rcmlab.

A traced benchmark run wraps every entry point listed in
rcmbench/spans.py HOOKS, and its check round installs them all, so a
renamed or removed entry point would only show up there.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "rcmbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("rcmbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("name", sorted(spans.HOOKS))
def test_hook_resolves(name):
    module, path, _ = spans.HOOKS[name]
    assert module.startswith("rcmlab.")
    owner, attr, original = spans._resolve(module, path)
    assert callable(original)
    assert getattr(owner, attr) is original
    if isinstance(owner, type):
        # the tracer patches the method in the class body that names it
        assert attr in vars(owner)


@pytest.mark.parametrize("threads", [1, 3])
def test_ladder_counts_each_replicate_through_one_census_call(threads):
    """The census_ladder check round captures census.census through the
    tracer and picks replicate 0 by its graph's seed, so run_scenario
    must call census once per replicate with that replicate's graph."""
    from rcmlab.experiments import load_scenario, replicate_seed, run_scenario

    scenario = load_scenario({
        "dimension": 2, "beta": 1.0, "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0, 4.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 5, "seed_base": 40})
    tracer = spans.Tracer(keep={"census.census": lambda a, k, r: a[:2]})
    with tracer:
        run_scenario(scenario, threads=threads)
    calls = sorted((graph.points.seed, window.extent)
                   for _, (graph, window) in tracer.kept["census.census"])
    assert calls == [(replicate_seed(scenario, rung, rep), extent)
                     for rung, extent in enumerate(scenario.extents)
                     for rep in range(scenario.replicates)]


@pytest.mark.parametrize("estimator", ["poincare_bound",
                                       "birth_time_variance"])
def test_each_insertion_goes_through_value_with_additions(estimator):
    """The difference_mc check round captures
    EvaluationContext.value_with_additions through the tracer and
    recounts each captured (context, additions, value), so the
    estimators must call it once per insertion, n_outer * n_points and
    n_outer * n_inner times, each value the one that a context on the
    same graph, evaluated alone, gives."""
    import dataclasses

    from rcmlab import analysis
    from rcmlab.analysis import EvaluationContext, FunctionalSpec
    from rcmlab.connection import ConnectionFunction
    from rcmlab.geometry import Window

    if estimator == "poincare_bound":
        spec = FunctionalSpec("total_components", Window("box", 2.0, 2),
                              ConnectionFunction("gaussian", 2, s=0.5), 1.0)
        n_outer, budget = 4, {"n_points": 5}
    else:
        spec = FunctionalSpec("count_order", Window("box", 1.5, 2),
                              ConnectionFunction("gilbert", 2, r=1.0), 1.0,
                              k=1, mode="inside")
        n_outer, budget = 6, {"n_inner": 4}
    tracer = spans.Tracer(keep={"analysis.value_with_additions":
                                lambda a, k, r: (a[0], a[1], r)})
    with tracer:
        getattr(analysis, estimator)(spec, n_outer=n_outer, seed=3, **budget)
    calls = [c for _, c in tracer.kept["analysis.value_with_additions"]]
    assert len(calls) == n_outer * sum(budget.values())
    for ctx, additions, value in calls:
        alone = EvaluationContext(dataclasses.replace(ctx.graph), ctx.spec)
        assert alone.value_with_additions(additions) == value


def test_every_keep_function_records_a_value(tmp_path):
    """Every traced benchmark run applies each hook's keep function to
    its calls and reads the kept values in spans.layer_metrics, so a
    renamed attribute that a keep or that reading uses (such as
    CensusReport.boundary_touching or ClusterProposal.trees) must fail
    here. One tiny call reaches each keep-bearing hook."""
    import json

    import numpy as np

    from rcmlab import analysis, cli, marks, moments, sampling
    from rcmlab.census import edge_class, path_class
    from rcmlab.connection import ConnectionFunction
    from rcmlab.geometry import Window

    phi = ConnectionFunction("gilbert", 2, r=1.0)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "dimension": 2, "beta": 1.0, "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "count_class", "class": "2:1"}],
        "replicates": 2, "seed_base": 5}))
    i, j = np.array([0, 1]), np.array([1, 2])
    tracer = spans.Tracer()
    with tracer:
        for command in ("census", "sample"):
            assert cli.main([command, "--config", str(config),
                             "--out", str(tmp_path)]) == cli.EXIT_OK
        spec = analysis.FunctionalSpec("count_class", Window("box", 2.0, 2),
                                       phi, 1.0, cls=edge_class())
        points, source = sampling.seeded_sample(spec.window, spec.padding(),
                                                1.0, 7)
        graph = sampling.build_rcm(points, phi, source)
        analysis.EvaluationContext(graph, spec)
        marks.PairMarkSource(3).mark(i, j)
        analysis._SplitMarkSource(marks.PairMarkSource(3),
                                  marks.PairMarkSource(4), 2).mark(i, j)
        moments.expected_count_intensity(path_class(4), phi, 1.0,
                                         n_samples=200, seed=1)
    keeps = [name for name, (_, _, keep) in spans.HOOKS.items() if keep]
    assert keeps and all(tracer.kept[name] for name in keeps), [
        name for name in keeps if not tracer.kept[name]]
    metrics = spans.layer_metrics(tracer, 1.0, 0, 0, {})
    for name in ("census.components", "sampling.points", "marks.pairs",
                 "moments.trees_enumerated"):
        assert metrics[name] > 0, name


def test_cached_radial_grid_is_still_one_build_per_proposal():
    """The radial grid cache sits behind connection.radial_sampler, so
    the traced proposals still call it once each."""
    from rcmlab import moments
    from rcmlab.census import path_class
    from rcmlab.connection import ConnectionFunction

    phi = ConnectionFunction("gilbert", 2, r=1.0)
    tracer = spans.Tracer()
    with tracer:
        moments.expected_count_intensity(path_class(6), phi, 1.0,
                                         n_samples=200, seed=1)
        moments.asy_cov_kl(2, 2, phi, phi, 1.0, n_samples=200, seed=2)
    metrics = spans.layer_metrics(tracer, 1.0, 0, 0, {})
    assert metrics["connection.radial_sampler.calls"] > 0
    assert metrics["connection.radial_builds_per_proposal"] == 1
