"""Spans around rcmlab's public entry points, recorded from outside.

rcmlab itself is not edited. A traced run replaces each hooked function
wherever rcmlab looks it up (every module attribute bound to it, such as
``rcmlab.experiments.run_census`` for ``census.census``) and each hooked
method on its class, with a wrapper that records a span, and it puts the
originals back when the run ends. A span is (name, start, end, parent,
operation id); spans stay in memory until the run has finished.

Self time is a span's duration minus the time its child spans cover.
Calls are synchronous and single-threaded, so the children of a span
never overlap and their coverage is the sum of their durations.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "experiments", "census", "sampling", "marks", "geometry",
          "connection", "analysis", "moments")

# span name -> (home module, attribute path, what to keep per call)
# The kept value is taken after the span has ended and is turned into
# counts only once the run is over, so counting costs little inside spans.
HOOKS = {
    "cli.main": ("rcmlab.cli", "main", None),
    "experiments.load_scenario": ("rcmlab.experiments", "load_scenario", None),
    "experiments.run_scenario": ("rcmlab.experiments", "run_scenario", None),
    "experiments.emit": ("rcmlab.experiments", "emit", None),
    "census.census": ("rcmlab.census", "census",
                      lambda a, k, r: r.boundary_touching),
    "census.component_labels": ("rcmlab.census", "component_labels",
                                lambda a, k, r: r),
    "census.canonical_form": ("rcmlab.census", "canonical_form",
                              lambda a, k, r: len(a[0])),
    "sampling.sample_poisson": ("rcmlab.sampling", "sample_poisson", None),
    "sampling.build_rcm": ("rcmlab.sampling", "build_rcm",
                           lambda a, k, r: (a[0].n, len(r.edges))),
    "sampling.neighbors_of_point": ("rcmlab.sampling",
                                    "RcmGraph.neighbors_of_point", None),
    "sampling.cKDTree": ("rcmlab.sampling", "cKDTree", None),
    "marks.mark": ("rcmlab.marks", "PairMarkSource.mark",
                   lambda a, k, r: np.size(a[1])),
    "marks.split_mark": ("rcmlab.analysis", "_SplitMarkSource.mark",
                         lambda a, k, r: np.size(a[1])),
    "geometry.Window.sample_uniform": ("rcmlab.geometry",
                                       "Window.sample_uniform", None),
    "geometry.Window.contains": ("rcmlab.geometry", "Window.contains", None),
    "geometry.Window.boundary_distance": ("rcmlab.geometry",
                                          "Window.boundary_distance", None),
    "geometry.lex_order": ("rcmlab.geometry", "lex_order", None),
    "connection.phi_of_dist": ("rcmlab.connection",
                               "ConnectionFunction.phi_of_dist", None),
    "connection.radial_sampler": ("rcmlab.connection", "radial_sampler",
                                  None),
    "connection.sample_displacements": ("rcmlab.connection",
                                        "sample_displacements", None),
    "analysis.EvaluationContext": ("rcmlab.analysis",
                                   "EvaluationContext.__init__",
                                   lambda a, k, r: a[0]),
    "analysis.value_with_additions": ("rcmlab.analysis",
                                      "EvaluationContext.value_with_additions",
                                      None),
    "analysis.poincare_bound": ("rcmlab.analysis", "poincare_bound", None),
    "analysis.birth_time_variance": ("rcmlab.analysis",
                                     "birth_time_variance", None),
    "moments.expected_count_intensity": ("rcmlab.moments",
                                         "expected_count_intensity", None),
    "moments.asy_cov_kl": ("rcmlab.moments", "asy_cov_kl", None),
    "moments.ClusterProposal.init": ("rcmlab.moments",
                                     "ClusterProposal.__init__", None),
    "moments.ClusterProposal.sample": ("rcmlab.moments",
                                       "ClusterProposal.sample", None),
    "moments.ClusterProposal.density": (
        "rcmlab.moments", "ClusterProposal.density",
        lambda a, k, r: a[1].shape[0] * len(a[0].trees)),
    "moments.AnchorProposal.init": ("rcmlab.moments",
                                    "AnchorProposal.__init__", None),
    "moments.AnchorProposal.sample": ("rcmlab.moments",
                                      "AnchorProposal.sample", None),
    "moments.AnchorProposal.density": ("rcmlab.moments",
                                       "AnchorProposal.density", None),
    "moments.indicator_union_exponent": ("rcmlab.moments",
                                         "indicator_union_exponent", None),
    "moments.generic_union_exponent": ("rcmlab.moments",
                                       "generic_union_exponent", None),
    "moments.prob_isomorphic": ("rcmlab.moments", "prob_isomorphic", None),
    "moments.prob_connected": ("rcmlab.moments", "prob_connected", None),
}

ROOT_SPAN = "bench.op"

# The per-layer metrics of a traced run, in report order, with units.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS] + [
        ("cli.main.self_s", "s"),
        ("experiments.load_scenario.self_s", "s"),
        ("experiments.run_scenario.self_s", "s"),
        ("experiments.emit.self_s", "s"),
        ("experiments.bytes_written", "bytes"),
        ("census.census.self_s", "s"),
        ("census.census.calls", "count"),
        ("census.component_labels.self_s", "s"),
        ("census.canonical_form.calls", "count"),
        ("census.canon_cache_hit_ratio", "ratio"),
        ("census.components", "count"),
        ("census.boundary_excluded", "count"),
        ("census.boundary_excluded_ratio", "ratio"),
        ("sampling.sample_poisson.self_s", "s"),
        ("sampling.build_rcm.self_s", "s"),
        ("sampling.build_rcm.calls", "count"),
        ("sampling.points", "count"),
        ("sampling.edges", "count"),
        ("sampling.edge_yield", "ratio"),
        ("sampling.neighbors_of_point.self_s", "s"),
        ("sampling.neighbors_of_point.calls", "count"),
        ("sampling.kdtree_builds", "count"),
        ("sampling.kdtrees_per_graph", "ratio"),
        ("marks.mark.self_s", "s"),
        ("marks.mark.calls", "count"),
        ("marks.pairs", "count"),
        ("marks.pairs_per_call", "ratio"),
        ("geometry.calls", "count"),
        ("connection.phi_of_dist.self_s", "s"),
        ("connection.radial_sampler.calls", "count"),
        ("connection.radial_sampler.self_s", "s"),
        ("connection.sample_displacements.self_s", "s"),
        ("connection.radial_builds_per_proposal", "ratio"),
        ("analysis.EvaluationContext.self_s", "s"),
        ("analysis.EvaluationContext.calls", "count"),
        ("analysis.value_with_additions.self_s", "s"),
        ("analysis.value_with_additions.calls", "count"),
        ("analysis.inserts_per_context", "ratio"),
        ("analysis.poincare_bound.self_s", "s"),
        ("analysis.birth_time_variance.self_s", "s"),
        ("moments.expected_count_intensity.self_s", "s"),
        ("moments.asy_cov_kl.self_s", "s"),
        ("moments.ClusterProposal.sample.self_s", "s"),
        ("moments.ClusterProposal.density.self_s", "s"),
        ("moments.AnchorProposal.self_s", "s"),
        ("moments.indicator_union_exponent.self_s", "s"),
        ("moments.generic_union_exponent.self_s", "s"),
        ("moments.prob_isomorphic.self_s", "s"),
        ("moments.prob_connected.self_s", "s"),
        ("moments.proposals", "count"),
        ("moments.trees_enumerated", "count"),
        ("moments.rse.rho_k4", "ratio"),
        ("moments.rse.rho_k6", "ratio"),
        ("moments.rse.cov_22", "ratio"),
        ("moments.rse.rho_gauss2", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
    ])


def _resolve(module: str, path: str):
    """(owner, attribute name, original) for a hook's home location."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans for the hooked entry points while installed."""

    def __init__(self, keep=None):
        """keep: span name -> function(args, kwargs, result) whose value
        is kept per call, in place of the hook's own."""
        self.names = [ROOT_SPAN] + list(HOOKS)
        self._keep_fns = {name: fn for name, (_, _, fn) in HOOKS.items()
                          if fn is not None}
        self._keep_fns.update(keep or {})
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.kept = {name: [] for name in self._keep_fns}
        self.op_parts: list[str] = []
        self._stack = [-1]
        self._restore = []

    # recording

    def _wrap(self, index: int, fn, keep):
        name_of, start, end = self.name_of, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        kept = self.kept[self.names[index]] if keep is not None else None

        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(index)
            parent.append(stack[-1])
            op.append(len(self.op_parts) - 1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if kept is not None:
                kept.append((span, keep(args, kwargs, result)))
            return result

        return traced

    def run_op(self, part: str, fn):
        """Run one benchmark operation as a root span; returns (result, s)."""
        self.op_parts.append(part)
        span = len(self.start)
        result = self._wrap(0, fn, None)()
        return result, self.end[span] - self.start[span]

    # installation

    def install(self):
        """Put the wrappers in place of every hooked entry point."""
        rcm_modules = [m for n, m in list(sys.modules.items())
                       if (n == "rcmlab" or n.startswith("rcmlab."))
                       and m is not None]
        for index, (name, (module, path, _)) in enumerate(
                HOOKS.items(), start=1):
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(index, original, self._keep_fns.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in rcm_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # analysis

    def arrays(self):
        """Spans as numpy arrays: name index, start, end, parent, op."""
        return (np.frombuffer(self.name_of, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.op, dtype=np.int32).copy())

    def self_times(self):
        """Per-span self time, and per-span duration."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered, dur

    def save(self, path: str):
        """Write the spans to a compressed .npz file."""
        name_of, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name_of,
                            start=start, end=end, parent=parent, op=op,
                            op_parts=np.array(self.op_parts))


def _kept_where_parent(tracer: Tracer, name: str, parent_names) -> int:
    """Sum of kept sizes for spans of `name` whose parent is in a set."""
    targets = {tracer.names.index(p) for p in parent_names}
    total = 0
    for span, size in tracer.kept[name]:
        p = tracer.parent[span]
        if p >= 0 and tracer.name_of[p] in targets:
            total += size
    return total


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float,
                  canon_cache_growth: int, bytes_written: int,
                  rse: dict) -> dict:
    """Every PER_LAYER metric from a finished traced run."""
    self_t, dur = tracer.self_times()
    name_of = np.frombuffer(tracer.name_of, dtype=np.int32)
    n_names = len(tracer.names)
    by_self = np.bincount(name_of, weights=self_t, minlength=n_names)
    by_calls = np.bincount(name_of, minlength=n_names)
    out = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.self_s"] = float(by_self[i])
        out[f"{name}.calls"] = int(by_calls[i])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            by_self[i] for i, name in enumerate(tracer.names)
            if name.split(".")[0] == layer))

    def calls(name):
        return out[f"{name}.calls"]

    out["experiments.bytes_written"] = int(bytes_written)

    # census: components seen by every caller of component_labels, and
    # components dropped by the boundary rule in census() and in the
    # difference-operator contexts, which both apply it
    components = sum(len(np.unique(labels))
                     for _, labels in tracer.kept["census.component_labels"])
    excluded = sum(b for _, b in tracer.kept["census.census"])
    excluded += sum(sum(1 for c in ctx.comps.values() if c.boundary)
                    for _, ctx in tracer.kept["analysis.EvaluationContext"])
    lookups = sum(1 for _, k in tracer.kept["census.canonical_form"] if k > 1)
    out["census.components"] = int(components)
    out["census.boundary_excluded"] = int(excluded)
    out["census.boundary_excluded_ratio"] = _ratio(excluded, components)
    out["census.canon_cache_hit_ratio"] = _ratio(
        lookups - canon_cache_growth, lookups)

    edges = sum(m for _, (_, m) in tracer.kept["sampling.build_rcm"])
    marked = _kept_where_parent(tracer, "marks.mark", ["sampling.build_rcm"])
    marked += _kept_where_parent(tracer, "marks.split_mark",
                                 ["sampling.build_rcm"])
    out["sampling.points"] = int(sum(
        n for _, (n, _) in tracer.kept["sampling.build_rcm"]))
    out["sampling.edges"] = int(edges)
    out["sampling.edge_yield"] = _ratio(edges, marked)
    out["sampling.kdtree_builds"] = calls("sampling.cKDTree")
    out["sampling.kdtrees_per_graph"] = _ratio(calls("sampling.cKDTree"),
                                               calls("sampling.build_rcm"))

    pairs = sum(size for _, size in tracer.kept["marks.mark"])
    out["marks.pairs"] = int(pairs)
    out["marks.pairs_per_call"] = _ratio(pairs, calls("marks.mark"))
    out["geometry.calls"] = sum(calls(name) for name in tracer.names
                                if name.startswith("geometry."))

    proposals = (calls("moments.ClusterProposal.init")
                 + calls("moments.AnchorProposal.init"))
    out["connection.radial_builds_per_proposal"] = _ratio(
        calls("connection.radial_sampler"), proposals)
    out["analysis.inserts_per_context"] = _ratio(
        calls("analysis.value_with_additions"),
        calls("analysis.EvaluationContext"))
    out["moments.AnchorProposal.self_s"] = sum(
        out[f"moments.AnchorProposal.{m}.self_s"]
        for m in ("init", "sample", "density"))
    out["moments.proposals"] = proposals
    out["moments.trees_enumerated"] = int(sum(
        n for _, n in tracer.kept["moments.ClusterProposal.density"]))
    for estimand in ("rho_k4", "rho_k6", "cov_22", "rho_gauss2"):
        out[f"moments.rse.{estimand}"] = float(rse.get(estimand, 0.0))

    roots = np.frombuffer(tracer.parent, dtype=np.int32) < 0
    wall = float(dur[roots].sum())
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = out[f"{ROOT_SPAN}.self_s"]
    out["trace.overhead_ratio"] = _ratio(wall, untraced_wall_s)
    out["trace.spans"] = len(dur)
    return {name: out[name] for name, _ in PER_LAYER}
