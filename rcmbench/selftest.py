#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 rcmbench/selftest.py

Checks that every workload emits each metric named in BENCHMARK.json
with its unit, that the per-layer self times account for the traced
wall time, that the exact per-layer counts repeat for a fixed seed, that
each oracle rejects a corrupted result, and that the benchmark fails
without printing a result when the rcmlab sources are missing. It is
not part of the pytest suite. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run

FAILURES = []
EXACT_COUNTS = ("census.components", "census.boundary_excluded",
                "sampling.edges", "moments.trees_enumerated",
                "sampling.kdtrees_per_graph")
# a per-layer metric that must be nonzero on each workload
LAYER_PRESENT = {"census_ladder": "census.census.calls",
                 "difference_mc": "analysis.EvaluationContext.calls",
                 "moments_is": "moments.trees_enumerated"}


def expect(ok: bool, what: str):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seed: int = 3):
    import workloads
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0,
                              trace=trace)
    result, _, record = run.benchmark(args, sizes=workloads.TINY)
    return result, record


def check_metrics(spec: dict):
    import spans
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record = _run(workload, trace)
            tag = f"{workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: outputs correct {record['problems']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{tag}: every {key} metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values), f"{tag}: finite values")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{tag}: nonzero")
                continue
            m = {n: v["value"] for n, v in result["metrics"].items()}
            layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
            expect(math.isclose(layers + m["trace.unattributed_s"],
                                m["trace.wall_s"], rel_tol=1e-9),
                   f"{tag}: layer self times account for the traced wall")
            expect(m[LAYER_PRESENT[workload]] > 0,
                   f"{tag}: {LAYER_PRESENT[workload]} > 0")
            again, _ = _run(workload, trace)
            expect(all(again["metrics"][n]["value"] == m[n]
                       for n in EXACT_COUNTS),
                   f"{tag}: exact counts repeat for a fixed seed")


def check_oracles():
    import numpy as np
    import oracles
    import workloads
    from rcmlab.analysis import EvaluationContext
    from rcmlab.census import census
    from rcmlab.geometry import Window
    from rcmlab.marks import PairMarkSource
    from rcmlab.moments import MomentEstimate
    from rcmlab.sampling import build_rcm, sample_poisson

    window = Window("box", 10.0, 2)
    graph = build_rcm(sample_poisson(window, 6.0, 1.0, 11),
                      workloads.GILBERT, PairMarkSource(11))
    recount = oracles.census_recount(graph, window)
    expect(not oracles.census_report_problems(
        census(graph, window, k_max=5), recount), "census oracle: passes")
    # drop the edge of a two-vertex component inside the window, which
    # turns one counted edge into two isolated vertices
    order = {}
    for comp in oracles._components(range(graph.n),
                                    map(tuple, graph.edges.tolist())):
        for v in comp:
            order[v] = len(comp)
    ins = oracles.inside(window, graph.points.points)
    bridge = next(i for i, (a, b) in enumerate(graph.edges.tolist())
                  if order[a] == 2 and ins[a] and ins[b])
    dropped = dataclasses.replace(
        graph, edges=np.delete(graph.edges, bridge, axis=0))
    expect(bool(oracles.census_report_problems(
        census(dropped, window, k_max=5), recount)),
        "census oracle: rejects a report with one edge dropped")

    out = os.path.join(run.RUNS, "selftest-cli")
    wl = workloads.CensusLadder(5, workloads.TINY, run.RUNS)
    res = wl.run("e10", 1)
    shutil.move(res["dir"], out)
    ok, _ = oracles.census_output_problems(out, 2, workloads.STAT_LABELS)
    expect(not ok, "census files: pass")
    (csv_path,) = [os.path.join(d, "census.csv") for d, _, f in os.walk(out)
                   if "census.csv" in f]
    with open(csv_path) as fh:
        lines = fh.readlines()
    with open(csv_path, "w") as fh:
        fh.writelines(lines[:-1])
    expect(bool(oracles.census_output_problems(out, 2,
                                               workloads.STAT_LABELS)[0]),
           "census files: reject a truncated census.csv")
    os.remove(csv_path)
    expect(bool(oracles.census_output_problems(out, 2,
                                               workloads.STAT_LABELS)[0]),
           "census files: reject a missing census.csv")
    shutil.rmtree(out)
    for path in wl.configs.values():
        os.remove(path)

    spec = workloads.BIRTH_SPEC
    small = build_rcm(sample_poisson(spec.window, spec.padding(), 1.0, 4),
                      workloads.GILBERT, PairMarkSource(4))
    ctx = EvaluationContext(small, spec)
    adds = [(np.array([0.3, -0.2]), -1)]
    value = ctx.value_with_additions(adds)
    expect(not oracles.insertion_problems(ctx, adds, value),
           "insertion oracle: passes")
    expect(bool(oracles.insertion_problems(ctx, adds, value + 1.0)),
           "insertion oracle: rejects a wrong insertion value")
    ctx.base_value += 1.0
    expect(bool(oracles.insertion_problems(ctx, adds, value)),
           "insertion oracle: rejects a wrong base value")

    zero = MomentEstimate(0.0, 0.0, 2, 1.0, "monte_carlo")
    expect(bool(oracles.pooled_problems([zero, zero])),
           "pooled check: rejects an all-zero standard error")
    ref, ref_se = 0.02, 1e-5
    good = MomentEstimate(0.0201, 2e-4, 10, 1.0, "monte_carlo")
    bad = MomentEstimate(0.03, 2e-4, 10, 1.0, "monte_carlo")
    expect(not oracles.moment_problems([good, good], ref, ref_se),
           "moment oracle: passes")
    expect(bool(oracles.moment_problems([good, bad], ref, ref_se)),
           "moment oracle: rejects estimates 25% off on average")


def check_missing_sources():
    bare = os.path.join(run.RUNS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "rcmbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "rcmbench/run.py", "--workload", "census_ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/rcmlab the run fails and prints no result")


def main() -> int:
    os.makedirs(run.RUNS, exist_ok=True)
    sys.path.insert(0, run.SRC)
    spec = _spec()
    check_missing_sources()
    check_metrics(spec)
    check_oracles()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
