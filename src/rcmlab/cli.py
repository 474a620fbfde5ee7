"""Command line interface.

Subcommands: sample, census, expectation, covariance, clt, bounds,
total. Every subcommand takes --config (scenario JSON), --seed
(overrides the configured seed base), --out (output directory) and
--threads (worker count, at least 1, each worker counting one block of
a rung's replicates; the RCMLAB_THREADS environment variable wins over
the flag). sample writes the points and edges of the graph that census
counts as replicate 0 of rung 0, drawn through the same builder.

Exit codes: 0 on success, 2 on configuration errors, 3 when a numerical
precondition is violated.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .analysis import poincare_bound
from .experiments import (ConfigError, _thread_count, _write_csv,
                          _write_json, covariance_experiment, emit,
                          expectation_experiment, load_scenario,
                          replicate_graphs, run_scenario,
                          total_components_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class PreconditionError(RuntimeError):
    """A numerical precondition of the requested computation failed."""


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed base")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (RCMLAB_THREADS overrides)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rcmlab argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rcmlab",
        description="Random connection model simulation and validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sample", "write the points and edges of census replicate 0"),
        ("census", "replicate component census on the window ladder"),
        ("expectation", "empirical vs analytic count intensities"),
        ("covariance", "empirical vs analytic covariance matrices"),
        ("clt", "standardized distances and convergence rate"),
        ("bounds", "variance upper bounds for the configured statistics"),
        ("total", "total component count experiment"),
    ]:
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _check_out(out: str) -> None:
    """Refuse an --out under which no results directory can be made."""
    path = os.path.abspath(os.path.join(out, "results"))
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out: {path} exists and is not a directory")


def _load(args):
    _thread_count(args.threads)     # every subcommand rejects a bad count
    _check_out(args.out)            # before any replicate is drawn
    scenario = load_scenario(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be a non-negative integer")
        raw = dict(scenario.raw)
        raw["seed_base"] = args.seed
        scenario = load_scenario(raw)
    return scenario


def _cmd_sample(args) -> int:
    scenario = _load(args)
    (graph,) = replicate_graphs(scenario, 0, [0])
    points = graph.points
    out = os.path.join(args.out, "results", scenario.scenario_hash, "0")
    _write_csv(os.path.join(out, "points.csv"),
               ["id"] + [f"x{i}" for i in range(points.dim)],
               ([i, *row] for i, row in enumerate(points.points)))
    _write_csv(os.path.join(out, "edges.csv"), ["i", "j"],
               graph.edges.tolist())
    print(f"wrote {points.n} points, {len(graph.edges)} edges to {out}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    scenario = _load(args)
    docs = []
    for idx in range(len(scenario.extents)):
        for spec in scenario.specs(idx):
            est = poincare_bound(spec, n_outer=max(50, scenario.inner * 25),
                                 seed=scenario.seed_base)
            docs.append({
                "rung": idx, "statistic": spec.statistic,
                "poincare_bound": est.value,
                "std_error": est.std_error,
            })
    path = _write_json(os.path.join(args.out, "results",
                                    scenario.scenario_hash, "bounds.json"),
                       docs)
    print(f"wrote {path}")
    return EXIT_OK


def _check_result(result):
    for rung in result.rungs:
        if np.any(~np.isfinite(rung.means)):
            raise PreconditionError("non-finite replicate statistics")


def _run_and_emit(args, runner) -> int:
    scenario = _load(args)
    result = runner(scenario, threads=args.threads)
    _check_result(result)
    paths = emit(result, args.out)
    print(f"wrote {len(paths)} files under "
          f"{os.path.join(args.out, 'results', result.scenario_hash)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command in ("census", "clt"):
            return _run_and_emit(args, run_scenario)
        if args.command == "expectation":
            return _run_and_emit(args, expectation_experiment)
        if args.command == "covariance":
            return _run_and_emit(args, covariance_experiment)
        if args.command == "total":
            return _run_and_emit(args, total_components_experiment)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, FloatingPointError, ValueError) as exc:
        print(f"numerical precondition violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
