"""Scenario-driven experiments: replicate ladders, empirical-vs-analytic
comparisons, and deterministic result emission.

A scenario is a single JSON document describing the model (dimension,
intensity, connection functions), a ladder of window extents, the
statistics to evaluate, and the replicate/seed/budget plan. Replicates
have derived seeds, are built in chunks and counted in one contiguous
block per worker thread, and are aggregated in replicate order, so
serial and parallel runs emit identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import FunctionalSpec, combine, counts, empirical_distance
from .census import K_MAX, GraphClass, batch_table, is_canonical
from .census import census as run_census
from .connection import ConnectionFunction
from .geometry import Window
from .moments import (ENUM_CAP, _estimate_matrix, asy_cov,
                      expected_count_intensity, sigma_total_partial)
from .sampling import build_chunks, seeded_sample

VERSION = "0.1.0"


class ConfigError(ValueError):
    """Scenario configuration problem, reported with its field path."""


def _finite(val) -> bool:
    """Whether val is a JSON number that a float holds: not a bool, and
    neither NaN, infinite nor an integer too large for a float."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _need(obj, key, typ, path):
    if key not in obj:
        raise ConfigError(f"{path}{key}: missing")
    val = obj[key]
    if typ is float and _finite(val):
        val = float(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ConfigError(f"{path}{key}: expected {typ.__name__}")
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"{path}{key}: must be finite")
    return val


def _optional(obj, key, typ, path, default):
    """obj[key], checked as _need checks it, or default if absent."""
    return _need(obj, key, typ, path) if key in obj else default


def _count(obj, key, path, default, least=1) -> int:
    """An optional integer field of at least `least`."""
    val = _optional(obj, key, int, path, default)
    if val < least:
        raise ConfigError(f"{path}{key}: must be "
                          + ("a positive integer" if least == 1
                             else f"an integer of at least {least}"))
    return val


def _parse_phi(obj, dim, path) -> ConnectionFunction:
    kind = _need(obj, "kind", str, path)
    try:
        if kind == "gilbert":
            return ConnectionFunction("gilbert", dim,
                                      r=_need(obj, "r", float, path))
        if kind == "scaled_indicator":
            return ConnectionFunction("scaled_indicator", dim,
                                      p=_need(obj, "p", float, path),
                                      r=_need(obj, "r", float, path))
        if kind == "exponential":
            return ConnectionFunction("exponential", dim,
                                      theta=_need(obj, "theta", float, path))
        if kind == "gaussian":
            return ConnectionFunction("gaussian", dim,
                                      s=_need(obj, "s", float, path))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc
    raise ConfigError(f"{path}kind: unknown connection function {kind!r}")


def _class_id(text, path) -> GraphClass:
    try:
        cls = GraphClass.from_class_id(text)
    except ValueError:
        raise ConfigError(f"{path}: expected a class id <order>:<hex canon>,"
                          f" got {text!r}") from None
    if not is_canonical(cls):
        raise ConfigError(f"{path}: {text} is not the canonical id of a "
                          f"connected graph of order <= {K_MAX}")
    return cls


def _mode(obj, path) -> str:
    mode = _optional(obj, "mode", str, path, "lexmin")
    if mode not in ("lexmin", "inside"):
        raise ConfigError(f"{path}mode: must be lexmin or inside, "
                          f"got {mode!r}")
    return mode


def _parse_statistic(obj, window, phi, beta, k_max, path) -> FunctionalSpec:
    stat = _need(obj, "statistic", str, path)
    try:
        if stat == "count_class":
            cls = _class_id(_need(obj, "class", str, path), f"{path}class")
            return FunctionalSpec("count_class", window, phi, beta,
                                  cls=cls, mode=_mode(obj, path), k_max=k_max)
        if stat == "count_order":
            k = _need(obj, "k", int, path)
            if k < 1:
                raise ConfigError(f"{path}k: must be a positive integer")
            return FunctionalSpec("count_order", window, phi, beta, k=k,
                                  mode=_mode(obj, path), k_max=k_max)
        if stat == "weighted":
            a = _need(obj, "a", list, path)
            if not all(_finite(v) for v in a):
                raise ConfigError(f"{path}a: must be finite numbers")
            ids = _need(obj, "classes", list, path)
            if not all(isinstance(c, str) for c in ids):
                raise ConfigError(f"{path}classes: must be class id strings")
            return FunctionalSpec(
                "weighted", window, phi, beta, a=tuple(map(float, a)),
                classes=tuple(_class_id(c, f"{path}classes") for c in ids),
                mode=_mode(obj, path), k_max=k_max)
        if stat in ("total_components", "point_count"):
            return FunctionalSpec(stat, window, phi, beta, k_max=k_max)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path.rstrip('.')}: {exc}") from exc
    raise ConfigError(f"{path}statistic: unknown statistic {stat!r}")


@dataclass(frozen=True)
class Scenario:
    dimension: int
    beta: float
    phi: ConnectionFunction
    psi: ConnectionFunction          # None unless a coupling is configured
    window_shape: str
    extents: tuple
    statistics: tuple                # raw statistic dicts
    replicates: int
    seed_base: int
    mc_samples: int
    inner: int
    k_max: int
    raw: dict = field(compare=False, default=None)

    @property
    def scenario_hash(self) -> str:
        text = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def window(self, rung: int) -> Window:
        return Window(self.window_shape, self.extents[rung], self.dimension)

    def specs(self, rung: int) -> list[FunctionalSpec]:
        w = self.window(rung)
        return [_parse_statistic(s, w, self.phi, self.beta, self.k_max,
                                 f"statistics[{i}].")
                for i, s in enumerate(self.statistics)]

    @cached_property
    def padding(self) -> float:
        """Sampling padding of every replicate: the largest any statistic
        needs, which does not depend on the window."""
        return max(s.padding() for s in self.specs(0))


def load_scenario(path_or_dict) -> Scenario:
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: must be a JSON object")
    dim = _need(raw, "dimension", int, "")
    if dim < 1:
        raise ConfigError("dimension: must be positive")
    beta = _need(raw, "beta", float, "")
    if beta <= 0:
        raise ConfigError("beta: must be positive")
    phi = _parse_phi(_need(raw, "phi", dict, ""), dim, "phi.")
    psi = None
    if "psi" in raw:
        psi = _parse_phi(_need(raw, "psi", dict, ""), dim, "psi.")
        if not phi.dominates(psi):
            raise ConfigError("psi: not dominated by phi")
    wobj = _need(raw, "window", dict, "")
    shape = _need(wobj, "shape", str, "window.")
    if shape not in ("box", "ball"):
        raise ConfigError("window.shape: must be box or ball")
    extents = _need(wobj, "extents", list, "window.")
    if not extents or any(not _finite(e) or e <= 0 for e in extents):
        raise ConfigError("window.extents: must be positive finite numbers")
    if any(b <= a for a, b in zip(extents, extents[1:])):
        raise ConfigError("window.extents: must be strictly increasing")
    stats = _need(raw, "statistics", list, "")
    if not stats or not all(isinstance(s, dict) for s in stats):
        raise ConfigError("statistics: must be a non-empty list of objects")
    replicates = _need(raw, "replicates", int, "")
    if replicates < 2:
        raise ConfigError("replicates: need at least 2")
    seed_base = _need(raw, "seed_base", int, "")
    if seed_base < 0:
        raise ConfigError("seed_base: must be a non-negative integer")
    budgets = _optional(raw, "budgets", dict, "", {})
    scenario = Scenario(
        dimension=dim, beta=beta, phi=phi, psi=psi, window_shape=shape,
        extents=tuple(float(e) for e in extents),
        statistics=tuple(stats), replicates=replicates, seed_base=seed_base,
        mc_samples=_count(budgets, "mc_samples", "budgets.", 200000, 2),
        inner=_count(budgets, "inner", "budgets.", 8),
        k_max=_count(raw, "k_max", "", 5), raw=raw)
    for i in range(len(scenario.extents)):
        scenario.specs(i)    # validate statistic entries against each rung
    return scenario


def replicate_seed(scenario: Scenario, rung: int, rep: int) -> int:
    return scenario.seed_base + 1_000_000 * rung + rep


def replicate_graphs(scenario: Scenario, rung: int, reps):
    """The graphs of replicates reps of rung, in order: points on the
    rung's window grown by the scenario's padding, and marks, from each
    replicate's seed, built in chunks by sampling.build_chunks."""
    window = scenario.window(rung)
    draws = ((rep, [seeded_sample(window, scenario.padding, scenario.beta,
                                  replicate_seed(scenario, rung, rep))])
             for rep in reps)
    for chunk in build_chunks(draws, scenario.phi):
        for _, (graph,) in chunk:
            yield graph


def _thread_count(requested: int = None) -> int:
    """RCMLAB_THREADS if it is set, else the requested count, else 1."""
    name, value = "RCMLAB_THREADS", os.environ.get("RCMLAB_THREADS")
    if value is None:
        name, value = "threads", 1 if requested is None else requested
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(
            f"{name}: expected an integer, got {value!r}") from None
    if threads < 1:
        raise ConfigError(f"{name}: must be at least 1, got {threads}")
    return threads


def _rung_samples(scenario: Scenario, rung: int, threads: int):
    """Each replicate's statistic values, (replicates, n_statistics), and
    its in-window point count. With threads > 1 each worker counts one
    contiguous block of replicates.

    A replicate's values, and its point count as point_count's value,
    follow the one rule of analysis: each statistic's counts on the
    rows of its chunk's one component table (analysis.counts), summed
    per realization as integers (ComponentTable.realization_totals) and
    combined once per chunk (analysis.combine).
    """
    window = scenario.window(rung)
    specs = scenario.specs(rung) + [FunctionalSpec(
        "point_count", window, scenario.phi, scenario.beta)]
    k_max = max(s.class_order for s in specs)

    def count(reps):
        out = []
        for graph in replicate_graphs(scenario, rung, reps):
            # each replicate's census report, from the table below; the
            # census_ladder check round of rcmbench captures this call
            run_census(graph, window, k_max=k_max)
            table = batch_table(graph, window, k_max)
            values = graph.batch.shared(("ladder", window), lambda: np.array(
                [combine(spec, table.realization_totals(counts(spec, table)))
                 for spec in specs]).T)
            out.append(values[graph.index])
        return out

    n = scenario.replicates
    threads = min(threads, n)
    blocks = [range(n * b // threads, n * (b + 1) // threads)
              for b in range(threads)]
    if threads == 1:
        results = count(blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = [r for block in pool.map(count, blocks) for r in block]
    sums = np.array(results)          # (reps, n_stats + 1)
    return sums[:, :-1], sums[:, -1]


@dataclass
class RungResult:
    extent: float
    volume: float
    values: np.ndarray            # (replicates, n_statistics)
    means: np.ndarray
    variances: np.ndarray
    mecke_mean: float
    mecke_se: float
    distances: list               # per statistic: {"d_K": ..., "d_1": ...}
    extras: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    scenario: Scenario
    kind: str
    rungs: list
    regression: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def scenario_hash(self) -> str:
        return self.scenario.scenario_hash


def _standardize_and_distances(values: np.ndarray):
    out = []
    for col in values.T:
        sd = float(np.std(col, ddof=1))
        if sd == 0:
            out.append({"d_K": float("nan"), "d_1": float("nan")})
            continue
        z = (col - np.mean(col)) / sd
        out.append({"d_K": empirical_distance(z, "kolmogorov"),
                    "d_1": empirical_distance(z, "wasserstein")})
    return out


def _make_rung(scenario, rung, threads) -> RungResult:
    window = scenario.window(rung)
    values, n_points = _rung_samples(scenario, rung, threads)
    means = np.mean(values, axis=0)
    variances = np.var(values, axis=0, ddof=1)
    mecke_mean = float(np.mean(n_points))
    mecke_se = float(np.std(n_points, ddof=1)
                     / math.sqrt(scenario.replicates))
    return RungResult(extent=scenario.extents[rung], volume=window.volume,
                      values=values, means=means, variances=variances,
                      mecke_mean=mecke_mean, mecke_se=mecke_se,
                      distances=_standardize_and_distances(values))


def _rate_regression(rungs: list) -> dict:
    """Log-log fit of the first statistic's d_K against window volume."""
    xs, ys = [], []
    for r in rungs:
        dk = r.distances[0]["d_K"]
        if dk > 0 and not math.isnan(dk):
            xs.append(math.log(r.volume))
            ys.append(math.log(dk))
    if len(xs) < 3:
        return {"slope": float("nan"), "intercept": float("nan"),
                "slope_se": float("nan"), "n": len(xs)}
    A = np.vstack([xs, np.ones(len(xs))]).T
    coef, res, _, _ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    dof = len(xs) - 2
    if dof > 0 and len(res):
        s2 = float(res[0]) / dof
        cov = s2 * np.linalg.inv(A.T @ A)
        slope_se = math.sqrt(cov[0, 0])
    else:
        slope_se = float("nan")
    return {"slope": float(coef[0]), "intercept": float(coef[1]),
            "slope_se": slope_se, "n": len(xs)}


def _require_cluster_moments(experiment: str, orders: list[int]):
    """ConfigError, before any replicate runs, when the experiment needs
    analytic moments of clusters of an order beyond the moment engine's
    enumeration cap."""
    if max(orders, default=1) > ENUM_CAP:
        raise ConfigError(
            f"statistics: the {experiment} experiment needs moments of "
            f"order {max(orders)}, beyond the enumeration cap {ENUM_CAP}")


def _scenario(config) -> Scenario:
    return config if isinstance(config, Scenario) else load_scenario(config)


def _ladder(scenario: Scenario, threads) -> list[RungResult]:
    """Every rung of the scenario's window ladder, in order."""
    threads = _thread_count(threads)
    return [_make_rung(scenario, i, threads)
            for i in range(len(scenario.extents))]


def run_scenario(config, threads: int = None) -> ExperimentResult:
    """Replicate ladder with empirical moments, distances, and the
    log-log rate regression of the Kolmogorov distance."""
    scenario = _scenario(config)
    rungs = _ladder(scenario, threads)
    return ExperimentResult(scenario=scenario, kind="clt", rungs=rungs,
                            regression=_rate_regression(rungs))


def covariance_experiment(config, threads: int = None) -> ExperimentResult:
    """Empirical vs analytic covariance matrices of the statistics."""
    scenario = _scenario(config)
    if len(scenario.statistics) < 2:
        raise ConfigError("statistics: covariance experiment needs >= 2")
    classes = []
    for spec in scenario.specs(0):
        if spec.statistic != "count_class":
            raise ConfigError(
                "statistics: covariance experiment compares count_class"
                " statistics against the analytic matrix")
        classes.append(spec.cls)
    _require_cluster_moments("covariance", [c.order for c in classes])
    rungs = _ladder(scenario, threads)
    for rung in rungs:
        cov = np.cov(rung.values.T) / rung.volume
        rung.extras["empirical_cov"] = cov.tolist()
        rung.extras["empirical_min_eigenvalue"] = float(
            np.min(np.linalg.eigvalsh(cov)))
    m = len(classes)
    _, mat, err = _estimate_matrix(m, lambda i, j: asy_cov(
        classes[i], classes[j], scenario.phi, scenario.phi, scenario.beta,
        n_samples=scenario.mc_samples,
        seed=scenario.seed_base + 7919 * (i * m + j)))
    extras = {
        "analytic_cov": mat.tolist(),
        "analytic_cov_se": err.tolist(),
        "analytic_min_eigenvalue": float(np.min(np.linalg.eigvalsh(mat))),
    }
    return ExperimentResult(scenario=scenario, kind="covariance",
                            rungs=rungs, extras=extras)


_PARTIAL_ORDER = 3      # the largest order whose covariances are summed


def total_components_experiment(config,
                                threads: int = None) -> ExperimentResult:
    """Total finite component count: variance stabilization, distances,
    and the analytic partial sums of the order-pair covariances."""
    scenario = _scenario(config)
    totals = [j for j, s in enumerate(scenario.statistics)
              if s.get("statistic") == "total_components"]
    if not totals:
        raise ConfigError("statistics: total_components not configured")
    rungs = _ladder(scenario, threads)
    for rung in rungs:
        rung.extras["var_per_volume"] = float(
            rung.variances[totals[0]] / rung.volume)
    _, partials = sigma_total_partial(_PARTIAL_ORDER, scenario.phi,
                                      scenario.beta,
                                      n_samples=scenario.mc_samples,
                                      seed=scenario.seed_base)
    extras = {"partial_sums": [{"m": i + 1, "value": p.value,
                                "std_error": p.std_error}
                               for i, p in enumerate(partials)]}
    return ExperimentResult(scenario=scenario, kind="total",
                            rungs=rungs, extras=extras)


def expectation_experiment(config, threads: int = None) -> ExperimentResult:
    """Empirical per-volume intensities vs the analytic predictions."""
    scenario = _scenario(config)
    specs = scenario.specs(0)
    _require_cluster_moments("expectation", [
        s.cls.order for s in specs if s.statistic == "count_class"])
    rungs = _ladder(scenario, threads)
    preds = []
    for n, spec in enumerate(specs):
        if spec.statistic == "count_class":
            est = expected_count_intensity(
                spec.cls, scenario.phi, scenario.beta,
                n_samples=scenario.mc_samples,
                seed=scenario.seed_base + 31 * n)
            preds.append({"value": est.value, "std_error": est.std_error,
                          "method": est.method})
        else:
            preds.append(None)
    return ExperimentResult(scenario=scenario, kind="expectation",
                            rungs=rungs, extras={"predictions": preds})


# ---------------------------------------------------------------------------
# emission

def _fmt(x) -> str:
    return f"{x:.17g}"


def _stat_label(s: dict) -> str:
    parts = [s["statistic"]]
    for key in ("class", "k", "mode"):
        if key in s:
            parts.append(f"{key}={s[key]}")
    if "classes" in s:
        parts.append("classes=" + "+".join(s["classes"]))
    return ";".join(parts)


def _jsonable(x):
    """doc with numpy values as Python ones, every float rounded to 17
    digits and every non-finite float as None (JSON null)."""
    if isinstance(x, float):
        return float(_fmt(x)) if math.isfinite(x) else None
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_json(path: str, doc) -> str:
    """Write doc as sorted, indented, strict JSON (RFC 8259), every float
    at 17 digits and every non-finite one as null; returns path."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, sort_keys=True, indent=1,
                  allow_nan=False)
    return path


def _write_csv(path: str, header: list, rows) -> str:
    """Write a header and rows as CSV, every float at 17 digits;
    returns path."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) if isinstance(v, float) else v
                          for v in row] for row in rows)
    return path


def emit(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write the deterministic result layout; returns the file paths."""
    scenario = result.scenario
    base = os.path.join(out_dir, "results", result.scenario_hash)
    head = {"scenario_hash": result.scenario_hash,
            "seed_base": scenario.seed_base, "version": VERSION,
            "kind": result.kind}
    stat_names = [_stat_label(s) for s in scenario.statistics]
    written = []
    for rung_idx, rung in enumerate(result.rungs):
        rdir = os.path.join(base, str(rung_idx))
        written += [
            _write_csv(os.path.join(rdir, "census.csv"),
                       ["replicate", "statistic", "value"],
                       ([rep, name, rung.values[rep, s]]
                        for rep in range(len(rung.values))
                        for s, name in enumerate(stat_names))),
            _write_csv(os.path.join(rdir, "distances.csv"),
                       ["statistic", "d_K", "d_1"],
                       ([name, d["d_K"], d["d_1"]]
                        for name, d in zip(stat_names, rung.distances))),
            _write_json(os.path.join(rdir, "moments.json"), {
                "extent": rung.extent, "volume": rung.volume,
                "means": rung.means, "variances": rung.variances,
                "mecke_mean": rung.mecke_mean, "mecke_se": rung.mecke_se,
                "extras": rung.extras,
            }),
            _write_json(os.path.join(rdir, "summary.json"), {
                **head, "rung": rung_idx,
                "replicates": scenario.replicates,
                "statistics": scenario.statistics,
            }),
        ]
    written.append(_write_json(os.path.join(base, "summary.json"), {
        **head, "regression": result.regression, "extras": result.extras,
        "n_rungs": len(result.rungs),
    }))
    return written
