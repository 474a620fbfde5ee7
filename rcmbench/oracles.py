"""Checks of rcmlab's outputs against independent recomputations.

Components are recounted with networkx, and the window, boundary and
lexicographic-minimum rules are applied here from coordinates, without
rcmlab's census or difference-operator code. Importance-sampled moments
are compared with a closed form where one exists and otherwise with a
stored high-budget reference. Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
Z_LIMIT = 4.0


# ---------------------------------------------------------------------------
# model rules, restated from their definitions

def phi_of_dist(phi, t: np.ndarray) -> np.ndarray:
    """Edge probability at distance t for the built-in connection kinds."""
    if phi.kind == "gilbert":
        return (t <= phi.r).astype(float)
    if phi.kind == "scaled_indicator":
        return phi.p * (t <= phi.r)
    if phi.kind == "exponential":
        return np.exp(-t / phi.theta)
    if phi.kind == "gaussian":
        return np.exp(-(t / phi.s) ** 2)
    raise ValueError(f"no oracle for connection kind {phi.kind!r}")


def _delta(win, pts: np.ndarray) -> np.ndarray:
    return np.atleast_2d(pts) - np.asarray(win.center, dtype=float)


def inside(win, pts: np.ndarray) -> np.ndarray:
    d = _delta(win, pts)
    if win.shape == "box":
        return np.all(np.abs(d) <= win.extent, axis=1)
    return np.sum(d * d, axis=1) <= win.extent ** 2


def boundary_distance(win, pts: np.ndarray) -> np.ndarray:
    d = _delta(win, pts)
    if win.shape == "box":
        return win.extent - np.max(np.abs(d), axis=1)
    return win.extent - np.sqrt(np.sum(d * d, axis=1))


def _lexmin(pos: np.ndarray) -> int:
    """Row index of the lexicographically smallest point."""
    return int(np.lexsort(pos.T[::-1])[0])


def _components(nodes, edges):
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return [sorted(c) for c in nx.connected_components(g)]


# ---------------------------------------------------------------------------
# census

def census_recount(graph, window) -> dict:
    """Component counts of a realization, recounted with networkx.

    A component with a vertex closer than the pair-search radius to the
    sampled region's boundary is excluded, as rcmlab documents.
    """
    pts = graph.points.points
    region = graph.points.region
    bd = boundary_distance(region, pts) if len(pts) else np.empty(0)
    ins = inside(window, pts) if len(pts) else np.empty(0, dtype=bool)
    lexmin, all_in = Counter(), Counter()
    boundary = 0
    for comp in _components(range(len(pts)),
                            map(tuple, graph.edges.tolist())):
        ids = np.array(comp)
        if bd[ids].min() < graph.rmax:
            boundary += 1
            continue
        if ins[ids[_lexmin(pts[ids])]]:
            lexmin[len(ids)] += 1
        if ins[ids].all():
            all_in[len(ids)] += 1
    return {"order_counts_lexmin": dict(lexmin),
            "order_counts_inside": dict(all_in),
            "alpha": sum(all_in.values()), "boundary": boundary}


def census_report_problems(report, recount: dict) -> list[str]:
    """Differences between a CensusReport and the networkx recount."""
    problems = []
    for key in ("order_counts_lexmin", "order_counts_inside"):
        got = {k: v for k, v in getattr(report, key).items() if v}
        if got != recount[key]:
            problems.append(f"{key} {got} != recount {recount[key]}")
    if report.alpha != recount["alpha"]:
        problems.append(f"alpha {report.alpha} != recount {recount['alpha']}")
    if report.alpha != sum(report.order_counts_inside.values()):
        problems.append("alpha differs from the sum of order_counts_inside")
    if report.boundary_touching != recount["boundary"]:
        problems.append(f"boundary_touching {report.boundary_touching} != "
                        f"recount {recount['boundary']}")
    return problems


CENSUS_FILES = ("summary.json", "0/census.csv", "0/distances.csv",
                "0/moments.json", "0/summary.json")


def census_output_problems(out_dir: str, replicates: int,
                           statistics: list[str]) -> tuple[list[str], int]:
    """Check one `rcmlab census` result tree; returns (problems, bytes)."""
    base = Path(out_dir) / "results"
    hashes = sorted(p for p in base.iterdir()) if base.is_dir() else []
    if len(hashes) != 1:
        return [f"expected one result directory, found {len(hashes)}"], 0
    problems = [f"missing {name}" for name in CENSUS_FILES
                if not (hashes[0] / name).is_file()]
    if not problems:
        rows = census_rows(out_dir)
        if len(rows) != replicates * len(statistics):
            problems.append(f"census.csv has {len(rows)} rows, expected "
                            f"{replicates * len(statistics)}")
        if any(not math.isfinite(v) for _, _, v in rows):
            problems.append("census.csv holds a non-finite value")
        if [s for _, s, _ in rows[:len(statistics)]] != statistics:
            problems.append("census.csv statistics out of order")
    size = sum(p.stat().st_size for p in base.rglob("*") if p.is_file())
    return problems, size


def census_rows(out_dir: str) -> list[tuple[int, str, float]]:
    (path,) = Path(out_dir).glob("results/*/0/census.csv")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["replicate", "statistic", "value"]:
            raise ValueError("census.csv header changed")
        return [(int(r), s, float(v)) for r, s, v in reader]


def tree_digest(dirs) -> str:
    """SHA-256 over relative paths and bytes of every file under dirs."""
    h = hashlib.sha256()
    for d in dirs:
        root = Path(d)
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root.parent)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# difference operators

def statistic_value(spec, nodes, pos_of, edges, region, rmax) -> float:
    """A component statistic recomputed from an explicit graph."""
    if spec.statistic not in ("total_components", "count_order"):
        raise ValueError(f"no oracle for statistic {spec.statistic!r}")
    value = 0.0
    for comp in _components(nodes, edges):
        pos = np.array([pos_of[v] for v in comp])
        if boundary_distance(region, pos).min() < rmax:
            continue
        ins = inside(spec.window, pos)
        if spec.statistic == "total_components":
            value += float(ins.all())
        elif len(comp) == spec.k:
            counted = ins[_lexmin(pos)] if spec.mode == "lexmin" else ins.all()
            value += float(counted)
    return value


def insertion_recount(graph, spec, additions) -> tuple[float, float]:
    """(F without, F with) the added points, by brute force.

    The base edges are the graph's; the added points' edges are drawn
    from the definition: every point within the search radius whose pair
    mark is at most phi of the distance.
    """
    pts = graph.points.points
    ids = np.arange(len(pts))
    pos_of = {int(i): pts[i] for i in ids}
    base_edges = [tuple(e) for e in graph.edges.tolist()]
    base = statistic_value(spec, list(pos_of), pos_of, base_edges,
                           graph.points.region, graph.rmax)
    edges = list(base_edges)
    added = []
    for x, new_id in additions:
        x = np.asarray(x, dtype=float)
        dist = np.linalg.norm(pts - x, axis=1)
        near = ids[dist <= graph.rmax]
        if len(near):
            marks = np.atleast_1d(graph.marks.mark(
                np.full(len(near), new_id, dtype=np.int64), near))
            keep = marks <= phi_of_dist(graph.phi, dist[near])
            edges += [(int(new_id), int(j)) for j in near[keep]]
        for y, other in added:
            dist_xy = float(np.linalg.norm(x - y))
            if dist_xy <= graph.rmax and graph.marks.mark(new_id, other) <= \
                    phi_of_dist(graph.phi, np.array(dist_xy)):
                edges.append((int(new_id), int(other)))
        pos_of[int(new_id)] = x
        added.append((x, int(new_id)))
    value = statistic_value(spec, list(pos_of), pos_of, edges,
                            graph.points.region, graph.rmax)
    return base, value


def insertion_problems(ctx, additions, value) -> list[str]:
    base, expect = insertion_recount(ctx.graph, ctx.spec, additions)
    problems = []
    if ctx.base_value != base:
        problems.append(f"base value {ctx.base_value} != recount {base}")
    if value != expect:
        problems.append(f"value with insertion {value} != recount {expect}")
    return problems


def pooled_problems(estimates) -> list[str]:
    """All estimates finite, and a positive pooled standard error."""
    values = np.array([e.value for e in estimates], dtype=float)
    errors = np.array([e.std_error for e in estimates], dtype=float)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(errors))):
        return ["non-finite estimate"]
    if not math.sqrt(float(np.sum(errors ** 2))) > 0:
        return [f"std_error is 0 in all {len(estimates)} calls"]
    return []


# ---------------------------------------------------------------------------
# importance-sampled moments

def gaussian_edge_intensity(phi, beta: float) -> float:
    """rho of the edge class for a Gaussian phi in d=2, by 1-d quadrature.

    rho = beta^2/2 * int phi(x) exp(-beta (2 m_phi - (phi*phi)(x))) dx,
    with m_phi = pi s^2 and (phi*phi)(x) = pi s^2/2 exp(-|x|^2 / (2 s^2)).
    """
    from scipy import integrate
    if phi.kind != "gaussian" or phi.dim != 2:
        raise ValueError("closed form only for the 2-d Gaussian")
    s2 = phi.s ** 2

    def radial(t):
        overlap = 0.5 * math.pi * s2 * math.exp(-t * t / (2.0 * s2))
        return 2.0 * math.pi * t * math.exp(-t * t / s2) * math.exp(
            -beta * (2.0 * math.pi * s2 - overlap))

    val, _ = integrate.quad(radial, 0.0, math.inf, epsabs=0.0,
                            epsrel=1e-12, limit=200)
    return 0.5 * beta * beta * val


def stored_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["references"]


def finite_problems(estimate) -> list[str]:
    if math.isfinite(estimate.value) and math.isfinite(estimate.std_error):
        return []
    return ["non-finite estimate"]


def moment_problems(estimates, ref_value: float, ref_se: float,
                    sd_per_sample: float = 0.0) -> list[str]:
    """The pooled estimate lies within Z_LIMIT combined standard errors.

    The estimates pool to their sample-weighted mean. Its standard error
    is the larger of the one the calls report and the spread measured at
    the reference (sd_per_sample / sqrt(samples)): the k=6 path weights
    are so heavy-tailed that a call which misses the rare large weights
    reports too small an error, and one 10k-sample call in sixty fell
    4.7 of its own standard errors below the reference.
    """
    if not estimates:
        return ["no estimate"]
    if any(finite_problems(e) for e in estimates):
        return ["non-finite estimate"]
    n = np.array([e.n_samples for e in estimates], dtype=float)
    w = n / n.sum()
    value = float(np.sum(w * [e.value for e in estimates]))
    own = math.sqrt(float(np.sum((w * [e.std_error for e in estimates]) ** 2)))
    se = max(own, sd_per_sample / math.sqrt(n.sum()))
    scale = math.hypot(se, ref_se)
    z = abs(value - ref_value) / scale if scale > 0 else math.inf
    if z > Z_LIMIT:
        return [f"pooled estimate {value:.6g} (se {se:.3g}, "
                f"{len(estimates)} calls) is {z:.1f} se from reference "
                f"{ref_value:.6g}"]
    return []
