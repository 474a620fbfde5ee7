"""Acceptance suite: quantitative cross-validation of the full pipeline.

Each test prints one PASS/FAIL line (to the real stdout, bypassing
capture) so the acceptance status is visible in any log. Tolerances are
pinned in the assertions; Monte Carlo budgets were sized so that each
criterion has comfortable statistical margin.
"""

import hashlib
import itertools
import math
import pathlib
import sys

import numpy as np
import pytest

import rcmlab as rl
from rcmlab.analysis import (FunctionalSpec, birth_time_variance,
                             connects_to_window, degree_with_additions,
                             difference, empirical_distance, evaluate,
                             hops_between, poincare_bound, second_difference)
from rcmlab.census import GraphClass, canonical_form, census, enumerate_classes
from rcmlab.connection import ConnectionFunction
from rcmlab.experiments import emit, load_scenario, run_scenario
from rcmlab.geometry import Window
from rcmlab.marks import PairMarkSource
from rcmlab.moments import asy_cov_kl, asy_var_quadratic, sigma_total_partial
from rcmlab.sampling import build_coupled, build_rcm, sample_poisson

# the whole module is the slow quantitative suite: `pytest -m "not
# acceptance"` skips it for a quick development loop
pytestmark = pytest.mark.acceptance

GILBERT = ConnectionFunction("gilbert", 2, r=1.0)
GAUSS = ConnectionFunction("gaussian", 2, s=1.0)


_CAPFD = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    """Expose the capture fixture so PASS/FAIL lines reach the real stdout."""
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num, desc, ok):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d}: {status} - {desc}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _replicate_counts(window, phi, beta, n_reps, seed0, k_max, padding):
    """Census reports for n_reps independent seeded replicates."""
    reports = []
    for s in range(n_reps):
        pts = sample_poisson(window, padding, beta, seed0 + s)
        g = build_rcm(pts, phi, PairMarkSource(seed0 + s))
        reports.append(census(g, window, k_max=k_max))
    return reports


def test_criterion_01_isolated_vertex_intensity():
    w = Window("box", 10.0, 2)
    reps = _replicate_counts(w, GILBERT, 1.0, 500, 10_000, 1, 2.0)
    vals = np.array([r.eta_k(1) for r in reps], dtype=float) / w.volume
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    err = abs(float(np.mean(vals)) - math.exp(-math.pi))
    _report(1, f"eta_1/volume vs exp(-pi): err={err:.2e} se={se:.2e}",
            err <= 3.0 * se)


def test_criterion_02_coupling_monotonicity():
    psi = ConnectionFunction("scaled_indicator", 2, p=0.5, r=1.0)
    w = Window("box", 3.0, 2)
    violations = 0
    for s in range(1000):
        pts = sample_poisson(w, 1.0, 1.0, 20_000 + s)
        g_phi, g_psi = build_coupled(pts, GILBERT, psi, PairMarkSource(20_000 + s))
        if not set(map(tuple, g_psi.edges)) <= set(map(tuple, g_phi.edges)):
            violations += 1
    _report(2, f"edge nesting over 1000 coupled samples: "
            f"{violations} violations", violations == 0)


def test_criterion_03_census_oracle():
    def brute_canon(adj):
        k = len(adj)
        iu = list(zip(*np.triu_indices(k, 1)))
        best = None
        for perm in itertools.permutations(range(k)):
            bits = 0
            for b, (i, j) in enumerate(iu):
                if adj[perm[i], perm[j]]:
                    bits |= 1 << b
            best = bits if best is None else min(best, bits)
        return best

    def connected(adj):
        k = len(adj)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in range(k):
                if adj[v, u] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == k

    ok = True
    counts = {1: 1}
    for k in range(2, 6):
        iu = np.triu_indices(k, 1)
        n_bits = len(iu[0])
        seen_canons = set()
        for bits in range(1 << n_bits):
            adj = np.zeros((k, k), dtype=bool)
            adj[iu] = np.array([(bits >> b) & 1 for b in range(n_bits)],
                               dtype=bool)
            adj |= adj.T
            if not connected(adj):
                continue
            canon = canonical_form(adj).canon
            if canon != brute_canon(adj):
                ok = False
            seen_canons.add(canon)
        counts[k] = len(seen_canons)
        if len(enumerate_classes(k)) != len(seen_canons):
            ok = False
    expect = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    ok = ok and counts == expect
    _report(3, f"canonical form vs brute force, class counts {counts}", ok)


def test_criterion_04_structural_identities():
    w = Window("box", 3.0, 2)
    ok = True
    for rep in _replicate_counts(w, GILBERT, 1.0, 1000, 30_000, 5, 3.0):
        if rep.alpha != sum(rep.order_counts_inside.values()):
            ok = False
        for k in range(1, 6):
            by_class = sum(v for cid, v in rep.class_counts_lexmin.items()
                           if GraphClass.from_class_id(cid).order == k)
            if by_class != rep.eta_k(k):
                ok = False
    _report(4, "alpha = sum eta_tilde_k and eta_k = sum eta_G, 1000 samples",
            ok)


@pytest.mark.parametrize("label,statistic,kw,phi,n_reps", [
    ("eta_1 gilbert", "count_order", {"k": 1}, GILBERT, 2000),
    ("eta_2 gilbert", "count_order", {"k": 2}, GILBERT, 2000),
    ("alpha gilbert", "total_components", {}, GILBERT, 2000),
    ("eta_1 gaussian", "count_order", {"k": 1}, GAUSS, 1200),
    ("alpha gaussian", "total_components", {}, GAUSS, 800),
])
def test_criterion_05_poincare(label, statistic, kw, phi, n_reps):
    w = Window("box", 5.0, 2)
    spec = FunctionalSpec(statistic, w, phi, 1.0, **kw)
    bound = poincare_bound(spec, n_outer=200, n_points=20, seed=1)
    vals = np.empty(n_reps)
    for s in range(n_reps):
        pts = sample_poisson(w, spec.padding(), 1.0, 40_000 + s)
        vals[s] = evaluate(spec, build_rcm(pts, phi,
                                           PairMarkSource(40_000 + s)))
    var = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - vals.mean()) ** 4))
    var_se = math.sqrt(max(m4 - var ** 2, 0.0) / n_reps)
    slack = 3.0 * math.hypot(var_se, bound.std_error)
    _report(5, f"Poincare [{label}]: var={var:.3f} <= "
            f"bound={bound.value:.3f} + {slack:.3f}",
            var <= bound.value + slack)


def test_criterion_06_per_sample_difference_bounds():
    a = (1.0, -2.0)
    classes = (rl.single_vertex_class(), rl.edge_class())
    w = Window("box", 3.0, 2)
    spec = FunctionalSpec("weighted", w, GILBERT, 1.0, a=a, classes=classes)
    a_inf, k = 2.0, 2
    rng = np.random.default_rng(2024)
    viol1 = viol2 = 0
    n_graphs, per_graph = 250, 40
    for s in range(n_graphs):
        pts = sample_poisson(w, spec.padding(), 1.0, 50_000 + s)
        g = build_rcm(pts, GILBERT, PairMarkSource(50_000 + s))
        for _ in range(per_graph):
            x = rng.uniform(-4.5, 4.5, 2)
            y = rng.uniform(-4.5, 4.5, 2)
            d = difference(spec, g, x)
            degx = degree_with_additions(g, [(x, -1)], -1)
            indx = connects_to_window(g, [(x, -1)], -1, k, w)
            if abs(d) > a_inf * (degx + 1) * indx + 1e-9:
                viol1 += 1
            sd = second_difference(spec, g, x, y)
            degy = degree_with_additions(g, [(y, -2)], -2)
            hop = hops_between(g, [(x, -1), (y, -2)], -1, -2, k + 1)
            indy = connects_to_window(g, [(y, -2)], -2, k, w)
            if abs(sd.second) > \
                    a_inf * (2 * degy + 3) * hop * max(indx, indy) + 1e-9:
                viol2 += 1
    _report(6, f"difference bounds on {n_graphs * per_graph} draws: "
            f"{viol1} first-order, {viol2} second-order violations",
            viol1 == 0 and viol2 == 0)


def test_criterion_07_asymptotic_covariance():
    w = Window("box", 10.0, 2)
    n_reps = 2000
    v1 = np.empty(n_reps)
    v2 = np.empty(n_reps)
    for s in range(n_reps):
        pts = sample_poisson(w, 3.0, 1.0, 60_000 + s)
        rep = census(build_rcm(pts, GILBERT, PairMarkSource(60_000 + s)),
                     w, k_max=2)
        v1[s], v2[s] = rep.eta_k(1), rep.eta_k(2)

    def cov_se(x, y):
        cx, cy = x - x.mean(), y - y.mean()
        c = float(np.mean(cx * cy))
        return c, math.sqrt(max(float(np.mean((cx * cy) ** 2)) - c * c, 0.0)
                            / len(x))

    ok = True
    msgs = []
    for (k, l), (x, y) in [((1, 1), (v1, v1)), ((1, 2), (v1, v2))]:
        ana = asy_cov_kl(k, l, GILBERT, GILBERT, 1.0,
                         n_samples=150_000, seed=61 + k + l)
        emp, emp_se = cov_se(x, y)
        emp /= w.volume
        emp_se /= w.volume
        tol = max(0.10 * abs(ana.value),
                  3.0 * math.hypot(emp_se, ana.std_error))
        ok = ok and abs(emp - ana.value) <= tol
        msgs.append(f"s{k}{l}: emp={emp:.4f} ana={ana.value:.4f} "
                    f"tol={tol:.4f}")
    _report(7, "; ".join(msgs), ok)


def test_criterion_08_positive_definiteness():
    classes = [rl.single_vertex_class(), rl.edge_class(), rl.path_class(3)]
    _, mat, errs = asy_var_quadratic((1.0, 1.0, 1.0), classes, GILBERT, 1.0,
                                     n_samples=80_000, seed=88)
    mat = np.asarray(mat)
    errs = np.asarray(errs)
    min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    # eigenvalue perturbation is bounded by the spectral norm of the
    # error matrix, itself bounded by the Frobenius norm
    prop_err = float(np.sqrt(np.sum(errs ** 2)))
    _report(8, f"min eigenvalue {min_eig:.5f} vs 3x propagated error "
            f"{3.0 * prop_err:.5f}", min_eig > 3.0 * prop_err)


def test_criterion_09_clt_and_rate():
    dks = []
    vols = []
    for extent, seed0 in [(5.0, 100_000), (10.0, 110_000), (20.0, 120_000)]:
        w = Window("box", extent, 2)
        vals = np.empty(2000)
        for s in range(2000):
            pts = sample_poisson(w, 2.0, 1.0, seed0 + s)
            rep = census(build_rcm(pts, GILBERT, PairMarkSource(seed0 + s)),
                         w, k_max=1)
            vals[s] = rep.eta_k(1)
        z = (vals - vals.mean()) / vals.std(ddof=1)
        dks.append(empirical_distance(z, "kolmogorov"))
        vols.append(w.volume)
    slope = float(np.polyfit(np.log(vols), np.log(dks), 1)[0])
    ok = dks[-1] < 0.05 and -0.75 <= slope <= -0.25
    _report(9, f"d_K ladder {[round(d, 4) for d in dks]}, slope "
            f"{slope:.3f}", ok)


def test_criterion_10_total_components():
    beta = 0.5 / math.pi    # subcritical: beta * pi * r^2 = 0.5
    variances = []
    dk_last = None
    for extent, seed0 in [(5.0, 200_000), (10.0, 210_000), (20.0, 220_000)]:
        w = Window("box", extent, 2)
        vals = np.empty(1500)
        for s in range(1500):
            pts = sample_poisson(w, 6.0, beta, seed0 + s)
            rep = census(build_rcm(pts, GILBERT, PairMarkSource(seed0 + s)),
                         w, k_max=1)
            vals[s] = rep.alpha
        variances.append(float(np.var(vals, ddof=1)) / w.volume)
        z = (vals - vals.mean()) / vals.std(ddof=1)
        dk_last = empirical_distance(z, "kolmogorov")
    stable = abs(variances[-1] - variances[-2]) <= 0.10 * variances[-1]
    _, partials = sigma_total_partial(3, GILBERT, beta,
                                      n_samples=120_000, seed=10)
    partial = partials[-1].value
    close = abs(partial - variances[-1]) <= 0.15 * variances[-1]
    _report(10, f"var/vol {[round(v, 4) for v in variances]}, "
            f"d_K={dk_last:.4f}, partial sum m=3 {partial:.4f}",
            stable and dk_last < 0.07 and close)


def test_criterion_11_birth_time_variance():
    w = Window("box", 1.5, 2)
    spec = FunctionalSpec("count_order", w, GILBERT, 1.0, k=1,
                          mode="inside")
    nested = birth_time_variance(spec, n_outer=20_000, n_inner=8, seed=11)
    vals = np.empty(10_000)
    for s in range(10_000):
        pts = sample_poisson(w, spec.padding(), 1.0, 300_000 + s)
        vals[s] = evaluate(spec, build_rcm(pts, GILBERT,
                                           PairMarkSource(300_000 + s)))
    emp = float(np.var(vals, ddof=1))
    rel = abs(nested.value - emp) / emp
    _report(11, f"nested MC {nested.value:.4f} (se {nested.std_error:.4f}) "
            f"vs empirical {emp:.4f}: rel err {rel:.1%}", rel <= 0.15)


def test_criterion_12_mecke_and_reproducibility(tmp_path):
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [3.0, 5.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 400, "seed_base": 12,
    }
    res = run_scenario(load_scenario(cfg), threads=1)
    mecke_ok = all(abs(r.mecke_mean - r.volume) <= 3.0 * r.mecke_se
                   for r in res.rungs)
    emit(res, str(tmp_path / "serial"))
    emit(run_scenario(load_scenario(cfg), threads=8),
         str(tmp_path / "parallel"))

    def digest(root):
        h = hashlib.sha256()
        for p in sorted(pathlib.Path(root).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    identical = digest(tmp_path / "serial") == digest(tmp_path / "parallel")
    _report(12, f"Mecke within 3 s.e. ({mecke_ok}), serial vs 8-thread "
            f"byte-identical ({identical})", mecke_ok and identical)
