"""The benchmark's workloads, each a closed loop of rcmlab public calls.

A workload is a fixed list of parts; one round runs every part once, in
order, with inputs drawn from the run seed and the round number. Each
part reports how many units of work it did (replicates, insertions,
inner graphs or samples), so its throughput is units per second.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import statistics

import oracles

cli = importlib.import_module("rcmlab.cli")
analysis = importlib.import_module("rcmlab.analysis")
moments = importlib.import_module("rcmlab.moments")
census_mod = importlib.import_module("rcmlab.census")
from rcmlab.connection import ConnectionFunction  # noqa: E402
from rcmlab.geometry import Window  # noqa: E402

GILBERT = ConnectionFunction("gilbert", 2, r=1.0)
GAUSSIAN = ConnectionFunction("gaussian", 2, s=1.0)

# Sizes of one round's parts, set so each part takes a comparable share
# of a round on a 2-core Xeon; TINY is for the self-test.
FULL = {
    "census_ladder": {"replicates": {"e10": 16, "e20": 6, "e50": 2},
                      "warmup_replicates": 2, "trace_rounds": 2},
    "difference_mc": {"poincare_outer": 6, "birth_outer": 16,
                      "birth_inner": 8, "warmup_outer": 2,
                      "trace_rounds": 3},
    "moments_is": {"samples": {"rho_k4": 6000, "rho_k6": 4000,
                               "cov_22": 6000, "rho_gauss2": 1500},
                   "warmup_samples": 300, "trace_rounds": 2},
    "setup_probes": 5,
    "insertion_checks": 12,
}
TINY = {
    "census_ladder": {"replicates": {"e10": 2, "e20": 2, "e50": 2},
                      "warmup_replicates": 2, "trace_rounds": 1},
    "difference_mc": {"poincare_outer": 6, "birth_outer": 48,
                      "birth_inner": 4, "warmup_outer": 2,
                      "trace_rounds": 1},
    "moments_is": {"samples": {"rho_k4": 2000, "rho_k6": 2000,
                               "cov_22": 2000, "rho_gauss2": 400},
                   "warmup_samples": 200, "trace_rounds": 1},
    "setup_probes": 1,
    "insertion_checks": 4,
}


def round_seed(seed: int, rnd: int, part_index: int) -> int:
    """Distinct nonnegative seed per (run seed, round, part)."""
    return seed * 10_000_000 + rnd * 10_000 + part_index * 1_000


class Workload:
    """One workload: inputs built once, then parts run round by round."""

    name = ""
    parts: tuple = ()
    small = large = ""     # parts behind small_/large_input_per_s

    def __init__(self, seed: int, sizes: dict, workdir: str):
        self.seed = seed
        self.sizes = sizes[self.name]
        self.all_sizes = sizes
        self.workdir = workdir

    def rate_name(self, part: str) -> str:
        raise NotImplementedError

    def warm_up(self):
        """One small call per part, filling rcmlab's per-process caches."""

    def run(self, part: str, rnd: int) -> dict:
        """Run a part; the result holds at least the work `units`."""
        raise NotImplementedError

    def check(self, part: str, out: dict) -> list[str]:
        """Cheap checks of one part's output, outside the timed region."""
        return []

    def discard(self, out: dict):
        """Release files an output left behind."""

    def check_keep(self) -> dict:
        """Entry points whose calls the check round captures for oracles."""
        return {}

    def deep_check(self, tracer, outs: dict) -> dict:
        """Oracles on the check round's captured calls: part -> problems."""
        return {}

    def final_check(self, outs_by_part: dict) -> dict:
        """Checks over all of a run's outputs of each part."""
        return {}

    def rse(self, outs_by_part: dict) -> dict:
        """Median std_error / value of each estimand's traced outputs."""
        return {}

    def record(self) -> dict:
        """Problem sizes for the run record."""
        return dict(self.sizes)


# ---------------------------------------------------------------------------

EXTENTS = {"e10": 10.0, "e20": 20.0, "e50": 50.0}
STATISTICS = [
    {"statistic": "count_order", "k": 1},
    {"statistic": "count_class", "class": "2:1"},
    {"statistic": "count_order", "k": 3, "mode": "inside"},
    {"statistic": "total_components"},
]
STAT_LABELS = ["count_order;k=1", "count_class;class=2:1",
               "count_order;k=3;mode=inside", "total_components"]


def _recount_values(recount: dict) -> list[float]:
    """The four census statistics of replicate 0, from the oracle."""
    return [float(recount["order_counts_lexmin"].get(1, 0)),
            float(recount["order_counts_lexmin"].get(2, 0)),
            float(recount["order_counts_inside"].get(3, 0)),
            float(recount["alpha"])]


class CensusLadder(Workload):
    """`rcmlab census` through cli.main, once per window extent."""

    name = "census_ladder"
    parts = ("e10", "e20", "e50")
    small, large = "e10", "e50"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.configs = {}
        for part, extent in EXTENTS.items():
            self.configs[part] = self._write_config(
                part, extent, self.sizes["replicates"][part])
        self.configs["warmup"] = self._write_config(
            "warmup", EXTENTS["e10"], self.sizes["warmup_replicates"])
        self.digest = None

    def _write_config(self, label, extent, replicates) -> str:
        cfg = {"dimension": 2, "beta": 1.0,
               "phi": {"kind": "gilbert", "r": 1.0},
               "window": {"shape": "box", "extents": [extent]},
               "statistics": STATISTICS, "replicates": replicates,
               "seed_base": 0, "k_max": 5}
        path = os.path.join(self.workdir, f"census-{label}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def rate_name(self, part):
        return f"reps_per_s.{part}"

    def _census(self, config: str, seed_base: int, out_dir: str) -> int:
        shutil.rmtree(out_dir, ignore_errors=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return cli.main(["census", "--config", config, "--seed",
                             str(seed_base), "--out", out_dir,
                             "--threads", "1"])

    def warm_up(self):
        out = os.path.join(self.workdir, "census-warmup")
        rc = self._census(self.configs["warmup"], round_seed(self.seed, 0, 9),
                          out)
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0:
            raise RuntimeError(f"warm-up census exited with {rc}")

    def run(self, part, rnd):
        seed_base = round_seed(self.seed, rnd, self.parts.index(part))
        out = os.path.join(self.workdir, f"census-{part}-r{rnd}")
        rc = self._census(self.configs[part], seed_base, out)
        return {"rc": rc, "dir": out, "seed_base": seed_base,
                "units": self.sizes["replicates"][part]}

    def check(self, part, out):
        if out["rc"] != 0:
            return [f"census exited with code {out['rc']}"]
        problems, out["bytes"] = oracles.census_output_problems(
            out["dir"], self.sizes["replicates"][part], STAT_LABELS)
        return problems

    def discard(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)

    def check_keep(self):
        # experiments calls census(graph, window, k_max=...) per replicate
        return {"census.census": lambda a, k, r: (a[0], a[1], r)}

    def deep_check(self, tracer, outs):
        problems = {part: [] for part in self.parts}
        captured = tracer.kept["census.census"]
        for part in self.parts:
            out = outs[part]
            first = [(g, w, rep) for span, (g, w, rep) in captured
                     if tracer.op_parts[tracer.op[span]] == part
                     and g.points.seed == out["seed_base"]]
            if len(first) != 1 or out["rc"] != 0:
                problems[part].append("replicate 0 was not captured")
                continue
            graph, window, report = first[0]
            recount = oracles.census_recount(graph, window)
            problems[part] += oracles.census_report_problems(report, recount)
            emitted = [v for r, _, v in oracles.census_rows(out["dir"])
                       if r == 0]
            if emitted != _recount_values(recount):
                problems[part].append(
                    f"census.csv replicate 0 {emitted} != recount "
                    f"{_recount_values(recount)}")
        self.digest = oracles.tree_digest(
            [outs[p]["dir"] for p in self.parts if outs[p]["rc"] == 0])
        return problems

    def record(self):
        return {"extents": EXTENTS, "statistics": STAT_LABELS, "k_max": 5,
                "padding": 6.0, **self.sizes,
                "result_tree_sha256": self.digest}


# ---------------------------------------------------------------------------

POINCARE_SPEC = analysis.FunctionalSpec(
    "total_components", Window("box", 5.0, 2), GAUSSIAN, 1.0)
BIRTH_SPEC = analysis.FunctionalSpec(
    "count_order", Window("box", 1.5, 2), GILBERT, 1.0, k=1, mode="inside")
POINCARE_POINTS = 20


class DifferenceMC(Workload):
    """The Poincare bound and the nested birth-time variance."""

    name = "difference_mc"
    parts = ("birth", "poincare")
    small, large = "birth", "poincare"

    def rate_name(self, part):
        return {"poincare": "poincare_inserts_per_s",
                "birth": "birth_graphs_per_s"}[part]

    def _call(self, part, seed, n_outer):
        if part == "poincare":
            est = analysis.poincare_bound(POINCARE_SPEC, n_outer=n_outer,
                                          n_points=POINCARE_POINTS, seed=seed)
            return est, n_outer * POINCARE_POINTS
        inner = self.sizes["birth_inner"]
        est = analysis.birth_time_variance(BIRTH_SPEC, n_outer=n_outer,
                                           n_inner=inner, seed=seed)
        return est, n_outer * inner

    def warm_up(self):
        for i, part in enumerate(self.parts):
            self._call(part, round_seed(self.seed, 0, 9 - i),
                       self.sizes["warmup_outer"])

    def run(self, part, rnd):
        n_outer = self.sizes[f"{part}_outer"]
        est, units = self._call(
            part, round_seed(self.seed, rnd, self.parts.index(part)), n_outer)
        return {"estimate": est, "units": units, "n_outer": n_outer}

    def check(self, part, out):
        est = out["estimate"]
        if oracles.finite_problems(est):
            return oracles.finite_problems(est)
        if est.n_samples != out["n_outer"]:
            return [f"n_samples {est.n_samples} != {out['n_outer']}"]
        return []

    def check_keep(self):
        return {"analysis.value_with_additions":
                lambda a, k, r: (a[0], a[1], r)}

    def deep_check(self, tracer, outs):
        """Brute-force recount of a subsample of each part's insertions:
        the first few, and every one that changed the statistic."""
        limit = self.all_sizes["insertion_checks"]
        problems = {part: [] for part in self.parts}
        for part in self.parts:
            calls = [c for span, c in
                     tracer.kept["analysis.value_with_additions"]
                     if tracer.op_parts[tracer.op[span]] == part]
            picked = calls[:limit] + [c for c in calls[limit:]
                                      if c[2] != c[0].base_value][:limit]
            if not picked:
                problems[part].append("no insertion was captured")
            for ctx, additions, value in picked:
                problems[part] += oracles.insertion_problems(
                    ctx, additions, value)
        return problems

    def final_check(self, outs_by_part):
        return {part: oracles.pooled_problems([o["estimate"] for o in outs])
                for part, outs in outs_by_part.items()}

    def record(self):
        return {"poincare": {"statistic": "total_components",
                             "phi": "gaussian s=1", "box": 5.0,
                             "n_points": POINCARE_POINTS},
                "birth": {"statistic": "count_order k=1 mode=inside",
                          "phi": "gilbert r=1", "box": 1.5},
                **self.sizes}


# ---------------------------------------------------------------------------

class MomentsIS(Workload):
    """Importance-sampled intensities and an asymptotic covariance."""

    name = "moments_is"
    parts = ("rho_k4", "rho_k6", "cov_22", "rho_gauss2")
    small, large = "rho_k4", "rho_k6"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.classes = {"rho_k4": census_mod.path_class(4),
                        "rho_k6": census_mod.path_class(6),
                        "rho_gauss2": census_mod.edge_class()}
        self._refs = None

    def rate_name(self, part):
        return f"is_samples_per_s.{part}"

    def _call(self, part, n, seed):
        if part == "cov_22":
            return moments.asy_cov_kl(2, 2, GILBERT, GILBERT, 1.0,
                                      n_samples=n, seed=seed)
        phi = GAUSSIAN if part == "rho_gauss2" else GILBERT
        return moments.expected_count_intensity(
            self.classes[part], phi, 1.0, n_samples=n, seed=seed)

    def warm_up(self):
        for i, part in enumerate(self.parts):
            self._call(part, self.sizes["warmup_samples"],
                       round_seed(self.seed, 0, 9 - i))

    def run(self, part, rnd):
        n = self.sizes["samples"][part]
        est = self._call(part, n,
                         round_seed(self.seed, rnd, self.parts.index(part)))
        return {"estimate": est, "units": n}

    def references(self) -> dict:
        """part -> (value, std_error, sd_per_sample) of its reference."""
        if self._refs is None:
            stored = oracles.stored_references()
            self._refs = {p: (r["value"], r["std_error"], r["sd_per_sample"])
                          for p, r in stored.items()}
            self._refs["rho_gauss2"] = (
                oracles.gaussian_edge_intensity(GAUSSIAN, 1.0), 0.0, 0.0)
        return self._refs

    def check(self, part, out):
        return oracles.finite_problems(out["estimate"])

    def final_check(self, outs_by_part):
        return {part: oracles.moment_problems(
                    [o["estimate"] for o in outs], *self.references()[part])
                for part, outs in outs_by_part.items()}

    def rse(self, outs_by_part):
        rse = {}
        for part, outs in outs_by_part.items():
            ratios = [o["estimate"].std_error / o["estimate"].value
                      for o in outs if o["estimate"].value]
            rse[part] = statistics.median(ratios) if ratios else 0.0
        return rse

    def record(self):
        return {"estimands": {
            "rho_k4": "expected_count_intensity(path_class(4)), gilbert r=1",
            "rho_k6": "expected_count_intensity(path_class(6)), gilbert r=1",
            "cov_22": "asy_cov_kl(2, 2), gilbert r=1",
            "rho_gauss2": "expected_count_intensity(edge_class()), "
                          "gaussian s=1"},
            "beta": 1.0, "dimension": 2, **self.sizes}


WORKLOADS = {w.name: w for w in (CensusLadder, DifferenceMC, MomentsIS)}
