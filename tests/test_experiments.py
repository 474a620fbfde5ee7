"""Scenario configs, replicate ladders, deterministic emission."""

import csv
import hashlib
import json
import pathlib

import numpy as np
import pytest

from rcmlab.census import census, path_class
from rcmlab.experiments import (ConfigError, covariance_experiment, emit,
                                expectation_experiment, load_scenario,
                                replicate_seed, run_scenario,
                                total_components_experiment)
from rcmlab.marks import PairMarkSource
from rcmlab.sampling import build_rcm, sample_poisson


def _base_config(**overrides):
    cfg = {
        "dimension": 2,
        "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0, 4.0, 6.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 30,
        "seed_base": 5,
        "budgets": {"mc_samples": 5000},
    }
    cfg.update(overrides)
    return cfg


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_base_config()))
    scn = load_scenario(str(path))
    assert scn.dimension == 2
    assert scn.extents == (2.0, 4.0, 6.0)
    assert scn.window(1).extent == 4.0
    assert len(scn.scenario_hash) == 16


def test_scenario_hash_stable_and_sensitive():
    a = load_scenario(_base_config())
    b = load_scenario(_base_config())
    c = load_scenario(_base_config(beta=2.0))
    assert a.scenario_hash == b.scenario_hash
    assert a.scenario_hash != c.scenario_hash


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c.pop("dimension"), "dimension"),
    (lambda c: c.update(beta=-1.0), "beta"),
    (lambda c: c["phi"].update(kind="cauchy"), "phi.kind"),
    (lambda c: c["window"].update(shape="hexagon"), "window.shape"),
    (lambda c: c["window"].update(extents=[4.0, 2.0]), "window.extents"),
    (lambda c: c["window"].update(extents=[]), "window.extents"),
    (lambda c: c.update(replicates=1), "replicates"),
    (lambda c: c.update(statistics=[{"statistic": "count_order"}]),
     "statistics[0]"),
    (lambda c: c.update(statistics=[{"statistic": "entropy"}]),
     "statistics[0]"),
    (lambda c: c.update(psi={"kind": "gilbert", "r": 2.0}), "psi"),
])
def test_config_errors_carry_field_paths(mutate, fragment):
    cfg = _base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        load_scenario(cfg)
    assert fragment in str(err.value)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/scn.json")


def test_replicate_seed_derivation():
    scn = load_scenario(_base_config())
    assert replicate_seed(scn, 0, 0) == 5
    assert replicate_seed(scn, 2, 7) == 5 + 2_000_000 + 7
    seeds = {replicate_seed(scn, r, i)
             for r in range(3) for i in range(scn.replicates)}
    assert len(seeds) == 3 * scn.replicates


def test_run_scenario_and_regression():
    res = run_scenario(_base_config(), threads=1)
    assert len(res.rungs) == 3
    for rung in res.rungs:
        assert rung.values.shape == (30, 1)
        assert np.isfinite(rung.means).all()
        assert abs(rung.mecke_mean - rung.volume) < 5.0 * max(
            rung.mecke_se, 1.0)
    assert res.regression["n"] <= 3
    assert res.scenario_hash == res.scenario.scenario_hash


def test_class_counts_beyond_k_max():
    """A class above k_max is still resolved: the statistics set the
    class order of the census, k_max only pads unbounded statistics."""
    cfg = _base_config(
        window={"shape": "box", "extents": [5.0]}, replicates=4,
        seed_base=0, k_max=2,
        statistics=[{"statistic": "count_class", "class": "3:3"}])
    scn = load_scenario(cfg)
    res = run_scenario(scn, threads=1)
    expected = []
    for rep in range(scn.replicates):
        seed = replicate_seed(scn, 0, rep)
        points = sample_poisson(scn.window(0), 4.0, scn.beta, seed)
        graph = build_rcm(points, scn.phi, PairMarkSource(seed))
        expected.append(census(graph, scn.window(0), k_max=5).eta_G(
            path_class(3)))
    assert res.rungs[0].values[:, 0].tolist() == expected
    assert expected == [0, 0, 0, 1]


def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(pathlib.Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_serial_parallel_byte_identical(tmp_path):
    cfg = _base_config()
    emit(run_scenario(cfg, threads=1), str(tmp_path / "a"))
    emit(run_scenario(cfg, threads=8), str(tmp_path / "b"))
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_emit_layout_and_precision(tmp_path):
    res = run_scenario(_base_config(), threads=1)
    emit(res, str(tmp_path))
    base = tmp_path / "results" / res.scenario_hash
    assert (base / "summary.json").is_file()
    for rung in range(3):
        rdir = base / str(rung)
        for name in ("census.csv", "moments.json", "distances.csv",
                     "summary.json"):
            assert (rdir / name).is_file()
    with open(base / "0" / "census.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert {r["statistic"] for r in rows} == {"count_order;k=1"}
    # values round-trip at full precision
    for r in rows:
        assert float(r["value"]) == float(f"{float(r['value']):.17g}")
    doc = json.loads((base / "0" / "moments.json").read_text())
    assert "means" in doc and "mecke_mean" in doc


def test_emit_output_contract(tmp_path):
    """The files, columns and keys the README documents for `emit`."""
    res = run_scenario(_base_config(), threads=1)
    emit(res, str(tmp_path))
    base = tmp_path / "results" / res.scenario_hash
    assert sorted(p.name for p in base.iterdir()) == \
        ["0", "1", "2", "summary.json"]
    for rung in range(3):
        rdir = base / str(rung)
        assert sorted(p.name for p in rdir.iterdir()) == \
            ["census.csv", "distances.csv", "moments.json", "summary.json"]
        with open(rdir / "census.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["replicate", "statistic", "value"]
        with open(rdir / "distances.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["statistic", "d_K", "d_1"]
        doc = json.loads((rdir / "summary.json").read_text())
        assert sorted(doc) == ["kind", "replicates", "rung", "scenario_hash",
                               "seed_base", "statistics", "version"]
        doc = json.loads((rdir / "moments.json").read_text())
        assert sorted(doc) == ["extent", "extras", "means", "mecke_mean",
                               "mecke_se", "variances", "volume"]
    doc = json.loads((base / "summary.json").read_text())
    assert sorted(doc) == ["extras", "kind", "n_rungs", "regression",
                           "scenario_hash", "seed_base", "version"]


def test_expectation_experiment_prediction():
    cfg = _base_config(
        statistics=[{"statistic": "count_class", "class": "1:0"}],
        replicates=40)
    cfg["window"]["extents"] = [6.0]
    res = expectation_experiment(cfg, threads=1)
    pred = res.extras["predictions"][0]
    rung = res.rungs[0]
    emp = rung.means[0] / rung.volume
    se = np.sqrt(rung.variances[0] / cfg["replicates"]) / rung.volume
    assert abs(emp - pred["value"]) < 4.0 * se


def test_covariance_experiment_requires_classes():
    cfg = _base_config(statistics=[{"statistic": "count_order", "k": 1},
                                   {"statistic": "count_order", "k": 2}])
    with pytest.raises(ConfigError):
        covariance_experiment(cfg, threads=1)
    single = _base_config()
    with pytest.raises(ConfigError):
        covariance_experiment(single, threads=1)


def test_covariance_experiment_matrices():
    cfg = _base_config(
        statistics=[{"statistic": "count_class", "class": "1:0"},
                    {"statistic": "count_class", "class": "2:1"}],
        replicates=25)
    cfg["window"]["extents"] = [4.0]
    res = covariance_experiment(cfg, threads=1)
    mat = np.array(res.extras["analytic_cov"])
    assert mat.shape == (2, 2)
    assert mat[0, 1] == mat[1, 0]
    assert res.extras["analytic_min_eigenvalue"] > 0
    assert "empirical_cov" in res.rungs[0].extras


def test_total_components_experiment():
    cfg = _base_config(statistics=[{"statistic": "total_components"}],
                       beta=0.2, replicates=25)
    res = total_components_experiment(cfg, threads=1)
    partials = res.extras["partial_sums"]
    assert [p["m"] for p in partials] == [1, 2, 3]
    for rung in res.rungs:
        assert rung.extras["var_per_volume"] > 0
    plain = _base_config()
    with pytest.raises(ConfigError):
        total_components_experiment(plain, threads=1)


def test_threads_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("RCMLAB_THREADS", "2")
    cfg = _base_config()
    emit(run_scenario(cfg), str(tmp_path / "env"))
    monkeypatch.delenv("RCMLAB_THREADS")
    emit(run_scenario(cfg, threads=1), str(tmp_path / "one"))
    assert _tree_digest(tmp_path / "env") == _tree_digest(tmp_path / "one")


def test_package_version_matches_pyproject():
    import rcmlab
    tomllib = pytest.importorskip("tomllib")       # Python 3.11+
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert rcmlab.__version__ == project["version"]
