"""Command line interface: subcommands, exit codes, thread override."""

import csv
import json
import os

import pytest

from rcmlab.census import census
from rcmlab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "dimension": 2,
        "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0, 4.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 20,
        "seed_base": 9,
        "budgets": {"mc_samples": 4000},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sample_writes_points_and_edges(tmp_path, config_path):
    out = str(tmp_path / "out")
    assert main(["sample", "--config", config_path, "--out", out]) == EXIT_OK
    results = os.path.join(out, "results")
    runs = os.listdir(results)
    assert len(runs) == 1
    rdir = os.path.join(results, runs[0], "0")
    with open(os.path.join(rdir, "points.csv")) as fh:
        pts = list(csv.DictReader(fh))
    assert pts and {"id", "x0", "x1"} <= set(pts[0])
    with open(os.path.join(rdir, "edges.csv")) as fh:
        edges = list(csv.DictReader(fh))
    ids = {p["id"] for p in pts}
    for e in edges:
        assert e["i"] in ids and e["j"] in ids


def test_sample_writes_census_replicate_zero(tmp_path, config_path,
                                             monkeypatch):
    from rcmlab import experiments
    counted = []

    def recording_census(graph, window, **kwargs):
        counted.append(graph)
        return census(graph, window, **kwargs)

    monkeypatch.setattr(experiments, "run_census", recording_census)
    out = str(tmp_path / "out")
    for command in ("sample", "census"):
        assert main([command, "--config", config_path, "--seed", "4",
                     "--out", out, "--threads", "1"]) == EXIT_OK
    graph = counted[0]      # replicate 0 of rung 0
    assert graph.points.seed == 4
    rdir = os.path.join(out, "results", os.listdir(
        os.path.join(out, "results"))[0], "0")
    with open(os.path.join(rdir, "points.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[int(r[0])] + [float(v) for v in r[1:]] for r in rows] == \
        [[i, *p] for i, p in enumerate(graph.points.points.tolist())]
    with open(os.path.join(rdir, "edges.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[int(v) for v in r] for r in rows] == graph.edges.tolist()


def test_census_and_clt_produce_layout(tmp_path, config_path):
    out = str(tmp_path / "out")
    assert main(["census", "--config", config_path, "--out", out]) == EXIT_OK
    results = os.path.join(out, "results")
    run = os.listdir(results)[0]
    for rung in ("0", "1"):
        for name in ("census.csv", "moments.json", "distances.csv",
                     "summary.json"):
            assert os.path.isfile(os.path.join(results, run, rung, name))
    assert main(["clt", "--config", config_path, "--out", out]) == EXIT_OK
    top = json.load(open(os.path.join(results, run, "summary.json")))
    assert "regression" in top


def test_seed_override_changes_hash(tmp_path, config_path):
    out = str(tmp_path / "out")
    main(["census", "--config", config_path, "--out", out])
    main(["census", "--config", config_path, "--seed", "77", "--out", out])
    assert len(os.listdir(os.path.join(out, "results"))) == 2


def test_bounds_subcommand(tmp_path, config_path):
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", config_path, "--out", out]) == EXIT_OK
    results = os.path.join(out, "results")
    run = os.listdir(results)[0]
    docs = json.load(open(os.path.join(results, run, "bounds.json")))
    assert docs and all("poincare_bound" in d for d in docs)


def test_bounds_with_k_max_above_class_limit(tmp_path):
    # k_max pads unbounded statistics only; it no longer sets the class
    # order of the component table, which is capped at K_MAX = 8
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [1.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 2, "seed_base": 3, "k_max": 9,
        "budgets": {"inner": 2},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert main(["bounds", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_OK


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 2}))
    rc = main(["census", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    rc = main(["census", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    bad.write_text("5")
    rc = main(["census", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("field", [
    {"k_max": -3}, {"k_max": 0}, {"k_max": "five"}, {"k_max": 2.5},
    {"budgets": {"mc_samples": 0}}, {"budgets": {"inner": -1}},
    {"budgets": {"inner": "8"}}, {"budgets": [8]},
])
def test_bad_k_max_and_budgets_are_config_errors(tmp_path, capsys, field):
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "total_components"}],
        "replicates": 2, "seed_base": 1, **field,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert main(["census", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    key = "budgets" if "budgets" in field else "k_max"
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, field, argv, named", [
    ("census", {"statistics": []}, [], "statistics"),
    ("sample", {"statistics": []}, [], "statistics"),
    ("census", {"statistics": ["count_order"]}, [], "statistics"),
    ("census", {"seed_base": -5}, [], "seed_base"),
    ("census", {}, ["--seed", "-1"], "--seed"),
    ("census", {"statistics": [{"statistic": "count_order", "k": -2}]}, [],
     "statistics[0].k"),
    ("census", {"statistics": [{"statistic": "count_order", "k": 0}]}, [],
     "statistics[0].k"),
    ("census", {"beta": float("nan")}, [], "beta"),
    ("census", {"statistics": [{"statistic": "weighted", "a": [float("nan")],
                                "classes": ["2:1"]}]}, [], "statistics[0].a"),
    ("census", {"phi": {"kind": "gilbert", "r": float("inf")}}, [], "phi.r"),
    ("census", {"window": {"shape": "box", "extents": [float("nan")]}}, [],
     "window.extents"),
    # values of the wrong JSON type; a bool is not a number
    ("census", {"dimension": True}, [], "dimension"),
    ("census", {"psi": 5}, [], "psi"),
    ("census", {"statistics": [{"statistic": "weighted", "a": [1.0],
                                "classes": [5]}]}, [],
     "statistics[0].classes"),
    ("census", {"k_max": True}, [], "k_max"),
    ("census", {"seed_base": False}, [], "seed_base"),
    ("census", {"beta": True}, [], "beta"),
    ("census", {"window": {"shape": "box", "extents": [True]}}, [],
     "window.extents"),
    ("census", {"statistics": [{"statistic": "count_order", "k": True}]}, [],
     "statistics[0].k"),
    ("census", {"statistics": [{"statistic": "weighted", "a": [True],
                                "classes": ["2:1"]}]}, [], "statistics[0].a"),
    ("census", {"statistics": [{"statistic": "weighted", "a": [None],
                                "classes": ["2:1"]}]}, [], "statistics[0].a"),
    # an integer too large for a float
    ("census", {"beta": 10 ** 400}, [], "beta"),
    ("census", {"window": {"shape": "box", "extents": [10 ** 400]}}, [],
     "window.extents"),
])
def test_out_of_range_fields_are_config_errors(tmp_path, capsys, command,
                                               field, argv, named):
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "total_components"}],
        "replicates": 2, "seed_base": 1, **field,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path),
                 *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {named}" in err
    assert "Traceback" not in err


def test_domination_failure_is_config_error(tmp_path):
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "psi": {"kind": "gilbert", "r": 2.0},
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 5, "seed_base": 1,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert main(["census", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_numerical_precondition_exit_code(tmp_path, capsys):
    # numerical preconditions are surfaced as exit code 3 through
    # ValueError; here: a Gaussian range so small that the radial
    # proposal of the covariance integrals has zero mass on its grid
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gaussian", "s": 1e-200},
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "count_class", "class": "1:0"},
                       {"statistic": "count_class", "class": "2:1"}],
        "replicates": 5, "seed_base": 1,
        "budgets": {"mc_samples": 1000},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    rc = main(["covariance", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "degenerate radial proposal" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["expectation", "covariance"])
def test_orders_beyond_enumeration_cap_are_config_errors(
        tmp_path, monkeypatch, capsys, command):
    # the moment engine enumerates labeled copies only up to ENUM_CAP
    # points, so a larger class is refused before any replicate runs
    from rcmlab import experiments

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the config check")

    monkeypatch.setattr(experiments, "_make_rung", no_replicates)
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "count_class", "class": "1:0"},
                       {"statistic": "count_class",
                        "class": "7:" + format((1 << 21) - 1, "x")}],
        "replicates": 5, "seed_base": 1,
        "budgets": {"mc_samples": 1000},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "enumeration cap 6" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("statistic", [
    {"statistic": "count_class", "class": "3:5"},    # 3-path, not canonical
    {"statistic": "count_class", "class": "3:1"},    # disconnected
    {"statistic": "count_class", "class": "2:0"},    # disconnected
    {"statistic": "count_class", "class": "9:1ff"},  # order above K_MAX
    {"statistic": "weighted", "a": [1.0, 2.0], "classes": ["2:1", "3:5"]},
], ids=["3:5", "3:1", "2:0", "9:1ff", "weighted-3:5"])
def test_non_canonical_class_ids_are_config_errors(tmp_path, capsys,
                                                   statistic):
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [5.0]},
        "statistics": [statistic], "replicates": 4, "seed_base": 0,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    rc = main(["census", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "not the canonical id of a connected graph" in err
    assert "Traceback" not in err


def test_threads_flag_and_env(tmp_path, config_path, monkeypatch):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["census", "--config", config_path, "--out", out1,
                 "--threads", "4"]) == EXIT_OK
    monkeypatch.setenv("RCMLAB_THREADS", "1")
    assert main(["census", "--config", config_path, "--out", out2,
                 "--threads", "4"]) == EXIT_OK
    import filecmp
    run = os.listdir(os.path.join(out1, "results"))[0]
    a = os.path.join(out1, "results", run, "0", "census.csv")
    b = os.path.join(out2, "results", run, "0", "census.csv")
    assert filecmp.cmp(a, b, shallow=False)


def test_non_integer_threads_env_is_config_error(tmp_path, config_path,
                                                 monkeypatch, capsys):
    monkeypatch.setenv("RCMLAB_THREADS", "abc")
    rc = main(["census", "--config", config_path, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "RCMLAB_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("command, phi, statistics", [
    ("expectation", {"kind": "gilbert", "r": 1.0},
     [{"statistic": "count_class", "class": "2:1"}]),
    ("covariance", {"kind": "scaled_indicator", "p": 0.5, "r": 1.0},
     [{"statistic": "count_class", "class": "1:0"},
      {"statistic": "count_class", "class": "2:1"}]),
    ("total", {"kind": "gilbert", "r": 1.0},
     [{"statistic": "total_components"}]),
])
def test_indicator_moments_beyond_d2_are_config_errors(
        tmp_path, monkeypatch, capsys, command, phi, statistics):
    # exact ball intersections exist only for d <= 2, so the analytic
    # side of these experiments is refused before any replicate runs
    from rcmlab import experiments

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the config check")

    monkeypatch.setattr(experiments, "_make_rung", no_replicates)
    cfg = {
        "dimension": 3, "beta": 1.0, "phi": phi,
        "window": {"shape": "box", "extents": [1.5]},
        "statistics": statistics, "replicates": 3, "seed_base": 1,
        "budgets": {"mc_samples": 1000},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "dimension <= 2" in err
    assert "Traceback" not in err
