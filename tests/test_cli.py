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
    {"budgets": {"mc_samples": 0}}, {"budgets": {"mc_samples": 1}},
    {"budgets": {"inner": -1}},
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
    # malformed class ids and counting modes
    ("census", {"statistics": [{"statistic": "count_class",
                                "class": "2:zz"}]}, [],
     "statistics[0].class: expected a class id <order>:<hex canon>"),
    ("census", {"statistics": [{"statistic": "count_class",
                                "class": "x:1"}]}, [],
     "statistics[0].class: expected a class id <order>:<hex canon>"),
    ("census", {"statistics": [{"statistic": "count_class",
                                "class": "2"}]}, [],
     "statistics[0].class: expected a class id <order>:<hex canon>"),
    ("census", {"statistics": [{"statistic": "weighted", "a": [1.0],
                                "classes": ["2-1"]}]}, [],
     "statistics[0].classes: expected a class id <order>:<hex canon>"),
    ("census", {"statistics": [{"statistic": "count_order", "k": 1,
                                "mode": "both"}]}, [],
     "statistics[0].mode"),
    ("census", {"statistics": [{"statistic": "count_class", "class": "2:1",
                                "mode": 3}]}, [], "statistics[0].mode"),
    # connection-function parameters out of range
    ("census", {"phi": {"kind": "gilbert", "r": -1.0}}, [],
     "phi.r: must be positive"),
    ("census", {"phi": {"kind": "gaussian", "s": 0.0}}, [],
     "phi.s: must be positive"),
    ("census", {"phi": {"kind": "scaled_indicator", "p": 1.5, "r": 1.0}}, [],
     "phi.p: must lie in (0, 1]"),
    ("census", {"phi": {"kind": "exponential", "theta": -2.0}}, [],
     "phi.theta: must be positive"),
    ("census", {"psi": {"kind": "scaled_indicator", "p": 0.0, "r": 1.0}}, [],
     "psi.p: must lie in (0, 1]"),
    ("census", {"dimension": 0}, [], "dimension: must be positive"),
    ("census", {"statistics": [{"statistic": "weighted", "a": [1.0],
                                "classes": ["1:0", "2:1"]}]}, [],
     "statistics[0]: weighted statistic needs matching a, classes"),
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_replicate_values_are_a_numerical_error(tmp_path, capsys):
    # each isolated vertex adds 1.7e308, so two of them overflow to inf;
    # the ladder refuses the column before it is standardized
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [3.0]},
        "statistics": [{"statistic": "weighted", "a": [1.7e308],
                        "classes": ["1:0"]}],
        "replicates": 3, "seed_base": 1,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    rc = main(["census", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "numerical precondition violated: statistics[0]: replicate values "
        "at extent 3.0 are not finite"]


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
    field = "class" if "class" in statistic else "classes"
    assert f"configuration error: statistics[0].{field}: " in err
    assert "not the canonical id of a connected graph" in err
    assert "Traceback" not in err


def test_zero_weighted_value_is_written_without_sign(tmp_path):
    """A weighted statistic with a negative weight whose class no
    replicate holds writes 0, not -0: F is added up from +0.0."""
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [0.05]},
        "statistics": [{"statistic": "weighted", "a": [-1.7],
                        "classes": ["3:3"]}],
        "replicates": 4, "seed_base": 1,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert main(["census", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_OK
    (run,) = os.listdir(tmp_path / "results")
    text = (tmp_path / "results" / run / "0" / "census.csv").read_text()
    assert [row["value"] for row in csv.DictReader(text.splitlines())] == \
        ["0"] * 4
    assert "-0" not in text


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


@pytest.mark.parametrize("command, flag, env, field", [
    ("census", "0", None, "threads"), ("census", "-2", None, "threads"),
    ("census", None, "0", "RCMLAB_THREADS"),
    ("census", "4", "-1", "RCMLAB_THREADS"),
    ("sample", "0", None, "threads"), ("bounds", None, "0", "RCMLAB_THREADS")])
def test_thread_counts_below_one_are_config_errors(tmp_path, config_path,
                                                   monkeypatch, capsys,
                                                   command, flag, env, field):
    if env is not None:
        monkeypatch.setenv("RCMLAB_THREADS", env)
    argv = [command, "--config", config_path, "--out", str(tmp_path)]
    rc = main(argv + (["--threads", flag] if flag is not None else []))
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert f"{field}: must be at least 1" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command, phi, statistics", [
    ("expectation", {"kind": "gilbert", "r": 1.0},
     [{"statistic": "count_class", "class": "2:1"}]),
    ("covariance", {"kind": "scaled_indicator", "p": 0.5, "r": 1.0},
     [{"statistic": "count_class", "class": "1:0"},
      {"statistic": "count_class", "class": "2:1"}]),
    ("total", {"kind": "gilbert", "r": 1.0},
     [{"statistic": "total_components"}]),
])
def test_indicator_moments_in_d3_run(tmp_path, capsys, command, phi,
                                     statistics):
    # ball intersections are sliced in any dimension, so the analytic
    # side of these experiments runs for indicator clusters in d = 3
    cfg = {
        "dimension": 3, "beta": 1.0, "phi": phi,
        "window": {"shape": "box", "extents": [1.5]},
        "statistics": statistics, "replicates": 3, "seed_base": 1,
        "budgets": {"mc_samples": 1000},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_OK
    assert "Traceback" not in err
    run = out / "results" / os.listdir(out / "results")[0]
    for name in ("census.csv", "distances.csv", "moments.json",
                 "summary.json"):
        assert (run / "0" / name).is_file()
    summary = json.loads((run / "summary.json").read_text())
    assert summary["kind"] == command and summary["extras"]


@pytest.mark.parametrize("command", ["sample", "census", "expectation",
                                     "covariance", "clt", "bounds", "total"])
@pytest.mark.parametrize("under_file", [False, True],
                         ids=["file", "below-file"])
def test_out_that_is_a_file_is_a_config_error(tmp_path, config_path,
                                              monkeypatch, capsys, command,
                                              under_file):
    from rcmlab import analysis, experiments

    def no_draws(*args, **kwargs):
        raise AssertionError("a replicate was drawn before the --out check")

    monkeypatch.setattr(experiments, "seeded_sample", no_draws)
    monkeypatch.setattr(analysis, "seeded_sample", no_draws)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / "sub" if under_file else blocker
    rc = main([command, "--config", config_path, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "configuration error: --out" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


# a range of 1e200 pads the window to a volume beyond any float; the
# smooth kinds' truncation radii are numpy floats
_OVERFLOWING_PHIS = [({"kind": "gilbert", "r": 1e200}, "2e+200"),
                     ({"kind": "gaussian", "s": 1e200}, "7.43384e+200"),
                     ({"kind": "exponential", "theta": 1e200}, "2.7631e+201")]


@pytest.mark.parametrize("phi, extent, command", [
    pytest.param(phi, extent, command,
                 id=command if phi["kind"] == "gilbert"
                 else f"{phi['kind']}-{command}")
    for phi, extent in _OVERFLOWING_PHIS
    for command in ["sample", "census", "clt", "bounds", "expectation"]])
def test_overflowing_region_volume_is_a_numerical_error(tmp_path, capsys,
                                                        phi, extent,
                                                        command):
    cfg = {
        "dimension": 2, "beta": 1.0,
        "phi": phi,
        "window": {"shape": "box", "extents": [2.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 2, "seed_base": 1,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_NUMERICAL
    assert err.splitlines() == [
        "numerical precondition violated: sampling region volume overflows:"
        f" extent {extent} in d = 2"]
