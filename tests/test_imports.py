"""Import graph and package surface: rcmlab and a census run load no
heavy scipy subpackage, the package has one version, every exported
name is reached by some subcommand or is listed as unreached, and every
function or class is read, exported or hooked by the benchmark."""

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tomllib

import rcmlab
import rcmlab.cli

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.ndimage",
         "scipy.fft", "scipy.interpolate")

_PROBE = """
import json, sys
import rcmlab, rcmlab.cli
rc = rcmlab.cli.main(["census", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "loaded": sorted(sys.modules)}))
"""


def test_census_loads_no_heavy_scipy_subpackage(tmp_path):
    config = tmp_path / "scn.json"
    config.write_text(json.dumps({
        "dimension": 2, "beta": 1.0, "phi": {"kind": "gilbert", "r": 1.0},
        "window": {"shape": "box", "extents": [3.0]},
        "statistics": [{"statistic": "count_order", "k": 1}],
        "replicates": 2, "seed_base": 1}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(rcmlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["rc"] == 0
    assert [m for m in HEAVY if m in report["loaded"]] == []


def test_pyproject_version_is_the_package_version():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == rcmlab.__version__


# Exported names that no subcommand reaches: quantities of the paper that
# no subcommand computes yet, and helpers for callers of the library. The
# list may only shrink.
UNREACHED = {
    "DifferenceSample", "Standardization", "asy_var_quadratic",
    "birth_time_variance", "build_coupled", "build_rcm", "cluster_tail",
    "difference", "dkw_bound", "edge_class", "enumerate_classes",
    "evaluate", "finite_window_cov", "gamma_terms", "path_class",
    "pilot_standardization", "second_difference", "single_vertex_class",
}


class _Reads(ast.NodeVisitor):
    """The bare names a definition reads, annotations left out (of an
    attribute only its base is read: no attribute names a definition)."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in (node.decorator_list + node.args.defaults
                      + [d for d in node.args.kw_defaults if d] + node.body):
            self.visit(child)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _reads(nodes) -> set:
    visitor = _Reads()
    for node in nodes:
        visitor.visit(node)
    return visitor.names


def _package_graph(src: pathlib.Path):
    """(module, name) of each top-level definition -> the (module, name)
    definitions it reads (a class reads what its methods read), each
    module's import table, and the resolver of a name in a module."""
    imports, defs = {}, {}
    for path in sorted(src.glob("*.py")):
        module = path.stem
        imports[module] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (
                        node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = _reads([node])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[module, name.id] = _reads(
                                [node.value] if node.value else [])

    def resolve(module, name):
        while (module, name) not in defs and name in imports.get(module, {}):
            module, name = imports[module][name]
        return (module, name) if (module, name) in defs else None

    graph = {key: {r for r in (resolve(key[0], n) for n in names) if r}
             for key, names in defs.items()}
    return graph, imports, resolve


def _reached(graph, roots) -> set:
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(graph[key])
    return seen


def _subcommand_reach(src: pathlib.Path, graph, resolve) -> dict:
    """Subcommand -> the definitions of src its branch of cli.main reaches;
    a branch is an `if args.command == ...` (or `in (...)`) block."""
    tree = ast.parse((src / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    reach = {}
    for node in ast.walk(main):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and ast.unparse(node.test.left) == "args.command"):
            commands = ast.literal_eval(node.test.comparators[0])
            roots = {r for r in (resolve("cli", n) for n in _reads(node.body))
                     if r}
            for command in ([commands] if isinstance(commands, str)
                            else commands):
                reach[command] = _reached(graph, roots)
    return reach


def test_every_exported_name_is_reached_by_a_subcommand_or_listed():
    src = pathlib.Path(rcmlab.__file__).parent
    graph, imports, resolve = _package_graph(src)
    reach = _subcommand_reach(src, graph, resolve)
    (subparsers,) = [action for action in rcmlab.cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(reach) == set(subparsers.choices)
    reached = set().union(*reach.values())
    exported = imports["__init__"]
    unreached = {name for name, key in exported.items() if key not in reached}
    assert unreached - UNREACHED == set(), "exported but reached by none"
    assert UNREACHED - unreached == set(), "reached now: drop from UNREACHED"


def _hooked() -> set:
    """(module, name) of each top-level definition rcmbench/spans.py
    HOOKS wraps (of a method, its class)."""
    spans = pathlib.Path(__file__).resolve().parents[1] / "rcmbench" / \
        "spans.py"
    (hooks,) = [node.value for node in ast.parse(spans.read_text()).body
                if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "HOOKS"]
    return {(value.elts[0].value.removeprefix("rcmlab."),
             value.elts[1].value.split(".")[0]) for value in hooks.values}


def test_every_definition_is_read_exported_or_hooked():
    # a function or class that nothing reads is a leftover of a refactor
    src = pathlib.Path(rcmlab.__file__).parent
    graph, imports, resolve = _package_graph(src)
    read = {r for key, reads in graph.items() for r in reads if r != key}
    exported = {resolve("__init__", name) for name in imports["__init__"]}
    defined = {(path.stem, node.name) for path in src.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined - read - exported - _hooked() == set()
