"""The benchmark's span hooks name entry points that exist in rcmlab.

A traced benchmark run wraps every entry point listed in
rcmbench/spans.py HOOKS, and its check round installs them all, so a
renamed or removed entry point would only show up there.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "rcmbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("rcmbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("name", sorted(spans.HOOKS))
def test_hook_resolves(name):
    module, path, _ = spans.HOOKS[name]
    assert module.startswith("rcmlab.")
    owner, attr, original = spans._resolve(module, path)
    assert callable(original)
    assert getattr(owner, attr) is original
    if isinstance(owner, type):
        # the tracer patches the method in the class body that names it
        assert attr in vars(owner)
