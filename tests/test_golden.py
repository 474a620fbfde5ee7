"""Every file the CLI writes for the golden scenarios keeps its bytes,
and every JSON file among them is strict JSON."""

import importlib.util
import json
import os

import pytest

spec = importlib.util.spec_from_file_location(
    "golden_digests",
    os.path.join(os.path.dirname(__file__), "golden", "digests.py"))
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def golden_files():
    return golden.outputs()


def test_golden_output_digests(golden_files):
    expected = golden.load()
    bad = golden.mismatches(expected, golden.compute(golden_files))
    assert not bad, (
        f"{len(bad)} of {len(expected)} output files changed bytes. The "
        f"digests were written with {golden.TOOLCHAIN}; under another "
        f"toolchain regenerate them with tests/golden/digests.py --write "
        f"on the unchanged code first.\n" + "\n".join(bad))


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_golden_json_files_are_strict_json(golden_files):
    # RFC 8259 has no NaN or Infinity; a one-rung or two-rung ladder has
    # no rate regression, which must read null
    names = [key for key in golden_files if key.endswith(".json")]
    assert any(key.startswith("ladder/census/") for key in names)
    for key in names:
        json.loads(golden_files[key].decode(),
                   parse_constant=_refuse_constant)
