"""Every file the CLI writes for the golden scenarios keeps its bytes."""

import importlib.util
import os

spec = importlib.util.spec_from_file_location(
    "golden_digests",
    os.path.join(os.path.dirname(__file__), "golden", "digests.py"))
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def test_golden_output_digests():
    expected = golden.load()
    bad = golden.mismatches(expected, golden.compute())
    assert not bad, (
        f"{len(bad)} of {len(expected)} output files changed bytes. The "
        f"digests were written with {golden.TOOLCHAIN}; under another "
        f"toolchain regenerate them with tests/golden/digests.py --write "
        f"on the unchanged code first.\n" + "\n".join(bad))
