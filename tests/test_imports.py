"""Import graph: rcmlab and a census run load no heavy scipy subpackage."""

import json
import os
import subprocess
import sys

import rcmlab

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
