"""SHA-256 digests of every file the CLI writes for the golden scenarios.

Each (scenario, command) pair runs through rcmlab.cli.main under
--threads 1 and --threads 3, each run into its own output directory, and
every written file is hashed. The digests pin the emitted bytes, so a
change that is meant to keep outputs identical can be checked against
them:

    PYTHONPATH=src python3 tests/golden/digests.py          # compare
    PYTHONPATH=src python3 tests/golden/digests.py --write  # regenerate

--write first prints every key it changes, adds or drops.

The bytes depend on the toolchain; digests.json was written with the one
named in TOOLCHAIN.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
TOOLCHAIN = "numpy 2.4.6, scipy 1.17.1, Python 3.11.7"

# (scenario, command); covariance takes count_class statistics only, so
# it has a scenario of its own, and the Gaussian and scaled-indicator
# scenarios run the commands whose paths differ by connection function
RUNS = [*(("ladder.json", command) for command in
          ("sample", "census", "clt", "expectation", "total", "bounds")),
        ("covariance.json", "covariance"),
        *(("gaussian.json", command) for command in
          ("census", "expectation", "bounds")),
        *(("scaled.json", command) for command in
          ("census", "total", "bounds"))]
THREADS = (1, 3)


def outputs() -> dict:
    """"<scenario>/<command>/threads=<n>/<path>" -> bytes of the file.

    RCMLAB_THREADS is cleared for the duration, so the --threads flag
    takes effect.
    """
    from rcmlab.cli import EXIT_OK, main
    saved = os.environ.pop("RCMLAB_THREADS", None)
    out = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for scenario, command in RUNS:
                for threads in THREADS:
                    run = f"{scenario[:-5]}/{command}/threads={threads}"
                    root = os.path.join(tmp, run)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main([command, "--config",
                                     os.path.join(HERE, scenario),
                                     "--out", root,
                                     "--threads", str(threads)])
                    if code != EXIT_OK:
                        raise RuntimeError(f"{run}: exit code {code}")
                    for folder, _, files in os.walk(root):
                        for name in files:
                            path = os.path.join(folder, name)
                            with open(path, "rb") as fh:
                                rel = os.path.relpath(path, root)
                                out[f"{run}/{rel}"] = fh.read()
    finally:
        if saved is not None:
            os.environ["RCMLAB_THREADS"] = saved
    return dict(sorted(out.items()))


def compute(files: dict | None = None) -> dict:
    """"<scenario>/<command>/threads=<n>/<path>" -> SHA-256 of the file,
    for the given outputs() or a fresh run."""
    files = outputs() if files is None else files
    return {key: hashlib.sha256(data).hexdigest()
            for key, data in files.items()}


def load() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def mismatches(expected: dict, actual: dict) -> list[str]:
    """One line per file that is missing, new or has other bytes."""
    return [f"{key}: expected {expected.get(key)}, got {actual.get(key)}"
            for key in sorted(expected.keys() | actual.keys())
            if expected.get(key) != actual.get(key)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    actual = compute()
    if argv == ["--write"]:
        for line in mismatches(load() if os.path.exists(DIGESTS) else {},
                               actual):
            print(line)
        with open(DIGESTS, "w") as fh:
            json.dump(actual, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(actual)} digests to {DIGESTS}")
        return 0
    bad = mismatches(load(), actual)
    for line in bad:
        print(line)
    print(f"{len(bad)} of {len(actual)} digests differ "
          f"(written with {TOOLCHAIN})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
