#!/usr/bin/env python3
"""Benchmark of rcmlab's public API, run from the repository root:

    python3 rcmbench/run.py --workload census_ladder --seed 1 \
        --seconds 20 --trace 0

Workloads: census_ladder, difference_mc, moments_is (see README.md in
this directory). With --trace 0 the run times rounds of the workload
for --seconds seconds and reports the end-to-end metrics; with --trace 1
it runs a fixed number of rounds untraced and then traced, and reports
the per-layer metrics. Either way it checks the outputs with oracles and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. rcmlab is imported from ./src of the
checkout; the run exits with code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one caller, one thread: pin the native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["RCMLAB_THREADS"] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOAD_NAMES = ("census_ladder", "difference_mc", "moments_is")

# The host's speed drifts by a quarter within minutes when neighbours are
# busy, and the drift hits rcmlab and any fixed piece of Python and numpy
# work alike. So each timed operation is bracketed by a fixed calibration
# kernel, and end-to-end times are reported at the kernel's reference
# speed: measured seconds * CALIBRATION_S / kernel seconds. CALIBRATION_S
# is the kernel's time in a quiet phase of the 2-core Xeon this benchmark
# was tuned on; raw seconds are printed alongside.
CALIBRATION_S = 0.0105

# end-to-end metric -> unit; every workload reports all of them
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "small_input_per_s": "1/s",
    "large_input_per_s": "1/s",
}


def setup(name: str, seed: int, sizes=None):
    """Import, build the inputs and warm up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rcmlab
    if not os.path.abspath(rcmlab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"rcmlab imported from {rcmlab.__file__}, "
                           f"not from {SRC}")
    import workloads
    workdir = os.path.join(RUNS, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, sizes or workloads.FULL,
                                         workdir)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def kernel_seconds() -> float:
    """Time of the calibration kernel: fixed interpreter, dict and numpy
    work, small calls as in rcmlab's census and moment loops."""
    import numpy as np
    x = np.arange(1.0, 4097.0)
    t0 = time.perf_counter()
    acc, counts = 0, {}
    for i in range(40_000):
        acc += (i * i) % 7
    for i in range(15_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    for i in range(750):
        a = np.arange(i % 50 + 1)
        acc += int(a[a % 3 == 0].sum())
    for _ in range(200):
        acc += float(np.sqrt(x).sum())
    return time.perf_counter() - t0


def speed_scale() -> float:
    """CALIBRATION_S over the kernel's current time (median of three)."""
    return CALIBRATION_S / statistics.median(kernel_seconds()
                                             for _ in range(3))


def setup_probes(name: str, seed: int, count: int) -> list[float]:
    """Scaled set-up times of fresh processes, which import again."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


class Run:
    """Operation log of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = []          # dicts: part, round, seconds, problems, out
        self.check_ops = {}    # part -> op of the check round

    def op(self, part: str, rnd: int, call):
        """Run a part via call(part, fn) -> (out, seconds), then check it."""
        wl = self.workload
        try:
            out, seconds = call(part, lambda: wl.run(part, rnd))
        except Exception:
            entry = {"part": part, "round": rnd, "seconds": float("nan"),
                     "problems": ["raised: " + traceback.format_exc(limit=3)],
                     "out": None}
            self.ops.append(entry)
            return entry
        entry = {"part": part, "round": rnd, "seconds": seconds,
                 "problems": wl.check(part, out), "out": out}
        self.ops.append(entry)
        return entry

    def round(self, rnd: int, call) -> float:
        """Every part once; returns the round's summed part times."""
        total = 0.0
        for part in self.workload.parts:
            entry = self.op(part, rnd, call)
            total += entry["seconds"]
            if entry["out"] is not None:
                self.workload.discard(entry["out"])
        return total

    def outs_by_part(self, ops=None) -> dict:
        by_part = {part: [] for part in self.workload.parts}
        for entry in ops if ops is not None else self.ops:
            if entry["out"] is not None:
                by_part[entry["part"]].append(entry["out"])
        return by_part

    def check_round(self):
        """An untimed round with capture hooks, then the oracles on it."""
        from spans import Tracer
        wl = self.workload
        tracer = Tracer(keep=wl.check_keep())
        with tracer:
            for part in wl.parts:
                self.check_ops[part] = self.op(part, 0, tracer.run_op)
        outs = {p: e["out"] for p, e in self.check_ops.items()}
        try:
            deep = wl.deep_check(tracer, outs)
        except Exception:
            deep = {wl.parts[0]: ["oracle raised: "
                                  + traceback.format_exc(limit=3)]}
        for part, problems in deep.items():
            self.check_ops[part]["problems"] += problems
        for entry in self.check_ops.values():
            if entry["out"] is not None:
                wl.discard(entry["out"])

    def final_checks(self):
        """Run-level checks, carried by each part's check-round op."""
        for part, problems in self.workload.final_check(
                self.outs_by_part()).items():
            self.check_ops[part]["problems"] += problems

    @property
    def failed(self) -> int:
        return sum(1 for e in self.ops if e["problems"])


def _timed(part, fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _calibrated(part, fn):
    """Time fn between two kernel runs; returns (out, scaled seconds)."""
    before = kernel_seconds()
    out, seconds = _timed(part, fn)
    scale = 2.0 * CALIBRATION_S / (before + kernel_seconds())
    out["raw_seconds"] = seconds
    return out, seconds * scale


def _median_rate(ops, part) -> float:
    rates = [e["out"]["units"] / e["seconds"] for e in ops
             if e["part"] == part and e["out"] is not None]
    return statistics.median(rates) if rates else float("nan")


def measure(run: Run, seconds: float, setup_samples: list[float]):
    """Time rounds for `seconds`; returns (end-to-end metrics, report)."""
    wl = run.workload
    first = len(run.ops)
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        rounds.append(run.round(len(rounds) + 1, _calibrated))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed = run.ops[first:]
    metrics = {
        "wall_s": statistics.median(rounds),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_kb / 1024.0,
        "small_input_per_s": _median_rate(timed, wl.small),
        "large_input_per_s": _median_rate(timed, wl.large),
    }
    report = {wl.rate_name(p): (_median_rate(timed, p), "1/s")
              for p in wl.parts}
    raw = {}
    for e in (e for e in timed if e["out"] is not None):
        raw[e["round"]] = raw.get(e["round"], 0.0) + e["out"]["raw_seconds"]
    report["raw.wall_s"] = (statistics.median(raw.values()), "s")
    report["rounds"] = (len(rounds), "count")
    return metrics, report


def trace_layers(run: Run, save_to: str):
    """Fixed rounds untraced, then the same rounds traced; returns
    (per-layer metrics, report)."""
    from spans import Tracer, layer_metrics
    wl = run.workload
    n_rounds = wl.sizes["trace_rounds"]
    untraced = sum(run.round(r, _timed) for r in range(1, n_rounds + 1))
    tracer = Tracer()
    cache = sys.modules["rcmlab.census"]._canon_cache
    before = len(cache)
    first = len(run.ops)
    with tracer:
        for r in range(1, n_rounds + 1):
            run.round(r, tracer.run_op)
    growth = len(cache) - before
    traced_ops = run.ops[first:]
    metrics = layer_metrics(
        tracer, untraced, growth,
        sum(e["out"].get("bytes", 0) for e in traced_ops if e["out"]),
        wl.rse(run.outs_by_part(traced_ops)))
    tracer.save(save_to)
    report = {"trace.untraced_wall_s": (untraced, "s"),
              "trace.rounds": (n_rounds, "count")}
    return metrics, report


def source_digest() -> str:
    """SHA-256 over the paths and bytes of rcmlab's sources, which names
    the code under test also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rcmlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_record(args, workload) -> dict:
    import numpy
    import scipy
    import networkx
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": None, "dirty": None, "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "sizes": workload.record(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), None)
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            record["commit"] = head.stdout.strip()
            record["dirty"] = bool(status.stdout.strip())
    return record


def benchmark(args, sizes=None):
    """One run; returns (result line object, report, run record)."""
    workload, main_setup = setup(args.workload, args.seed, sizes)
    main_setup *= speed_scale()
    from spans import PER_LAYER
    run = Run(workload)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        report = {}
        if args.trace:
            metrics, report = trace_layers(
                run, os.path.join(RUNS, f"spans-{stamp}.npz"))
            units = dict(PER_LAYER)
        else:
            probes = setup_probes(args.workload, args.seed,
                                  workload.all_sizes["setup_probes"])
            metrics, report = measure(run, args.seconds,
                                      [main_setup] + probes)
            report["setup_samples"] = ([main_setup] + probes, "s")
            units = END_TO_END
        run.check_round()
        run.final_checks()
        record = machine_record(args, workload)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    problems = [f"{e['part']} round {e['round']}: {p}"
                for e in run.ops for p in e["problems"]]
    record.update(report=report, problems=problems,
                  op_seconds=[(e["part"], e["round"], e["seconds"])
                              for e in run.ops],
                  error_rate=run.failed / len(run.ops), result=result)
    with open(os.path.join(RUNS, f"record-{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, report, record


def _print_report(result, report, record):
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    for name, value in report.items():
        if isinstance(value, tuple):
            val, unit = value
            text = (" ".join(f"{v:.4g}" for v in val)
                    if isinstance(val, list) else f"{val:.6g}")
            print(f"{name:44s} {text} {unit}")
    print(f"{'error_rate':44s} {record['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for problem in record["problems"]:
        print("problem:", problem)
    summary = {k: record[k] for k in ("commit", "dirty", "source_sha256",
                                      "nproc", "cpu_model", "python",
                                      "numpy", "scipy", "seed")}
    digest = record["sizes"].get("result_tree_sha256")
    if digest:
        summary["result_tree_sha256"] = digest
    print("run_record", json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "rcmlab", "__init__.py")):
        print(f"error: rcmlab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    if args.setup_probe:
        workload, seconds = setup(args.workload, args.seed)
        shutil.rmtree(workload.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds * speed_scale()}))
        return 0
    result, report, record = benchmark(args)
    _print_report(result, report, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
