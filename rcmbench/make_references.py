#!/usr/bin/env python3
"""Recompute references.json, the high-budget moment references.

    python3 rcmbench/make_references.py

Each reference pools CALLS[name] independent estimates of SAMPLES
samples, with seeds that no benchmark run uses: value is their mean,
std_error the standard error of that mean, and sd_per_sample the spread
of one estimate times sqrt(SAMPLES), so that a call of n samples has
spread sd_per_sample / sqrt(n). The k=6 weights are heavy-tailed, so it
gets three times the budget. This takes about 15 minutes on one core.
The 2-d Gaussian edge intensity needs no entry:
oracles.gaussian_edge_intensity gives it by quadrature.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rcmlab.census import path_class  # noqa: E402
from rcmlab.connection import ConnectionFunction  # noqa: E402
from rcmlab.moments import asy_cov_kl, expected_count_intensity  # noqa: E402

CALLS = {"rho_k4": 20, "cov_22": 20, "rho_k6": 60}
SAMPLES, SEED0 = 50_000, 900_000_000
GILBERT = ConnectionFunction("gilbert", 2, r=1.0)
ESTIMANDS = {
    "rho_k4": lambda n, s: expected_count_intensity(
        path_class(4), GILBERT, 1.0, n_samples=n, seed=s),
    "cov_22": lambda n, s: asy_cov_kl(2, 2, GILBERT, GILBERT, 1.0,
                                      n_samples=n, seed=s),
    "rho_k6": lambda n, s: expected_count_intensity(
        path_class(6), GILBERT, 1.0, n_samples=n, seed=s),
}


def main():
    refs = {}
    for name, estimate in ESTIMANDS.items():
        calls = CALLS[name]
        values = [estimate(SAMPLES, SEED0 + i).value for i in range(calls)]
        mean = sum(values) / calls
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (calls - 1))
        refs[name] = {"value": mean, "std_error": sd / math.sqrt(calls),
                      "sd_per_sample": sd * math.sqrt(SAMPLES),
                      "n_samples": calls * SAMPLES}
        print(name, refs[name], flush=True)
    doc = {"description": "gilbert r=1, beta=1, d=2; mean of CALLS "
                          f"estimates of {SAMPLES} samples each, seeds from "
                          f"{SEED0}; see make_references.py",
           "references": refs}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
