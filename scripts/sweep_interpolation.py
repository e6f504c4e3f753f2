#!/usr/bin/env python3
"""Margin profile of the pointwise interpolation bound.

Sweeps k over [1, 2] on a sampled height window and records the minimum
margin per (k, variant, target); the bound should never fail, and the
margin shows where it is tightest (near k = 2).  Exits 1, naming each
failing (k, variant, target), if it does.
"""

import argparse
import math
import sys

import numpy as np

from zetalab.critline import TARGETS, eval_grid
from zetalab.inequality import VARIANTS, InterpolationConfig, check_interpolation
from zetalab.primes import E_SQUARED, custom_scheme, sieve_primes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-min", type=float, default=1.0e4)
    ap.add_argument("--t-max", type=float, default=1.05e4)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--boundaries", default=f"{E_SQUARED},14,30")
    args = ap.parse_args()

    table = sieve_primes(10_000)
    scheme = custom_scheme(1.0e5, [float(x) for x in args.boundaries.split(",")], table)
    rng = np.random.Generator(np.random.Philox(args.seed))
    # One Riemann-Siegel grid serves every (k, variant, target).
    grid = eval_grid(np.sort(rng.uniform(args.t_min, args.t_max, args.samples)))

    print(f"{'k':>5} {'variant':>16} {'target':>7} {'failures':>8} {'min margin':>12}")
    failed = []
    for k in np.linspace(1.0, 2.0, 11):
        for variant in VARIANTS:
            for target in TARGETS:
                cfg = InterpolationConfig(k=float(k), scheme=scheme, variant=variant)
                rep = check_interpolation(grid, cfg, target)
                print(
                    f"{k:5.2f} {variant:>16} {target:>7} "
                    f"{rep.failures.size:8d} {rep.min_margin:12.4e}"
                )
                if not rep.all_passed:
                    failed.append(f"({k:.2f}, {variant}, {target})")
    if failed:
        sys.exit("interpolation bound fails at (k, variant, target): " + ", ".join(failed))


if __name__ == "__main__":
    main()
