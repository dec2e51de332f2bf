#!/usr/bin/env python3
"""Scan the dimension thresholds for equal-dimension planar products.

For alpha on a grid, report which route certifies a positive-measure
distance set: the mixed two-factor margin 3*alpha - 2, the product-sum
margin 2*alpha - 4/3, and the regular-set route alpha > 2/3 - delta with
delta derived from the energy-improvement exponent at the given C_nu, K.
Exit codes are the fractalab CLI's: 2 on a validation error (C_nu below 1, no
steps), 3 on a budget error; either before any output.
"""
import argparse
import sys

import numpy as np

import fractalab as fl
from fractalab import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c-nu", type=float, default=2.0)
    ap.add_argument("--dz-k", type=float, default=1.0)
    ap.add_argument("--alpha-min", type=float, default=0.55)
    ap.add_argument("--alpha-max", type=float, default=0.75)
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args()
    try:
        scan(args)
    except (fl.ValidationError, fl.BudgetError) as exc:
        return cli.refused(exc)
    return cli.EXIT_OK


def scan(args: argparse.Namespace) -> None:
    if not args.steps >= 1:
        raise fl.ValidationError(f"--steps must be >= 1, got {args.steps}")
    alphas = [float(a) for a in np.linspace(args.alpha_min, args.alpha_max, args.steps)]
    reports = [fl.threshold_report([a, a], alpha=a, c_nu=args.c_nu, k=args.dz_k) for a in alphas]
    print(f"C_nu = {args.c_nu}, K = {args.dz_k}")
    print(f"{'alpha':>8} {'mixed':>9} {'prod-sum':>9} {'delta':>11} {'routes':>32}")
    for alpha, report in zip(alphas, reports):
        routes = ",".join(report.applicable) if report.applicable else "-"
        print(
            f"{alpha:>8.4f} {float(report.mixed_margin):>+9.4f} "
            f"{float(report.product_sum_margin):>+9.4f} "
            f"{report.regular_delta:>11.3e} {routes:>32}"
        )


if __name__ == "__main__":
    sys.exit(main())
