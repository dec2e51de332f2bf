#!/usr/bin/env python3
"""Angular decomposition sweep: near-zero sector decay vs the predicted
exponent, and the Cauchy-Schwarz majorant of the middle sector.

For a self-similar product, sample t along powers of the construction base
(other frequencies sit in deep transform valleys and make slope fits
meaningless) and compare the fitted near-zero slope with the bound exponent
-gamma0*(1-alpha) - alpha. Exit codes are the fractalab CLI's: 2 on a
validation error (gamma0 outside (0, 1/2), fewer than 3 points, a cutoff
scale of 1 or less, a bad digit set, fewer than 3 usable frequencies), 3 on
a budget error; either before any output.
"""
import argparse
import sys

import numpy as np

import fractalab as fl
from fractalab import cli


def digits(text: str) -> tuple[int, ...]:
    return tuple(int(d) for d in text.split(","))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=int, default=3)
    ap.add_argument("--digits", type=digits, default=(0, 2))
    ap.add_argument("--level", type=int, default=9)
    ap.add_argument("--gamma0", type=float, default=0.1)
    ap.add_argument("--cutoff-scale", type=float, default=2.0)
    ap.add_argument("--points", type=int, default=4)
    args = ap.parse_args()
    try:
        sweep(args)
    except (fl.ValidationError, fl.BudgetError) as exc:
        return cli.refused(exc)
    return cli.EXIT_OK


def sweep(args: argparse.Namespace) -> None:
    if not 0.0 < args.gamma0 < 0.5:
        raise fl.ValidationError(f"--gamma0 must lie in (0, 1/2), got {args.gamma0}")
    if args.points < 3:
        raise fl.ValidationError(f"--points must be >= 3 for a slope fit, got {args.points}")
    cut = fl.CutoffFunction("fejer", args.cutoff_scale)
    if not cut.transform_min_on_unit_interval() > 0.0:
        raise fl.ValidationError(
            f"--cutoff-scale must be > 1 so the cutoff transform is positive on [-1, 1], "
            f"got {args.cutoff_scale}")
    nu = fl.build_cantor(fl.CantorSpec(args.base, args.digits, args.level))
    alpha = nu.dimension_hint
    mu = fl.build_product([nu, nu], [alpha, alpha])
    cap = fl.validity_cap(mu)
    t_min = (4.0 / np.pi) ** (1.0 / args.gamma0)
    ts = []
    t = float(args.base)
    while t <= cap and len(ts) < args.points:
        if t > t_min:
            ts.append(t)
        t *= args.base
    if len(ts) < 3:
        raise fl.ValidationError(
            f"need 3 usable frequencies above {t_min:.1f} and below the cap {cap:.1f}; "
            "raise --level or --gamma0"
        )

    print(f"alpha = {alpha:.4f}, gamma0 = {args.gamma0}, cutoff scale {args.cutoff_scale}")
    print(f"{'t':>10} {'near_zero':>12} {'middle':>12} {'cs_bound':>12} {'middle/cs':>10}")
    rows = []
    for t in ts:
        dec = fl.angular_decomposition(mu, t, args.gamma0, cut)
        rows.append(dec)
        print(
            f"{t:>10.1f} {dec.near_zero:>12.5g} {dec.middle:>12.5g} "
            f"{dec.cs_bound:>12.5g} {dec.middle / dec.cs_bound:>10.5f}"
        )
    slope = fl.loglog_fit(ts, [d.near_zero for d in rows]).slope
    target = -(args.gamma0 * (1.0 - alpha) + alpha)
    print(f"near-zero fitted slope {slope:.4f}; bound exponent {target:.4f} "
          f"(measured decay must not be slower)")


if __name__ == "__main__":
    sys.exit(main())
