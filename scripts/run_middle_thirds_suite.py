#!/usr/bin/env python3
"""Run the full middle-thirds suite and print the aggregated summary.

Builds the base-3 digit-{0,2} measure at the requested level, runs
regularity, energy, solid, weighted circular average and threshold
experiments on it through `fractalab full-report`, and emits summary.txt
plus per-experiment CSVs. Exit codes are the fractalab CLI's: 2 on a
validation error (a level too shallow for the frequency sweep, below 6), 3
on a budget error.
"""
import argparse
import contextlib
import io
import sys
from pathlib import Path

from fractalab import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=8)
    ap.add_argument("--output", default="out/middle_thirds")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    factor = ["--factor", f"3:0,2:{args.level}"]
    listing = io.StringIO()  # the CLI prints one artifact path a line
    with contextlib.redirect_stdout(listing):
        code = cli.main(["full-report", *factor, *factor, "--dz-c-nu", "4",
                         "--seed", str(args.seed), "--output", args.output])
    if code != cli.EXIT_OK:
        return code
    print((Path(args.output) / "summary.txt").read_text())
    print(f"{len(listing.getvalue().splitlines())} artifacts under {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
