#!/usr/bin/env python3
"""Run the full middle-thirds suite and print the aggregated summary.

Builds the base-3 digit-{0,2} measure at the requested level, runs
regularity, energy, solid, weighted circular average and threshold
experiments on it, and emits summary.txt plus per-experiment CSVs. Exit
codes follow the fractalab CLI: 2 on a validation error (a level too shallow
for the frequency sweep, below 6), 3 on a budget error.
"""
import argparse
import sys
from pathlib import Path

import fractalab as fl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=8)
    ap.add_argument("--output", default="out/middle_thirds")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        config = fl.ExperimentConfig.from_dict(
            {
                "kind": "full-report",
                "output_dir": args.output,
                "seed": args.seed,
                "factors": [{"base": 3, "digits": [0, 2], "level": args.level}] * 2,
                "dz_c_nu": 4.0,
            }
        )
        files = fl.run_experiment(config)
    except fl.ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except fl.BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    print((Path(args.output) / "summary.txt").read_text())
    print(f"{len(files)} artifacts under {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
