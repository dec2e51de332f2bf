#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on reduced inputs.

    python3 bench/smoke.py

For every workload it checks that:

* an untraced run reports exactly the end-to-end metrics of BENCHMARK.json,
  with their units, and a traced run exactly the per-layer metrics;
* every operation passes its correctness check;
* the exact work counters repeat across two seeds, apart from the ones
  listed in ``workloads.SEED_DEPENDENT_COUNTERS``;
* in each part of a workload, a deliberately perturbed result is counted as
  one failed operation.

It also checks that the benchmark refuses to run, with a non-zero exit code
and no result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits non-zero if any check fails.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run


def _check_result(result: dict, units: dict[str, str], label: str) -> list[str]:
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"{label}: metric names differ: missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, unit in units.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            problems.append(f"{label}: {name} has unit {m['unit']!r}, expected {unit!r}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} value {m['value']!r} is not a finite number")
    return problems


# op-name prefix -> how to corrupt that op's result so its check must fail
_PERTURBATIONS = {
    "spectral": ("spectral: angular ", lambda d: dataclasses.replace(d, middle=d.cs_bound * 1.01)),
    "mattila": ("mattila: mattila point mass",
                lambda e: dataclasses.replace(e, value=e.value * (1 + 1e-5))),
    "pairs": ("pairs: distance_measure ",
              lambda m: dataclasses.replace(m, total_mass=m.total_mass + 1e-9)),
}


def _perturb(part, p) -> tuple[str, object]:
    """Corrupt one result of part `part` in a verified pass; returns the op
    name and a function that undoes the corruption."""
    if part.name == "cli":
        csv = part.runs_dir / "energy" / "energy.csv"
        text = csv.read_text()
        csv.write_text(text + "# tampered\n")
        return "cli: cli energy", lambda: csv.write_text(text)
    prefix, corrupt = _PERTURBATIONS[part.name]
    op = next(k for k in p.results if k.startswith(prefix))
    value, check = p.results[op]
    p.results[op] = (corrupt(value), check)
    return op, lambda: p.results.__setitem__(op, (value, check))


def _refuses_without_sources() -> list[str]:
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", run.WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "{" in proc.stdout:
        return [f"bare checkout: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.prepare()
    import tracing
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = _refuses_without_sources()
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for name in run.WORKLOAD_NAMES:
        plain = run.measure(name, 1, 0, False, reduced=True, setup_reps=1)["result"]
        problems += _check_result(plain, e2e_units, f"{name} untraced")
        counts = {}
        for seed in (1, 2):
            traced = run.measure(name, seed, 0, True, reduced=True)["result"]
            problems += _check_result(traced, layer_units, f"{name} traced seed {seed}")
            counts[seed] = {k: traced["metrics"][k]["value"] for k in tracing.COUNTERS}
        for key in set(tracing.COUNTERS) - workloads.SEED_DEPENDENT_COUNTERS.get(name, set()):
            if counts[1][key] != counts[2][key]:
                problems.append(f"{name}: counter {key} differs across seeds: "
                                f"{counts[1][key]} vs {counts[2][key]}")

        workload = workloads.make(name, 1, run.OUT / name, reduced=True)
        workload.before_pass()
        p = workload.run_pass()
        before = p.verify()
        if before:
            problems.append(f"{name}: unperturbed pass gave failures {before}")
        for part in workload.members:
            op, undo = _perturb(part, p)
            after = p.verify()
            undo()
            if [f[0] for f in after] != [op]:
                problems.append(f"{name}: perturbing {op!r} gave failures {after}")
        print(f"smoke {name}: done", flush=True)

    for line in problems:
        print(f"FAIL {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
