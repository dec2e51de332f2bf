#!/usr/bin/env python3
"""fractalab benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload {spectral-cli,mattila-pairs} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result. Passes of the
workload repeat until ``--seconds`` is used up (the next pass starts only if
half of it still fits, and at least two always run). Each pass is checked
outside the timed region. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (median wall and CPU time of a
pass, peak RSS through the first pass, median set-up time of fresh
processes). ``--trace 1`` alternates untraced and traced passes (at least
two of each) and reports per-layer self times, exact work counters, the
harness remainder and the tracing overhead. Details of every run (samples,
provenance, failures) go to ``.bench_out/``; spans of a traced run go to
``.bench_out/trace-<workload>.npz``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("spectral-cli", "mattila-pairs")
SETUP_REPS = 7
# at least two passes per run, for a median and cross-pass checks
MIN_PASSES = 2
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def prepare() -> None:
    """Pin BLAS to one thread, then import fractalab from ``src/``.

    One BLAS thread, not nproc: on a 2-core machine the dense transform ran
    faster single-threaded (spectral pass 9.9 s wall / 9.8 s CPU against
    12.4 s / 22 s with two threads), numpy imported faster, and cpu_s then
    shows any work a change moves onto extra threads. This must run before
    numpy is first imported, because BLAS reads its thread count at load.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    init = SRC / "fractalab" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"fractalab sources not found: {init} is missing")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import fractalab

    if Path(fractalab.__file__).resolve() != init.resolve():
        raise SetupError(f"fractalab was imported from {fractalab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fractalab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np

    import fractalab

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):  # numpy without mode="dicts"
        blas = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "fractalab": fractalab.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _probe_setup(name: str, seed: int, reduced: bool) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    fractalab and generated the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--reduced"] if reduced else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise SetupError(f"set-up probe failed with exit code {rc}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(workload, deadline: float, min_passes: int, tracer=None) -> list[dict]:
    samples = []
    while True:
        workload.before_pass()
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
        c0 = time.process_time()
        w0 = time.perf_counter()
        p = workload.run_pass()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        sample = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb()}
        if tracer is not None:
            sample["layers"], sample["counts"] = tracer.end_pass(wall)
        sample["ops"] = len(p.results)
        sample["failures"] = p.verify()
        sample["fingerprint"] = workload.fingerprint(p)
        samples.append(sample)
        del p
        if len(samples) >= min_passes and time.perf_counter() + wall / 2 >= deadline:
            return samples


def _cross_pass_checks(samples: list[dict], key: str) -> tuple[int, list[tuple[str, str]]]:
    """Each pass after the first must repeat the first pass's `key` exactly."""
    first = samples[0].get(key)
    if first is None:
        return 0, []
    failures = [
        (f"{key} of pass {k} repeats pass 0", "mismatch")
        for k, s in enumerate(samples[1:], start=1)
        if s[key] != first
    ]
    return len(samples) - 1, failures


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    import tracing

    metrics = {}
    for key in traced[0]["layers"]:
        metrics[key] = {"value": statistics.median(s["layers"][key] for s in traced), "unit": "s"}
    counts = traced[0]["counts"]
    for key in tracing.COUNTERS:
        metrics[key] = {"value": counts[key], "unit": "count"}
    metrics["runner.bytes_written"]["unit"] = "B"
    metrics["measures.transform.bytes"] = {
        "value": 16 * counts["measures.transform.evals"], "unit": "B-computed"}
    traced_wall = _median(traced, "wall_s")
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - _median(untraced, "wall_s"), "unit": "s"}
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload and return the detailed record; its "result" entry
    is the object printed as the last stdout line."""
    import tracing
    import workloads

    workload = workloads.make(name, seed, OUT / name, reduced)
    start = time.perf_counter()
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "reduced": reduced}
    if trace:
        # untraced and traced passes alternate, so that the overhead is taken
        # from passes that ran under the same machine conditions
        samples, tracer = [], tracing.Tracer()
        while len(samples) < 2 * MIN_PASSES or (
                time.perf_counter() + samples[-1]["wall_s"] < start + seconds):
            samples += _passes(workload, 0.0, 1)
            tracer.install()
            try:
                samples += _passes(workload, 0.0, 1, tracer)
            finally:
                tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{name}.npz")
        untraced = [s for s in samples if "layers" not in s]
        traced = [s for s in samples if "layers" in s]
        checks = [_cross_pass_checks(traced, "counts"), _cross_pass_checks(samples, "fingerprint")]
    else:
        setup = [_probe_setup(name, seed, reduced) for _ in range(setup_reps)]
        samples = _passes(workload, time.perf_counter() + seconds, MIN_PASSES)
        record["setup_s_samples"] = setup
        checks = [_cross_pass_checks(samples, "fingerprint")]

    failures = [f for s in samples for f in s["failures"]]
    attempted = sum(s["ops"] for s in samples)
    for n, fails in checks:
        attempted += n
        failures += fails
    if trace:
        metrics = _per_layer(untraced, traced)
        metrics["failed_op_ratio"] = {"value": len(failures) / attempted, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": _median(samples, "wall_s"), "unit": "s"},
            "cpu_s": {"value": _median(samples, "cpu_s"), "unit": "s"},
            # through the first pass: later passes add only allocator
            # fragmentation, which grows with the number of passes that fit
            "peak_rss_mb": {"value": samples[0]["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    record["provenance"] = provenance(seed)
    record["passes"] = len(samples)
    record["samples"] = [{k: v for k, v in s.items() if k != "fingerprint"} for s in samples]
    record["failures"] = failures
    record["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return record


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        prepare()
        if args.setup_probe:
            import workloads

            workloads.make(args.workload, args.seed, OUT / args.workload, args.reduced)
            print("ready", flush=True)
            return 0
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    detail = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, reason in record["failures"][:20]:
        print(f"bench: failed op {name}: {reason}", file=sys.stderr)
    walls = [round(s["wall_s"], 3) for s in record["samples"]]
    print(f"# {args.workload} seed={args.seed}: {record['passes']} passes, pass wall_s {walls}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
