"""Every function the traced benchmark wraps exists in fractalab under that
name, every config its CLI workload writes still loads, and the benchmark's
own smoke test passes.

Without these checks a renamed or deleted target, a dropped config field or
a changed result breaks only the benchmark run. The tests read
bench/tracing.py and bench/workloads.py, run bench/smoke.py on a copy of the
checkout, and install nothing.
"""
import importlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fractalab as fl

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_targets():
    tracing = _bench_module("tracing")
    return [(module, attribute) for module, attribute, _, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, attribute", _bench_targets())
def test_traced_target_resolves(module, attribute):
    assert module.split(".")[0] == "fractalab"
    owner = importlib.import_module(module)
    for name in attribute.split("."):
        assert hasattr(owner, name), f"{module}.{attribute}: no attribute {name!r}"
        owner = getattr(owner, name)
    assert callable(owner)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_cli_workload_configs_load(tmp_path, reduced):
    # as the CLI workload writes them (seed and output_dir added) and as the
    # CLI reads them (kind from the subcommand)
    workloads = _bench_module("workloads")
    for name, (kind, config) in workloads._cli_configs(reduced).items():
        payload = {**config, "seed": 7, "output_dir": str(tmp_path / name), "kind": kind}
        assert fl.ExperimentConfig.from_dict(payload).kind == kind


def test_bench_smoke_passes(tmp_path):
    # on a copy, so the checkout's .bench_out/ is untouched
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    smoke = subprocess.run([sys.executable, "bench/smoke.py"], cwd=tmp_path, capture_output=True,
                           text=True, timeout=600)
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
    assert smoke.stdout.splitlines()[-1] == "smoke: ok"
