"""Every function the traced benchmark wraps exists in fractalab under that
name, and every config its CLI workload writes still loads.

Without these checks a renamed or deleted target, or a dropped config
field, breaks only the benchmark run and its smoke test. The tests read
bench/tracing.py and bench/workloads.py and install nothing.
"""
import importlib
import importlib.util
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
