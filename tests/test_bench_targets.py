"""Every function the traced benchmark wraps exists in fractalab under that name.

Without this check a renamed or deleted target breaks only the traced
benchmark run and its smoke test. The test reads bench/tracing.py and
installs nothing.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attribute) for module, attribute, _, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, attribute", _bench_targets())
def test_traced_target_resolves(module, attribute):
    assert module.split(".")[0] == "fractalab"
    owner = importlib.import_module(module)
    for name in attribute.split("."):
        assert hasattr(owner, name), f"{module}.{attribute}: no attribute {name!r}"
        owner = getattr(owner, name)
    assert callable(owner)
