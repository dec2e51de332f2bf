"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of fractalab from outside:
every module attribute (and class attribute) that refers to a target
function is replaced by a wrapper, including names that other modules
imported by name, such as ``simpson_doubling`` in ``fourier`` and
``energy``. ``src/`` is never edited, and the untraced run installs nothing.

Each call records a span (name, start, end, parent). Spans are kept in
memory in typed arrays and written out once, when the run ends. Self time
(span duration minus the time its child spans cover) is summed online per
layer, and exact work counters are taken at the same boundaries.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _atoms(measure) -> int:
    return int(measure.atom_count)


def _count_transform(counts, stack, args, kwargs, result):
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    counts["measures.transform.calls"] += 1
    counts["measures.transform.evals"] += int(np.size(xi)) * _atoms(args[0])


def _count_build(counts, stack, args, kwargs, result):
    counts["measures.atoms"] += int(args[0].indices.size)


def _count_sumset(counts, stack, args, kwargs, result):
    counts["energy.sumset.calls"] += 1
    counts["energy.sumset.pairs"] += _atoms(args[0]) ** 2


def _count_simpson(counts, stack, args, kwargs, result):
    _, nodes, converged = result
    counts["quadrature.simpson.calls"] += 1
    counts["quadrature.simpson.nodes"] += int(nodes)
    counts["quadrature.simpson.unconverged"] += int(not converged)


def _count_sigma(counts, stack, args, kwargs, result):
    counts["fourier.sigma.calls"] += 1
    counts["fourier.sigma.nodes"] += int(result[1])


def _count_mattila(counts, stack, args, kwargs, result):
    counts["geometry.mattila.t_nodes"] += int(result.t_nodes)
    counts["geometry.mattila.unconverged"] += int(not result.t_grid_converged)


def _count_pairs(counts, stack, args, kwargs, result):
    counts["geometry.pairs.count"] += _atoms(args[0]) ** 2


def _count_runner(counts, stack, args, kwargs, result):
    # full-report calls run_experiment once per sub-experiment and returns
    # every sub-file again, so only the outermost call is counted
    if any(entry[2] == "runner" for entry in stack):
        return
    counts["runner.files"] += len(result)
    counts["runner.bytes_written"] += sum(Path(p).stat().st_size for p in result.values())


# (module, attribute or Class.method, layer, counter hook)
TARGETS = (
    ("fractalab.measures", "GridMeasure.transform", "measures.transform", _count_transform),
    ("fractalab.measures", "GridMeasure.__post_init__", "measures.build", _count_build),
    ("fractalab.measures", "ProductMeasure.__post_init__", "measures.build", None),
    ("fractalab.measures", "build_cantor", "measures.build", None),
    ("fractalab.measures", "build_product", "measures.build", None),
    ("fractalab.measures", "point_mass", "measures.build", None),
    ("fractalab.measures", "GridMeasure.ball_mass", "measures.regularity", None),
    ("fractalab.measures", "check_regularity", "measures.regularity", None),
    ("fractalab.measures", "frostman_fit", "measures.regularity", None),
    ("fractalab.energy", "sumset_autocorrelation", "energy.sumset", _count_sumset),
    ("fractalab.energy", "energy_profile", "energy.window", None),
    ("fractalab.energy", "additive_energy", "energy.window", None),
    ("fractalab.energy", "smoothed_energy", "energy.smoothed", None),
    ("fractalab.energy", "smoothed_fourth_moment", "energy.smoothed", None),
    ("fractalab.quadrature", "simpson_doubling", "quadrature.simpson", _count_simpson),
    ("fractalab.fourier", "spherical_average_detailed", "fourier.sigma", _count_sigma),
    ("fractalab.fourier", "spherical_average", "fourier.sigma", None),
    ("fractalab.fourier", "spherical_average_series", "fourier.sigma", None),
    ("fractalab.fourier", "angular_decomposition", "fourier.angular", None),
    ("fractalab.fourier", "solid_average", "fourier.solid", None),
    ("fractalab.fourier", "stationary_phase_check", "fourier.stationary", None),
    ("fractalab.geometry", "mattila_truncated", "geometry.mattila", _count_mattila),
    ("fractalab.geometry", "distance_measure", "geometry.pairs", _count_pairs),
    ("fractalab.geometry", "weighted_mass", "geometry.pairs", _count_pairs),
    ("fractalab.geometry", "energy_integral", "geometry.pairs", _count_pairs),
    ("fractalab.geometry", "coverage_report", "geometry.pairs", None),
    ("fractalab.geometry", "product_atoms", "geometry.pairs", None),
    ("fractalab.runner", "run_experiment", "runner", _count_runner),
    ("fractalab.runner", "emit_report", "runner.report", None),
    ("fractalab.cli", "main", "cli", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))

COUNTERS = (
    "measures.transform.calls",
    "measures.transform.evals",
    "measures.atoms",
    "energy.sumset.calls",
    "energy.sumset.pairs",
    "quadrature.simpson.calls",
    "quadrature.simpson.nodes",
    "quadrature.simpson.unconverged",
    "fourier.sigma.calls",
    "fourier.sigma.nodes",
    "geometry.mattila.t_nodes",
    "geometry.mattila.unconverged",
    "geometry.pairs.count",
    "runner.files",
    "runner.bytes_written",
)


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.pass_spans: list[tuple[int, int]] = []  # [first, end) span ids
        self._stack: list[list] = []  # [span id, child ns, layer]
        self._pass_first = 0
        self._patched: list[tuple[object, str, object]] = []
        self._reset_pass()

    def _reset_pass(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.top_ns = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fractalab" or n.startswith("fractalab.")]
        for module_name, attr, layer, hook in TARGETS:
            owner = sys.modules[module_name]
            label = f"{module_name.removeprefix('fractalab.')}.{attr}"
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, label, layer, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, label, layer, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str, hook):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.name_ids)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1][0] if stack else -1)
            tracer.starts.append(0)
            tracer.ends.append(0)
            entry = [sid, 0, layer]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.starts[sid] = start
                tracer.ends[sid] = end
                dur = end - start
                tracer.self_ns[layer] += dur - entry[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_ns += dur
            if hook is not None:
                hook(tracer.counts, stack, args, kwargs, result)
            return result

        return wrapper

    # -- per pass -----------------------------------------------------------

    def begin_pass(self) -> None:
        self._reset_pass()
        self._pass_first = len(self.name_ids)

    def end_pass(self, wall_s: float) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds per layer (plus the harness remainder) and the
        counters of the pass that just ended."""
        self.pass_spans.append((self._pass_first, len(self.name_ids)))
        times = {f"{layer}.s": ns * 1e-9 for layer, ns in self.self_ns.items()}
        times["harness.s"] = wall_s - self.top_ns * 1e-9
        return times, dict(self.counts)

    def write(self, path: Path) -> None:
        """Write every recorded span as arrays indexed by span id."""
        def col(a):
            return np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)

        np.savez(
            path,
            names=np.array(self.names),
            name_id=col(self.name_ids),
            parent=col(self.parents),
            start_ns=col(self.starts),
            end_ns=col(self.ends),
            pass_spans=np.array(self.pass_spans, dtype=np.int64).reshape(-1, 2),
        )
