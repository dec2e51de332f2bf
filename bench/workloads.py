"""The benchmark's two workloads, each made of two parts.

Each workload generates its inputs from the seed once (set-up), then runs
passes. A pass rebuilds every measure from raw inputs, because users pay for
construction on every run; this also keeps the identity-keyed
``_gap_correlation`` cache from carrying over between passes. Every call into
fractalab is one operation: an exception is recorded, not raised, and the
operation's correctness check runs after the pass, outside the timed region.

The parts, and why:

* spectral -- the dense transform (``GridMeasure.transform``) does nearly
  all the work; three bases keep a fast path from being tuned to base 3.
* cli -- config parsing, artifact writes, sha256 manifests, emit_report and
  the stationary-phase integrator, through ``fractalab.cli.main``; most of
  its time is in the transform too.
* mattila -- ~37k sigma(t) calls on one-atom transforms: Python quadrature
  loops dominate and a transform fast path must leave it unchanged.
* pairs -- sumsets and N^2 pair scans on arbitrary (non-self-similar)
  measures: a Cantor-only fast path is bypassed here.

A pass of ``spectral-cli`` runs spectral then cli, and one of
``mattila-pairs`` runs mattila then pairs. Two workloads rather than four
leave each run long enough (``run_seconds`` in BENCHMARK.json) to average
over the drift of a shared machine's speed; see README.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from functools import partial
from pathlib import Path

import numpy as np

import fractalab as fl
from fractalab import cli

GAMMA0 = 0.1
CUTOFF = fl.CutoffFunction("fejer", 2.0)
PAIR_BUDGET = 400_000_000
SMALL_ENERGY_REL_TOL = 1e-10  # autocorrelation vs brute-force oracle
PARSEVAL_REL_TOL = 1e-6
MATTILA_REL_TOL = 1e-6
CS_SLACK = 1e-6  # middle <= cs_bound * (1 + CS_SLACK)
SOLID_SLACK = 1e-5  # sigma_w <= 2 * solid * (1 + SOLID_SLACK)
MASS_TOL = 1e-12


class OpError:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.message})"


class Pass:
    """Results of one pass: op name -> (value or OpError, check)."""

    def __init__(self):
        self.results: dict[str, tuple[object, object]] = {}
        self.prefix = ""  # "<part>: " while a part of a combined workload runs

    def op(self, name: str, check, fn, *args):
        try:
            value = fn(*args)
        except Exception as exc:  # an operation failure is counted, never fatal
            value = OpError(exc)
        self.results[self.prefix + name] = (value, check)
        return value

    def verify(self) -> list[tuple[str, str]]:
        """Run every operation's check; returns (op name, reason) failures."""
        failures = []
        for name, (value, check) in self.results.items():
            if isinstance(value, OpError):
                failures.append((name, value.message))
                continue
            try:
                ok = bool(check(value))
            except Exception as exc:  # a check that cannot run is a failed op
                failures.append((name, f"check raised {type(exc).__name__}: {exc}"))
                continue
            if not ok:
                failures.append((name, "check failed"))
        return failures


def _finite_positive(*values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _spec_key(spec: fl.CantorSpec) -> str:
    return f"{spec.base}:{','.join(map(str, spec.digits))}:{spec.level}"


def _cantor_atoms(spec: fl.CantorSpec, nu) -> bool:
    return nu.atom_count == len(spec.digits) ** spec.level


def _random_arrays(rng, base: int, level: int, atoms: int):
    indices = np.sort(rng.choice(base**level, size=atoms, replace=False))
    weights = rng.random(atoms) + 0.05
    return base, level, indices, weights / weights.sum()


def _grid_measure(arrays):
    base, level, indices, weights = arrays
    return fl.GridMeasure(base=base, level=level, indices=indices, weights=weights)


class Workload:
    name = ""

    def before_pass(self) -> None:
        """Untimed preparation before each pass."""

    def run_pass(self) -> Pass:
        p = Pass()
        self.fill(p)
        return p

    def fill(self, p: Pass) -> None:
        """Run every operation of one pass into `p`."""
        raise NotImplementedError

    def fingerprint(self, p: Pass) -> str | None:
        """Digest of outputs that must be byte-identical across passes."""
        return None


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

# criterion 8's gamma0 = 0.1 sweeps of the three CS_SWEEPS products
SPECTRAL_FULL = (
    ((3, (0, 2), 10), (81.0, 243.0, 729.0)),
    ((4, (0, 3), 9), (64.0, 256.0, 1024.0)),
    ((5, (0, 2), 8), (25.0, 125.0, 625.0)),
)
SPECTRAL_REDUCED = (((3, (0, 2), 5), (16.0, 20.0, 24.0)),)


def _cs_ok(dec) -> bool:
    return (
        _finite_positive(dec.near_zero, dec.near_half_pi, dec.middle, dec.cs_bound)
        and dec.middle <= dec.cs_bound * (1.0 + CS_SLACK)
    )


def _dominated_by_solid(solid: list, series) -> bool:
    return len(series.values) == len(solid) and all(
        _finite_positive(s) and s <= 2.0 * v * (1.0 + SOLID_SLACK)
        for s, v in zip(series.values, solid)
    )


class Spectral(Workload):
    name = "spectral"

    def __init__(self, seed: int, scratch: Path, reduced: bool = False):
        # no seeded input: the products and sweeps are fixed by criterion 8
        rows = SPECTRAL_REDUCED if reduced else SPECTRAL_FULL
        # the sigma_w and solid sweeps run one power of the base lower
        self.rows = [
            (fl.CantorSpec(b, d, lvl), ts, tuple(t / b for t in ts))
            for (b, d, lvl), ts in rows
        ]

    def fill(self, p: Pass) -> None:
        for spec, ts, ts_avg in self.rows:
            key = _spec_key(spec)
            nu = p.op(f"build {key}", partial(_cantor_atoms, spec), fl.build_cantor, spec)
            mu = p.op(
                f"product {key}^2",
                lambda m, n=len(spec.digits) ** (2 * spec.level): m.atom_count == n,
                fl.build_product, [nu, nu], [spec.dimension, spec.dimension],
            )
            for t in ts:
                p.op(f"angular {key}^2 t={t:g}", _cs_ok,
                     fl.angular_decomposition, mu, t, GAMMA0, CUTOFF)
            solid = [
                p.op(f"solid {key} t={t:g}", _finite_positive, fl.solid_average, nu, t)
                for t in ts_avg
            ]
            p.op(f"sigma_w {key}^2", partial(_dominated_by_solid, solid),
                 fl.spherical_average_series, mu, ts_avg, "sin_theta")


# ---------------------------------------------------------------------------
# mattila
# ---------------------------------------------------------------------------

def _closed_form(exact: float, est) -> bool:
    return est.t_grid_converged and abs(est.value - exact) <= MATTILA_REL_TOL * exact


def _converged_positive(est) -> bool:
    return est.t_grid_converged and _finite_positive(est.value)


class Mattila(Workload):
    name = "mattila"

    def __init__(self, seed: int, scratch: Path, reduced: bool = False):
        # no seeded input: the closed forms fix the point-mass integrals
        self.truncation = 3.0 if reduced else 100.0
        self.cantor = fl.CantorSpec(3, (0, 2), 3)
        self.cantor_truncation = 2.5

    def fill(self, p: Pass) -> None:
        T = self.truncation
        pm = p.op("build point mass", lambda m: m.atom_count == 1, fl.point_mass)
        mu = p.op("product point mass^2", lambda m: m.atom_count == 1,
                  fl.build_product, [pm, pm], [0.0, 0.0])
        p.op(f"mattila point mass^2 unweighted T={T:g}",
             partial(_closed_form, 2.0 * math.pi**2 * (T * T - 1.0)),
             fl.mattila_truncated, mu, T, False)
        p.op(f"mattila point mass^2 weighted T={T:g}",
             partial(_closed_form, 8.0 * (T * T - 1.0)),
             fl.mattila_truncated, mu, T, True)
        spec = self.cantor
        key = _spec_key(spec)
        nu = p.op(f"build {key}", partial(_cantor_atoms, spec), fl.build_cantor, spec)
        mu = p.op(f"product {key}^2", lambda m: m.atom_count == 64,
                  fl.build_product, [nu, nu], [spec.dimension, spec.dimension])
        p.op(f"mattila {key}^2 unweighted T={self.cantor_truncation:g}", _converged_positive,
             fl.mattila_truncated, mu, self.cantor_truncation, False)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def _energies_ok(profile, min_exponent: float | None = None) -> bool:
    e = profile.energies
    ok = all(0.0 < x <= 1.0 for x in e) and all(a <= b for a, b in zip(e, e[1:]))
    if min_exponent is not None:
        ok = ok and profile.fitted_exponent >= min_exponent
    return ok


def _parseval_ok(sides) -> bool:
    space, fourier = sides
    return _finite_positive(space) and abs(space - fourier) <= PARSEVAL_REL_TOL * abs(space)


def _unit_mass(dm) -> bool:
    return abs(dm.total_mass - 1.0) <= MASS_TOL


def _weighted_mass_ok(dm) -> bool:
    return 0.0 < dm.total_mass <= 1.0 + MASS_TOL


def _coverage_ok(cov) -> bool:
    return _finite_positive(*cov.covered_lengths, *cov.density_l2)


def _matches_weighted_total(dmw, value: float) -> bool:
    return abs(value - dmw.total_mass) <= 1e-10 * dmw.total_mass


def _energy_integral_bounds(mu, s: float, value: float) -> bool:
    """Off-diagonal mass (1 - sum w^2) times the extreme distances^(-s):
    every off-diagonal pair is at least one grid step and at most the
    diameter apart."""
    factors = mu.factors
    w2 = math.prod(float(np.sum(f.weights**2)) for f in factors)
    step = min(f.delta for f in factors)
    diam = math.sqrt(sum(max(f.diameter, f.delta) ** 2 for f in factors))
    off = 1.0 - w2
    return off * diam ** (-s) * (1 - 1e-12) <= value <= off * step ** (-s) * (1 + 1e-12)


class Pairs(Workload):
    name = "pairs"

    def __init__(self, seed: int, scratch: Path, reduced: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # energy profiles: 3:0,2:12 and an arbitrary measure with the same
        # atom count on the same 3^12 grid
        level = 6 if reduced else 12
        self.cantor_energy = fl.CantorSpec(3, (0, 2), level)
        self.random_energy = _random_arrays(rng, 3, level, 2**level)
        self.r_values = [3.0**-j for j in range(level - 1, 0, -1)]
        # oracle-checked autocorrelation energies on small measures
        self.small = [_random_arrays(rng, 3, 5, 32) for _ in range(8)]
        # smoothed fourth moments, both Parseval sides
        self.smoothed = [_random_arrays(rng, 3, 8, 128 if reduced else 512) for _ in range(2)]
        self.smoothed_t = (4.0, 16.0)
        # pair functionals on 3:0,2:6^2 and on a product of two random
        # measures with the same atom count
        plevel = 3 if reduced else 6
        self.cantor_pairs = fl.CantorSpec(3, (0, 2), plevel)
        self.random_pairs = [_random_arrays(rng, 3, plevel, 2**plevel) for _ in range(2)]
        self.bin_width = 0.01
        self.widths = (0.02, 0.05, 0.1)
        self.energy_s = 0.5
        self._oracle: dict[tuple[int, float], float] = {}

    def _small_radii(self, arrays) -> list[float]:
        base, level, indices, _ = arrays
        delta = float(base) ** -level
        diam = max(2.0 * float(indices[-1] - indices[0]) * delta, 8.0 * delta)
        return [diam / 2.0**k for k in range(8)]

    def _oracle_energy(self, k: int, r: float, value: float) -> bool:
        key = (k, r)
        if key not in self._oracle:
            nu = _grid_measure(self.small[k])
            self._oracle[key] = fl.additive_energy(nu, r, "bruteforce")
        brute = self._oracle[key]
        return abs(brute - value) <= SMALL_ENERGY_REL_TOL * max(brute, 1e-300)

    def fill(self, p: Pass) -> None:
        spec = self.cantor_energy
        alpha = spec.dimension
        key = _spec_key(spec)
        nu = p.op(f"build {key}", partial(_cantor_atoms, spec), fl.build_cantor, spec)
        p.op(f"energy_profile {key}", partial(_energies_ok, min_exponent=alpha - 0.05),
             fl.energy_profile, nu, self.r_values, alpha)
        rnd = p.op("build random energy measure", lambda m: m.atom_count == 2**spec.level,
                   _grid_measure, self.random_energy)
        p.op("energy_profile random", _energies_ok, fl.energy_profile, rnd, self.r_values, alpha)

        for k, arrays in enumerate(self.small):
            small = p.op(f"build small {k}", lambda m: m.atom_count == 32, _grid_measure, arrays)
            for r in self._small_radii(arrays):
                p.op(f"additive_energy small {k} r={r:.6g}", partial(self._oracle_energy, k, r),
                     fl.additive_energy, small, r)

        for k, arrays in enumerate(self.smoothed):
            m = p.op(f"build smoothed {k}", lambda x, n=arrays[2].size: x.atom_count == n,
                     _grid_measure, arrays)
            for t in self.smoothed_t:
                p.op(f"smoothed_energy {k} t={t:g}", _parseval_ok, fl.smoothed_energy, m, t, CUTOFF)

        pspec = self.cantor_pairs
        cnu = p.op(f"build {_spec_key(pspec)}", partial(_cantor_atoms, pspec), fl.build_cantor, pspec)
        factors = [
            p.op(f"build random pair factor {j}", lambda x: x.atom_count == 2**pspec.level,
                 _grid_measure, arrays)
            for j, arrays in enumerate(self.random_pairs)
        ]
        products = {
            f"{_spec_key(pspec)}^2": p.op(
                f"product {_spec_key(pspec)}^2", lambda m: m.atom_count == 4**pspec.level,
                fl.build_product, [cnu, cnu], [pspec.dimension] * 2),
            "random^2": p.op(
                "product random^2", lambda m: m.atom_count == 4**pspec.level,
                fl.build_product, factors, [1.0, 1.0]),
        }
        for label, mu in products.items():
            dm = p.op(f"distance_measure {label}", _unit_mass,
                      fl.distance_measure, mu, self.bin_width, False, PAIR_BUDGET)
            p.op(f"coverage_report {label}", _coverage_ok, fl.coverage_report, dm, self.widths)
            dmw = p.op(f"distance_measure weighted {label}", _weighted_mass_ok,
                       fl.distance_measure, mu, self.bin_width, True, PAIR_BUDGET)
            p.op(f"weighted_mass {label}", partial(_matches_weighted_total, dmw),
                 fl.weighted_mass, mu, PAIR_BUDGET)
            p.op(f"energy_integral {label}", partial(_energy_integral_bounds, mu, self.energy_s),
                 fl.energy_integral, mu, self.energy_s, PAIR_BUDGET)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _factor(level: int) -> dict:
    return {"base": 3, "digits": [0, 2], "level": level}


def _cli_configs(reduced: bool) -> dict[str, tuple[str, dict]]:
    """README-style configs: run name -> (kind, config)."""
    f8 = _factor(6 if reduced else 8)
    f6 = _factor(3 if reduced else 6)
    d3 = _factor(4 if reduced else 6)
    configs = {
        "cantor": ("cantor", {"factors": [f8, f8]}),
        "regularity": ("regularity", {"factors": [f8]}),
        "energy": ("energy", {"factors": [_factor(5 if reduced else 9)], "dz_c_nu": 4.0}),
        "solid": ("solid", {"factors": [f8]}),
        "spherical": ("spherical", {"factors": [f8, f8], "weight": "sin_theta"}),
        "spherical-d3": ("spherical", {"factors": [d3, d3, d3], "weight": "sin_theta"}),
        "stationary": ("stationary", {"gaps": [[0.0, 1.0], [1.0, 1.0]]}),
        "distance": ("distance", {"factors": [f6, f6], "coverage_widths": [0.02, 0.05]}),
        "thresholds": ("thresholds", {"dims": ["2/3", "2/3"], "alpha": 0.67, "dz_c_nu": 4.0}),
        "full-report": ("full-report", {"factors": [f8, f8]}),
    }
    if reduced:
        configs["spherical-d3"][1].update(
            mc_nodes=2000, sweep={"start": 2.0, "stop": 6.0, "count": 3})
        configs["stationary"][1]["sweep"] = {"start": 10.0, "stop": 100.0, "count": 4}
    return configs


def _run_cli(kind: str, config_path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([kind, "--config", str(config_path)])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifests_ok(out_dir: Path, rc: int) -> bool:
    """Exit code 0 and every manifest's hash matches its file."""
    manifests = sorted(out_dir.rglob("manifest.json"))
    if rc != 0 or not manifests:
        return False
    for path in manifests:
        files = json.loads(path.read_text(encoding="ascii"))["files"]
        if not files or any(_sha256(path.parent / n) != h for n, h in files.items()):
            return False
    return True


class Cli(Workload):
    name = "cli"

    def __init__(self, seed: int, scratch: Path, reduced: bool = False):
        self.runs_dir = scratch / "runs"
        config_dir = scratch / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.runs = []
        for name, (kind, config) in _cli_configs(reduced).items():
            payload = {**config, "seed": seed, "output_dir": str(self.runs_dir / name)}
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
            self.runs.append((name, kind, path))

    def before_pass(self) -> None:
        shutil.rmtree(self.runs_dir, ignore_errors=True)

    def fill(self, p: Pass) -> None:
        for name, kind, path in self.runs:
            p.op(f"cli {name}", partial(_manifests_ok, self.runs_dir / name),
                 _run_cli, kind, path)

    def fingerprint(self, p: Pass) -> str | None:
        digest = hashlib.sha256()
        for path in sorted(self.runs_dir.rglob("manifest.json")):
            digest.update(str(path.relative_to(self.runs_dir)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()


class Combined(Workload):
    """Parts run one after another in each pass; their op names are
    prefixed with the part's name."""

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, seed: int, scratch: Path, reduced: bool = False):
        self.members = [part(seed, scratch, reduced) for part in self.parts]

    def before_pass(self) -> None:
        for member in self.members:
            member.before_pass()

    def fill(self, p: Pass) -> None:
        for member in self.members:
            p.prefix = f"{member.name}: "
            member.fill(p)
        p.prefix = ""

    def fingerprint(self, p: Pass) -> str | None:
        prints = [m.fingerprint(p) for m in self.members]
        return "/".join(x for x in prints if x is not None) or None


class SpectralCli(Combined):
    """Transform-bound: a Cantor fast path should move all of it."""

    name = "spectral-cli"
    parts = (Spectral, Cli)


class MattilaPairs(Combined):
    """Quadrature loops and pair scans: a Cantor fast path is predicted flat."""

    name = "mattila-pairs"
    parts = (Mattila, Pairs)


WORKLOADS = {w.name: w for w in (SpectralCli, MattilaPairs)}

# Counters that the seeded inputs may move (see README): in the pairs part
# the Fourier side of smoothed_energy refines adaptively on a random measure,
# and in the cli part the shortest-repr floats of the Monte Carlo run vary in
# length.
SEED_DEPENDENT_COUNTERS = {
    "mattila-pairs": {
        "measures.transform.calls",
        "measures.transform.evals",
        "quadrature.simpson.nodes",
        "quadrature.simpson.unconverged",
    },
    "spectral-cli": {"runner.bytes_written"},
}


def make(name: str, seed: int, scratch: Path, reduced: bool = False) -> Workload:
    return WORKLOADS[name](seed, scratch, reduced)
