"""Experiment runner: turns a validated config into CSV artifacts plus a
manifest, deterministically.

Every artifact is a pure function of (config, seed): float formatting uses
shortest round-trip reprs, sweeps run and reduce in index order, and the
manifest records a content hash of every emitted file, so identical runs are
byte-identical.

Each experiment kind is one entry of ``_KINDS``: its runner, which computes
everything before it writes its artifacts and results.json, so a refused run
leaves no files. Each runner also formats its own summary.txt lines from the
values it computed and stores them in results.json under "summary";
emit_report prints them and reads nothing else of a run but its kind and d.
spherical, solid and angular take one t ladder, _default_t_sweep: at most 8
powers of the base under the validity cap, for angular above its cut.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
from .cutoff import CutoffFunction
from .energy import dyadic_r_sweep, dz_beta, energy_profile
from .errors import ValidationError
from .fitting import loglog_fit
from .fourier import (
    angular_cut,
    angular_decomposition,
    solid_average,
    spherical_average_series,
    stationary_phase_check,
    validity_cap,
)
from .geometry import (
    coverage_report,
    distance_measure,
    mattila_truncated,
    threshold_report,
)
from .measures import (
    build_cantor,
    build_product,
    check_regularity,
    frostman_fit,
    save_grid_measure,
)

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.json"
_ANGULAR_CUTOFF = CutoffFunction("fejer", 2.0)  # the majorant's smoothing, at every cut


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows, metadata: dict | None = None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if metadata:
        for key, value in metadata.items():
            lines.append(f"# {key}={_fmt(value) if isinstance(value, (int, float, np.floating)) else value}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _default_t_sweep(config: ExperimentConfig, cap: float, base: int, floor: float = 0.0) -> list[float]:
    if config.sweep is not None:
        ts = config.sweep.values()
        if ts[-1] > cap:
            raise ValidationError(
                f"sweep: stop {ts[-1]} exceeds the validity cap {cap:.6g}"
            )
        return ts
    ts = []
    t = float(base)
    while t <= cap and t < math.inf and len(ts) < 8:
        if t > floor:
            ts.append(t)
        t *= base
    if len(ts) < 3:  # with 3 powers under the cap, the floor left fewer
        cut = f" above the angular cut {floor:.6g} (raise --gamma0) and" if base**3 <= cap else ""
        raise ValidationError(
            f"sweep: fewer than 3 power-of-base frequencies fit{cut} under the "
            f"validity cap {cap:.6g}; deepen the level or pass an explicit sweep"
        )
    return ts


class _Run:
    """Collects artifacts for one experiment directory."""

    def __init__(self, config: ExperimentConfig, out_dir: Path):
        self.config = config
        self.out_dir = out_dir
        self.files: dict[str, Path] = {}
        self.results: dict = {}

    def add_file(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.files[name] = path
        return path

    def finalize(self) -> dict[str, Path]:
        results_path = self.add_file(RESULTS_NAME)
        results_path.write_text(_canonical_json(self.results), encoding="ascii")
        config_dict = self.config.to_dict()
        config_json = _canonical_json(config_dict)
        manifest = {
            "config": config_dict,
            "config_hash": hashlib.sha256(config_json.encode("ascii")).hexdigest(),
            "seed": self.config.seed,
            "versions": {
                "fractalab": __version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "files": {name: _sha256(path) for name, path in sorted(self.files.items())},
        }
        manifest_path = self.out_dir / MANIFEST_NAME
        manifest_path.write_text(_canonical_json(manifest), encoding="ascii")
        self.files[MANIFEST_NAME] = manifest_path
        return self.files


def _factor_measures(config: ExperimentConfig):
    return [build_cantor(spec) for spec in config.factors]


def _product_for(config: ExperimentConfig):
    return build_product(_factor_measures(config), [spec.dimension for spec in config.factors])


def _run_cantor(config: ExperimentConfig, run: _Run) -> None:
    measures = _factor_measures(config)
    info = []
    for j, nu in enumerate(measures):
        save_grid_measure(nu, run.add_file(f"factor_{j}.measure"))
        info.append(
            {
                "base": nu.base,
                "level": nu.level,
                "atoms": nu.atom_count,
                "dimension_hint": nu.dimension_hint,
            }
        )
    parts = ", ".join(
        f"base {nu.base} level {nu.level} ({nu.atom_count} atoms, dim {nu.dimension_hint:.3f})"
        for nu in measures
    )
    run.results = {"kind": "cantor", "d": len(measures), "factors": info, "summary": [f": {parts}"]}


def _run_regularity(config: ExperimentConfig, run: _Run) -> None:
    measures = _factor_measures(config)
    rows, per_factor, summary = [], [], []
    for j, nu in enumerate(measures):
        alpha = config.alpha if config.alpha is not None else nu.dimension_hint
        scales = [float(nu.base) ** (-k) for k in range(1, min(nu.level, 12))]
        if len(scales) < 3:
            raise ValidationError("regularity needs level >= 4 for a scale ladder")
        report = check_regularity(nu, alpha, scales, config.regularity_cap)
        slope, stderr = frostman_fit(nu, scales)
        for r, (lo, hi) in zip(report.scales, report.per_scale):
            rows.append((j, r, lo, hi))
        per_factor.append(
            {
                "factor": j,
                "alpha": alpha,
                "c_nu": report.c_nu,
                "cap": config.regularity_cap,
                "passed": report.passed,
                "frostman_slope": slope,
                "frostman_stderr": stderr,
            }
        )
        summary.append(
            f" factor {j}: C_nu {report.c_nu:.3f} vs cap {config.regularity_cap} "
            f"-> {'regular' if report.passed else 'NOT regular'} at alpha {alpha:.3f} "
            f"(two-sided ball-mass bounds); frostman slope {slope:.3f}"
        )
    _write_csv(run.add_file("regularity.csv"), ["factor", "scale", "min_ratio", "max_ratio"], rows)
    run.results = {"kind": "regularity", "d": len(measures), "factors": per_factor, "summary": summary}


def _run_energy(config: ExperimentConfig, run: _Run) -> None:
    nu = build_cantor(config.factors[0])
    alpha = config.alpha if config.alpha is not None else nu.dimension_hint
    rs = config.sweep.values() if config.sweep is not None else dyadic_r_sweep(nu)
    profile = energy_profile(nu, rs, alpha)
    rows = [
        (r, e, math.log(r), math.log(e))
        for r, e in zip(profile.r_values, profile.energies)
    ]
    results = {
        "kind": "energy",
        "d": 1,
        "alpha": alpha,
        "fitted_exponent": profile.fitted_exponent,
        "stderr": profile.stderr,
        "excess_over_alpha": profile.excess_over_alpha,
    }
    line = (
        f": E(r) slope {profile.fitted_exponent:.3f} vs alpha {alpha:.3f} "
        f"(margin {profile.excess_over_alpha:+.3f}; the trivial bound needs slope >= alpha, and the "
        f"Dyatlov-Zahl bound for regular sets predicts a strictly positive margin)"
    )
    if config.dz_c_nu is not None:
        params = dz_beta(alpha, config.dz_c_nu, config.dz_k)
        results.update(dz_beta=params.beta, dz_k=params.k, dz_c_nu=params.c_nu)
        line += f"; closed-form beta = {params.beta:.3g} at K={params.k}, C_nu={params.c_nu}"
    meta = {
        "fitted_exponent": profile.fitted_exponent,
        "stderr": profile.stderr,
        "alpha_ref": profile.alpha_ref,
    }
    _write_csv(run.add_file("energy.csv"), ["r", "E", "log_r", "log_E"], rows, meta)
    run.results = results | {"summary": [line]}


def _run_spherical(config: ExperimentConfig, run: _Run) -> None:
    mu = _product_for(config)
    cap = validity_cap(mu)
    ts = _default_t_sweep(config, cap, mu.factors[0].base)
    series = spherical_average_series(mu, ts, config.weight)
    rows = [
        (t, v, series.weight, n)
        for t, v, n in zip(series.t_values, series.values, series.node_counts)
    ]
    _write_csv(
        run.add_file("spherical.csv"),
        ["t", "sigma", "weight", "quadrature_nodes"],
        rows,
        {"fitted_decay": series.fitted_decay, "fit_stderr": series.fit_stderr},
    )
    run.results = {
        "kind": "spherical",
        "d": mu.dimension,
        "alpha": max(mu.dims),
        "weight": series.weight,
        "fitted_decay": series.fitted_decay,
        "fit_stderr": series.fit_stderr,
        "summary": [
            f": weight {series.weight}, decay slope {series.fitted_decay:.3f} "
            "(weighted circular average is dominated by twice the solid average of the "
            "larger-dimension factor)"
        ],
    }


def _run_angular(config: ExperimentConfig, run: _Run) -> None:
    mu = _product_for(config)
    # the second factor is the sin theta side, whose decay the near-zero sector reads
    alpha = config.alpha if config.alpha is not None else mu.dims[1]
    ts = _default_t_sweep(config, validity_cap(mu), mu.factors[0].base, angular_cut(config.gamma0))
    decs = [angular_decomposition(mu, t, config.gamma0, _ANGULAR_CUTOFF) for t in ts]
    fit = loglog_fit(ts, [dec.near_zero for dec in decs])
    bound = -(config.gamma0 * (1.0 - alpha) + alpha)
    ratio = max(dec.middle / dec.cs_bound for dec in decs)
    _write_csv(
        run.add_file("angular.csv"),
        ["t", "eps", "near_zero", "middle", "near_half_pi", "cs_bound"],
        [(d.t, d.eps, d.near_zero, d.middle, d.near_half_pi, d.cs_bound) for d in decs],
        {"near_zero_slope": fit.slope, "slope_stderr": fit.stderr, "bound_exponent": bound},
    )
    run.results = {
        "kind": "angular",
        "d": mu.dimension,
        "gamma0": config.gamma0,
        "alpha": alpha,
        "cutoff_scale": _ANGULAR_CUTOFF.scale,
        "near_zero_slope": fit.slope,
        "slope_stderr": fit.stderr,
        "bound_exponent": bound,
        "max_middle_over_cs": ratio,
        "summary": [
            f": gamma0 {config.gamma0}, near-zero slope {fit.slope:.3f} vs bound {bound:.3f} "
            f"({'no slower' if fit.slope <= bound else 'SLOWER than the bound'}); "
            f"max middle/CS {ratio:.3g} ({'majorant holds' if ratio <= 1.0 else 'BROKEN majorant'})"
        ],
    }


def _run_solid(config: ExperimentConfig, run: _Run) -> None:
    nu = build_cantor(config.factors[0])
    alpha = config.alpha if config.alpha is not None else nu.dimension_hint
    cap = validity_cap(nu)
    ts = _default_t_sweep(config, cap, nu.base)
    values = [solid_average(nu, t, config.interval) for t in ts]
    fit = loglog_fit(ts, values)
    rows = [(t, v, math.log(t), math.log(v)) for t, v in zip(ts, values)]
    _write_csv(
        run.add_file("solid.csv"),
        ["t", "value", "log_t", "log_value"],
        rows,
        {"fitted_decay": fit.slope, "fit_stderr": fit.stderr, "alpha_ref": alpha},
    )
    run.results = {
        "kind": "solid",
        "d": 1,
        "alpha": alpha,
        "interval": list(config.interval),
        "fitted_decay": fit.slope,
        "fit_stderr": fit.stderr,
        "summary": [
            f": decay slope {fit.slope:.3f}, target <= {-alpha + 0.1:.3f} "
            "(solid average of a ball-regular measure decays like t^-alpha)"
        ],
    }


def _run_stationary(config: ExperimentConfig, run: _Run) -> None:
    reports = []
    for gap in config.gaps:
        norm = math.hypot(*gap)
        if config.sweep is not None:
            ts = config.sweep.values()
        else:
            ts = [float(x) / norm for x in np.geomspace(100.0, 10000.0, 13) * 1.0137]
        reports.append(stationary_phase_check(gap, ts))
    gap_results, summary = [], []
    for k, (gap, report) in enumerate(zip(config.gaps, reports)):
        rows = [
            (t, e.real, e.imag, m, abs(r))
            for t, e, m, r in zip(report.t_values, report.exact, report.main, report.residuals)
        ]
        meta = {"gap_x": gap[0], "gap_y": gap[1]}
        if report.residual_slope is not None:
            meta["residual_slope"] = report.residual_slope
            meta["residual_stderr"] = report.residual_stderr
        _write_csv(
            run.add_file(f"stationary_gap{k}.csv"),
            ["t", "exact_re", "exact_im", "main", "resid"],
            rows,
            meta,
        )
        gap_results.append(
            {
                "gap": list(gap),
                "residual_slope": report.residual_slope,
                "residual_stderr": report.residual_stderr,
            }
        )
        slope = "n/a" if report.residual_slope is None else f"{report.residual_slope:.3f}"
        summary.append(
            f" gap {tuple(gap)}: residual slope {slope} "
            "(main term 2(t|g|)^-1/2 cos(2pi(t|g|-1/8))|sin theta_g|)"
        )
    run.results = {"kind": "stationary", "d": 2, "gaps": gap_results, "summary": summary}


def _run_mattila(config: ExperimentConfig, run: _Run) -> None:
    mu = _product_for(config)
    cap = validity_cap(mu)
    T = config.truncation
    if T is None:
        T = min(100.0, cap)
        if not T > 1.0:
            raise ValidationError(f"truncation: the validity cap {cap:.6g} leaves no default "
                                  "truncation above 1; deepen the level or pass --truncation")
    est = mattila_truncated(mu, T, config.weight == "sin_theta")
    rows = list(zip(est.t_values, est.sigma, est.integrand, est.partial_values))
    _write_csv(
        run.add_file("mattila.csv"),
        ["t", "sigma_w", "integrand", "partial_value"],
        rows,
        {
            "value": est.value,
            "integrand_slope": est.integrand_slope,
            "slope_stderr": est.slope_stderr,
            "weighted": str(est.weighted).lower(),
        },
    )
    conv = "integrand slope < -1: truncations converging" if est.integrand_slope < -1 else \
        "integrand slope >= -1: no convergence signal at this truncation"
    run.results = {
        "kind": "mattila",
        "d": mu.dimension,
        "truncation": T,
        "weighted": est.weighted,
        "value": est.value,
        "integrand_slope": est.integrand_slope,
        "doubling_ratios": list(est.doubling_ratios),
        "t_nodes": est.t_nodes,
        "summary": [
            f": value {est.value:.6g} at T={T}, slope {est.integrand_slope:.3f} ({conv}); "
            "a finite weighted integral implies a positive-measure distance set"
        ],
    }


def _run_distance(config: ExperimentConfig, run: _Run) -> None:
    mu = _product_for(config)
    dm = distance_measure(mu, config.bin_width, config.distance_weighted)
    results = {
        "kind": "distance",
        "d": mu.dimension,
        "bin_width": dm.bin_width,
        "weighted": dm.weighted,
        "total_mass": dm.total_mass,
        "diagonal_mass": dm.diagonal_mass,
        "summary": [
            f": total mass {dm.total_mass:.6f} (diagonal {dm.diagonal_mass:.6f}), weighted={dm.weighted}"
        ],
    }
    if config.coverage_widths:
        cov = coverage_report(dm, config.coverage_widths)
        results["coverage"] = {
            "widths": list(cov.widths),
            "covered_lengths": list(cov.covered_lengths),
            "density_l2": list(cov.density_l2),
        }
    rows = [(k, dm.bin_left(k), mass) for k, mass in dm.bins.items()]
    _write_csv(
        run.add_file("distance.csv"),
        ["bin_index", "bin_left", "mass"],
        rows,
        {
            "bin_width": dm.bin_width,
            "weighted": str(dm.weighted).lower(),
            "total_mass": dm.total_mass,
            "diagonal_mass": dm.diagonal_mass,
        },
    )
    run.results = results


def _run_thresholds(config: ExperimentConfig, run: _Run) -> None:
    dims = config.dims or [str(spec.dimension) for spec in config.factors]
    report = threshold_report(dims, alpha=config.alpha, c_nu=config.dz_c_nu, k=config.dz_k)
    lines = [
        f"d={report.d}",
        f"dims={','.join(str(x) for x in report.dims)}",
        f"sum_threshold={report.sum_threshold}",
        f"product_sum_margin={report.product_sum_margin}",
    ]
    # a Fraction margin takes no +.4f format: each is formatted as the float results.json keeps
    margin = float(report.product_sum_margin)
    mixed = None if report.mixed_margin is None else float(report.mixed_margin)
    line = f": sum s_j margin {margin:+.4f} over d^2/(2d-1) = {report.sum_threshold}"
    if mixed is not None:
        lines.append(f"mixed_margin={report.mixed_margin}")
        line += f"; mixed margin s_A+s_B+max-2 = {mixed:+.4f}"
    if report.regular_delta is not None:
        lines.append(f"dz_beta={report.dz_beta!r}")
        lines.append(f"gamma0={report.gamma0!r}")
        lines.append(f"regular_delta={report.regular_delta!r}")
        lines.append(f"regular_threshold={report.regular_threshold!r}")
        line += f"; regular-route delta = {report.regular_delta:.3g}"
    lines.append(f"applicable={','.join(report.applicable) if report.applicable else 'none'}")
    line += f"; applicable: {', '.join(report.applicable or ['none'])}"
    run.add_file("thresholds.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    run.results = {
        "kind": "thresholds",
        "d": report.d,
        "dims": [str(x) for x in report.dims],
        "sum_threshold": str(report.sum_threshold),
        "product_sum_margin": margin,
        "mixed_margin": mixed,
        "regular_delta": report.regular_delta,
        "applicable": list(report.applicable),
        "summary": [line],
    }


# kind -> runner; full-report is the bundle of other kinds
_KINDS = {
    "cantor": _run_cantor,
    "regularity": _run_regularity,
    "energy": _run_energy,
    "spherical": _run_spherical,
    "angular": _run_angular,
    "solid": _run_solid,
    "stationary": _run_stationary,
    "mattila": _run_mattila,
    "distance": _run_distance,
    "thresholds": _run_thresholds,
}


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Execute one experiment and write its artifacts under output_dir.

    Returns the emitted files (name -> path). The manifest is written last
    and carries the config hash, the seed, package versions, and a sha256 of
    every artifact.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    if config.kind == "full-report":
        return _run_full_report(config, out_dir)
    run = _Run(config, out_dir)
    _KINDS[config.kind](config, run)
    return run.finalize()


def _run_full_report(config: ExperimentConfig, out_dir: Path) -> dict[str, Path]:
    files: dict[str, Path] = {}
    kinds = ["cantor", "regularity", "energy", "solid", "spherical", "thresholds"]
    for kind in kinds:
        sub = replace(config, kind=kind, output_dir=str(out_dir / kind), sweep=None)
        for name, path in run_experiment(sub).items():
            files[f"{kind}/{name}"] = path
    summary = emit_report(out_dir)
    files["summary.txt"] = summary
    return files


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _load_results(manifest_path: Path) -> dict:
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"corrupt manifest {manifest_path}: {exc}") from exc
    for key in ("config", "files", "seed"):
        if key not in manifest:
            raise ValidationError(f"corrupt manifest {manifest_path}: missing {key!r}")
    results_path = manifest_path.parent / RESULTS_NAME
    try:
        results = json.loads(results_path.read_text(encoding="ascii"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"missing or corrupt results next to {manifest_path}: {exc}") from exc
    if not isinstance(results, dict):
        raise ValidationError(f"corrupt results {results_path}: not a JSON object")
    return results


def emit_report(directory) -> Path:
    """Aggregate every run under `directory` into summary.txt, grouped by
    ambient dimension: each run's results.json gives its kind, its d and
    the summary lines its runner wrote, and nothing else is read."""
    root = Path(directory)
    manifests = sorted(root.rglob(MANIFEST_NAME))
    if not manifests:
        raise ValidationError(f"no {MANIFEST_NAME} found under {root}")
    groups: dict[int, list[str]] = {}
    for mpath in manifests:
        results = _load_results(mpath)
        where = mpath.parent / RESULTS_NAME
        kind = results.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValidationError(f"unknown experiment kind {kind!r} in {where}")
        for key, want, ok in (
            ("d", "an int", lambda v: type(v) is int),
            ("summary", "a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v)),
        ):
            if key not in results:
                raise ValidationError(f"incomplete results {where}: missing key {key!r}")
            if not ok(results[key]):
                raise ValidationError(f"malformed results {where}: {key!r} must be {want}, got {results[key]!r}")
        rel = str(mpath.parent.relative_to(root)) or "."
        groups.setdefault(results["d"], []).extend(f"{kind} [{rel}]{tail}" for tail in results["summary"])
    out = ["experiment summary", "==================", ""]
    for d in sorted(groups):
        label = f"[d = {d}]" if d > 1 else "[single-factor runs]"
        out.append(label)
        out.extend(groups[d])
        out.append("")
    path = root / "summary.txt"
    path.write_text("\n".join(out), encoding="ascii")
    return path
