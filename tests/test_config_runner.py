import argparse
import inspect
import json
import math
import re
import time
import typing
from dataclasses import fields
from pathlib import Path

import pytest

import fractalab as fl
from conftest import in_capped_child
from fractalab.cli import _build_parser, _config_from_args
from fractalab.cli import main as cli_main
from fractalab import config, geometry, runner
from fractalab.errors import ValidationError


def mt_config(kind, out, level=5, **extra):
    payload = {
        "kind": kind,
        "output_dir": str(out),
        "factors": [{"base": 3, "digits": [0, 2], "level": level}] * 2,
        "seed": 7,
    }
    payload.update(extra)
    return fl.ExperimentConfig.from_dict(payload)


class TestConfig:
    def test_round_trip_is_idempotent(self, tmp_path):
        config = mt_config("spherical", tmp_path, weight="none", dz_k=1.5)
        text = config.to_json()
        again = fl.ExperimentConfig.from_json(text)
        assert again.to_json() == text
        assert again.to_dict() == config.to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown config fields"):
            fl.ExperimentConfig.from_dict({"kind": "energy", "turbo": True})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            fl.ExperimentConfig.from_dict({"kind": "warp"})

    def test_sweep_needs_three_points(self):
        with pytest.raises(ValidationError, match="3 points"):
            fl.GeometricSweep(1.0, 10.0, 2)

    def test_sweep_order_enforced(self):
        with pytest.raises(ValidationError, match="start"):
            fl.GeometricSweep(10.0, 1.0, 5)

    def test_stationary_requires_gap(self):
        with pytest.raises(ValidationError, match="gaps"):
            fl.ExperimentConfig.from_dict({"kind": "stationary"})

    def test_product_kind_requires_two_factors(self):
        with pytest.raises(ValidationError, match="factors"):
            fl.ExperimentConfig.from_dict(
                {"kind": "spherical", "factors": [{"base": 3, "digits": [0, 2], "level": 4}]}
            )

    def test_factor_spec_parsing(self, tmp_path, capsys):
        args = _build_parser().parse_args(["cantor", "--factor", "3:0,2:8"])
        (spec,) = _config_from_args(args).factors
        assert (spec.base, spec.digits, spec.level) == (3, (0, 2), 8)
        for text in ("3:8", "3:0,x:8"):
            code = cli_main(["cantor", "--factor", text, "--output", str(tmp_path / "out")])
            assert code == 2
            assert "validation error: --factor" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunner:
    def test_energy_experiment_artifacts(self, tmp_path):
        config = mt_config("energy", tmp_path / "energy", level=7)
        files = fl.run_experiment(config)
        assert set(files) == {"energy.csv", "results.json", "manifest.json"}
        csv = (tmp_path / "energy" / "energy.csv").read_text()
        assert csv.splitlines()[0] == "r,E,log_r,log_E"
        assert "# fitted_exponent=" in csv
        results = json.loads((tmp_path / "energy" / "results.json").read_text())
        assert results["fitted_exponent"] >= results["alpha"] - 0.05

    def test_thresholds_d3_contains_nine_fifths(self, tmp_path):
        config = fl.ExperimentConfig.from_dict(
            {"kind": "thresholds", "output_dir": str(tmp_path), "dims": ["0.7", "0.7", "0.7"]}
        )
        fl.run_experiment(config)
        text = (tmp_path / "thresholds.txt").read_text()
        assert "sum_threshold=9/5" in text

    def test_determinism_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        config = mt_config("spherical", out, level=6)
        fl.run_experiment(config)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        fl.run_experiment(mt_config("spherical", out, level=6))
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_manifest_hashes_every_artifact(self, tmp_path):
        import hashlib

        config = mt_config("distance", tmp_path, level=3, bin_width=0.05)
        files = fl.run_experiment(config)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["versions"]["fractalab"] == fl.__version__
        for name, digest in manifest["files"].items():
            assert digest == hashlib.sha256(files[name].read_bytes()).hexdigest()

    def test_cantor_run_emits_loadable_measures(self, tmp_path):
        config = mt_config("cantor", tmp_path, level=4)
        fl.run_experiment(config)
        nu = fl.load_grid_measure(tmp_path / "factor_0.measure")
        assert nu.atom_count == 16

    def test_stationary_run_emits_one_csv_per_gap(self, tmp_path):
        config = fl.ExperimentConfig.from_dict(
            {
                "kind": "stationary",
                "output_dir": str(tmp_path),
                "gaps": [[0.0, 1.0], [0.6, 0.8]],
                "sweep": {"start": 100.0, "stop": 1000.0, "count": 4},
            }
        )
        fl.run_experiment(config)
        for k in (0, 1):
            text = (tmp_path / f"stationary_gap{k}.csv").read_text()
            assert text.splitlines()[0] == "t,exact_re,exact_im,main,resid"
            assert "# residual_slope=" in text

    def test_full_report_produces_summary(self, tmp_path):
        config = mt_config("full-report", tmp_path, level=6)
        files = fl.run_experiment(config)
        summary = files["summary.txt"].read_text()
        for kind in ("cantor", "regularity", "energy", "solid", "spherical", "thresholds"):
            assert any(line.startswith(f"{kind} [{kind}]") for line in summary.splitlines()), kind
        assert "[d = 2]" in summary

    def test_d3_spherical_run_needs_no_seed(self, tmp_path):
        # d >= 3 takes the exact sphere rule: no route reads the seed
        spec = fl.CantorSpec(3, (0, 2), 4)  # validity cap 8.1
        config = fl.ExperimentConfig(
            kind="spherical", output_dir=str(tmp_path), seed=None, factors=[spec] * 3,
            sweep=fl.GeometricSweep(1.0, 8.0, 3),
        )
        fl.run_experiment(config)
        lines = (tmp_path / "spherical.csv").read_text().splitlines()
        assert lines[0] == "t,sigma,weight,quadrature_nodes"
        mu = fl.build_product([fl.build_cantor(spec)] * 3, [0.5] * 3)
        for line, want_t in zip(lines[1:4], (1.0, math.sqrt(8.0), 8.0)):
            t = float(line.split(",")[0])
            assert t == pytest.approx(want_t, rel=1e-15)
            value, nodes = fl.spherical_average_detailed(mu, t, "sin_theta")
            assert line == f"{t!r},{value!r},sin_theta,{nodes}"
        assert "quadrature" not in json.loads((tmp_path / "results.json").read_text())

    def test_each_kind_has_one_runner_and_summary(self):
        assert set(runner._KINDS) | {"full-report"} == set(fl.EXPERIMENT_KINDS)

    def test_every_config_field_is_read_by_the_runner(self):
        # mc_nodes sized the Monte Carlo sphere average that the exact rule
        # replaced; it stays an accepted, validated field because saved
        # configs pass it, and nothing reads it
        source = inspect.getsource(runner)
        unread = [f.name for f in fields(fl.ExperimentConfig) if f"config.{f.name}" not in source]
        assert unread == ["mc_nodes"]

    def test_emit_report_requires_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            fl.emit_report(tmp_path)

    def test_emit_report_rejects_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ValidationError, match="corrupt"):
            fl.emit_report(tmp_path)

    def test_emit_report_groups_dimensions(self, tmp_path):
        fl.run_experiment(mt_config("distance", tmp_path / "a", level=3, bin_width=0.05))
        config3 = fl.ExperimentConfig.from_dict(
            {
                "kind": "mattila",
                "output_dir": str(tmp_path / "b"),
                "factors": [{"base": 2, "digits": [0], "level": 0}] * 3,
                "truncation": 3.0,
                "seed": 1,
                "mc_nodes": 500,
            }
        )
        fl.run_experiment(config3)
        summary = fl.emit_report(tmp_path).read_text()
        assert "[d = 2]" in summary and "[d = 3]" in summary

    @pytest.mark.parametrize("weight", ["none", "sin_theta"])
    def test_mattila_weight_picks_the_weighting(self, tmp_path, weight):
        factors = ["--factor", "3:0,2:4"] * 2
        argv = ["mattila", *factors, "--truncation", "8", "--weight", weight]
        assert cli_main([*argv, "--output", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "results.json").read_text())
        mu = fl.build_product([fl.build_cantor(fl.CantorSpec(3, (0, 2), 4))] * 2, [0.5] * 2)
        est = fl.mattila_truncated(mu, 8.0, weight == "sin_theta")
        assert results["weighted"] is (weight == "sin_theta")
        assert results["value"] == est.value
        csv = (tmp_path / "mattila.csv").read_text()
        assert f"# weighted={str(est.weighted).lower()}" in csv

    def test_mattila_run_records_its_t_nodes(self, tmp_path):
        # [1, 2], [2, 4], [4, 8] at type 4 pi hypot(80/81, 80/81) ~ 17.55:
        # 1 + 2 + 3 panels of 24 nodes
        argv = ["mattila", *["--factor", "3:0,2:4"] * 2, "--truncation", "8"]
        assert cli_main([*argv, "--output", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert results["t_nodes"] == 6 * 24
        assert "t_grid_converged" not in results
        rows = (tmp_path / "mattila.csv").read_text().splitlines()
        assert sum(not r.startswith("#") for r in rows) == 1 + results["t_nodes"]  # and a header
        summary = fl.emit_report(tmp_path).read_text()
        assert "mattila [" in summary and "t grid" not in summary

    def test_mattila_over_the_panel_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        # ~4.4e6 Gauss-Legendre nodes on [T/4, T/2], refused before any sigma
        calls = []
        monkeypatch.setattr(geometry, "_sigma_many", lambda *args: calls.append(args))
        argv = ["mattila", *["--factor", "3:0,2:15"] * 2, "--truncation", "1e6"]
        code = cli_main([*argv, "--output", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "budget error: Mattila t integral needs" in err and "Traceback" not in err
        assert calls == []

    def test_mattila_default_truncation_under_a_low_cap_exits_two(self, tmp_path, capsys):
        # level 1 caps t at 0.1 * 3 = 0.3, so the default min(100, cap) is no truncation
        code = cli_main(["mattila", *["--factor", "3:0,2:1"] * 2, "--output", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "validity cap 0.3 " in err and "deepen the level or pass --truncation" in err
        assert "got 0.3" not in err and "Traceback" not in err

    def test_emit_report_rejects_unknown_kind(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"config": {}, "files": {}, "seed": 1}))
        (tmp_path / "results.json").write_text(json.dumps({"kind": "warp", "d": 2}))
        with pytest.raises(ValidationError, match="'warp'.*results.json"):
            fl.emit_report(tmp_path)

    def test_emit_report_rejects_incomplete_results(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"config": {}, "files": {}, "seed": 1}))
        (tmp_path / "results.json").write_text(json.dumps({"kind": "energy", "d": 1}))
        with pytest.raises(ValidationError, match="results.json: missing key 'summary'"):
            fl.emit_report(tmp_path)

    @pytest.mark.parametrize(
        "results, message",
        [
            ([1, 2], "not a JSON object"),
            (
                {"kind": "energy", "d": 1, "fitted_exponent": "x", "alpha": 0.6, "excess_over_alpha": 0.1},
                "missing key 'summary'",
            ),
            ({"kind": "distance", "d": "x"}, "'d' must be an int, got 'x'"),
            ({"kind": "thresholds", "d": 2.9, "applicable": "abc", "summary": []}, "'d' must be an int, got 2.9"),
            ({"kind": "cantor", "d": True, "summary": [": base 2"]}, "'d' must be an int, got True"),
            ({"kind": "energy", "d": 1, "summary": "abc"}, "'summary' must be a list of strings"),
            ({"kind": "energy", "d": 1, "summary": [": x", 2]}, "'summary' must be a list of strings"),
        ],
        ids=["json-array", "text-exponent", "text-dimension", "float-dimension", "bool-dimension",
             "text-summary", "number-in-summary"],
    )
    def test_emit_report_rejects_malformed_results(self, tmp_path, capsys, results, message):
        (tmp_path / "manifest.json").write_text(json.dumps({"config": {}, "files": {}, "seed": 1}))
        (tmp_path / "results.json").write_text(json.dumps(results))
        with pytest.raises(ValidationError, match=message) as excinfo:
            fl.emit_report(tmp_path)
        assert str(tmp_path / "results.json") in str(excinfo.value)
        code = cli_main(
            ["full-report", "--factor", "3:0,2:6", "--factor", "3:0,2:6", "--output", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "Traceback" not in err

    def test_full_report_over_incomplete_results_exits_two(self, tmp_path, capsys):
        stale = tmp_path / "stale"
        stale.mkdir()
        (stale / "manifest.json").write_text(json.dumps({"config": {}, "files": {}, "seed": 1}))
        (stale / "results.json").write_text(json.dumps({"kind": "energy", "d": 1}))
        code = cli_main(
            ["full-report", "--factor", "3:0,2:6", "--factor", "3:0,2:6", "--output", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "Traceback" not in err
        assert str(stale / "results.json") in err and "'summary'" in err

    def test_summary_lines_of_every_kind(self, tmp_path, capsys):
        # one report over small runs of every kind but full-report, byte for
        # byte the summary.txt the report gave when it rebuilt each line from
        # results.json
        for name, argv in SUMMARY_RUNS.items():
            assert cli_main([*argv, "--output", str(tmp_path / name)]) == 0, name
        assert fl.emit_report(tmp_path).read_text() == SUMMARY_TEXT


SUMMARY_RUNS = {
    "cantor": ["cantor", "--factor", "3:0,2:4", "--factor", "2:0,1:3"],
    "regularity": ["regularity", "--factor", "3:0,2:6", "--factor", "4:0,3:5"],
    "energy": ["energy", "--factor", "3:0,2:6"],
    "energy_dz": ["energy", "--factor", "3:0,2:6", "--dz-c-nu", "2", "--dz-k", "0.5"],
    "spherical": ["spherical", *["--factor", "3:0,2:6"] * 2],
    "spherical3": ["spherical", *["--factor", "3:0,2:4"] * 3, "--sweep", "1:8:3"],
    "angular": ["angular", *["--factor", "3:0,2:9"] * 2, "--gamma0", "0.1"],
    # --alpha 0.99 sets the bound to -0.991, past the measured -0.797
    "angular_slow": ["angular", *["--factor", "3:0,2:9"] * 2, "--gamma0", "0.1", "--alpha", "0.99"],
    "solid": ["solid", "--factor", "3:0,2:6"],
    "stationary": ["stationary", "--gap", "0:1", "--gap", "0.6:0.8", "--sweep", "100:1000:4"],
    "stationary_na": ["stationary", "--gap", "0:1", "--sweep", "1:4:3"],
    "mattila": ["mattila", *["--factor", "3:0,2:4"] * 2, "--truncation", "8"],
    "mattila3": ["mattila", *["--factor", "2:0:0"] * 3, "--truncation", "3", "--weight", "none"],
    "distance": ["distance", *["--factor", "3:0,2:3"] * 2, "--bin-width", "0.05", "--weighted-distance"],
    "thresholds": ["thresholds", "--dims", "3/4,2/3", "--alpha", "0.6", "--dz-c-nu", "1"],
    "thresholds3": ["thresholds", "--dims", "0.5,0.5,0.5"],
}

SUMMARY_TEXT = """\
experiment summary
==================

[single-factor runs]
energy [energy]: E(r) slope 0.890 vs alpha 0.631 (margin +0.260; the trivial bound needs slope >= alpha, and the Dyatlov-Zahl bound for regular sets predicts a strictly positive margin)
energy [energy_dz]: E(r) slope 0.890 vs alpha 0.631 (margin +0.260; the trivial bound needs slope >= alpha, and the Dyatlov-Zahl bound for regular sets predicts a strictly positive margin); closed-form beta = 0.0341 at K=0.5, C_nu=2.0
solid [solid]: decay slope -0.628, target <= -0.531 (solid average of a ball-regular measure decays like t^-alpha)

[d = 2]
angular [angular]: gamma0 0.1, near-zero slope -0.797 vs bound -0.668 (no slower); max middle/CS 3.21e-05 (majorant holds)
angular [angular_slow]: gamma0 0.1, near-zero slope -0.797 vs bound -0.991 (SLOWER than the bound); max middle/CS 3.21e-05 (majorant holds)
cantor [cantor]: base 3 level 4 (16 atoms, dim 0.631), base 2 level 3 (8 atoms, dim 1.000)
distance [distance]: total mass 0.605550 (diagonal 0.000000), weighted=True
mattila [mattila]: value 0.157201 at T=8.0, slope -2.970 (integrand slope < -1: truncations converging); a finite weighted integral implies a positive-measure distance set
regularity [regularity] factor 0: C_nu 1.000 vs cap 4.0 -> regular at alpha 0.631 (two-sided ball-mass bounds); frostman slope 0.631
regularity [regularity] factor 1: C_nu 1.000 vs cap 4.0 -> regular at alpha 0.500 (two-sided ball-mass bounds); frostman slope 0.500
spherical [spherical]: weight sin_theta, decay slope -0.764 (weighted circular average is dominated by twice the solid average of the larger-dimension factor)
stationary [stationary] gap (0.0, 1.0): residual slope -1.641 (main term 2(t|g|)^-1/2 cos(2pi(t|g|-1/8))|sin theta_g|)
stationary [stationary] gap (0.6, 0.8): residual slope -1.673 (main term 2(t|g|)^-1/2 cos(2pi(t|g|-1/8))|sin theta_g|)
stationary [stationary_na] gap (0.0, 1.0): residual slope n/a (main term 2(t|g|)^-1/2 cos(2pi(t|g|-1/8))|sin theta_g|)
thresholds [thresholds]: sum s_j margin +0.0833 over d^2/(2d-1) = 4/3; mixed margin s_A+s_B+max-2 = +0.1667; regular-route delta = 0.00103; applicable: two_factor_mixed, product_sum

[d = 3]
mattila [mattila3]: value 1368.59 at T=3.0, slope 2.000 (integrand slope >= -1: no convergence signal at this truncation); a finite weighted integral implies a positive-measure distance set
spherical [spherical3]: weight sin_theta, decay slope -2.406 (weighted circular average is dominated by twice the solid average of the larger-dimension factor)
thresholds [thresholds3]: sum s_j margin -0.3000 over d^2/(2d-1) = 9/5; applicable: none
"""


def timed_cli(argv):
    """The CLI's exit code on argv and the seconds cli.main took."""
    start = time.perf_counter()
    code = cli_main(argv)
    return code, time.perf_counter() - start


class TestCli:
    def test_energy_exit_zero(self, tmp_path, capsys):
        code = cli_main(["energy", "--factor", "3:0,2:6", "--output", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy.csv" in out
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["spherical", "mattila"])
    def test_negative_seed_exits_two_naming_seed(self, tmp_path, capsys, kind):
        code = cli_main([kind, *["--factor", "3:0,2:3"] * 3, "--sweep", "1:2.5:3",
                         "--mc-nodes", "100", "--seed", "-1", "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "validation error: seed: must be >= 0, got -1" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["energy", "--factor", "3:0,9:6"], 2, "factors[0]: digits must lie in [0, base)"),
        # ((3**10 + 1) / 2)**2 ~ 8.7e8 folded gap cells, over the default 4e8
        (["distance", *["--factor", "3:0,2:10"] * 2], 3, "gap pmfs give 8.72e+08 cells"),
        # 1.36e9 bins at h = 1e-9 (a 10.1 GiB histogram), over the default 4e8
        (["distance", *["--factor", "3:0,2:3"] * 2, "--bin-width", "1e-9"], 3, "widen --bin-width"),
        (["stationary", "--gap", "0:1", "--sweep", "1e8:2e8:3"], 3, "past its 2**24 budget; lower t"),
        (["stationary", "--gap", "0:0"], 2, "gaps[0]: must be nonzero"),
        (["energy", "--factor", "3:0:700", "--sweep", "0.1:0.4:3"], 2,
         "factors: the grid step 3**-700 underflows to 0"),
        (["solid", "--factor", "3:0,2:6", "--interval=-1e308:1e308"], 3,
         "solid average needs inf Gauss-Legendre nodes, past its 2**22 budget; lower t or narrow --interval"),
        (["cantor", "--factor", "2:0,1:34"], 3, "factor 2:0,1:34 has 2**34 atoms"),
        # its largest index, 1.1e19, would wrap int64 into negative atoms
        (["cantor", "--factor", "10:0,1:20"], 3,
         "factor 10:0,1:20 has indices up to 1*(10**20 - 1)/9, past its 2**63 budget; lower the level"),
        # 1e9 t values would be an 8 GB geomspace before any sigma
        (["spherical", *["--factor", "3:0,2:3"] * 2, "--sweep", "1:2:1000000000"], 3,
         "sweep of 1000000000 points, past its 2**21 budget; lower the --sweep count"),
        # 88,896 t nodes of 3.0e9 circle samples in all, each t under 2**24
        (["mattila", *["--factor", "3:0,2:12"] * 2, "--truncation", "5000"], 3,
         "needs 3e+09 circle samples, past its 2**27 budget; lower --truncation"),
        (["mattila", *["--factor", "3:0,2:3"] * 5, "--truncation", "1.5"], 3,
         "nodes in d = 5, past its 2**24 budget; lower --truncation"),
        # beta = alpha exp(-exp(inner)) at inner = 3.2e5 is 0, where exp(inner) overflows
        (["thresholds", "--dims", "1,1", "--alpha", "0.99999999999", "--dz-c-nu", "1"], 2,
         "beta must be positive, got 0.0"),
        (["distance", *["--factor", "3:0,2:4"] * 2, "--bin-width", "0.05", "--widths", "0.01"], 2,
         "width 0.01 is below the native bin width 0.05"),
        (["stationary", "--gap", "0:1", "--gap", "0:1e7", "--sweep", "1:1000:3"], 3,
         "a circle sum needs 6.28359e+07 samples, past its 2**24 budget; lower t"),
        # the full factor's dimension 1 is no alpha in (0, 1)
        (["energy", "--factor", "2:0,1:5", "--dz-c-nu", "1"], 2, "alpha must lie in (0, 1), got 1.0"),
        *((["angular", *["--factor", "3:0,2:8"] * 2, *gamma0], 2, message) for gamma0, message in (
            (["--gamma0", "0"], "gamma0: must lie in (0, 1/2), got 0.0"),
            (["--gamma0", "0.7"], "gamma0: must lie in (0, 1/2), got 0.7"),
            (["--gamma0=-0.1"], "gamma0: must lie in (0, 1/2), got -0.1"),
            ([], "gamma0: angular experiment needs --gamma0"),
            # the cut (4/pi)^10000 is past the floats; 3, 9 and 27 fit under the cap 656.1
            (["--gamma0", "1e-4"], "fit above the angular cut inf (raise --gamma0) and under the "
             "validity cap 656.1"),
            (["--gamma0", "0.1", "--sweep", "2:20:3"], "need t > 11.2 for gamma0 = 0.1"),
            (["--gamma0", "0.1", "--factor", "3:0,2:8"], "angular decomposition is defined for d = 2"),
        )),
        (["angular", "--factor", "3:0,5:8", "--factor", "3:0,2:8", "--gamma0", "0.1"], 2,
         "factors[0]: digits must lie in [0, base)"),
        (["angular", *["--factor", "3:0,2:3"] * 2, "--gamma0", "0.1"], 2,
         "fewer than 3 power-of-base frequencies fit under the validity cap 2.7"),
        (["angular", *["--factor", "3:0,2:30"] * 2, "--gamma0", "0.1"], 3,
         "factor 3:0,2:30 has 2**30 atoms"),
        # point masses have no cap: the ladder stops where the powers overflow to inf
        (["angular", *["--factor", "2:0:0"] * 2, "--gamma0", "1e-4"], 2,
         "fit above the angular cut inf (raise --gamma0) and under the validity cap inf"),
        (["solid", "--factor", "3:0,2:6", "--alpha=-3"], 2, "alpha: must lie in (0, 1], got -3.0"),
        # C_nu = max(C_upper, 1/C_lower) >= 1, so no run passes a cap below 1
        (["regularity", "--factor", "3:0,2:6", "--cap=-1"], 2, "regularity_cap: must be >= 1, got -1.0"),
    ], ids=["digit", "gap-cells", "bins", "circle-samples", "zero-gap", "grid-step-underflow",
            "infinite-interval", "atoms", "index", "sweep", "sigma-work", "sphere-rule-d5",
            "beta-underflow", "coverage-width", "second-gap", "energy-alpha-one",
            "angular-gamma0-zero", "angular-gamma0-high", "angular-gamma0-negative",
            "angular-gamma0-missing", "angular-cut-overflow", "angular-sweep-under-cut",
            "angular-three-factors", "angular-digit", "angular-shallow", "angular-atoms",
            "angular-point-mass-cut", "solid-alpha-negative", "regularity-cap-below-one"])
    def test_refusals_exit_two_or_three(self, tmp_path, capsys, argv, code, message):
        # each refused before the work it bounds, with no traceback and no
        # file written; a budget refusal runs in a child under a 512 MiB
        # address-space cap, where a lost guard fails with MemoryError
        # instead of being OOM-killed
        argv = [*argv, "--output", str(tmp_path / "out")]
        if code == 3:
            (got, seconds), err = in_capped_child(timed_cli, argv)
        else:
            (got, seconds), err = timed_cli(argv), capsys.readouterr().err
        assert got == code and seconds < 1.0
        assert err.startswith({2: "validation error: ", 3: "budget error: "}[code])
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_energy_past_the_beta_underflow_reports_zero(self, tmp_path, capsys):
        # exp(inner) would overflow at inner = 3.2e5; beta is 0.0 long before
        argv = ["energy", "--factor", "3:0,2:6", "--alpha", "0.99999999999", "--dz-c-nu", "1"]
        assert cli_main([*argv, "--output", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert results["dz_beta"] == 0.0
        assert results["summary"][0].endswith("; closed-form beta = 0 at K=1.0, C_nu=1.0")

    def test_distance_level_eight_fits_the_budget(self, tmp_path):
        # ((3**8 + 1) / 2)**2 ~ 1.1e7 gap cells; the 4.3e9 atom pairs are never formed
        code = cli_main(
            ["distance", "--factor", "3:0,2:8", "--factor", "3:0,2:8", "--output", str(tmp_path)]
        )
        assert code == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert abs(results["total_mass"] - 1.0) <= 1e-12

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "factors": [{"base": 3, "digits": [0, 2], "level": 6}],
                    "output_dir": str(tmp_path / "ignored"),
                }
            )
        )
        out = tmp_path / "actual"
        code = cli_main(["solid", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert (out / "solid.csv").exists()

    def test_thresholds_subcommand(self, tmp_path):
        code = cli_main(["thresholds", "--dims", "2/3,2/3", "--output", str(tmp_path)])
        assert code == 0
        assert "sum_threshold=4/3" in (tmp_path / "thresholds.txt").read_text()

    def test_thresholds_from_factors_builds_no_atoms(self, tmp_path):
        # 2**25 atoms a factor, past the atom budget: the kind reads log |D| / log b
        argv = ["thresholds", "--factor", "2:0,1:25", "--factor", "2:0,1:25", "--output", str(tmp_path)]
        assert cli_main(argv) == 0
        lines = (tmp_path / "thresholds.txt").read_text().splitlines()
        assert "dims=1,1" in lines and "product_sum_margin=2/3" in lines

    @pytest.mark.parametrize("kind", ["energy", "solid"])
    def test_single_factor_kind_builds_only_its_factor(self, tmp_path, kind):
        # the 2**30-atom second factor is past the atom budget and read by neither kind
        for name, extra in (("one", []), ("two", ["--factor", "2:0,1:30"])):
            assert cli_main([kind, "--factor", "3:0,2:6", *extra, "--output", str(tmp_path / name)]) == 0
        csv = f"{kind}.csv"
        assert (tmp_path / "two" / csv).read_bytes() == (tmp_path / "one" / csv).read_bytes()

    def test_full_report_too_shallow_exits_two(self, tmp_path, capsys):
        # at level 5 only t = 3, 9 fit under the validity cap 24.3; the
        # sub-runs before the refused one stay, but no summary is written
        out = tmp_path / "out"
        code = cli_main(["full-report", *["--factor", "3:0,2:5"] * 2, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("validation error: ") and "validity cap" in err
        assert "Traceback" not in err and not (out / "summary.txt").exists()

    def test_a_value_starting_with_a_dash_is_written_flag_equals(self, capsys):
        args = _build_parser().parse_args(["stationary", "--gap=-1:0.5"])
        assert _config_from_args(args).gaps == [(-1.0, 0.5)]
        for argv in (["--gap", "-1:1"], ["--interval", "-1:1"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(["stationary", *argv])
            assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_bad_config_file_exits_two(self, tmp_path, capsys, content):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        code = cli_main(["thresholds", "--dims", "1/2", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "validation error" in err and "config" in err


# criterion 8's products, each run at three cuts
ANGULAR_SPECS = [fl.CantorSpec(3, (0, 2), 10), fl.CantorSpec(4, (0, 3), 9), fl.CantorSpec(5, (0, 2), 8)]


def _spec_text(spec):
    return f"{spec.base}:{','.join(map(str, spec.digits))}:{spec.level}"


def _angular_csv(path):
    """(rows of floats, # key=value floats) of an angular.csv."""
    lines = path.read_text().splitlines()
    assert lines[0] == "t,eps,near_zero,middle,near_half_pi,cs_bound"
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    meta = dict(ln[2:].split("=") for ln in lines if ln.startswith("# "))
    return rows, {key: float(value) for key, value in meta.items()}


class TestAngularKind:
    @pytest.mark.parametrize("spec", ANGULAR_SPECS, ids=_spec_text)
    def test_rows_are_the_library_values(self, tmp_path, spec):
        nu = fl.build_cantor(spec)
        mu = fl.build_product([nu, nu], [spec.dimension] * 2)
        cap = fl.validity_cap(mu)
        for gamma0 in (0.05, 0.1, 0.2):
            out = tmp_path / str(gamma0)
            assert cli_main(["angular", *["--factor", _spec_text(spec)] * 2, "--gamma0", str(gamma0),
                             "--output", str(out)]) == 0
            rows, meta = _angular_csv(out / "angular.csv")
            ts = [row[0] for row in rows]
            # the powers of the base above the cut and under the cap, at most 8
            powers = [float(spec.base**k) for k in range(1, 40) if spec.base**k <= cap]
            assert ts == [t for t in powers if t > (4.0 / math.pi) ** (1.0 / gamma0)][:8]
            decs = [fl.angular_decomposition(mu, t, gamma0, fl.CutoffFunction("fejer", 2.0)) for t in ts]
            for row, dec in zip(rows, decs):
                want = [dec.t, dec.eps, dec.near_zero, dec.middle, dec.near_half_pi, dec.cs_bound]
                assert [x.hex() for x in row] == [x.hex() for x in want]
            fit = fl.loglog_fit(ts, [dec.near_zero for dec in decs])
            bound = -(gamma0 * (1.0 - spec.dimension) + spec.dimension)
            assert meta == {"near_zero_slope": fit.slope, "slope_stderr": fit.stderr, "bound_exponent": bound}
            results = json.loads((out / "results.json").read_text())
            assert results["max_middle_over_cs"] == max(dec.middle / dec.cs_bound for dec in decs)
            assert (results["gamma0"], results["alpha"], results["cutoff_scale"]) == (gamma0, spec.dimension, 2.0)
            assert results["near_zero_slope"] <= results["bound_exponent"]
            assert results["max_middle_over_cs"] <= 1.0

    def test_three_runs_are_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        argv = ["angular", *["--factor", "3:0,2:9"] * 2, "--gamma0", "0.1", "--output", str(out)]
        runs = []
        for _ in range(3):
            assert cli_main(argv) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] == runs[1] == runs[2]
        assert sorted(runs[0]) == ["angular.csv", "manifest.json", "results.json"]


def test_readme_usage_block_names_every_kind_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^fractalab \{([^}]*)\} \[options\]$", section, re.MULTILINE)
    assert re.split(r",\s*", block) == list(fl.EXPERIMENT_KINDS)


# Each config value with a wrong type or a missing key must exit 2 and name
# its field, instead of running another integral or crashing.
BAD_CONFIG_VALUES = [
    ({"mattila_weighted": "no"}, "mattila_weighted"),
    ({"distance_weighted": "no"}, "distance_weighted"),
    ({"gamma0": "0.1"}, "gamma0"),
    # every kind refuses a set gamma0 outside (0, 1/2), as angular_decomposition does
    ({"gamma0": 0.5}, "gamma0: must lie in (0, 1/2)"),
    # every kind refuses a set alpha outside (0, 1] and a regularity cap below 1
    ({"alpha": 0.0}, "alpha: must lie in (0, 1], got 0.0"),
    ({"alpha": 1.5}, "alpha: must lie in (0, 1], got 1.5"),
    ({"regularity_cap": 0.5}, "regularity_cap: must be >= 1, got 0.5"),
    ({"interval": 5}, "interval"),
    ({"factors": [{"base": 3}]}, "factors"),
    ({"sweep": {"start": 3, "stop": 9}}, "sweep"),
    ({"bin_width": True}, "bin_width"),
    ({"seed": "abc"}, "seed"),
    # removed options are unknown keys now
    ({"parallelism": 1}, "parallelism"),
    ({"cutoff_scale": 2.0}, "cutoff_scale"),
    ({"mattila_weighted": False}, "mattila_weighted"),
    ({"weight": "cos_theta"}, "weight"),
    ({"dims": ["abc", "2/3"]}, "dims"),
    ({"dims": ["abc"]}, "dims"),
]

# Every field flag -> (its arguments, its field, the value it must set with
# its exact type).
FLAG_CASES = {
    "--output": (["--output", "o"], "output_dir", "o"),
    "--seed": (["--seed", "3"], "seed", 3),
    "--factor": (
        ["--factor", "3:0,2:4", "--factor", "2:0:1"],
        "factors",
        [fl.CantorSpec(3, (0, 2), 4), fl.CantorSpec(2, (0,), 1)],
    ),
    "--sweep": (["--sweep", "3:81:5"], "sweep", fl.GeometricSweep(3.0, 81.0, 5)),
    "--weight": (["--weight", "none"], "weight", "none"),
    "--dz-k": (["--dz-k", "2"], "dz_k", 2.0),
    "--dz-c-nu": (["--dz-c-nu", "4"], "dz_c_nu", 4.0),
    "--alpha": (["--alpha", "0.6"], "alpha", 0.6),
    "--gamma0": (["--gamma0", "0.1"], "gamma0", 0.1),
    "--cap": (["--cap", "5"], "regularity_cap", 5.0),
    "--truncation": (["--truncation", "2"], "truncation", 2.0),
    "--bin-width": (["--bin-width", "0.02"], "bin_width", 0.02),
    "--weighted-distance": (["--weighted-distance"], "distance_weighted", True),
    "--widths": (["--widths", "0.1,0.2"], "coverage_widths", [0.1, 0.2]),
    "--interval": (["--interval=-0.5:2"], "interval", (-0.5, 2.0)),
    "--gap": (["--gap", "0:1", "--gap", "1:1"], "gaps", [(0.0, 1.0), (1.0, 1.0)]),
    "--dims": (["--dims", "2/3,0.5"], "dims", ["2/3", "0.5"]),
    "--mc-nodes": (["--mc-nodes", "100"], "mc_nodes", 100),
}


def _plain_types(value):
    if isinstance(value, (list, tuple)):
        return (type(value), [_plain_types(v) for v in value])
    return (type(value), value)


class TestConfigFields:
    @pytest.mark.parametrize("bad, field_name", BAD_CONFIG_VALUES, ids=lambda x: str(x))
    def test_bad_config_value_exits_two_naming_field(self, tmp_path, capsys, bad, field_name):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dims": ["2/3", "2/3"], "output_dir": str(tmp_path), **bad}))
        code = cli_main(["thresholds", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "validation error" in err and field_name in err

    # JSON's NaN and Infinity literals parse as floats; no field takes them
    @pytest.mark.parametrize(
        "kind, text, field_name",
        [
            ("solid", '"interval": [NaN, 1.0]', "interval[0]"),
            (
                "stationary",
                '"gaps": [[0, 1]], "sweep": {"start": 10, "stop": Infinity, "count": 4}',
                "sweep.stop",
            ),
            ("mattila", '"truncation": -Infinity', "truncation"),
            ("thresholds", '"dims": [NaN, "2/3"]', "dims[0]"),
        ],
        ids=["interval", "sweep", "truncation", "dims"],
    )
    def test_non_finite_json_number_exits_two_naming_field(
        self, tmp_path, capsys, kind, text, field_name
    ):
        cfg = tmp_path / "config.json"
        factors = json.dumps([{"base": 3, "digits": [0, 2], "level": 4}] * 2)
        cfg.write_text(f'{{"factors": {factors}, "dims": ["2/3"], {text}}}')
        code = cli_main([kind, "--config", str(cfg), "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"validation error: {field_name}: expected a finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, text, record, message",
        [
            ("--factor", "3:0,9:6", {"factors": [{"base": 3, "digits": [0, 9], "level": 6}]},
             "factors[0]: digits must lie in [0, base)"),
            ("--sweep", "9:3:4", {"sweep": {"start": 9, "stop": 3, "count": 4}},
             "sweep: sweep needs 0 < start < stop"),
        ],
        ids=["factor digit", "sweep order"],
    )
    def test_record_check_names_its_field(self, tmp_path, capsys, flag, text, record, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"factors": [{"base": 3, "digits": [0, 2], "level": 4}], **record}))
        for argv in ([flag, text], ["--config", str(cfg)]):
            code = cli_main(["energy", *argv, "--output", str(tmp_path / "out")])
            assert code == 2
            assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, field_name",
        [(["--interval", "nan:1"], "interval[0]"), (["--sweep", "1:inf:4"], "sweep.stop"),
         (["--dz-k=-inf"], "dz_k"), (["--truncation", "NaN"], "truncation")],
    )
    def test_non_finite_flag_exits_two_naming_field(self, tmp_path, capsys, argv, field_name):
        code = cli_main(["solid", "--factor", "3:0,2:4", *argv, "--output", str(tmp_path / "out")])
        assert code == 2
        assert f"{field_name}: expected a finite number" in capsys.readouterr().err

    def test_every_field_but_kind_has_exactly_one_flag(self):
        config_fields = [f for f in fields(fl.ExperimentConfig) if f.name != "kind"]
        flags = [f.metadata["flag"] for f in config_fields]
        assert sorted(flags) == sorted(FLAG_CASES)
        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for kind in fl.EXPERIMENT_KINDS:
            sub = subparsers.choices[kind]
            options = {s for a in sub._actions for s in a.option_strings}
            assert options - {"-h", "--help"} == set(FLAG_CASES) | {"--config"}

    @pytest.mark.parametrize(
        "argv",
        [["--help"], *([k, "--help"] for k in fl.EXPERIMENT_KINDS),
         ["spherical", "--bogus"], ["nokind"], [], ["spherical", "--weight", "cos"]],
    )
    def test_help_matches_the_full_parser(self, argv, capsys, monkeypatch):
        # main parses with the full parser: its help and error texts are
        # the parser's own, byte for byte
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for parse in (cli_main, _build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert code == (0 if "--help" in argv else 2)
        assert "usage: fractalab" in (out if code == 0 else err)

    @pytest.mark.parametrize("argv, message", [
        (["nokind"], "argument kind: invalid choice: 'nokind'"),
        ([], "the following arguments are required: kind"),
    ])
    def test_a_missing_or_unknown_kind_is_named_kind(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        *([k, "--help"] for k in fl.EXPERIMENT_KINDS), ["--help"], [], ["nokind"],
        ["thresholds", "--dims", "1/2,1/2"],
    ], ids=str)
    def test_main_builds_each_subparser_once(self, argv, tmp_path, monkeypatch):
        # whatever the first call asks for, it builds every kind's subcommand
        # once, and the second call reuses that parser
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        _build_parser.cache_clear()
        for k in range(2):
            if "--dims" in argv:  # a run that writes its artifacts
                assert cli_main([*argv, "--output", str(tmp_path / str(k))]) == 0
            else:
                with pytest.raises(SystemExit):
                    cli_main(argv)
        assert names == list(fl.EXPERIMENT_KINDS)

    @pytest.mark.parametrize("kind", fl.EXPERIMENT_KINDS)
    def test_each_subparser_declares_every_flag_as_its_field_does(self, kind):
        # every kind's subcommand carries each flag with exactly the options
        # its field's metadata gives, so no kind's help or parse can drift
        def described(action):
            return (action.option_strings, action.dest, action.default, action.choices,
                    action.nargs, action.const, action.type, action.metavar, action.help,
                    type(action))

        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        actions = {a.option_strings[0]: a for a in subparsers.choices[kind]._actions}
        for f in fields(fl.ExperimentConfig):
            if "flag" in f.metadata:
                options = dict(f.metadata)
                flag = options.pop("flag")
                want = argparse.ArgumentParser().add_argument(flag, **options)
                assert described(actions[flag]) == described(want), flag

    def test_type_hints_resolve_once_per_record_class(self, tmp_path):
        # the annotations are static: two runs call get_type_hints once per
        # record class (a cache miss each), and the hints are unchanged
        config.type_hints.cache_clear()
        argv = ["solid", "--factor", "3:0,2:4", "--sweep", "1:4:3", "--interval=-1:1"]
        for k in range(2):
            assert cli_main([*argv, "--output", str(tmp_path / str(k))]) == 0
        info = config.type_hints.cache_info()
        assert info.misses == info.currsize == 3 and info.hits > 0
        for cls in (fl.ExperimentConfig, fl.CantorSpec, config.GeometricSweep):
            assert config.type_hints(cls) == typing.get_type_hints(cls)

    @pytest.mark.parametrize("flag", sorted(FLAG_CASES))
    def test_flag_sets_its_field(self, flag):
        argv, field_name, expected = FLAG_CASES[flag]
        args = _build_parser().parse_args(["thresholds", "--dims", "1/2", *argv])
        value = getattr(_config_from_args(args), field_name)
        assert _plain_types(value) == _plain_types(expected)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--unweighted"], "unrecognized arguments: --unweighted"),
            (["--weight", "cos_theta"], "invalid choice: 'cos_theta'"),
        ],
        ids=["--unweighted", "--weight cos_theta"],
    )
    def test_removed_flag_is_refused(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            cli_main(["mattila", *["--factor", "3:0,2:4"] * 2, *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_int_literal_and_float_flag_give_one_config_hash(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dims": ["2/3", "2/3"], "truncation": 2}))
        hashes = []
        for argv in (["--config", str(cfg)], ["--dims", "2/3,2/3", "--truncation", "2"]):
            assert cli_main(["thresholds", "--output", str(out), *argv]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]
