import argparse
import inspect
import json
import math
import time
from dataclasses import fields

import pytest

import fractalab as fl
from fractalab.cli import _build_parser, _config_from_args
from fractalab.cli import main as cli_main
from fractalab import geometry, runner
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
        with pytest.raises(ValidationError, match="results.json: missing key 'fitted_exponent'"):
            fl.emit_report(tmp_path)

    @pytest.mark.parametrize(
        "results, message",
        [
            ([1, 2], "not a JSON object"),
            (
                {"kind": "energy", "d": 1, "fitted_exponent": "x", "alpha": 0.6, "excess_over_alpha": 0.1},
                "Unknown format code",
            ),
            ({"kind": "distance", "d": "x"}, "invalid literal"),
        ],
        ids=["json-array", "text-exponent", "text-dimension"],
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
        assert str(stale / "results.json") in err and "'fitted_exponent'" in err


class TestCli:
    def test_energy_exit_zero(self, tmp_path, capsys):
        code = cli_main(["energy", "--factor", "3:0,2:6", "--output", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy.csv" in out
        assert (tmp_path / "manifest.json").exists()

    def test_validation_error_exits_two(self, tmp_path, capsys):
        code = cli_main(["energy", "--factor", "3:0,9:6", "--output", str(tmp_path)])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["spherical", "mattila"])
    def test_negative_seed_exits_two_naming_seed(self, tmp_path, capsys, kind):
        code = cli_main([kind, *["--factor", "3:0,2:3"] * 3, "--sweep", "1:2.5:3",
                         "--mc-nodes", "100", "--seed", "-1", "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "validation error: seed: must be >= 0, got -1" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_budget_error_exits_three(self, tmp_path, capsys):
        # ((3**10 + 1) / 2)**2 ~ 8.7e8 folded gap cells, over the default 4e8
        code = cli_main(
            ["distance", "--factor", "3:0,2:10", "--factor", "3:0,2:10", "--output", str(tmp_path)]
        )
        assert code == 3
        assert "budget error" in capsys.readouterr().err

    def test_distance_bins_over_budget_exit_three(self, tmp_path, capsys):
        # 1.36e9 bins at h = 1e-9 (a 10.1 GiB histogram), over the default 4e8
        start = time.perf_counter()
        code = cli_main(
            ["distance", "--factor", "3:0,2:3", "--factor", "3:0,2:3", "--bin-width", "1e-9",
             "--output", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "budget error" in err and "widen the bin width" in err and "Traceback" not in err

    def test_stationary_over_the_circle_cap_exits_three(self, tmp_path, capsys):
        code = cli_main(
            ["stationary", "--gap", "0:1", "--sweep", "1e8:2e8:3", "--output", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "budget error" in err and "lower t" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_bad_config_file_exits_two(self, tmp_path, capsys, content):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        code = cli_main(["thresholds", "--dims", "1/2", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "validation error" in err and "config" in err


# Each config value with a wrong type or a missing key must exit 2 and name
# its field, instead of running another integral or crashing.
BAD_CONFIG_VALUES = [
    ({"mattila_weighted": "no"}, "mattila_weighted"),
    ({"distance_weighted": "no"}, "distance_weighted"),
    ({"gamma0": "0.1"}, "gamma0"),
    ({"interval": 5}, "interval"),
    ({"factors": [{"base": 3}]}, "factors"),
    ({"sweep": {"start": 3, "stop": 9}}, "sweep"),
    ({"bin_width": True}, "bin_width"),
    ({"seed": "abc"}, "seed"),
    # removed options are unknown keys now
    ({"parallelism": 1}, "parallelism"),
    ({"gamma0": 0.1}, "gamma0"),
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

    @pytest.mark.parametrize("argv", [["--help"], *([k, "--help"] for k in fl.EXPERIMENT_KINDS)])
    def test_help_matches_the_full_parser(self, argv, capsys, monkeypatch):
        # main builds only the chosen subcommand's flags
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parse in (cli_main, _build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: fractalab" in texts[0]

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
