"""The experiment scripts run end to end on tiny inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_middle_thirds_suite.py", ["--level", "6"]),
        ("run_angular_split.py", ["--level", "8", "--points", "3"]),
        ("run_threshold_scan.py", ["--steps", "3"]),
    ],
)
def test_script_exits_zero(tmp_path, script, args):
    proc = _run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_middle_thirds_suite_too_shallow_level_exits_two(tmp_path):
    # at level 5 only t = 3, 9 fit under the validity cap 24.3
    proc = _run_script(tmp_path, "run_middle_thirds_suite.py", ["--level", "5"])
    assert proc.returncode == 2, proc.stderr
    assert "validation error" in proc.stderr and "validity cap" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script, args, code, message", [
    ("run_angular_split.py", ["--gamma0", "0"], 2, "--gamma0 must lie in (0, 1/2), got 0.0"),
    ("run_angular_split.py", ["--gamma0", "0.7"], 2, "--gamma0 must lie in (0, 1/2), got 0.7"),
    ("run_angular_split.py", ["--gamma0", "-0.1"], 2, "--gamma0 must lie in (0, 1/2), got -0.1"),
    ("run_angular_split.py", ["--points", "2"], 2, "--points must be >= 3 for a slope fit, got 2"),
    ("run_angular_split.py", ["--cutoff-scale", "0.5"], 2, "--cutoff-scale must be > 1"),
    ("run_angular_split.py", ["--digits", "0,5"], 2, "digits must lie in [0, base)"),
    ("run_angular_split.py", ["--level", "3"], 2, "need 3 usable frequencies"),
    ("run_angular_split.py", ["--level", "30"], 3, "factor 3:0,2:30 has 2**30 atoms"),
    ("run_threshold_scan.py", ["--c-nu", "0.5"], 2, "C_nu must be >= 1"),
    ("run_threshold_scan.py", ["--steps", "-3"], 2, "--steps must be >= 1, got -3"),
], ids=["gamma0-zero", "gamma0-high", "gamma0-negative", "points", "cutoff-scale", "digit",
        "shallow", "atoms", "c-nu", "steps"])
def test_refused_input_exits_two_or_three(tmp_path, script, args, code, message):
    # the fractalab CLI's exit codes and stderr prefixes, with no traceback
    # and nothing printed before the refusal
    proc = _run_script(tmp_path, script, args)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith({2: "validation error: ", 3: "budget error: "}[code])
    assert message in proc.stderr and "Traceback" not in proc.stderr


def _run_script(tmp_path, script, args):
    if script == "run_middle_thirds_suite.py":
        args = [*args, "--output", str(tmp_path / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
