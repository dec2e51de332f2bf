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
    if script == "run_middle_thirds_suite.py":
        args = [*args, "--output", str(tmp_path / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
