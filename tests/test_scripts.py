"""The experiment scripts run end to end on tiny inputs."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_threshold_scan.py", ["--steps", "3"]),
    ],
)
def test_script_exits_zero(tmp_path, script, args):
    proc = _run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("script, args, code, message", [
    ("run_threshold_scan.py", ["--c-nu", "0.5"], 2, "C_nu must be >= 1"),
    ("run_threshold_scan.py", ["--steps", "-3"], 2, "--steps must be >= 1, got -3"),
], ids=["c-nu", "steps"])
def test_refused_input_exits_two_or_three(tmp_path, script, args, code, message):
    # the fractalab CLI's exit codes and stderr prefixes, with no traceback
    # and nothing printed before the refusal
    proc = _run_script(tmp_path, script, args)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith({2: "validation error: ", 3: "budget error: "}[code])
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_readme_names_exactly_the_scripts():
    # the block under "Experiment scripts" lists every script, and nothing
    # in README.md, src/ or tests/ names one that does not exist
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```bash\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert sorted(re.findall(r"scripts/([\w.-]+\.py)", block)) == scripts
    texts = [ROOT / "README.md", *(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    for path in texts:
        for name in re.findall(r"scripts/([\w.-]+\.py)", path.read_text(encoding="utf-8")):
            assert name in scripts, f"{path.relative_to(ROOT)} names scripts/{name}"


def _run_script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
