"""Smoke test: the demo scripts and the README's library quick start run to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import popref

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(popref.__file__).resolve().parents[1]


@pytest.mark.parametrize("command", [
    "01_synthetic_world.py",
    "02_reference_act_datasets.py --n-train 300",
    "03_pointing_network_anatomy.py",
    "04_training_pop.py",
    "05_pipeline_competitor.py",
    "06_baseline_suite.py",
])
def test_demo_runs(tmp_path, command):
    script, *args = command.split()
    proc = _run_python(tmp_path, str(ROOT / "demos" / script), *args)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = _run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "Pointing" in proc.stdout


def _run_python(cwd, *args):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300, check=False)
