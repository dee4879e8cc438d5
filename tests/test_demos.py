"""Smoke test: the demo scripts run to completion."""

import os
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
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
