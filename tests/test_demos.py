"""Smoke test of the quick demos: each runs as its own process and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the demos that finish within a couple of seconds on 2 cores
QUICK = [
    "01_function_spaces.py",
    "02_convection_structure.py",
    "03_noise_certification.py",
    "04_stochastic_simulation.py",
    "06_tightness_diagnostics.py",
    "07_nested_spaces.py",
    "08_2d_uniqueness.py",
]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
