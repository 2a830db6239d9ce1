"""Smoke runs of the scripts under scripts/ on small settings."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


def test_grid_refinement_script():
    r = run_script("run_grid_refinement.py", "--steps", "1.0", "0.5")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[1].split() == ["step", "n", "s", "S", "v(0)", "clamps"]
    rows = [line.split() for line in lines[2:]]
    assert [(row[0], row[1]) for row in rows] == [("1.00", "33"), ("0.50", "65")]
    assert all(int(row[5]) > 0 for row in rows)  # the clamp counts are read and printed


def test_instance_a_script():
    r = run_script("run_instance_a.py", "--schedule", "6")
    assert r.returncode == 0, r.stderr
    assert "(s,S) = (1.0, 2.0), K-convex ok = True" in r.stdout
    assert "vanishing-discount sweep (6 factors):" in r.stdout
    assert "policy comparison (common random numbers, average cost):" in r.stdout
