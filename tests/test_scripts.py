"""The desk scripts under scripts/ run end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )


def test_scripts_run_and_refuse_without_traceback():
    # both Gabidulin witnesses, verified, against the exhaustive maximum
    proc = run_script("list_size_experiment.py")
    assert proc.returncode == 0, proc.stderr
    assert "verified: True" in proc.stdout
    # the coset guard refuses every radius of Gab[6,1]/F_64 (2^30 cosets): a row says so
    proc = run_script("sweep_bounds.py", "--q", "2", "--m", "6", "--n", "6", "--d", "6", "--oracle")
    assert proc.returncode == 0, proc.stderr
    assert "refused" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
    # the coset counts by the MacWilliams transform answer Gab[6,3]/F_64 at tau = 3
    proc = run_script("sweep_bounds.py", "--q", "2", "--m", "6", "--n", "6", "--d", "4", "--oracle")
    assert proc.returncode == 0, proc.stderr
    row = next(line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["3"])
    assert row[-1] == "1395"
    assert "Traceback" not in proc.stdout + proc.stderr
