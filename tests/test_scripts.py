"""The scripts in scripts/ run to exit 0 on small inputs.  They import
private names of latred (`_kz_walk`, `_kz_claim`), so a refactor that
renames one breaks them; each run here takes about a second."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, arg",
    [
        ("gap_profile.py", "2"),
        ("minkowski_vs_minima.py", "3"),
        ("run_42_scan.py", "1"),
        # the serial scan against two workers, each handed the scan's tables
        ("run_42_scan.py", "2"),
    ],
)
def test_script_exits_0(script, arg):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), arg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr
