"""The scripts in scripts/ run to exit 0 on small inputs, and
gap_profile.py --generic exits 1 on a wrong norm.  They import private
names of latred (`_kz_walk`, `_kz_claim`), so a refactor that renames one
breaks them; each run here takes about a second."""

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


def test_gap_profile_generic_fails_on_a_norm_mismatch(monkeypatch):
    # --generic compares kz_reduce(L_k)'s full norms with the claim's as
    # multisets: 0 as they are, 1 when one basis vector is doubled
    import dataclasses
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gap_profile", ROOT / "scripts" / "gap_profile.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.generic(2) == 0
    kz_reduce = script.kz_reduce

    def doubled(L):
        res = kz_reduce(L)
        first = tuple(2 * a for a in res.basis[0])
        return dataclasses.replace(res, basis=(first,) + res.basis[1:])

    monkeypatch.setattr(script, "kz_reduce", doubled)
    assert script.generic(2) == 1
