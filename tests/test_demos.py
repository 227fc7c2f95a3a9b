"""Every demo script runs to completion against the package in ``src`` and
prints the same bytes.

Each ``demos/*.py`` runs in its own interpreter with ``PYTHONPATH=src``, so
a renamed or removed public name fails here rather than in a reader's shell.
Its stdout is pinned by sha256: the demos are deterministic, so a change of
any number they print fails here too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_lattice_and_enumeration.py": "7e5979941fcda7026968ae04a17324042e3e97abf25c0628d1f0a801fe4a7c9b",
    "02_parameterize_and_split.py": "cc6b91450862323a7606ffe19b0dc4cd903ef7313ae4d99e8c729def6827511c",
    "03_fat_points.py": "d7f78cb0eecf190bddbe93b90e3db56cd763caf3b59988b0de6e0cb6706333d7",
    "04_conjecture_scan.py": "ca6fc1b910f4094587af0e225e04d39a605e67b948e20ff8f42b49df6c2eb914",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
