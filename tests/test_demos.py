"""The demo scripts run to completion and print what they always printed.

Each demo is seeded, so its standard output is fixed; the digests pin it.
probability_checks.py is left out: it takes several seconds, too long for
the fast suite.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankfuzz

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "vault_flow": "5860b19c1dba3a36d22cc00732054041734b330b23643f51f41afb5a43160fae",
    "commitment_flow": "b2fa49ec77e4f944fac904a32d4e4becd7df3aa648ca9a870a296f53d11da188",
    "code_roundtrip": "03f31f080e299510593c024fcab29707627301281371bd0e85022ff9c5eb3fe7",
    "field_tour": "983bb17892ec98a20362cc75fb660d748813773e44182c6be2ba6f629dba2a41",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(Path(rankfuzz.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
