"""The demo scripts in scripts/ check themselves: each prints [PASS]/[FAIL]
lines and exits non-zero on a failure.  Run each one as a user would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoperturb

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) == 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_demo_script_passes(script):
    env = dict(os.environ)
    src = str(Path(isoperturb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[FAIL]" not in proc.stdout
    assert "[PASS]" in proc.stdout
