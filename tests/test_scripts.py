"""The shipped entry points pass as a user would run them: each scenario in
configs/ through the CLI, and each script in scripts/ as a program."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoperturb
from isoperturb.cli import main
from isoperturb.config import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def test_scripts_found():
    assert len(SCRIPTS) == 1


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


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_passes(config, tmp_path):
    out = tmp_path / "out"
    code = main([load_scenario(str(config)).command, "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "pass"
    assert summary["criteria"]
    assert all(c["pass"] for c in summary["criteria"]), summary["criteria"]
