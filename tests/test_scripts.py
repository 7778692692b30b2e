"""The shipped entry points pass as a user would run them: each scenario in
configs/ through the CLI, and each script in scripts/ as a program.

Each config's artifacts are pinned by one sha256, so a change that means to
keep them byte-identical is checked to; a change that means to move them
updates the pin and names the moved files in CHANGES.md.
"""

import hashlib
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
# _tree_sha256 of the output directory of each configs/<name>.yaml
ARTIFACT_SHA256 = {
    "breathing_chart": "b3cb05397c18a16ddee3fff8dd016d85b99d0ab67fae3b7d4d5775a31155c158",
    "check_free": "d7b3ef8e4526c1a9df6b59bde454b2cb4d1785d01fc6a3123b33dd61da819b0f",
    "circle_glue": "2c236c2b3b4ee1e7e29bac1a76f82b44f6d15c96fc1ab27d9dafdc8bd198f206",
    "local_bump": "cebdd6f816b878ec99f08fa184f1fef71995991c6b90e169e279734ca25d7e91",
    "torus_smoke": "a423138aaed92202ebf1cbab5e892c4750f22e92791b6782ffc562b2c43b6406",
    "verify_appendix": "c33546a5e849e4af94d5557152502a35c09d852a6191ecdb96c6f877c7cefd30",
}


def _files(root):
    """The (relative posix path, bytes) pairs of the files under root, sorted."""
    return sorted((p.relative_to(root).as_posix(), p.read_bytes()) for p in root.rglob("*") if p.is_file())


def _tree_sha256(root):
    """sha256 over the sorted (relative path, bytes) pairs of the files under root.

    Each pair enters as the path in posix form, a NUL, the byte count as 8
    little-endian bytes, then the bytes themselves.
    """
    h = hashlib.sha256()
    for rel, data in _files(root):
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _file_listing(root):
    """One line per file under root, "<sha256 of its bytes>  <relative path>",
    so that a moved pin names the files that moved."""
    return "\n".join(f"{hashlib.sha256(data).hexdigest()}  {rel}" for rel, data in _files(root))


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
    tree = _tree_sha256(out)
    assert tree == ARTIFACT_SHA256[config.stem], f"tree {tree}\n{_file_listing(out)}"
