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
    "breathing_chart": "c26e5e66b3479246de2056d317fc109773ffe7f12ec8beb35d0a64edb0dc6694",
    "check_free": "2068d05a7f5110cc565f3a9fa14bf1607f6e48d603fe7972993c52b0d4d9dfcf",
    "circle_glue": "31d65b0187cb4bb841468748b50e26ab5d52aa65375a79d11f7ede6dabcb2870",
    "local_bump": "2e127bc8d9504b17ccad7e1c3ddac7bae3764b7b841ac41fb877fde5d8eb3641",
    "torus_smoke": "621aa2f91c7eae0eb085e307a0bda27616020b28167cfec27580b4db4b6963e2",
    "verify_appendix": "1450999fbb0ae88115ceb48e00879d25e7fe77aaa357527eaf08bc977722006d",
}


def _tree_sha256(root):
    """sha256 over the sorted (relative path, bytes) pairs of the files under root.

    Each pair enters as the path in posix form, a NUL, the byte count as 8
    little-endian bytes, then the bytes themselves.
    """
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


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
    assert _tree_sha256(out) == ARTIFACT_SHA256[config.stem]
