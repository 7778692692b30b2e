"""The shipped entry points pass as a user would run them: each scenario in
configs/ through the CLI, and each script in scripts/ as a program.

Each config's artifacts are pinned by one sha256, so a change that means to
keep them byte-identical is checked to; a change that means to move them
updates the pin and names the moved files in CHANGES.md.  The benchmark's
oracle (perfbench/oracle.py) reads the same runs back: each solve config's
reported residual is the one it recomputes from the embedding CSV the run
wrote.  Each config runs once per module.
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
# the benchmark's modules import as perfbench/tests/conftest.py imports them
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))
import oracle  # noqa: E402

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


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """run(config) -> (exit code, output directory) of the config's CLI run,
    made on the first call and shared by every later one."""
    runs = {}

    def run(config):
        if config.stem not in runs:
            out = tmp_path_factory.mktemp(config.stem) / "out"
            code = main([load_scenario(str(config)).command, "--config", str(config),
                         "--out", str(out), "--quiet"])
            runs[config.stem] = code, out
        return runs[config.stem]

    return run


def _summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_passes(config, shipped_run):
    code, out = shipped_run(config)
    assert code == 0
    summary = _summary(out)
    assert summary["status"] == "pass"
    assert summary["criteria"]
    assert all(c["pass"] for c in summary["criteria"]), summary["criteria"]
    tree = _tree_sha256(out)
    assert tree == ARTIFACT_SHA256[config.stem], f"tree {tree}\n{_file_listing(out)}"


# the criterion that reports each solve config's residual
REPORTED_RESIDUAL = {
    "breathing_chart": "max-sample-residual",
    "circle_glue": "max-final-residual",
    "torus_smoke": "max-final-residual",
}


@pytest.mark.parametrize("stem", sorted(REPORTED_RESIDUAL))
def test_oracle_rederives_the_reported_residual(stem, shipped_run):
    config = ROOT / "configs" / f"{stem}.yaml"
    code, out = shipped_run(config)
    assert code == 0
    residual, problems = oracle.check_solve(load_scenario(str(config)), str(out))
    assert problems == []
    reported = {c["criterion"]: c["value"] for c in _summary(out)["criteria"]}
    assert residual == reported[REPORTED_RESIDUAL[stem]]
