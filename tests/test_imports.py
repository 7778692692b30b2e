"""What a run imports: no run loads any scipy module, neither with the
scenario nor in the middle of a solve.  The spline solves and the 2-d
Dirichlet factorization are the package's own, in numpy.

Each run goes through isoperturb.cli.main in a fresh interpreter, so that
sys.modules shows exactly what the package loaded: once after
config.load_scenario, once after the run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PROBE = """
import json, sys
import isoperturb.cli
from isoperturb.config import load_scenario

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

load_scenario(sys.argv[1])
after_load = loaded()
code = isoperturb.cli.main(sys.argv[2:])
print(json.dumps({"after_load": after_load, "after_run": loaded(), "code": code}))
"""


def _fresh_run(tmp_path, doc):
    """Write doc as a scenario, run it through cli.main in a new interpreter.

    Returns (probe record, stderr, summary.json).
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg, out = tmp_path / "sc.yaml", tmp_path / "out"
    cfg.write_text(yaml.safe_dump(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(cfg), doc["command"], "--config", str(cfg),
         "--out", str(out), "--quiet"],
        env=env, capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((out / "summary.json").read_text())
    return record, proc.stderr, summary


def _failed(summary):
    return [c["criterion"] for c in summary["criteria"] if not c["pass"]]


# each shipped config at a size that runs in well under a second, through
# the same paths as at full size
_SMALL = {
    "breathing_chart": {"resolution": 201, "family": {"samples": 4}},
    "local_bump": {"resolution": 201},
    "check_free": {"resolution": 101},
    "verify_appendix": {"resolution": 101, "appendix_samples": 10},
    "circle_glue": {"resolution": 201, "mesh": 128, "cutoff": None, "residual_tol": 1.0e-3,
                    "family": {"samples": 1, "horizon": 0.25}},
    "torus_smoke": {},
}


def test_package_imports_leave_out_interpolate_and_optimize(tmp_path):
    # no shipped config loads scipy at all: the glue's spline solves and the
    # torus's Dirichlet factorization are numpy code
    for name, small in _SMALL.items():
        doc = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
        for key, value in small.items():
            if isinstance(value, dict):
                doc[key].update(value)
            elif value is None:
                doc.pop(key)
            else:
                doc[key] = value
        record, stderr, summary = _fresh_run(tmp_path / name, doc)
        assert record["code"] == 0 and summary["status"] == "pass", (name, _failed(summary))
        assert "Traceback" not in stderr, name
        assert record["after_load"] == record["after_run"] == [], name


_TABLE = {"name": "table-small", "command": "solve-global", "manifold": "circle",
          "charts": 2, "resolution": 201, "mesh": 128,
          "family": {"name": "table", "horizon": 0.25, "samples": 1},
          "iteration_tol": 1.0e-8, "residual_tol": 1.0e-3}
_BUMP = {"name": "bump-breathing", "beta": 0.01, "horizon": 0.5, "samples": 2,
         "bump_radius": 0.4}


@pytest.mark.parametrize("doc, code, failed", [
    # three rows: the spline's parabola branch, through load_family_table
    # and table_family
    (_TABLE, 0, []),
    # the torus chart's own d1/d2, and the 2-d Dirichlet solve outside the
    # glue; at N = 17 the solves miss their residual tolerance
    ({"name": "torus-free", "command": "check-free", "chart": "torus",
      "resolution": 17}, 0, []),
    ({"name": "torus-local", "command": "solve-local", "chart": "torus",
      "resolution": 17}, 1, ["isometry-residual"]),
    ({"name": "torus-family", "command": "solve-family", "chart": "torus",
      "resolution": 17, "family": _BUMP}, 1, ["max-sample-residual"]),
], ids=["table-glue", "torus-check-free", "torus-solve-local", "torus-solve-family"])
def test_paths_no_pin_reaches_import_scipy_only_at_load(tmp_path, doc, code, failed):
    if doc["command"] == "solve-global":
        table = tmp_path / "family.csv"
        table.write_text("t,g\n0.0,1.0\n0.125,1.005\n0.25,1.01\n")
        doc = dict(doc, family=dict(doc["family"], table=str(table)))
    record, stderr, summary = _fresh_run(tmp_path, doc)
    assert record["code"] == code
    assert _failed(summary) == failed
    assert "Traceback" not in stderr
    assert record["after_load"] == record["after_run"] == []
