"""Scenario loading, validation diagnostics, and canonical hashing."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from isoperturb.config import (
    RANGES,
    FamilySpec,
    Scenario,
    ScenarioError,
    load_family_table,
    load_scenario,
    parse_scenario,
    scenario_hash,
)


def _write(tmp_path, text, name="sc.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_scenario_defaults(tmp_path):
    sc = load_scenario(_write(tmp_path, "name: demo\ncommand: solve-local\n"))
    assert sc.name == "demo"
    assert sc.command == "solve-local"
    assert sc.resolution == 401
    assert sc.alpha == 0.5
    assert sc.family.name == "constant"
    assert sc.cutoff is None


def test_full_scenario_roundtrip(tmp_path):
    sc = load_scenario(_write(tmp_path, """
name: glue
command: solve-global
manifold: circle
charts: 3
mesh: 256
resolution: 201
seed: 7
family:
  name: circle-breathing
  beta: 0.02
  horizon: 0.5
  samples: 4
cutoff: [0.85, 0.985]
iteration_tol: 1.0e-8
residual_tol: 1.0e-4
out: some/dir
"""))
    assert sc.charts == 3 and sc.mesh == 256 and sc.seed == 7
    assert sc.family.beta == 0.02 and sc.family.samples == 4
    assert sc.cutoff == [0.85, 0.985]
    assert sc.out == "some/dir"


def test_yaml_syntax_error_carries_line(tmp_path):
    p = _write(tmp_path, "name: x\ncommand: solve-local\nresolution: [oops\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p)
    assert exc.value.line is not None
    assert "line" in str(exc.value)


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("/definitely/not/here.yaml")
    # a directory, and a file that is not UTF-8, were tracebacks
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"name: caf\xe9\ncommand: solve-local\n")
    for path in (tmp_path, bad):
        with pytest.raises(ScenarioError, match="unreadable") as info:
            load_scenario(path)
        assert info.value.field == "--config"


@pytest.mark.parametrize("doc,fieldname", [
    ("command: solve-local\n", "name"),
    ("name: x\n", "command"),
    ("name: x\ncommand: fly\n", "command"),
    ("name: x\ncommand: solve-local\nresolution: 10.5\n", "resolution"),
    ("name: x\ncommand: solve-local\nresolution: 3\n", "resolution"),
    ("name: x\ncommand: solve-local\nresolution: 12\n", "resolution"),
    ("name: x\ncommand: solve-local\nalpha: 1.5\n", "alpha"),
    ("name: x\ncommand: solve-local\nchart: sphere\n", "chart"),
    ("name: x\ncommand: solve-global\nmanifold: plane\n", "manifold"),
    ("name: x\ncommand: solve-global\ncharts: 1\n", "charts"),
    ("name: x\ncommand: solve-local\nseed: -1\n", "seed"),
    ("name: x\ncommand: solve-local\ncutoff: [0.9, 0.5]\n", "cutoff"),
    ("name: x\ncommand: solve-local\ncutoff: [0.5]\n", "cutoff"),
    ("name: x\ncommand: solve-local\ncutoff: [0.5, 1.0]\n", "cutoff"),
    ("name: x\ncommand: solve-family\nwindow: [0.3, 0.9]\n", "window"),
    ("name: x\ncommand: solve-local\niteration_tol: 0.0\n", "iteration_tol"),
    ("name: x\ncommand: solve-local\nbogus_key: 1\n", "<document>"),
    ("name: x\ncommand: solve-family\nfamily: {name: warp}\n", "family.name"),
    ("name: x\ncommand: solve-family\nfamily: {beta: horse}\n", "family.beta"),
    ("name: x\ncommand: solve-family\nfamily: {samples: 0}\n", "family.samples"),
    ("name: x\ncommand: solve-family\nfamily: {horizon: -1.0}\n", "family.horizon"),
    ("name: x\ncommand: solve-local\nfamily: {nope: 1}\n", "family"),
    ("name: x\ncommand: solve-family\nfamily: {nope: 1}\n", "family"),
], ids=lambda v: v if isinstance(v, str) and "\n" not in v else None)
def test_validation_names_the_field(tmp_path, doc, fieldname):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert exc.value.field == fieldname
    assert fieldname.split(".")[-1].strip("<>") in str(exc.value) or fieldname == "<document>"


def test_an_int_that_no_float_holds_is_not_a_finite_number():
    # np.isfinite raised a TypeError on it, which ended in a traceback
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"name": "x", "command": "solve-local", "amplitude": 10**400})
    assert exc.value.field == "amplitude"


def test_readme_limits_name_every_ranged_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    limits = readme.split("### Limits", 1)[1].split("\n## ", 1)[0]
    assert [key for key in RANGES if f"`{key}`" not in limits] == []


# each would allocate far past MAX_ALLOC_BYTES: only values the guard
# rejects before anything is allocated
OVERSIZED = [
    ("command: check-free\nchart: torus\nresolution: 20001\n", "resolution"),
    ("command: solve-global\nmanifold: torus\nresolution: 20001\n", "resolution"),
    ("command: solve-global\nmesh: 1000000\n", "mesh"),
    ("command: solve-global\nmanifold: torus\nresolution: 25\nmesh: 1000000\n", "mesh"),
    ("command: solve-global\ncharts: 1000000000\n", "charts"),
    ("command: solve-family\nfamily: {samples: 1000000000}\n", "family.samples"),
    ("command: solve-global\nfamily: {name: circle-breathing, samples: 1000000000}\n",
     "family.samples"),
]


@pytest.mark.parametrize("doc,fieldname", OVERSIZED)
def test_size_guard_names_the_field(tmp_path, doc, fieldname):
    with pytest.raises(ScenarioError, match="MiB limit") as exc:
        load_scenario(_write(tmp_path, "name: x\n" + doc))
    assert exc.value.field == fieldname


def test_size_guard_passes_every_shipped_and_benchmark_scenario():
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "configs").glob("*.yaml")):
        load_scenario(path)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        parse_scenario(workloads.make_scenario(name, 1, 0))
    # the guard bounds arrays, not resolution: an interval at the largest N passes
    parse_scenario({"name": "x", "command": "solve-family", "resolution": 20001})


def test_table_family_requires_path_and_global_command():
    with pytest.raises(ScenarioError, match="table path"):
        parse_scenario({"name": "x", "command": "solve-global",
                        "family": {"name": "table"}})
    # table families are a global-solve input, not a chart-family name
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"name": "x", "command": "solve-family",
                        "family": {"name": "table", "table": "f.csv"}})
    assert exc.value.field == "family.name"


def test_scenario_hash_is_stable_and_sensitive():
    a = Scenario(name="x", command="solve-local")
    b = Scenario(name="x", command="solve-local")
    assert scenario_hash(a) == scenario_hash(b)
    assert len(scenario_hash(a)) == 64
    b.resolution = 403
    assert scenario_hash(a) != scenario_hash(b)
    c = Scenario(name="x", command="solve-local",
                 family=FamilySpec(beta=0.06))
    assert scenario_hash(a) != scenario_hash(c)


def test_family_table_loading(tmp_path):
    p = tmp_path / "fam.csv"
    p.write_text("t,g\n0.0,1.0\n0.5,1.01\n1.0,1.02\n")
    t, comps = load_family_table(p)
    assert np.allclose(t, [0.0, 0.5, 1.0])
    assert comps.shape == (3, 1)
    assert comps[2, 0] == 1.02


def test_family_table_rejects_bad_input(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_family_table(tmp_path / "missing.csv")
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"t,g\xe9\n0.0,1.0\n1.0,1.0\n")
    for path in (tmp_path, bad):  # a directory, a file that is not UTF-8
        with pytest.raises(ScenarioError, match="unreadable") as info:
            load_family_table(path)
        assert info.value.field == "family.table"
    p = tmp_path / "short.csv"
    p.write_text("t,g\n0.0,1.0\n")
    with pytest.raises(ScenarioError, match="2 rows"):
        load_family_table(p)
    p2 = tmp_path / "back.csv"
    p2.write_text("t,g\n0.5,1.0\n0.0,1.0\n")
    with pytest.raises(ScenarioError, match="increasing"):
        load_family_table(p2)
    p3 = tmp_path / "words.csv"
    p3.write_text("t,g\n0.0,apple\n1.0,pear\n")
    with pytest.raises(ScenarioError, match="numeric"):
        load_family_table(p3)
    # a NaN t passes the increasing check (NaN <= 0 is False), so each
    # non-finite value, in either column, needs its own rejection
    for k, rows in enumerate(["nan,1.0\n1.0,1.0", "0.0,1.0\ninf,1.0",
                              "0.0,nan\n1.0,1.0", "0.0,1.0\n1.0,-inf"]):
        p4 = tmp_path / f"nonfinite{k}.csv"
        p4.write_text(f"t,g\n{rows}\n")
        with pytest.raises(ScenarioError, match="finite") as info:
            load_family_table(p4)
        assert info.value.field == "family.table"
