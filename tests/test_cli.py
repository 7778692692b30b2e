"""End-to-end CLI runs: exit codes, artifacts, determinism, report merging.

Everything drives isoperturb.cli.main(argv) directly with small grids so the
whole file stays fast; the full-scale scenarios live in configs/ and
tests/test_acceptance.py.
"""

import json
import os

import pytest

from isoperturb.cli import main

FREE_CFG = """
name: free-small
command: check-free
chart: circle
resolution: 101
"""

LOCAL_CFG = """
name: local-small
command: solve-local
chart: parabola
resolution: 401
amplitude: 0.01
bump_radius: 0.5
iteration_tol: 1.0e-9
residual_tol: 1.0e-6
"""

LOCAL_FAST_CFG = """
name: local-fast
command: solve-local
chart: parabola
resolution: 201
amplitude: 0.01
bump_radius: 0.5
iteration_tol: 1.0e-9
residual_tol: 1.0e-4
"""

FAMILY_CFG = """
name: family-small
command: solve-family
chart: parabola
resolution: 201
window: [0.5, 0.75]
cutoff: [0.5, 0.9]
family:
  name: bump-breathing
  beta: 0.01
  horizon: 0.5
  samples: 4
  bump_radius: 0.4
iteration_tol: 1.0e-9
residual_tol: 1.0e-4
"""

GLOBAL_CFG = """
name: glue-small
command: solve-global
manifold: circle
charts: 2
resolution: 201
mesh: 128
family:
  name: circle-breathing
  beta: 0.05
  horizon: 0.25
  samples: 1
iteration_tol: 1.0e-8
residual_tol: 1.0e-3
"""

APPENDIX_CFG = """
name: appendix-small
command: verify-appendix
resolution: 101
appendix_samples: 20
"""


def _cfg(tmp_path, text, name="sc.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def local_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("local")
    cfg = _cfg(root, LOCAL_CFG)
    out = str(root / "out")
    code = main(["solve-local", "--config", cfg, "--out", out, "--quiet"])
    return code, out


def test_check_free_pass(tmp_path):
    out = str(tmp_path / "out")
    code = main(["check-free", "--config", _cfg(tmp_path, FREE_CFG),
                 "--out", out, "--quiet"])
    assert code == 0
    s = _summary(out)
    assert s["schema_version"] == 1
    assert s["status"] == "pass"
    names = [c["criterion"] for c in s["criteria"]]
    assert names == ["freeness-margin", "frame-identity-defect"]
    assert all(c["pass"] for c in s["criteria"])


def test_solve_local_artifacts_and_schema(local_run):
    code, out = local_run
    assert code == 0
    s = _summary(out)
    assert s["command"] == "solve-local"
    assert s["scenario"] == "local-small"
    assert len(s["config_hash"]) == 64
    assert int(s["config_hash"], 16) >= 0  # hex digest
    assert s["results"]["residual_sup"] <= 1e-6
    assert s["results"]["support_leak"] == 0.0
    assert {"parameters", "results", "criteria", "seed"} <= set(s)

    trace = open(os.path.join(out, "traces", "iteration.csv")).read().splitlines()
    assert trace[0] == "iteration,norm,increment,ratio,poisson_residual"
    assert len(trace) > 2

    emb = open(os.path.join(out, "embeddings", "local.csv")).read().splitlines()
    assert emb[0] == "stage,t,x,F1,F2"
    # stage 0 (base embedding) and stage 1 (perturbed), 401 nodes each
    assert len(emb) == 1 + 2 * 401


def test_zero_load_gives_exactly_zero_residual(tmp_path):
    cfg = LOCAL_FAST_CFG.replace("amplitude: 0.01", "amplitude: 0.0")
    out = str(tmp_path / "out")
    code = main(["solve-local", "--config", _cfg(tmp_path, cfg),
                 "--out", out, "--quiet"])
    assert code == 0
    s = _summary(out)
    assert s["results"]["residual_sup"] == 0.0
    assert s["results"]["u_norm"] == 0.0


def test_tolerance_failure_exits_1_and_names_criterion(tmp_path):
    cfg = LOCAL_FAST_CFG.replace("residual_tol: 1.0e-4", "residual_tol: 1.0e-15")
    out = str(tmp_path / "out")
    code = main(["solve-local", "--config", _cfg(tmp_path, cfg),
                 "--out", out, "--quiet"])
    assert code == 1
    s = _summary(out)
    assert s["status"] == "fail"
    failed = [c["criterion"] for c in s["criteria"] if not c["pass"]]
    assert failed == ["isometry-residual"]


def test_yaml_syntax_error_exits_2_without_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _cfg(tmp_path, "name: x\ncommand: solve-local\nresolution: [oops\n")
    code = main(["solve-local", "--config", cfg])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_bad_field_is_named_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _cfg(tmp_path, "name: x\ncommand: solve-local\nresolution: 10.5\n")
    code = main(["solve-local", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "resolution" in err
    assert not (tmp_path / "runs").exists()


def test_command_mismatch_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, FREE_CFG)  # says check-free
    code = main(["solve-local", "--config", cfg,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "command" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["make-coffee", "--config", _cfg(tmp_path, FREE_CFG)])


def test_resolution_and_seed_overrides(tmp_path):
    out = str(tmp_path / "out")
    code = main(["check-free", "--config", _cfg(tmp_path, FREE_CFG),
                 "--out", out, "--resolution", "151", "--seed", "5", "--quiet"])
    assert code == 0
    s = _summary(out)
    assert s["parameters"]["resolution"] == 151
    assert s["seed"] == 5


def test_absurd_resolution_override_rejected(tmp_path, capsys):
    code = main(["check-free", "--config", _cfg(tmp_path, FREE_CFG),
                 "--out", str(tmp_path / "out"), "--resolution", "4"])
    assert code == 2
    assert "resolution" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,doc,extra,fieldname", [
    ("solve-local", "resolution: 12\n", [], "resolution"),
    ("check-free", "", ["--resolution", "12"], "--resolution"),
    ("solve-local", "cutoff: [0.5, 1.0]\n", [], "cutoff"),
    ("solve-family", "window: [0.3, 0.9]\n", [], "window"),
])
def test_limits_the_solver_rejects_fail_validation(tmp_path, capsys, command, doc,
                                                  extra, fieldname):
    # each input used to pass validation and then die in a constructor
    cfg = _cfg(tmp_path, f"name: x\ncommand: {command}\n{doc}")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet", *extra])
    assert code == 2
    assert f"[{fieldname}]" in capsys.readouterr().err
    assert not out.exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, LOCAL_FAST_CFG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve-local", "--config", cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["solve-local", "--config", cfg, "--out", out_b, "--quiet"]) == 0
    for rel in ("summary.json",
                os.path.join("traces", "iteration.csv"),
                os.path.join("embeddings", "local.csv")):
        a = open(os.path.join(out_a, rel), "rb").read()
        b = open(os.path.join(out_b, rel), "rb").read()
        assert a == b, f"{rel} differs between identical runs"


def test_solve_family_run(tmp_path):
    out = str(tmp_path / "out")
    code = main(["solve-family", "--config", _cfg(tmp_path, FAMILY_CFG),
                 "--out", out, "--quiet"])
    assert code == 0
    s = _summary(out)
    names = [c["criterion"] for c in s["criteria"]]
    assert names == ["initial-sample-is-zero", "max-sample-residual", "probe-ratio"]
    assert s["results"]["u0_max"] == 0.0
    assert s["results"]["horizon_used"] > 0
    assert set(s["results"]["probe"]["orders"]) == {"1", "2"}
    for k in range(5):  # samples=4 -> 5 time samples including t=0
        assert os.path.exists(os.path.join(out, "traces", f"sample_{k:02d}.csv"))


def test_solve_global_run(tmp_path):
    out = str(tmp_path / "out")
    code = main(["solve-global", "--config", _cfg(tmp_path, GLOBAL_CFG),
                 "--out", out, "--quiet"])
    assert code == 0
    s = _summary(out)
    assert s["results"]["initial_sample_exact"] is True
    assert s["results"]["horizon_used"] > 0
    names = [c["criterion"] for c in s["criteria"]]
    assert "max-final-residual" in names and "freeness-margin" in names

    res = open(os.path.join(out, "traces", "stage_residuals.csv")).read().splitlines()
    assert res[0] == "stage,t,residual"
    emb = open(os.path.join(out, "embeddings", "global.csv")).readline().strip()
    assert emb == "stage,t,theta,F1,F2"


def test_verify_appendix_run(tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify-appendix", "--config", _cfg(tmp_path, APPENDIX_CFG),
                 "--out", out, "--quiet"])
    assert code == 0
    s = _summary(out)
    names = [c["criterion"] for c in s["criteria"]]
    assert "product-inequality-violations" in names
    assert "leibniz-consistency" in names
    assert s["status"] == "pass"


def test_table_family_global(tmp_path):
    table = tmp_path / "fam.csv"
    table.write_text("t,g\n0.0,1.0\n0.125,1.005\n0.25,1.01\n")
    cfg_text = GLOBAL_CFG.replace(
        "family:\n  name: circle-breathing\n  beta: 0.05\n  horizon: 0.25\n  samples: 1",
        f"family:\n  name: table\n  table: {table}\n  horizon: 0.25\n  samples: 1",
    )
    out = str(tmp_path / "out")
    code = main(["solve-global", "--config", _cfg(tmp_path, cfg_text),
                 "--out", out, "--quiet"])
    assert code == 0
    assert _summary(out)["status"] == "pass"


def test_missing_table_fails_before_artifacts(tmp_path, capsys):
    cfg_text = GLOBAL_CFG.replace(
        "name: circle-breathing\n  beta: 0.05",
        "name: table\n  table: no_such.csv",
    )
    out = str(tmp_path / "out")
    code = main(["solve-global", "--config", _cfg(tmp_path, cfg_text),
                 "--out", out])
    assert code == 2
    assert "family.table" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_report_merges_runs(tmp_path, local_run):
    _, local_out = local_run
    root = tmp_path / "runs"
    root.mkdir()
    assert main(["check-free", "--config", _cfg(tmp_path, FREE_CFG),
                 "--out", str(root / "free"), "--quiet"]) == 0
    # reuse the module-level solve-local artifacts
    import shutil

    shutil.copytree(local_out, root / "local")
    code = main(["report", "--out", str(root), "--quiet"])
    assert code == 0
    rep = json.load(open(root / "report.json"))
    assert rep["schema_version"] == 1
    assert [r["scenario"] for r in rep["runs"]] == ["free-small", "local-small"]
    assert all(r["status"] == "pass" for r in rep["runs"])
    sampled = os.listdir(root / "report_embeddings")
    assert any(name.endswith("local.csv") for name in sampled)


def test_report_on_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 2
    assert "no completed runs" in capsys.readouterr().err
