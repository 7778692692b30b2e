"""End-to-end CLI runs: exit codes, artifacts, determinism, report merging.

Everything drives isoperturb.cli.main(argv) directly with small grids so the
whole file stays fast; the full-scale scenarios live in configs/ and
tests/test_acceptance.py.
"""

import csv
import json
import os

import pytest

from isoperturb import cli
from isoperturb.cli import main
from isoperturb.config import load_scenario

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
    stability = [c for c in s["criteria"] if c["criterion"] == "stability-ratio"]
    assert len(stability) == 1 and stability[0]["pass"]

    trace = open(os.path.join(out, "traces", "iteration.csv")).read().splitlines()
    assert trace[0] == "iteration,norm,increment,ratio,poisson_residual,norm_exact"
    assert len(trace) > 2

    emb = open(os.path.join(out, "embeddings", "local.csv")).read().splitlines()
    assert emb[0] == "stage,t,x,F1,F2"
    # stage 0 (base embedding) and stage 1 (perturbed), 401 nodes each
    assert len(emb) == 1 + 2 * 401


def test_trace_ratio_is_the_increment_over_the_previous_one(local_run):
    # row k holds increment k / increment k-1; row 0 has no previous step
    _, out = local_run
    with open(os.path.join(out, "traces", "iteration.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 2
    assert rows[0]["ratio"] == ""
    for prev, row in zip(rows, rows[1:]):
        assert float(row["ratio"]) == float(row["increment"]) / float(prev["increment"])


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


def test_solve_local_load_too_large_to_contract_exits_1(tmp_path):
    # the fixed-point solve gives up with SmallnessViolation; the run still
    # writes its summary and the trace of the failed iteration
    cfg = LOCAL_FAST_CFG.replace("amplitude: 0.01", "amplitude: 50.0")
    out = str(tmp_path / "out")
    code = main(["solve-local", "--config", _cfg(tmp_path, cfg),
                 "--out", out, "--quiet"])
    assert code == 1
    s = _summary(out)
    assert s["status"] == "fail"
    assert "a-priori bound violated" in s["failure"]
    trace = open(os.path.join(out, "traces", "iteration.csv")).read().splitlines()
    assert trace[0] == "iteration,norm,increment,ratio,poisson_residual,norm_exact"
    assert len(trace) > 1


def test_stability_solve_that_breaks_the_bound_exits_1(tmp_path, monkeypatch):
    # the run's own solve converges; the stability check's larger load breaks
    # the a-priori bound, and the run names that solve as its failure
    monkeypatch.setattr(cli, "STABILITY_LOAD", 5000.0)
    out = str(tmp_path / "out")
    code = main(["solve-local", "--config", _cfg(tmp_path, LOCAL_FAST_CFG),
                 "--out", out, "--quiet"])
    assert code == 1
    s = _summary(out)
    assert s["status"] == "fail"
    assert s["failure"].startswith("stability solve: a-priori bound violated")
    assert all(c["pass"] for c in s["criteria"])
    assert "stability_ratio" not in s["results"]


def test_solve_local_that_fails_fast_exits_1_with_its_trace(tmp_path):
    # a narrow outer cutoff contracts too slowly to reach tol in MAX_ITER
    # steps; the solve stops once that shows and the run records it
    cfg = LOCAL_FAST_CFG.replace("bump_radius: 0.5", "bump_radius: 0.4\ncutoff: [0.8, 0.95]")
    cfg = cfg.replace("iteration_tol: 1.0e-9", "iteration_tol: 1.0e-10")
    out = str(tmp_path / "out")
    code = main(["solve-local", "--config", _cfg(tmp_path, cfg), "--out", out, "--quiet"])
    assert code == 1
    s = _summary(out)
    assert s["status"] == "fail"
    assert s["failure"].startswith("fail-fast at step 4:")
    trace = open(os.path.join(out, "traces", "iteration.csv")).read().splitlines()
    assert len(trace) == 1 + 4
    assert not os.listdir(os.path.join(out, "embeddings"))


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


@pytest.mark.parametrize("doc,extra", [("", ["--out", "afile"]), ("out: afile/run\n", [])])
def test_out_that_names_a_file_exits_2(tmp_path, monkeypatch, capsys, doc, extra):
    # an output path that a file blocks used to end in a NotADirectoryError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    cfg = _cfg(tmp_path, FREE_CFG + doc)
    code = main(["check-free", "--config", cfg, "--quiet", *extra])
    assert code == 2
    assert "[out]" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "sc.yaml"]


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


@pytest.mark.parametrize("doc,extra,fieldname", [
    ("chart: torus\nresolution: 20001\n", [], "resolution"),
    ("chart: torus\nresolution: 17\n", ["--resolution", "20001"], "resolution"),
    ("mesh: 1000000\n", [], "mesh"),
    ("family: {name: circle-breathing, samples: 1000000000}\n", [], "family.samples"),
])
def test_oversized_scenario_exits_2_before_allocating(tmp_path, capsys, monkeypatch,
                                                      doc, extra, fieldname):
    def allocate(*args, **kwargs):
        raise AssertionError("the size guard let an oversized scenario through")

    monkeypatch.setattr(cli, "_scenario_inputs", allocate)
    command = "check-free" if "chart" in doc else "solve-global"
    cfg = _cfg(tmp_path, f"name: x\ncommand: {command}\n{doc}")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet", *extra])
    assert code == 2
    assert f"[{fieldname}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,doc,extra,fieldname", [
    ("solve-local", "resolution: 12\n", [], "resolution"),
    ("check-free", "", ["--resolution", "12"], "--resolution"),
    ("solve-local", "cutoff: [0.5, 1.0]\n", [], "cutoff"),
    ("solve-family", "window: [0.3, 0.9]\n", [], "window"),
    ("check-free", "chart: torus\nhalfwidth: 4.0\nresolution: 17\n", [], "halfwidth"),
    ("solve-global", "cutoff: [0.3, 0.5]\n", [], "cutoff"),
    ("solve-global", "family: {name: circle-breathing, beta: -3.0}\n", [], "family"),
    ("solve-family", "chart: circle\nfamily: {name: bump-breathing, beta: -10.0}\n",
     [], "family"),
    ("solve-global", "family: {name: table, table: {tmp}/neg.csv}\n", [], "family"),
    ("solve-family", "resolution: 201\ncutoff: [0.5, 0.9]\n"
     "family: {name: uniform-scale, beta: 0.01}\n", [], "cutoff"),
    ("solve-global", "manifold: torus\ncharts: 3\nresolution: 25\nmesh: 48\n", [], "charts"),
    ("solve-family", "resolution: 201\nfamily: {name: bump-breathing, bump_power: -1}\n",
     [], "family.bump_power"),
    ("solve-family", "resolution: 201\nfamily: {name: bump-breathing, bump_power: 0}\n",
     [], "family.bump_power"),
    ("solve-local", "chart: parabola\nresolution: 201\nbump_radius: 0.6\n", [],
     "bump_radius"),
    ("solve-local", "chart: circle\nhalfwidth: 1.0e-9\nresolution: 101\n", [], "halfwidth"),
    ("solve-family", "chart: circle\nhalfwidth: 1.0e-9\nresolution: 101\n", [], "halfwidth"),
    ("check-free", "chart: parabola\nhalfwidth: 2.0\nresolution: 101\n", [], "halfwidth"),
    ("solve-global", "halfwidth: 1.0\n", [], "halfwidth"),
    ("verify-appendix", "", ["--seed", "-1"], "--seed"),
    ("check-free", "", ["--seed", "-1"], "--seed"),
    ("solve-global", "family: {name: table, table: {tmp}/late.csv}\n", [], "family"),
    ("check-free", "window: [0.6, 0.7]\n", [], "window"),
    ("solve-local", "mesh: 64\n", [], "mesh"),
    ("solve-global", "amplitude: 0.02\n", [], "amplitude"),
    ("verify-appendix", "family: {name: constant}\n", [], "family"),
])
def test_limits_the_solver_rejects_fail_validation(tmp_path, capsys, command, doc,
                                                  extra, fieldname):
    # each input used to pass validation and then die in a constructor, in
    # the solver's support check (a bump wider than the cutoff's flat radius)
    # or in the frame build (a circle chart too narrow to be free) (or, for
    # the table, whose g reaches -2 at t = 1, to halve its way to a pass;
    # bump_power -1 gives inf/NaN metric components and 0 a bump that fills
    # the chart, both ending in exit 1; a halfwidth that no circle or torus
    # chart reads was recorded and ignored, with exit 0; --seed -1 was
    # recorded by check-free with exit 0, and failed verify-appendix with
    # exit 3; a table that starts after t = 0 was extrapolated back to
    # g(0), halved twice and exited 1; a key that the command never reads,
    # such as window under check-free, was recorded and ignored, with exit 0)
    (tmp_path / "neg.csv").write_text("t,g\n0.0,1.0\n0.5,-0.5\n1.0,-2.0\n")
    (tmp_path / "late.csv").write_text("t,g\n0.5,1.0\n1.0,1.02\n1.5,1.04\n")
    doc = doc.replace("{tmp}", str(tmp_path))
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
    assert s["results"]["halvings"] == []
    assert not os.path.exists(os.path.join(out, "traces", "rejected"))


def test_solve_global_records_every_halving(tmp_path):
    # at horizon 1 the t = 1 sample breaks the a-priori bound; at 0.5 the
    # t = 0.5 sample contracts too slowly for the step budget
    out = str(tmp_path / "out")
    cfg = _cfg(tmp_path, GLOBAL_CFG.replace("horizon: 0.25", "horizon: 1.0"))
    assert main(["solve-global", "--config", cfg, "--out", out, "--quiet"]) == 0
    s = _summary(out)
    assert s["results"]["horizon_used"] == 0.25
    halvings = s["results"]["halvings"]
    assert [(h["horizon"], h["stage"], h["t"], h["kind"]) for h in halvings] == [
        (1.0, 1, 1.0, "diverged"), (0.5, 1, 0.5, "fail-fast")]
    assert halvings[0]["last_ratio"] > 1.0 and halvings[0]["steps_to_tol"] is None
    assert 0.0 < halvings[1]["last_ratio"] < 1.0 and halvings[1]["steps_to_tol"] > 60
    for j, h in enumerate(halvings):
        path = os.path.join(out, "traces", "rejected", f"halving_{j:02d}.csv")
        rows = open(path).read().splitlines()
        assert rows[0] == "iteration,norm,increment,ratio,poisson_residual,norm_exact"
        assert len(rows) == 1 + h["iterations"]


def test_verify_appendix_run(tmp_path):
    cfg = _cfg(tmp_path, APPENDIX_CFG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["verify-appendix", "--config", cfg, "--out", out, "--quiet"]) == 0
    s = _summary(out_a)
    names = [c["criterion"] for c in s["criteria"]]
    assert "product-inequality-violations" in names
    assert "leibniz-consistency" in names
    assert s["status"] == "pass"
    a = open(os.path.join(out_a, "summary.json"), "rb").read()
    b = open(os.path.join(out_b, "summary.json"), "rb").read()
    assert a == b, "summary.json differs between identical runs"


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


def test_nonfinite_table_fails_before_artifacts(tmp_path, capsys):
    table = tmp_path / "fam.csv"
    table.write_text("t,g\n0.0,1.0\nnan,1.005\n0.25,1.01\n")
    cfg_text = GLOBAL_CFG.replace(
        "name: circle-breathing\n  beta: 0.05",
        f"name: table\n  table: {table}",
    )
    out = str(tmp_path / "out")
    code = main(["solve-global", "--config", _cfg(tmp_path, cfg_text),
                 "--out", out])
    assert code == 2
    assert "[family.table]" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unexpected_error_exits_3_with_summary(tmp_path, capsys, monkeypatch):
    def boom(scenario, report):
        report.record(margin=1.0)
        raise RuntimeError("disk on fire")

    monkeypatch.setitem(cli._RUNNERS, "check-free", boom)
    cfg = _cfg(tmp_path, FREE_CFG)
    out = tmp_path / "out"
    code = main(["check-free", "--config", cfg, "--out", str(out)])
    # run_scenario, the one runner call under main, ends the same way
    direct = tmp_path / "direct"
    direct_code = cli.run_scenario(load_scenario(cfg), str(direct), quiet=True)
    assert code == direct_code == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.splitlines() == ["error: RuntimeError: disk on fire"] * 2
    for run in (out, direct):
        s = _summary(run)
        assert s["status"] == "error"
        assert s["error"] == {"type": "RuntimeError", "message": "disk on fire"}
        assert s["results"] == {"margin": 1.0}


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


def test_report_keeps_the_samples_of_runs_that_share_a_scenario_name(tmp_path):
    root = tmp_path / "runs"
    for run, amplitude in (("a", "0.01"), ("b", "0.0")):
        cfg = _cfg(tmp_path, LOCAL_FAST_CFG.replace("amplitude: 0.01", f"amplitude: {amplitude}"))
        assert main(["solve-local", "--config", cfg, "--out", str(root / run), "--quiet"]) == 0
    assert main(["report", "--out", str(root), "--quiet"]) == 0
    sampled = root / "report_embeddings"
    assert sorted(os.listdir(sampled)) == ["a_local.csv", "b_local.csv"]
    assert (sampled / "a_local.csv").read_bytes() != (sampled / "b_local.csv").read_bytes()


def test_report_on_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 2
    assert "no completed runs" in capsys.readouterr().err
