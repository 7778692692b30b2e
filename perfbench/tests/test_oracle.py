import json
import os

import numpy as np
import pytest

import oracle
from isoperturb import cli, grid
from isoperturb.config import parse_scenario

FAMILY = {
    "name": "family-tiny",
    "command": "solve-family",
    "chart": "parabola",
    "resolution": 201,
    "window": [0.5, 0.75],
    "cutoff": [0.5, 0.9],
    "family": {"name": "bump-breathing", "beta": 0.01, "horizon": 0.5, "samples": 2,
               "bump_radius": 0.4},
    "iteration_tol": 1.0e-9,
    "residual_tol": 1.0e-4,
}

GLOBAL = {
    "name": "glue-tiny",
    "command": "solve-global",
    "manifold": "circle",
    "charts": 2,
    "resolution": 101,
    "mesh": 256,
    "family": {"name": "circle-breathing", "beta": 0.01, "horizon": 0.1, "samples": 1},
    "iteration_tol": 1.0e-8,
    "residual_tol": 1.0e-3,
}


def _run(raw, out_dir):
    sc = parse_scenario(raw)
    assert cli.run_scenario(sc, str(out_dir), quiet=True) == 0
    return sc


@pytest.fixture(scope="module")
def family_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("family")
    return _run(FAMILY, out), out


@pytest.fixture(scope="module")
def global_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("global")
    return _run(GLOBAL, out), out


def _copy_run(out, dst):
    for d, _, files in os.walk(out):
        rel = os.path.relpath(d, out)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for f in files:
            with open(os.path.join(d, f)) as a, open(os.path.join(dst, rel, f), "w") as b:
                b.write(a.read())
    return dst


def _corrupt_csv(path, row, delta):
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[row].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[row] = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("which", ["family", "global"])
def test_clean_run_passes(which, family_run, global_run):
    sc, out = family_run if which == "family" else global_run
    residual, problems = oracle.check_solve(sc, str(out))
    assert problems == []
    assert 0.0 < residual <= sc.residual_tol


@pytest.mark.parametrize("which", ["family", "global"])
def test_corrupted_embedding_csv_is_rejected(which, family_run, global_run, tmp_path):
    sc, out = family_run if which == "family" else global_run
    bad = _copy_run(str(out), str(tmp_path / "bad"))
    csv = os.path.join(bad, "embeddings", f"{which}.csv")
    with open(csv) as fh:
        rows = sum(1 for _ in fh)
    # one component of one node of the last (perturbed, final-stage) sample
    _corrupt_csv(csv, rows - 40, 1e-3)
    residual, problems = oracle.check_solve(sc, bad)
    assert residual > sc.residual_tol
    assert any("recomputed residual" in p for p in problems)


def test_truncated_embedding_csv_is_rejected(family_run, tmp_path):
    sc, out = family_run
    bad = _copy_run(str(out), str(tmp_path / "bad"))
    csv = os.path.join(bad, "embeddings", "family.csv")
    with open(csv) as fh:
        lines = fh.readlines()
    with open(csv, "w") as fh:
        fh.writelines(lines[:-1])
    _, problems = oracle.check_solve(sc, bad)
    assert any("embedding check failed" in p for p in problems)


def test_summary_with_a_failed_criterion_is_rejected(family_run, tmp_path):
    sc, out = family_run
    bad = _copy_run(str(out), str(tmp_path / "bad"))
    path = os.path.join(bad, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["criteria"][-1]["pass"] = False
    with open(path, "w") as fh:
        json.dump(summary, fh)
    residual, problems = oracle.check_solve(sc, bad)
    assert residual <= sc.residual_tol  # the embedding itself is fine
    assert len(problems) == 1 and "failed" in problems[0]


def _norm_reports(**changes):
    interval = {"product_violations": 0, "leibniz_max_err": 1e-12, "embed_witness": 1.0}
    disk = {"product_violations": 0, "leibniz_max_err": 1e-13, "embed_witness": 1.0}
    interval.update(changes)
    return (interval, disk, {"load": 1.0}, {"schauder_ratio": 1.0, "linearity_defect": 0.0})


def test_norm_suite_check():
    grids = (grid.make_grid(1, 65), grid.make_grid(2, 17))
    residual, problems = oracle.check_norm_suite(_norm_reports(), grids)
    assert problems == [] and 0.0 < residual <= oracle.LEIBNIZ_TOL
    assert oracle.leibniz_reference(grids) == residual  # fixed corpus
    for bad in ({"product_violations": 2}, {"leibniz_max_err": 1e-9},
                {"embed_witness": np.inf}):
        _, problems = oracle.check_norm_suite(_norm_reports(**bad), grids)
        assert len(problems) == 1
