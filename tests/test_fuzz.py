"""Scenarios drawn from the schema's own ranges, run through cli.main.

Every numeric key comes from its row of config.RANGES, clamped to small
sizes so that a draw runs in milliseconds, with each range's ends among the
draws (1e300 for an open end of a float).  The draws lean toward the paths
that no artifact pin covers: the torus chart, 2-4-row family tables with
non-uniform t, and the SCALES families.  Whatever is drawn, a run ends in
0 (pass), 1 (a named failure) or 2 (a config error, with no output
directory): never in an exception or in 3 (an unexpected error).
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from isoperturb.cli import main
from isoperturb.config import CHART_COMMANDS, CHART_NAMES, COMMANDS, RANGES, READS
from isoperturb.embeddings import BASE_METRICS
from isoperturb.family import CHART_FAMILIES, GLOBAL_FAMILIES, SCALES

# the largest value drawn for each int key, so that a run stays small; a
# torus chart's resolution is clamped further, in _scenario
SMALL = {
    "seed": 2**32,
    "resolution": 41,
    "charts": 3,
    "mesh": 64,
    "appendix_samples": 10,
    "family.samples": 3,
    "family.bump_power": 8,
}
TORUS_RESOLUTION = 21
# the keys drawn in every scenario that reads them, since their defaults are
# not small; any other key may keep its default
SIZES = {"resolution", "mesh", "appendix_samples", "family.samples"}


def _number(key):
    """A value from key's row of RANGES, its ends (clamped) included."""
    kind, lo, hi = RANGES[key]
    if kind is int:
        hi = SMALL[key] if hi is None else min(SMALL[key], hi)
        return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
    ends = [-1e300 if lo is None else math.nextafter(lo, math.inf),
            1e300 if hi is None else math.nextafter(hi, -math.inf)]
    inside = st.floats(lo, hi, exclude_min=lo is not None, exclude_max=hi is not None,
                       allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(ends), inside)


@st.composite
def _table(draw, manifold, horizon):
    """A 2-4-row family table whose t runs from 0 to at least horizon,
    non-uniform in general, with metric components near the flat ones."""
    rows = draw(st.integers(2, 4))
    steps = draw(st.lists(st.floats(0.1, 1.0), min_size=rows - 1, max_size=rows - 1))
    scale = horizon / sum(steps) * draw(st.sampled_from([1.0, 1.5]))
    t = [0.0]
    for step in steps:
        t.append(t[-1] + step * scale)
    base = BASE_METRICS[manifold]
    lines = ["t," + ",".join(f"g{i}" for i in range(base.size))]
    for tk in t:
        bump = draw(st.floats(-0.2, 0.2))
        lines.append(",".join(repr(float(v)) for v in [tk, *(base * (1.0 + bump))]))
    return "\n".join(lines) + "\n"


# the draws' paths, as (commands, charts, families): the first three are
# paths that no artifact pin covers
PATHS = {
    "torus-chart": (CHART_COMMANDS, ("torus",), CHART_FAMILIES),
    "family-table": (("solve-global",), (), ("table",)),
    "scales-family": (("solve-family", "solve-global"), CHART_NAMES, tuple(SCALES)),
    "any": (COMMANDS, CHART_NAMES, CHART_FAMILIES + GLOBAL_FAMILIES),
}


@st.composite
def _scenario(draw, path):
    """(command, scenario mapping, table CSV text or None) on one of PATHS."""
    commands, charts, families = PATHS[path]
    command = draw(st.sampled_from(commands))
    raw = {"name": "fuzz", "command": command}
    if command in CHART_COMMANDS:
        raw["chart"] = draw(st.sampled_from(charts))
    elif command == "solve-global":
        # a torus glue draw costs about ten circle ones (0.1-0.2 s at mesh
        # 16-64), and torus_smoke's pin covers it
        raw["manifold"] = "circle"
    keys = ["seed", "resolution"] + [k for k in READS[command] if k in RANGES]
    for key in keys:
        if key in SIZES or draw(st.booleans()):
            raw[key] = draw(_number(key))
    if raw.get("chart") == "parabola":
        raw.pop("halfwidth", None)
    if raw.get("chart") == "torus":
        raw["resolution"] = min(raw["resolution"], TORUS_RESOLUTION)
    table = None
    if "family" in READS[command]:
        allowed = GLOBAL_FAMILIES if command == "solve-global" else CHART_FAMILIES
        family = {"name": draw(st.sampled_from([n for n in families if n in allowed]))}
        for key in RANGES:
            name = key.removeprefix("family.")
            if name != key and (key in SIZES or draw(st.booleans())):
                family[name] = draw(_number(key))
        if family["name"] == "table":
            table = draw(_table(raw["manifold"], family.get("horizon", 1.0)))
        raw["family"] = family
    return command, raw, table


# every overflow a draw reaches is handled where it happens, under
# np.errstate; the one RuntimeWarning a run may raise is the frame's notice
# that its normal matrix is badly conditioned
@pytest.mark.filterwarnings("error::RuntimeWarning",
                            "ignore:frame normal matrix condition:RuntimeWarning")
@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_drawn_scenario_never_ends_in_an_error(path, data):
    command, raw, table = data.draw(_scenario(path))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if table is not None:
            (root / "table.csv").write_text(table)
            raw["family"]["table"] = str(root / "table.csv")
        (root / "sc.yaml").write_text(yaml.safe_dump(raw))
        out = root / "out"
        code = main([command, "--config", str(root / "sc.yaml"), "--out", str(out),
                     "--quiet"])
        assert code in (0, 1, 2), (code, raw)
        if code == 2:
            assert not out.exists(), raw


# a draw at the ends of the ranges, pinned: beta * t overflows the bump's
# scale, which must read as a config error and nothing else on stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bump_breathing_overflow_is_one_config_error_line(tmp_path, capsys):
    raw = {"name": "fuzz", "command": "solve-family", "chart": "torus", "resolution": 17,
           "family": {"name": "bump-breathing", "beta": -1e300, "horizon": 1e300, "samples": 1}}
    (tmp_path / "sc.yaml").write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    code = main(["solve-family", "--config", str(tmp_path / "sc.yaml"), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.splitlines() == [err.strip()] and err.startswith("config error [family]:")


# draws at the ends of the ranges, pinned: each overflows on its way to a
# recorded outcome (the glue's horizon collapses, the local load is refused,
# the family's sample times reach the float range) and warns nothing
OVERFLOWING_DRAWS = {
    "decompose-increment": (
        {"command": "solve-global", "manifold": "circle", "resolution": 17, "mesh": 16,
         "family": {"name": "uniform-scale", "beta": 3.2381225999991927e+307, "samples": 1}},
        1, "glue horizon collapsed"),
    "disk-laplacian": (
        {"command": "solve-local", "chart": "torus", "resolution": 21,
         "amplitude": 8.089619106880424e+306, "bump_radius": 5.0e-324},
        1, "load overflowed at step 2"),
    "sample-times": (
        {"command": "solve-family", "chart": "parabola", "resolution": 17,
         "family": {"name": "constant", "horizon": 1.7976931348623157e+308, "samples": 3}},
        0, None),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("draw", OVERFLOWING_DRAWS)
def test_an_overflowing_draw_ends_quietly(draw, tmp_path):
    raw, expected, failure = OVERFLOWING_DRAWS[draw]
    raw = {"name": "fuzz", **raw}
    (tmp_path / "sc.yaml").write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main([raw["command"], "--config", str(tmp_path / "sc.yaml"), "--out", str(out), "--quiet"]) == expected
    summary = json.loads((out / "summary.json").read_text())
    if failure is None:
        assert "failure" not in summary
    else:
        assert summary["failure"].startswith(failure)
