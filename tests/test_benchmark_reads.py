"""The benchmark's tracer reads the solutions as the solvers build them.

perfbench/tracer.py counts the solves that a family or a glue kept from the
solution it returns (`FamilySolution.traces`, `GlobalSolution.stage_traces`)
and takes every other solve inside the call as discarded.  Its readers
swallow an AttributeError, so a renamed attribute would silently count
every kept solve as discarded.  Here the counts are checked against the
halvings that each run recorded.  The solvers are called through their
modules, where the tracer puts its wrappers.
"""

import sys
from pathlib import Path

import numpy as np

from isoperturb import atlas, family
from isoperturb.embeddings import ParabolaChart
from isoperturb.family import MetricFamily, build_family, chart_window, sample_times
from isoperturb.fixedpoint import IterationConfig
from isoperturb.frame import build_frame
from isoperturb.grid import make_grid
from isoperturb.operators import Cutoff, radial_window

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's modules import as perfbench/tests/conftest.py imports them
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402


def _discarded(halvings, samples):
    """Solves thrown away by the recorded halvings.

    A failed pass solved every sample of the glue stages before its failing
    one, then the failing stage's samples from the largest t down to the
    failed one (a chart family is one stage).
    """
    total = 0
    for h in halvings:
        earlier = (h.stage or 1) - 1
        total += earlier * (samples + 1)
        total += int(np.count_nonzero(sample_times(h.horizon, samples) >= h.t))
    return total


def test_traced_family_discards_the_solves_of_its_halvings():
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=2, beta=1.0, bump_radius=0.4)
    with tracer.Tracer() as tr:
        sol = family.solve_family(build_frame(ParabolaChart(), g), fam, chart_window(g),
                                  cutoff=Cutoff(g, 0.8, 0.95), config=IterationConfig(tol=1e-9))
    assert tr.missing == []
    m = tracer.layer_metrics(tr.spans)
    assert len(sol.halvings) >= 2
    assert m["family.halvings"] == len(sol.halvings)
    assert m["family.solves_discarded"] == _discarded(sol.halvings, 2)
    assert m["fixedpoint.solves"] == m["family.solves_discarded"] + len(sol.records)


def test_traced_glue_discards_the_solves_of_its_halvings():
    # a notch around theta = pi lies outside chart 0's partition bump: stage
    # 1 solves a zero increment at every t, and each failure is in stage 2
    def notch(points, t):
        th = np.atleast_2d(points)[:, 0]
        return (1.0 + 0.1 * t * radial_window(np.abs(th - np.pi), 0.5, 1.0))[:, None]

    fam = MetricFamily(notch, horizon=1.0, samples=2, name="notch")
    with tracer.Tracer() as tr:
        sol = atlas.glue_solve(fam, atlas.build_atlas("circle", 2), chart_resolution=201,
                               mesh=128, config=IterationConfig(tol=1e-8))
    assert tr.missing == []
    m = tracer.layer_metrics(tr.spans)
    assert len(sol.halvings) >= 2 and all(h.stage == 2 for h in sol.halvings)
    assert m["atlas.halvings"] == len(sol.halvings)
    assert m["atlas.solves_discarded"] == _discarded(sol.halvings, 2)
    kept = sum(len(recs) for recs in sol.records)
    assert m["fixedpoint.solves"] == m["atlas.solves_discarded"] + kept
