"""The four workloads and the seeded input generator.

Each workload is a scenario mapping in the schema of ``isoperturb.config``.
The solve scenarios are copies of shipped configs as they stood when the
benchmark was defined, kept here so that a later edit to ``configs/``
cannot silently change what is measured.  Why each workload exists is in
README.md.

Only inputs vary with the seed: the family ``beta`` within a relative band
of +-BETA_BAND, and the scenario seed, which drives the norm-suite corpus.
The band is narrow enough that the number of horizon halvings does not
change across it (README.md records the check).
"""

import copy
import random

BETA_BAND = 0.01

BASE = {
    # configs/circle_glue.yaml with 4 samples instead of 8, so that a run
    # fits the benchmark's time budget; it keeps both horizon halvings
    "circle-glue": {
        "name": "circle-glue",
        "command": "solve-global",
        "manifold": "circle",
        "charts": 2,
        "resolution": 801,
        "mesh": 2048,
        "family": {"name": "circle-breathing", "beta": 0.05, "horizon": 1.0, "samples": 4},
        "cutoff": [0.85, 0.985],
        "iteration_tol": 1.0e-9,
        "residual_tol": 1.0e-5,
    },
    # configs/torus_smoke.yaml
    "torus-glue": {
        "name": "torus-glue",
        "command": "solve-global",
        "manifold": "torus",
        "charts": 4,
        "resolution": 25,
        "mesh": 48,
        "family": {"name": "circle-breathing", "beta": 0.01, "horizon": 0.25, "samples": 1},
        "iteration_tol": 1.0e-7,
        "residual_tol": 5.0e-3,
    },
    # configs/breathing_chart.yaml
    "chart-family": {
        "name": "chart-family",
        "command": "solve-family",
        "chart": "parabola",
        "resolution": 3201,
        "family": {
            "name": "bump-breathing",
            "beta": 0.01,
            "horizon": 0.5,
            "samples": 8,
            "bump_radius": 0.4,
        },
        "window": [0.5, 0.75],
        "cutoff": [0.5, 0.9],
        "iteration_tol": 1.0e-9,
        "residual_tol": 1.0e-6,
    },
    # the verify-appendix calls at a size that fits a run; see NORM_SUITE
    "norm-suite": {
        "name": "norm-suite",
        "command": "verify-appendix",
        "resolution": 201,
        "appendix_samples": 20,
    },
}

# The CLI's verify-appendix pins the 2-d pass at N=33 with at least 10
# samples (about 85 s); one 2-d sample keeps the same grid and seminorm
# path at a size that fits a run.  The monitor counts are the CLI's.
NORM_SUITE = {"disk_resolution": 33, "disk_samples": 1, "monitor_samples": 20}

WORKLOADS = tuple(BASE)


def make_scenario(workload, seed, rep):
    """Scenario mapping for repetition ``rep`` of a run with ``seed``.

    Deterministic in (workload, seed, rep); the repetitions of one run
    spread over the input band so that a run's median does not hang on one
    draw.
    """
    if workload not in BASE:
        raise KeyError(f"unknown workload {workload!r}; expected one of {list(BASE)}")
    rng = random.Random(f"{workload}/{seed}/{rep}")
    raw = copy.deepcopy(BASE[workload])
    raw["seed"] = rng.randrange(2**31)
    if "family" in raw:
        raw["family"]["beta"] *= 1.0 + BETA_BAND * rng.uniform(-1.0, 1.0)
    return raw
