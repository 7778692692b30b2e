"""Scenario configuration: YAML loading, validation, canonical hashing.

A scenario is one YAML document describing a single run (command, chart
or manifold selection, resolutions, metric family, tolerances, output
directory).  Validation failures raise ScenarioError carrying the field
path (and the YAML line for syntax errors) so the CLI can report a
diagnostic and exit 2 without touching the output directory.  That
includes a scenario too large to run: check_size estimates its largest
arrays before anything is allocated.
"""

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .atlas import PSI_SUPP
from .embeddings import CHARTS, MAX_HALFWIDTH, PHASES
from .family import CHART_FAMILIES, GLOBAL_FAMILIES, WINDOW_FLAT, WINDOW_SUPPORT
from .grid import MIN_RESOLUTION, make_grid


CHART_COMMANDS = ("check-free", "solve-local", "solve-family")  # they read `chart`
# the scenario keys each command's run reads, besides _COMMON_KEYS, which
# every command reads; parse_scenario rejects any other key
_COMMON_KEYS = {"name", "command", "seed", "resolution", "out"}
READS = {
    "check-free": ("chart", "halfwidth"),
    "solve-local": ("chart", "halfwidth", "amplitude", "bump_radius", "alpha",
                    "iteration_tol", "residual_tol", "cutoff"),
    "solve-family": ("chart", "halfwidth", "family", "window", "alpha",
                     "iteration_tol", "residual_tol", "cutoff"),
    "solve-global": ("manifold", "charts", "mesh", "family", "alpha",
                     "iteration_tol", "residual_tol", "cutoff"),
    "verify-appendix": ("alpha", "appendix_samples"),
}
COMMANDS = tuple(READS)
CHART_NAMES = tuple(CHARTS)
MANIFOLDS = tuple(PHASES)
# largest array group a scenario may allocate, in bytes: a disk grid's sweep
# lattice, the embedding paths a run holds until it writes them, or the
# corpus stacks of verify-appendix
MAX_ALLOC_BYTES = 1 << 28
# verify-appendix checks the inequalities on the interval at the scenario's
# resolution with appendix_samples samples, and on this disk with
# appendix_disk_samples of them
APPENDIX_DISK_RESOLUTION = 33


def appendix_disk_samples(samples):
    """The disk corpus size of verify-appendix for appendix_samples = samples."""
    return max(10, samples // 5)


class ScenarioError(ValueError):
    """Unparseable or invalid scenario; carries field/line diagnostics."""

    def __init__(self, message, field=None, line=None):
        super().__init__(message)
        self.field = field
        self.line = line


@dataclass
class FamilySpec:
    """Named closed-form metric family, or a sampled table of components."""

    name: str = "constant"
    beta: float = 0.05
    horizon: float = 1.0
    samples: int = 8
    bump_radius: float = 0.4
    bump_power: int = 4
    table: str = None  # CSV path: column 0 is t, remaining columns components


@dataclass
class Scenario:
    name: str
    command: str
    seed: int = 0
    resolution: int = 401
    alpha: float = 0.5
    chart: str = "parabola"      # local / family commands
    halfwidth: float = None      # chart halfwidth (None: per-chart default)
    manifold: str = "circle"     # solve-global
    charts: int = 2              # atlas size (solve-global)
    mesh: int = 512              # periodic verification mesh (solve-global)
    family: FamilySpec = field(default_factory=FamilySpec)
    amplitude: float = 0.01      # solve-local bump amplitude
    bump_radius: float = 0.5     # solve-local bump support radius
    cutoff: list = None          # [flat, support]; None = command default
    window: list = None          # [flat, support] family window; None = default
    iteration_tol: float = 1e-9
    residual_tol: float = 1e-6
    appendix_samples: int = 100  # verify-appendix corpus size
    out: str = None


def _require(cond, message, fieldname):
    if not cond:
        raise ScenarioError(f"{fieldname}: {message}", field=fieldname)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Each numeric scenario key's type and range: an int lies in [lo, hi], a float
# is finite and lies in (lo, hi), and None leaves that end open.  A key under
# family is named family.<key>.
RANGES = {
    "seed": (int, 0, None),
    "resolution": (int, MIN_RESOLUTION, 20001),
    "alpha": (float, 0.0, 1.0),
    "halfwidth": (float, 0.0, MAX_HALFWIDTH),
    "charts": (int, 2, None),
    "mesh": (int, 16, None),
    "amplitude": (float, None, None),
    "bump_radius": (float, 0.0, 1.0),
    "iteration_tol": (float, 0.0, None),
    "residual_tol": (float, 0.0, None),
    "appendix_samples": (int, 1, None),
    "family.beta": (float, None, None),
    "family.horizon": (float, 0.0, None),
    "family.samples": (int, 1, None),
    "family.bump_radius": (float, 0.0, 1.0),
    "family.bump_power": (int, 1, None),
}


def read_number(key, value, fieldname=None):
    """value as the type of key's row in RANGES, checked against its range.

    A value out of type or range is an error on fieldname (default key),
    e.g. the CLI flag that gave it.
    """
    kind, lo, hi = RANGES[key]
    lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
    fieldname = fieldname or key
    if kind is int:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"must be an integer, got {value!r}", fieldname)
        _require(lo <= value <= hi, f"must be in [{lo}, {hi}], got {value!r}", fieldname)
    else:
        # abs(value) <= max also rejects NaN, inf, and an int no float holds
        _require(_is_number(value) and abs(value) <= sys.float_info.max,
                 f"must be a finite number, got {value!r}", fieldname)
        _require(lo < value < hi, f"must be in ({lo}, {hi}), got {value!r}", fieldname)
    return kind(value)


def _as_radii(value, fieldname):
    # 0 < flat < support < 1 holds only for finite numbers
    _require(isinstance(value, (list, tuple)) and len(value) == 2
             and all(map(_is_number, value)) and 0.0 < value[0] < value[1] < 1.0,
             f"must be a [flat, support] pair with 0 < flat < support < 1, "
             f"got {value!r}", fieldname)
    return [float(v) for v in value]


_SCENARIO_KEYS = _COMMON_KEYS.union(*READS.values())


def _validate_family(raw, command):
    _require(isinstance(raw, dict), f"must be a mapping, got {raw!r}", "family")
    unknown = set(raw) - {f.name for f in fields(FamilySpec)}
    _require(not unknown, f"unknown keys {sorted(unknown)}", "family")
    spec = FamilySpec()
    if "name" in raw:
        _require(isinstance(raw["name"], str), "must be a string", "family.name")
        spec.name = raw["name"]
    allowed = GLOBAL_FAMILIES if command == "solve-global" else CHART_FAMILIES
    _require(spec.name in allowed,
             f"unknown family {spec.name!r}; expected one of {list(allowed)}",
             "family.name")
    for key in RANGES:
        name = key.removeprefix("family.")
        if name != key and name in raw:
            setattr(spec, name, read_number(key, raw[name]))
    if "table" in raw:
        _require(isinstance(raw["table"], str), "must be a path string",
                 "family.table")
        spec.table = raw["table"]
        _require(spec.name == "table",
                 "a table path needs family.name: table", "family.table")
    if spec.name == "table":
        _require(spec.table is not None, "family.name 'table' needs a table path",
                 "family.table")
    return spec


def parse_scenario(raw) -> Scenario:
    """Validate a parsed YAML mapping into a Scenario."""
    _require(isinstance(raw, dict), f"scenario must be a mapping, got {type(raw).__name__}",
             "<document>")
    unknown = set(raw) - _SCENARIO_KEYS
    _require(not unknown, f"unknown keys {sorted(unknown)}", "<document>")
    _require("name" in raw and isinstance(raw["name"], str) and raw["name"],
             "a non-empty scenario name is required", "name")
    _require("command" in raw, "a command is required", "command")
    _require(raw["command"] in COMMANDS,
             f"unknown command {raw['command']!r}; expected one of {list(COMMANDS)}",
             "command")
    sc = Scenario(name=raw["name"], command=raw["command"])
    unread = sorted(set(raw) - _COMMON_KEYS - set(READS[sc.command]))
    if unread:
        raise ScenarioError(f"{unread[0]}: a {sc.command} run does not read it",
                            field=unread[0])
    if "chart" in raw:
        _require(raw["chart"] in CHART_NAMES,
                 f"unknown chart {raw['chart']!r}; expected one of {list(CHART_NAMES)}",
                 "chart")
        sc.chart = raw["chart"]
    if "manifold" in raw:
        _require(raw["manifold"] in MANIFOLDS,
                 f"unknown manifold {raw['manifold']!r}; expected one of {list(MANIFOLDS)}",
                 "manifold")
        sc.manifold = raw["manifold"]
    # only the chart of a manifold (circle or torus) has a halfwidth; a null
    # one keeps the chart's default
    _require(raw.get("halfwidth") is None or sc.chart in MANIFOLDS,
             f"only a circle or torus chart reads it; got chart {sc.chart!r}",
             "halfwidth")
    for key in RANGES:
        if key in raw and (raw[key] is not None or key != "halfwidth"):
            setattr(sc, key, read_number(key, raw[key]))
    if "family" in raw:
        sc.family = _validate_family(raw["family"], sc.command)
    if sc.command == "solve-family":
        # the time-regularity probe divides by dt**2; halving never takes the
        # horizon below adaptive_horizon's floor, so the first step is the least
        step = sc.family.horizon / sc.family.samples
        _require(step * step > 0.0, f"the sample step {step:.3e} squares to 0", "family.horizon")
    if "cutoff" in raw and raw["cutoff"] is not None:
        sc.cutoff = _as_radii(raw["cutoff"], "cutoff")
        _require(sc.command != "solve-global" or sc.cutoff[0] >= PSI_SUPP,
                 "a glue cutoff must be flat over the partition support "
                 f"(flat >= {PSI_SUPP}), got {raw['cutoff']!r}", "cutoff")
    if "window" in raw and raw["window"] is not None:
        sc.window = _as_radii(raw["window"], "window")
        _require(WINDOW_FLAT <= sc.window[0] and sc.window[1] <= WINDOW_SUPPORT,
                 f"must lie within [{WINDOW_FLAT}, {WINDOW_SUPPORT}], got {raw['window']!r}",
                 "window")
    if "out" in raw and raw["out"] is not None:
        _require(isinstance(raw["out"], str), "must be a path string", "out")
        sc.out = raw["out"]
    return check_size(sc)


def check_size(sc):
    """Reject a scenario whose largest arrays would pass MAX_ALLOC_BYTES.

    Three estimates, in float64 bytes, made before anything is allocated:
    - the sweep lattice of a disk grid (a torus chart, or the charts of a
      torus glue): (2N-1)*N slots for N = resolution, more than its disk
      nodes;
    - the embedding paths a solve holds until it writes its CSV:
      points x q x stages x (samples + 1), where the points are the mesh^dim
      mesh points and the stages charts + 1 for solve-global, and the N^dim
      chart nodes and 2 stages for solve-family;
    - the corpus stacks of verify-appendix, each inequality corpus apart:
      check_inequalities peaks at about 24 doubles per node and sample on
      the interval and 31 on the disk (tracemalloc, N = 201-2001 and the
      N = 33 disk).  Its fixed 20-sample monitors stay under 90 MB at the
      largest resolution.
    The error names the field with the largest factor.  Returns sc.
    """
    N = sc.resolution
    if sc.command == "solve-global":
        shape = sc.manifold
    elif sc.command in CHART_COMMANDS:
        shape = sc.chart
    else:  # verify-appendix
        _check_bytes({"resolution": N, "appendix_samples": sc.appendix_samples},
                     "the interval corpus stacks", 24)
        _check_bytes({"appendix_samples": appendix_disk_samples(sc.appendix_samples)},
                     "the disk corpus stacks", 31 * make_grid(2, APPENDIX_DISK_RESOLUTION).num_nodes)
        return sc
    dim, width = CHARTS[shape].dim, CHARTS[shape].q
    if dim == 2:
        _check_bytes({"resolution": (2 * N - 1) * N}, "the disk grid's sweep lattice")
    if sc.command == "solve-global":
        paths = {"mesh": sc.mesh**dim, "charts": sc.charts + 1}
    elif sc.command == "solve-family":
        paths = {"resolution": N**dim}
        width *= 2  # two stages: the base chart and the solution
    else:
        return sc
    paths["family.samples"] = sc.family.samples + 1
    _check_bytes(paths, "the embedding paths", width)
    return sc


def _check_bytes(factors, what, width=1):
    total = 8 * width
    for count in factors.values():
        total *= count
    fieldname = max(factors, key=factors.get)
    _require(total <= MAX_ALLOC_BYTES,
             f"{what} would take about {total / 2**20:.3g} MiB, over the "
             f"{MAX_ALLOC_BYTES >> 20} MiB limit", fieldname)


def load_scenario(path) -> Scenario:
    """Load and validate one scenario from a YAML file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}", field="--config")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"config file unreadable: {path}: {exc}", field="--config")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        where = f" (line {line})" if line is not None else ""
        raise ScenarioError(f"YAML syntax error{where}: {exc}", line=line)
    scenario = parse_scenario(raw)
    _import_for(scenario)
    return scenario


def _import_for(sc):
    """Import the subpackages sc's run will call that no package module
    imports, so that they load with the scenario and not in the middle of
    a solve.

    verify-appendix draws its corpora from numpy.random, which numpy loads
    on first use.  No run needs scipy: the spline solves and the 2-d
    Dirichlet factorization are the package's own, in numpy.
    """
    if sc.command == "verify-appendix":
        import numpy.random  # noqa: F401


def scenario_hash(scenario: Scenario) -> str:
    """sha256 of the canonical JSON form (sorted keys, repr floats)."""
    blob = json.dumps(asdict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_family_table(path):
    """Read a sampled family table: column 0 is t, the rest are components.

    Returns (t_values, components) as float arrays; the evaluator built on
    top interpolates the spatially-constant components cubically in t.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except FileNotFoundError:
        raise ScenarioError(f"family table not found: {path}", field="family.table")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"family table unreadable: {path}: {exc}",
                            field="family.table")
    except ValueError as exc:
        raise ScenarioError(f"family table is not numeric CSV: {exc}",
                            field="family.table")
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ScenarioError(
            "family table needs >= 2 rows and a t column plus >= 1 component",
            field="family.table",
        )
    if not np.all(np.isfinite(data)):
        raise ScenarioError("family table values must be finite (no NaN or inf)",
                            field="family.table")
    t = data[:, 0]
    if np.any(np.diff(t) <= 0):
        raise ScenarioError("family table t column must be strictly increasing",
                            field="family.table")
    return t, data[:, 1:]
