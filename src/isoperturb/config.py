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
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .atlas import PSI_SUPP
from .embeddings import CHARTS, MAX_HALFWIDTH, PHASES
from .family import CHART_FAMILIES, GLOBAL_FAMILIES, WINDOW_FLAT, WINDOW_SUPPORT
from .grid import MIN_RESOLUTION


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
MAX_RESOLUTION = 20001
# largest array group a scenario may allocate, in bytes: a disk grid's sweep
# lattice, or the embedding paths a run holds until it writes them
MAX_ALLOC_BYTES = 1 << 28


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


def _as_number(value, fieldname):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and np.isfinite(value), f"must be a finite number, got {value!r}",
             fieldname)
    return float(value)


def _as_int(value, fieldname):
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"must be an integer, got {value!r}", fieldname)
    return int(value)


def _as_radii(value, fieldname):
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"must be a [flat, support] pair, got {value!r}", fieldname)
    lo = _as_number(value[0], fieldname + "[0]")
    hi = _as_number(value[1], fieldname + "[1]")
    _require(0.0 < lo < hi < 1.0, f"needs 0 < flat < support < 1, got {value!r}",
             fieldname)
    return [lo, hi]


def check_resolution(value, fieldname):
    """Grid nodes per axis: an integer in [MIN_RESOLUTION, MAX_RESOLUTION]."""
    value = _as_int(value, fieldname)
    _require(MIN_RESOLUTION <= value <= MAX_RESOLUTION,
             f"must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {value}", fieldname)
    return value


def check_seed(value, fieldname):
    """Random seed: a non-negative integer."""
    value = _as_int(value, fieldname)
    _require(value >= 0, f"must be non-negative, got {value}", fieldname)
    return value


_SCENARIO_KEYS = _COMMON_KEYS.union(*READS.values())
_FAMILY_KEYS = {"name", "beta", "horizon", "samples", "bump_radius",
                "bump_power", "table"}


def _validate_family(raw, command):
    _require(isinstance(raw, dict), f"must be a mapping, got {raw!r}", "family")
    unknown = set(raw) - _FAMILY_KEYS
    _require(not unknown, f"unknown keys {sorted(unknown)}", "family")
    spec = FamilySpec()
    if "name" in raw:
        _require(isinstance(raw["name"], str), "must be a string", "family.name")
        spec.name = raw["name"]
    allowed = GLOBAL_FAMILIES if command == "solve-global" else CHART_FAMILIES
    _require(spec.name in allowed,
             f"unknown family {spec.name!r}; expected one of {list(allowed)}",
             "family.name")
    if "beta" in raw:
        spec.beta = _as_number(raw["beta"], "family.beta")
    if "horizon" in raw:
        spec.horizon = _as_number(raw["horizon"], "family.horizon")
        _require(spec.horizon > 0.0, "must be positive", "family.horizon")
    if "samples" in raw:
        spec.samples = _as_int(raw["samples"], "family.samples")
        _require(spec.samples >= 1, "needs at least 1 sample", "family.samples")
    if "bump_radius" in raw:
        spec.bump_radius = _as_number(raw["bump_radius"], "family.bump_radius")
        _require(0.0 < spec.bump_radius < 1.0, "must be in (0, 1)",
                 "family.bump_radius")
    if "bump_power" in raw:
        spec.bump_power = _as_int(raw["bump_power"], "family.bump_power")
        _require(spec.bump_power >= 1, f"must be at least 1, got {spec.bump_power}",
                 "family.bump_power")
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
    if "seed" in raw:
        sc.seed = check_seed(raw["seed"], "seed")
    if "resolution" in raw:
        sc.resolution = check_resolution(raw["resolution"], "resolution")
    if "alpha" in raw:
        sc.alpha = _as_number(raw["alpha"], "alpha")
        _require(0.0 < sc.alpha < 1.0, "must be in (0, 1)", "alpha")
    if "chart" in raw:
        _require(raw["chart"] in CHART_NAMES,
                 f"unknown chart {raw['chart']!r}; expected one of {list(CHART_NAMES)}",
                 "chart")
        sc.chart = raw["chart"]
    if "halfwidth" in raw and raw["halfwidth"] is not None:
        # only the chart of a manifold (circle or torus) has a halfwidth
        _require(sc.chart in MANIFOLDS,
                 f"only a circle or torus chart reads it; got chart {sc.chart!r}",
                 "halfwidth")
        sc.halfwidth = _as_number(raw["halfwidth"], "halfwidth")
        _require(0.0 < sc.halfwidth < MAX_HALFWIDTH,
                 f"must be in (0, pi), got {sc.halfwidth}", "halfwidth")
    if "manifold" in raw:
        _require(raw["manifold"] in MANIFOLDS,
                 f"unknown manifold {raw['manifold']!r}; expected one of {list(MANIFOLDS)}",
                 "manifold")
        sc.manifold = raw["manifold"]
    if "charts" in raw:
        sc.charts = _as_int(raw["charts"], "charts")
        _require(sc.charts >= 2, "an atlas needs at least 2 charts", "charts")
    if "mesh" in raw:
        sc.mesh = _as_int(raw["mesh"], "mesh")
        _require(sc.mesh >= 16, "must be at least 16", "mesh")
    if "family" in raw:
        sc.family = _validate_family(raw["family"], sc.command)
    if "amplitude" in raw:
        sc.amplitude = _as_number(raw["amplitude"], "amplitude")
    if "bump_radius" in raw:
        sc.bump_radius = _as_number(raw["bump_radius"], "bump_radius")
        _require(0.0 < sc.bump_radius < 1.0, "must be in (0, 1)", "bump_radius")
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
    if "iteration_tol" in raw:
        sc.iteration_tol = _as_number(raw["iteration_tol"], "iteration_tol")
        _require(sc.iteration_tol > 0.0, "must be positive", "iteration_tol")
    if "residual_tol" in raw:
        sc.residual_tol = _as_number(raw["residual_tol"], "residual_tol")
        _require(sc.residual_tol > 0.0, "must be positive", "residual_tol")
    if "appendix_samples" in raw:
        sc.appendix_samples = _as_int(raw["appendix_samples"], "appendix_samples")
        _require(sc.appendix_samples >= 1, "must be positive", "appendix_samples")
    if "out" in raw and raw["out"] is not None:
        _require(isinstance(raw["out"], str), "must be a path string", "out")
        sc.out = raw["out"]
    return check_size(sc)


def check_size(sc):
    """Reject a scenario whose largest arrays would pass MAX_ALLOC_BYTES.

    Two estimates, in float64 bytes, made before anything is allocated:
    - the sweep lattice of a disk grid (a torus chart, or the charts of a
      torus glue): (2N-1)*N slots for N = resolution, more than its disk
      nodes;
    - the embedding paths a solve holds until it writes its CSV:
      points x q x stages x (samples + 1), where the points are the mesh^dim
      mesh points and the stages charts + 1 for solve-global, and the N^dim
      chart nodes and 2 stages for solve-family.
    The error names the field with the largest factor.  Returns sc.
    """
    if sc.command == "solve-global":
        shape = sc.manifold
    elif sc.command in CHART_COMMANDS:
        shape = sc.chart
    else:
        return sc  # verify-appendix: an interval and the fixed 33-node disk
    dim, width = CHARTS[shape].dim, CHARTS[shape].q
    N = sc.resolution
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
