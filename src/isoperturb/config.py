"""Scenario configuration: YAML loading, validation, canonical hashing.

A scenario is one YAML document describing a single run (command, chart
or manifold selection, resolutions, metric family, tolerances, output
directory).  Validation failures raise ScenarioError carrying the field
path (and the YAML line for syntax errors) so the CLI can report a
diagnostic and exit 2 without touching the output directory.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .family import WINDOW_FLAT, WINDOW_SUPPORT
from .grid import MIN_RESOLUTION


COMMANDS = ("check-free", "solve-local", "solve-family", "solve-global",
            "verify-appendix")
CHART_NAMES = ("parabola", "circle", "torus")
MANIFOLDS = ("circle", "torus")
CHART_FAMILIES = ("constant", "uniform-scale", "bump-breathing", "circle-breathing")
GLOBAL_FAMILIES = ("constant", "uniform-scale", "circle-breathing", "table")
MAX_RESOLUTION = 20001


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


_SCENARIO_KEYS = {
    "name", "command", "seed", "resolution", "alpha", "chart", "halfwidth",
    "manifold", "charts", "mesh", "family", "amplitude", "bump_radius",
    "cutoff", "window", "iteration_tol", "residual_tol", "appendix_samples",
    "out",
}
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
    if "seed" in raw:
        sc.seed = _as_int(raw["seed"], "seed")
        _require(sc.seed >= 0, "must be non-negative", "seed")
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
        sc.halfwidth = _as_number(raw["halfwidth"], "halfwidth")
        _require(sc.halfwidth > 0.0, "must be positive", "halfwidth")
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
    return sc


def load_scenario(path) -> Scenario:
    """Load and validate one scenario from a YAML file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}", field="--config")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        where = f" (line {line})" if line is not None else ""
        raise ScenarioError(f"YAML syntax error{where}: {exc}", line=line)
    return parse_scenario(raw)


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
    except ValueError as exc:
        raise ScenarioError(f"family table is not numeric CSV: {exc}",
                            field="family.table")
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ScenarioError(
            "family table needs >= 2 rows and a t column plus >= 1 component",
            field="family.table",
        )
    t = data[:, 0]
    if np.any(np.diff(t) <= 0):
        raise ScenarioError("family table t column must be strictly increasing",
                            field="family.table")
    return t, data[:, 1:]
