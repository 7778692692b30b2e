"""Nothing in the package exists only for the tests.

Every function, method and class defined in src/isoperturb (dunder methods
aside) must be referred to by some module under src/, scripts/ or
perfbench/, test files excluded.  A reference is a name or an attribute
with that identifier, or a dotted string constant that holds it (the
benchmark tracer names its targets as "Grid.quotient_max").  An `__all__`
entry is an export, not a reference.

Every stored value must be read the same way: each dataclass field, and
each attribute assigned as `self.x = ...`, must be loaded as an attribute
`.x` (or through `getattr(obj, "x")`) by such a module.  An attribute
inside an assignment target, as in `self.x[i] = ...`, is a store, not a
load.

Both matches are by identifier only, so they can miss an unused name that
is also used elsewhere; they never flag a used one.

Every module-level import in src/isoperturb must be used in its module:
callers import each name from the module that defines it, so no module
imports a name only to pass it on.

A field is its array: in src/, ScalarField and VecField are built only as
direct arguments of the measurements that take a grid-paired field
(holder_norm, holder_norms, isometry_residual).
"""

import ast
import re
from pathlib import Path

from isoperturb.embeddings import CHARTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isoperturb"
CALLER_DIRS = ("src", "scripts", "perfbench")

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.name, node.lineno, node.name


def _caller_trees():
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if not (path.name.startswith("test_") or path.name == "conftest.py"):
                yield ast.parse(path.read_text())


def _references():
    refs = set()
    for tree in _caller_trees():
        exported = {
            id(n)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for n in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exported and _DOTTED.fullmatch(node.value)):
                refs.update(node.value.split("."))
    return refs


def test_every_definition_has_a_caller_outside_the_tests():
    refs = _references()
    orphans = [f"{module}:{line} {name}" for module, line, name in _definitions() if name not in refs]
    assert not orphans, "defined but referred to only by tests: " + ", ".join(orphans)


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def _stored():
    """{(module, "Class.name"): line} of every dataclass field and self attribute."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(_is_dataclass(d) for d in cls.decorator_list):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        found.setdefault((path.name, f"{cls.name}.{node.target.id}"), node.lineno)
            for node in ast.walk(cls):
                for target in _targets(node):
                    for t in ast.walk(target):
                        if (isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                                and isinstance(t.value, ast.Name) and t.value.id == "self"):
                            found.setdefault((path.name, f"{cls.name}.{t.attr}"), t.lineno)
    return found


def _loads():
    loads = set()
    for tree in _caller_trees():
        in_target = {id(n) for node in ast.walk(tree) for t in _targets(node) for n in ast.walk(t)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in in_target):
                loads.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                loads.add(node.args[1].value)
    return loads


def test_every_stored_value_is_read_outside_the_tests():
    loads = _loads()
    unread = [f"{module}:{line} {name}" for (module, name), line in sorted(_stored().items())
              if name.split(".")[1] not in loads]
    assert not unread, "stored but read only by tests: " + ", ".join(unread)


# the one name imported to be read from the importing module: the benchmark
# oracle (perfbench/oracle.py) reads atlas.build_manifold_family
REEXPORTED = {("atlas.py", "build_manifold_family")}


def _module_imports(tree):
    """(line, bound name) of each module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_every_import_is_used_in_its_module():
    imported, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for line, name in _module_imports(tree):
            imported.add((path.name, name))
            if name not in used and (path.name, name) not in REEXPORTED:
                unused.append(f"{path.name}:{line} {name}")
    assert REEXPORTED <= imported
    assert not unused, "imported but not used in the module: " + ", ".join(unused)


def test_no_module_under_src_imports_scipy():
    """No module under src/ imports scipy, at module level or in a function:
    the oracle, the grid, the splines and the Dirichlet solves are numpy
    alone, so no run loads it (tests/test_imports.py runs them)."""
    misplaced = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                misplaced.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not misplaced, "scipy imported under src/: " + ", ".join(misplaced)


def test_only_grid_stores_state_on_a_grid():
    """Everything cached per grid lives in Grid.cached, not in attributes
    that other modules attach to a Grid (named `grid` or `g` by convention)."""
    stores = []
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path == PACKAGE / "grid.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id in ("grid", "g")):
                    stores.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.value.id}.{node.attr}")
    assert not stores, "attributes stored on a grid outside grid.py: " + ", ".join(stores)


def _name_comparisons(source):
    """Lines of source that compare against a chart or manifold name literal."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if any(isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                       and leaf.value in CHARTS for leaf in ast.walk(operand)):
                    yield node.lineno


def test_the_cli_and_the_config_read_shapes_from_the_chart_table():
    """cli.py and config.py learn a chart's dimension and width from
    embeddings.CHARTS, never by comparing its name against a string."""
    assert list(_name_comparisons('dim = 2 if scenario.chart == "torus" else 1')) == [1]
    assert list(_name_comparisons('two_d = sc.chart in ("circle", "torus")')) == [1]
    found = [f"{module}:{line}" for module in ("cli.py", "config.py")
             for line in _name_comparisons((PACKAGE / module).read_text())]
    assert not found, "chart or manifold name compared as a string: " + ", ".join(found)


# the measurements that take a grid-paired field; everywhere else a field is
# its (nodes,) or (nodes, k) array, read on the grid its caller holds
MEASUREMENTS = {"holder_norm", "holder_norms", "isometry_residual"}
WRAPPERS = {"ScalarField", "VecField"}


def _called_name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_a_field_is_paired_with_its_grid_only_to_be_measured():
    """In src/, every ScalarField(...) or VecField(...) call is a direct
    argument of holder_norm, holder_norms or isometry_residual, and no
    SymTensorField is defined."""
    misplaced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        measured = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) in MEASUREMENTS
            for arg in [*node.args, *(k.value for k in node.keywords)]
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _called_name(node) in WRAPPERS
                    and id(node) not in measured):
                misplaced.append(f"{path.name}:{node.lineno} {_called_name(node)}")
            elif isinstance(node, ast.ClassDef) and node.name == "SymTensorField":
                misplaced.append(f"{path.name}:{node.lineno} class SymTensorField")
    assert not misplaced, "a field wrapped outside a measurement: " + ", ".join(misplaced)
