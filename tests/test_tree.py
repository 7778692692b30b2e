"""Nothing in the package exists only for the tests.

Every function, method and class defined in src/isoperturb (dunder methods
aside) must be referred to by some module under src/, scripts/ or
perfbench/, test files excluded.  A reference is a name or an attribute
with that identifier, or a dotted string constant that holds it (the
benchmark tracer names its targets as "Grid.quotient_max").  An `__all__`
entry is an export, not a reference.  The match is by identifier only, so
the check can miss an unused method whose name is also used elsewhere; it
never flags a used one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isoperturb"
CALLER_DIRS = ("src", "scripts", "perfbench")

# README acceptance criterion 4 is stated in terms of this property, and
# only the acceptance gate reads it
EXEMPT = {("fixedpoint.py", "asymptotic_ratio")}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.name, node.lineno, node.name


def _references():
    refs = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            tree = ast.parse(path.read_text())
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
    defined = list(_definitions())
    assert EXEMPT <= {(module, name) for module, _, name in defined}
    refs = _references()
    orphans = [f"{module}:{line} {name}" for module, line, name in defined
               if name not in refs and (module, name) not in EXEMPT]
    assert not orphans, "defined but referred to only by tests: " + ", ".join(orphans)
