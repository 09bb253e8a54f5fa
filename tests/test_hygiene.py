"""Source hygiene: every name a module imports is used in it, only
flowcutter._checks writes the rule for a scalar argument, and no package
module calls a private method of another object.

The import check runs over the package, the tests and the demos. The
package's __init__ re-exports names it does not use itself, `from
__future__` imports are directives, and an import kept only for its side
effect is marked `# noqa: F401` on its line; all three are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcutter"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for folder in ("tests", "demos")
                 for p in (ROOT / folder).glob("*.py"))


def _imported_names(tree, lines):
    """(bound name, line) for every import in the module, at any depth,
    except those marked # noqa: F401."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            yield (name if isinstance(node, ast.ImportFrom)
                   else name.split(".")[0]), node.lineno


def test_modules_are_found():
    assert {"flow.py", "cookie.py", "symbolic.py"} <= {p.name for p in MODULES}
    assert {"conftest.py", "test_hygiene.py", "06_witness_scaling.py"} <= {
        p.name for p in SCRIPTS}


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree, source.splitlines())
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _argument_rule_writes(tree):
    """(what, line) for every place a module writes the scalar argument
    rule itself: operator.index, numpy's bool type, isinstance(..., bool)
    and math.isfinite."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("operator",
                                                                "math"):
            names = {alias.name for alias in node.names}
            for name in names & {"index", "isfinite"}:
                yield f"from {node.module} import {name}", node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in {
                  ("operator", "index"), ("math", "isfinite"),
                  ("np", "bool_"), ("np", "bool"),
                  ("numpy", "bool_"), ("numpy", "bool")}):
            yield f"{node.value.id}.{node.attr}", node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(isinstance(n, ast.Name) and n.id == "bool"
                      for n in ast.walk(node.args[1]))):
            yield "isinstance(..., bool)", node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_checks_module_writes_the_argument_rule(path):
    # every public entry point takes its integers, reals and branch symbols
    # through flowcutter._checks, so the rule has one statement
    writes = list(_argument_rule_writes(ast.parse(path.read_text())))
    if path.name == "_checks.py":
        assert writes, "the rule left flowcutter._checks"
    else:
        assert not writes, f"{path.name} writes the argument rule: {writes}"


def _foreign_private_calls(node, owner=None):
    """(call, line) for every call of an underscore method on an object
    other than self, cls or the class whose body makes the call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _foreign_private_calls(child, child.name)
            continue
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr.startswith("_")
                and not child.func.attr.startswith("__")
                and not (isinstance(child.func.value, ast.Name)
                         and child.func.value.id in {"self", "cls", owner})):
            yield ast.unparse(child.func), child.lineno
        yield from _foreign_private_calls(child, owner)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_a_private_method_of_another_object(path):
    # a layer reached through another object's private method is a layer
    # a wrapper of its public entry point (the bench tracer) cannot see
    calls = list(_foreign_private_calls(ast.parse(path.read_text())))
    assert not calls, f"{path.name} calls private methods: {calls}"


def test_private_calls_are_found():
    source = """
class A:
    def f(self, other):
        self._g(); A._h(); other._g(); B._h(); super().__init__()
        return cls._k()

def g(cmap):
    return cmap._pull_back_into(0)
"""
    calls = list(_foreign_private_calls(ast.parse(source)))
    assert calls == [("other._g", 4), ("B._h", 4), ("cmap._pull_back_into", 8)]
