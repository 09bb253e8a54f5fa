"""Source hygiene: every name a module imports is used in it.

Checked over the package, the tests and the demos. The package's __init__
re-exports names it does not use itself, `from __future__` imports are
directives, and an import kept only for its side effect is marked
`# noqa: F401` on its line; all three are exempt.
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
