"""No module imports a name that it never uses.

No linter ships with the project, so this walks each module's syntax tree
(stdlib ``ast``).  An import binds a name.  At top level, the name counts
as used when the module reads it anywhere or lists it in ``__all__``,
which is how a package re-exports a name.  Inside a function, the name
must be read in that function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imports(body: list[ast.stmt]) -> dict[str, int]:
    """Each name an import in ``body`` binds, with its line, outside the functions and classes in it."""
    bound = {}
    nodes = list(body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, _SCOPES):
            continue  # its imports are local to it
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        nodes.extend(ast.iter_child_nodes(node))
    return bound


def reads(body: list[ast.stmt]) -> set[str]:
    """Every name read anywhere in ``body``."""
    return {node.id for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)}


def exported(tree: ast.Module) -> set[str]:
    """The string literals of a top-level ``__all__``, a plain list or a computed one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {item.value for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = reads(tree.body) | exported(tree)
    unused = [(line, name) for name, line in imports(tree.body).items() if name not in used]
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = reads(function.body)
            unused += [(line, name) for name, line in imports(function.body).items()
                       if name not in used]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(unused)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys as system\nfrom math import pi, tau\n"
                      "EXTRA = ()\n__all__ = ['tau', *EXTRA]\n\n\n"
                      "def f():\n    import json\n    return pi, json\n\n\n"
                      "def g():\n    import re\n    from json import dumps\n    return re\n\n\n"
                      "def h():\n    import json\n    return pi\n")
    # an import in a function counts as used only when that function reads it
    assert [entry.split(": ")[1] for entry in unused_imports(module)] == [
        "os", "system", "dumps", "json"]
