"""No module imports a name at top level that it never uses.

No linter ships with the project, so this walks each module's syntax tree
(stdlib ``ast``).  A top-level import binds a name; the name counts as
used when the module reads it anywhere or lists it in ``__all__``, which
is how the package's ``__init__.py`` re-exports what it imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import outside every function and class binds, with its line."""
    bound = {}
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # its imports are local to it
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        nodes.extend(ast.iter_child_nodes(node))
    return bound


def exported(tree: ast.Module) -> set[str]:
    """The names of a top-level ``__all__`` literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used = read | exported(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(top_level_imports(tree).items(), key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys as system\nfrom math import pi, tau\n"
                      "__all__ = ['tau']\n\n\ndef f():\n    import json\n    return pi, json\n")
    assert [entry.split(": ")[1] for entry in unused_imports(module)] == ["os", "system"]
