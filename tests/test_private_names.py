"""Every private name of the package is read by the package, and every one the docs cite exists.

A module-level private function, class or constant that no code in
``src/permorb`` reads is a helper that nothing calls: tests and perfbench
do not count as readers.  A private name in backticks in ``README.md`` or
in a docstring of ``src/permorb`` must name something the package
defines; one qualified by a module (``embeddings._held``) must be defined
at the top level of that module.  Both checks walk the syntax trees
(stdlib ``ast``), as ``test_unused_imports`` does.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py"))

# a backticked name, optionally module-qualified, whose last part is private
_CITED = re.compile(r"`((?:[A-Za-z]\w*\.)*)(_[A-Za-z]\w*)")


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def top_level(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a module binds at top level by def, class or assignment, with its statement."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        found[leaf.id] = node
    return found


def reads(node: ast.AST) -> set[str]:
    """Every name read in node, bare (``f``) or as an attribute (``module.f``)."""
    return {leaf.id if isinstance(leaf, ast.Name) else leaf.attr for leaf in ast.walk(node)
            if isinstance(leaf, (ast.Name, ast.Attribute)) and isinstance(leaf.ctx, ast.Load)}


def parsed(paths: list[Path]) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def unread_private_names(paths: list[Path]) -> list[str]:
    """``module: name`` for each top-level private name that no other top-level statement reads."""
    trees = parsed(paths)
    statements = [(stmt, reads(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, defined in top_level(tree).items()
            if private(name) and not any(name in read for stmt, read in statements
                                         if stmt is not defined)]


def defined_anywhere(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the modules bind: defs, classes, parameters, assigned names and attributes."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


def docstrings(tree: ast.Module) -> list[str]:
    nodes = [node for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [text for text in map(ast.get_docstring, nodes) if text]


def undefined_citations(texts: dict[str, str], paths: list[Path]) -> list[str]:
    """``source: name`` for each backticked private name in texts that paths do not define."""
    trees = parsed(paths)
    anywhere = defined_anywhere(trees)
    undefined = []
    for source, text in texts.items():
        for qualifier, name in _CITED.findall(text):
            module = qualifier.rstrip(".").rpartition(".")[2]
            known = set(top_level(trees[module])) if module in trees else anywhere
            if name not in known:
                undefined.append(f"{source}: {qualifier}{name}")
    return undefined


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names(MODULES) == []


def test_every_cited_private_name_is_defined():
    texts = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    for module, tree in parsed(MODULES).items():
        texts[f"{module}.py"] = "\n".join(docstrings(tree))
    assert undefined_citations(texts, MODULES) == []


def test_the_checks_see_an_unread_name_and_an_undefined_citation(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""Cites ``_used``, ``module._gone`` and ``other._x``."""\n\n'
                      "_LIMIT = 3\n_unused_too = 4\n\n\n"
                      "def _used(x):\n    return _used(x - 1) if x else _LIMIT\n\n\n"
                      "def _unused():\n    return None\n\n\n"
                      "def f():\n    return _used(1)\n")
    # _used reads itself, which does not count, but f reads it too
    assert unread_private_names([module]) == ["module: _unused_too", "module: _unused"]
    # other is no module here, so _x only has to be defined somewhere, and is not
    texts = {"module.py": "\n".join(docstrings(ast.parse(module.read_text())))}
    assert undefined_citations(texts, [module]) == ["module.py: module._gone", "module.py: other._x"]
