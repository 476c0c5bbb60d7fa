"""The sorting network has one entry: only ``embeddings._sorted_rows`` reads ``_network_sort``.

Every stack of clouds the package sorts goes through ``_sorted_rows``,
which projects it point-major into a buffer, runs the network and falls
back to np.sort; a second caller would be a second copy of that stage.
The check walks the syntax trees of ``src/permorb`` (stdlib ``ast``), as
``test_private_names`` does, and counts every read of the name, a bare
call, a module-qualified one or an alias, by the function that holds it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py"))

NETWORK = "_network_sort"


def readers(paths: list[Path], name: str = NETWORK) -> list[str]:
    """``module: function`` for each read of name, by the innermost function that holds it."""
    found = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        read = (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
        if read and isinstance(node.ctx, ast.Load):
            found.append(f"{module}: {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>")
    return found


def test_only_sorted_rows_reads_the_network():
    assert readers(MODULES) == ["embeddings: _sorted_rows"]


def test_the_check_sees_a_second_caller(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from . import embeddings\n"
                      "from .embeddings import _network_sort\n\n\n"
                      "def _network_sort_twice(b):\n    return _network_sort(_network_sort(b))\n\n\n"
                      "def _sorted_rows(b):\n    return _network_sort(b)\n\n\n"
                      "def _aliased(b):\n    sort = embeddings._network_sort\n    return sort(b)\n")
    # the import binds the name and the defs only share its prefix: no reads
    assert readers([module]) == ["module: _network_sort_twice", "module: _network_sort_twice",
                                 "module: _sorted_rows", "module: _aliased"]
