"""No module of the program reads the environment.

Library functions take budgets and every other setting as arguments, and
the command line takes them as flags, so a call's result depends on its
arguments alone.  This walks each module's syntax tree (stdlib ``ast``)
and lists every read of ``os.environ``, ``os.getenv`` or a name imported
from them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py"))
_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """Each line of path that reads os.environ or calls os.getenv, or imports either."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            reads.append(f"{path.name}:{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in _READERS]
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path) == []


def test_the_check_sees_an_environment_read(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom os import getenv as g, path\n\n\n"
                      "def f():\n    return os.environ.get('X'), os.getenv('Y'), os.path.sep\n")
    assert sorted(entry.split(": ")[1] for entry in environment_reads(module)) == [
        "from os import getenv", "os.environ", "os.getenv"]
