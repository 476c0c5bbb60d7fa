"""No module of the program calls into a C library through ctypes.

permorb reaches compiled code through numpy and scipy alone, so it acts
the same on every platform they run on; a call into one C library (glibc's
``malloc_trim``, say) would act on that library's platforms and do nothing
elsewhere.  This walks each module's syntax tree (stdlib ``ast``) and lists
every import of ``ctypes`` or of a module inside it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py"))


def ctypes_imports(path: Path) -> list[str]:
    """Each line of path that imports ctypes or a module inside it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "ctypes"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_ctypes(path):
    assert ctypes_imports(path) == []


def test_the_check_sees_a_ctypes_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os, ctypes\nfrom ctypes.util import find_library\n"
                      "from . import ctypes_like\n\n\n"
                      "def f():\n    import ctypes as c\n    return c, os, find_library\n")
    assert [entry.split(": ")[1] for entry in ctypes_imports(module)] == [
        "ctypes", "ctypes.util", "ctypes"]
