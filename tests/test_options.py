"""Every keyword of the public API is set by some caller in the program.

A parameter with a default that no code ever passes acts only at its
default, so it is a constant dressed as an option.  This walks the syntax
trees (stdlib ``ast``) of ``src/permorb`` and ``perfbench``: for each
function named in a module's ``__all__``, each parameter with a default
must be passed, by name or by position, in some call of a function of that
name.  Tests do not count as callers.  ``ALLOWED`` lists the exceptions,
each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_unused_imports import exported

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permorb").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))

ALLOWED = {
    # the only way a true collision reaches the collision count
    ("spot_check_injectivity", "extra_pairs"),
}


def defaulted(function: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """Each parameter of ``function`` with a default, with its position, or None if keyword-only."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
    return found + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def calls(paths: list[Path]) -> dict[str, list[ast.Call]]:
    """The calls in ``paths``, by the name of the function called: ``f(...)`` or ``x.f(...)``."""
    found: dict[str, list[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                found.setdefault(name, []).append(node)
    return found


def unset_keywords(modules: list[Path], callers: list[Path]) -> list[str]:
    """``module: function(parameter)`` for each public defaulted parameter that no call passes."""
    by_name = calls(callers)
    unset = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        public = exported(tree)
        for function in tree.body:
            if not isinstance(function, ast.FunctionDef) or function.name not in public:
                continue
            for name, index in defaulted(function):
                if not any(any(keyword.arg == name for keyword in call.keywords)
                           or (index is not None and len(call.args) > index)
                           for call in by_name.get(function.name, [])):
                    unset.append(f"{path.name}: {function.name}({name})")
    return unset


def test_every_public_keyword_is_set_by_some_caller():
    allowed = {f"{function}({name})" for function, name in ALLOWED}
    unset = unset_keywords(MODULES, CALLERS)
    assert [entry for entry in unset if entry.split(": ")[1] not in allowed] == []
    # an entry that no longer names an unset keyword leaves the list
    assert {entry.split(": ")[1] for entry in unset} == allowed


def test_the_check_sees_an_unset_keyword(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("__all__ = ['f', 'g']\n\n\n"
                      "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
                      "def g(x=0):\n    return x\n\n\n"
                      "def h(y=0):\n    return y\n")
    caller = tmp_path / "caller.py"
    caller.write_text("import module\n\nmodule.f(0, 1, d=3)\nf(0, e=4)\n")
    # b by position, d and e by name; g is never called, h is not public
    assert unset_keywords([module], [module, caller]) == [
        "module.py: f(c)", "module.py: g(x)"]
