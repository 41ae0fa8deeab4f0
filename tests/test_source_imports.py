"""Every import in the package is read where it is made, so a cut leaves no
stale import behind, and no module imports what start-up should not pay
for.  No linter is a dependency; this reads the syntax tree.

An import counts as read when its scope (the module, or the function that
makes it, with the functions nested in it) loads the name it binds.  Exempt
are ``from __future__`` imports, names listed in the module's ``__all__``
and lines marked ``# noqa: F401``, an import made for its side effect."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "countfact"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
# dataclasses pulls in inspect, dis and tokenize; typing serves only
# annotations, which `from __future__ import annotations` never evaluates.
# A fresh interpreter cannot gate typing where `site` already loads it.
BARRED = {"dataclasses", "typing"}


def _own_imports(scope):
    """The import statements of scope outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import in source whose scope never reads it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if getattr(target, "id", None) == "__all__"
                for name in ast.literal_eval(node.value)}
    unread = []
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in _own_imports(scope):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            unread += [(node.lineno, name) for name in names
                       if name not in read and name not in exported]
    return sorted(unread)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("source, unread", [
    ("import operator\n", [(1, "operator")]),
    ("import os.path\nos.sep\n", []),
    ("from . import bounds as b\n", [(1, "b")]),
    ("def f():\n    import numpy as np\n\nnp = 1\nnp\n", [(2, "np")]),
    ("def f():\n    import numpy as np\n    return lambda: np\n", []),
    ("import numpy  # noqa: F401 (loaded for its side effect)\n", []),
    ("from __future__ import annotations\n", []),
    ("from .a import x, y\n__all__ = ['x']\n", [(1, "y")]),
], ids=["unread", "dotted", "aliased", "read-only-outside", "read-in-nested", "noqa",
        "future", "all"])
def test_unread_imports_are_found(source, unread):
    assert unread_imports(source) == unread


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in source."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_barred_import(path):
    assert imported_modules(path.read_text(encoding="utf-8")) & BARRED == set(), path.name


@pytest.mark.parametrize("source, modules", [
    ("import dataclasses\n", {"dataclasses"}),
    ("from typing import TYPE_CHECKING\n", {"typing"}),
    ("if x:\n    import os.path as p\n", {"os"}),
    ("def f():\n    from collections.abc import Callable\n", {"collections"}),
    ("from . import typing\nfrom .sequences import x\n", set()),
], ids=["import", "from", "nested-dotted", "in-function", "relative"])
def test_imported_modules_are_found(source, modules):
    assert imported_modules(source) == modules
