"""The package namespace is exactly its documented public surface: the
names the acceptance tests import and those the README's Library section
uses.  Everything else is imported from its submodule."""

import ast
import re
import types
from pathlib import Path

import countfact

ROOT = Path(__file__).resolve().parents[1]


def acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "countfact"
            for alias in node.names}


def readme_library_names():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"\bcf\.(\w+)", section))


def test_all_is_acceptance_imports_plus_readme_library():
    assert len(countfact.__all__) == len(set(countfact.__all__))
    assert set(countfact.__all__) == acceptance_imports() | readme_library_names()


def test_namespace_exports_exactly_all():
    for name in countfact.__all__:
        getattr(countfact, name)
    public = {name for name, value in vars(countfact).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(countfact.__all__)
