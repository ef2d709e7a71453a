"""Every module's ``__all__`` names what it defines, and the package re-exports
only names that its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lukatree

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(lukatree.__path__, "lukatree.")
    if info.name != "lukatree.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ lists undefined names"


def test_package_reexports_are_declared_public():
    tree = ast.parse(Path(lukatree.__file__).read_text())
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports, "lukatree/__init__.py re-exports nothing"
    undeclared = []
    for node in imports:
        module = importlib.import_module(f"lukatree.{node.module}")
        for alias in node.names:
            if alias.name not in getattr(module, "__all__", ()):
                undeclared.append(f"{node.module}.{alias.name}")
    assert undeclared == []
