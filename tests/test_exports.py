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


def test_every_domain_error_is_raised():
    # an exception class that nothing raises is a dead export
    from lukatree import errors

    raised = set()
    for path in Path(lukatree.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    unused = [name for name in errors.__all__ if name != "LukatreeError" and name not in raised]
    assert unused == []
