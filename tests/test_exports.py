"""Every module's ``__all__`` names what it defines, and the package re-exports
only names that its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lukatree

ROOT = Path(__file__).resolve().parents[1]

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(lukatree.__path__, "lukatree.")
    if info.name != "lukatree.__main__"
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.numpy) if name == "lukatree.batch" else name
        for name in MODULES
    ],
)
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


def _raises():
    """(file name, raised class as written) for every raise of an exception in lukatree/*.py."""
    for path in Path(lukatree.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield path.name, ast.unparse(exc)


def test_only_bitstream_touches_the_unread_bits():
    # how BitSource keeps its unread bits is bitstream's alone: no other
    # module reads _bits or calls _more or _fetch
    private = {"_bits", "_more", "_fetch"}
    found = sorted(
        f"{path.name}:{node.lineno} {node.attr}"
        for path in Path(lukatree.__file__).parent.glob("*.py")
        if path.name != "bitstream.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    )
    assert found == []


def test_only_bitsource_init_binds_the_unread_bits():
    # a BitSource keeps one _bits buffer for its life: __init__ binds it, and
    # every other writer changes it in place
    found = []
    for path in Path(lukatree.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        init = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "BitSource"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "_bits"
            and not isinstance(node.ctx, ast.Load)
            and id(node) not in init
        ]
    assert found == []


def test_only_sample_trees_builds_unchecked_trees():
    # PlanarTree checks its word; only sample_trees, whose rotation has proved
    # the word, may build a tree through _unchecked_tree, which checks nothing
    found = []
    for path in Path(lukatree.__file__).parent.glob("*.py"):
        module = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(module):  # outer functions come first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        found += [
            f"{path.name} {owner.get(id(node), '<module>')}"
            for node in ast.walk(module)
            if "_unchecked_tree" in (getattr(node, "id", None), getattr(node, "attr", None))
        ]
    assert found == ["samplers.py sample_trees"]


def test_only_samplers_runs_the_draw_loop():
    # the dichotomic draw has one loop, bitstream._draw_letters, and only
    # samplers calls it, so no module keeps a copy that skips the pool's check
    found = {
        path.name
        for path in Path(lukatree.__file__).parent.glob("*.py")
        if path.name != "bitstream.py"
        for node in ast.walk(ast.parse(path.read_text()))
        # a name, an attribute or an imported name
        if any(getattr(node, field, None) == "_draw_letters" for field in ("id", "attr", "name"))
    }
    assert found == {"samplers.py"}


def test_every_dataclass_is_frozen():
    # a dataclass checks or normalises its fields once, in __post_init__;
    # frozen, it keeps them so
    decorators = [
        (f"{path.name}:{cls.lineno} {cls.name}", dec)
        for path in Path(lukatree.__file__).parent.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for dec in cls.decorator_list
        if "dataclass" in ast.unparse(dec)
    ]
    assert decorators, "no dataclass found"
    unfrozen = [
        where
        for where, dec in decorators
        if not any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in getattr(dec, "keywords", ())
        )
    ]
    assert unfrozen == []


def test_no_function_calls_itself():
    # nothing in the package recurses, so no input is bound by the
    # interpreter's recursion limit
    found = sorted(
        f"{path.name}:{call.lineno} {fn.name}"
        for path in Path(lukatree.__file__).parent.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and fn.name == getattr(call.func, "id", getattr(call.func, "attr", None))
    )
    assert found == []


def test_every_domain_error_is_raised():
    # an exception class that nothing raises is a dead export
    from lukatree import errors

    raised = {name for _, name in _raises()}
    unused = [name for name in errors.__all__ if name != "LukatreeError" and name not in raised]
    assert unused == []


def test_src_raises_only_package_errors():
    # a caller that catches LukatreeError catches every error the package raises
    from lukatree import errors

    foreign = {(file, name) for file, name in _raises() if name not in errors.__all__}
    assert foreign == set()


# public names that no code outside the tests and their own module reads,
# each kept for a reason
UNREAD_BY_DESIGN = {
    # the shuffle's rejection step is tested against it
    "uniform_int",
    # the return type of run_bitcost_scan; callers read its fields
    "BitCostRow",
}


def _loaded_names(path):
    """Names a file loads, as bare names or attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.numpy
def test_every_public_name_has_a_reader():
    # a name in some __all__ that only the tests and its own module read is
    # a dead export: the module can keep it private
    package = Path(lukatree.__file__).resolve().parent
    readers = {
        path: _loaded_names(path)
        for path in (
            *(p for p in package.glob("*.py") if p.name != "__init__.py"),
            *ROOT.glob("demos/*.py"),
            *(p for p in ROOT.glob("benchmarks/*.py") if not p.name.startswith("test_")),
        )
    }
    unread = []
    for name in MODULES:
        module = importlib.import_module(name)
        own = Path(module.__file__).resolve()
        outside = set().union(*(loaded for path, loaded in readers.items() if path != own))
        unread += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if entry not in outside and entry not in UNREAD_BY_DESIGN
        ]
    assert unread == []
