"""The package's public names, what its modules import, and that every
module-level name is read by code other than the tests."""

import ast
import sys
from pathlib import Path

import sqnreg

PACKAGE = Path(sqnreg.__file__).resolve().parent
# pyproject.toml declares one dependency
DECLARED = {"numpy", "sqnreg"}


def test_every_all_name_resolves():
    missing = [name for name in sqnreg.__all__ if not hasattr(sqnreg, name)]
    assert missing == []


def test_star_import_gives_every_all_name():
    namespace = {}
    exec("from sqnreg import *", namespace)
    assert set(sqnreg.__all__) <= set(namespace)


def imported_roots(tree):
    """The top-level module of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_stdlib_numpy_and_the_package():
    # an undeclared import (SciPy, say) works where it happens to be
    # installed and breaks an install from pyproject.toml
    allowed = set(sys.stdlib_module_names) | DECLARED
    found = {
        (path.name, root)
        for path in sorted(PACKAGE.glob("*.py"))
        for root in imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in allowed
    }
    assert found == set()


def unused_imports(tree):
    """Names that an import in ``tree`` binds and no other node reads."""
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    bound = {alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_modules_use_every_name_they_import():
    # ``__init__.py`` imports to re-export; every other module imports what
    # it calls, so a name kept for an outside reader is a failure here
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == set()


REPO = Path(__file__).resolve().parents[1]
# the code a module-level name may be kept for: the package, the scripts and
# the benchmark; a name only tests read is dead code
READERS = ("src", "scripts", "perfbench")


def defined_names(tree):
    """The functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def read_names(tree):
    """Every name ``tree`` reads: loaded names, attribute names, imported
    names (so an ``__init__`` re-export counts) and string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_level_name_is_read_outside_tests():
    read = {
        name
        for folder in READERS
        for path in sorted((REPO / folder).rglob("*.py"))
        for name in read_names(parsed(path))
    }
    unread = {
        (path.name, name)
        for path in sorted((REPO / "src" / "sqnreg").glob("*.py"))
        for name in defined_names(parsed(path))
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    }
    assert unread == set()
