"""The package's public names, and what its modules import."""

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
