"""Package-wide guards: the runtime imports only the standard library, uses every name it
imports, and has no ``assert``."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import weightmult

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "weightmult").glob("*.py"))


def _imported_top_levels(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _unused_imports(tree):
    """Names bound by an import and never read; star imports and ``__future__`` are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a name listed in __all__ is exported, which counts as a use
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return imported - used


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "rootsys.py", "multiplicity.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {
        name
        for name in _imported_top_levels(tree)
        if name != "weightmult" and name not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert; every guard must raise a typed error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"


def test_package_exports_the_union_of_the_module_lists():
    modules = ("errors", "rootsys", "partition", "multiplicity", "oracle")
    lists = [importlib.import_module(f"weightmult.{name}").__all__ for name in modules]
    assert set(weightmult.__all__) == {"__version__"}.union(*lists)
    assert len(weightmult.__all__) == len(set(weightmult.__all__))
    for name in weightmult.__all__:
        assert hasattr(weightmult, name), name
    # the function, not the submodule of the same name
    assert inspect.isfunction(weightmult.multiplicity)
