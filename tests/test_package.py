"""Package-wide guards: the runtime imports only the standard library, uses every name it
imports, reads every private name it defines, and has no ``assert``; every name the
benchmark harness patches stays bound."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import weightmult

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "weightmult").glob("*.py"))


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


def _private_definitions(tree):
    """``(name, first line, last line)`` of each module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    """``(name, line)`` of each read of a name or attribute; an import alone is no read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


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


def test_every_private_name_is_used():
    # a module-level private helper read nowhere outside its own definition
    # is dead code, such as a helper left behind when its callers moved
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    refs = {name: list(_references(tree)) for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if not any(
                ref == name and (other != module or not first <= line <= last)
                for other, seen in refs.items()
                for ref, line in seen
            ):
                unused.append(f"{module}:{name}")
    assert not unused, f"defined and never used: {unused}"


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


def test_the_benchmark_hooks_stay_bound():
    # bench/spans.py patches these (module, attribute) pairs by name, and
    # bench/workloads.py calls enumerate_weyl and passes elements=; the file
    # is read, not imported
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    hooks = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("_FUNCTIONS", "_CONSTRUCTORS")
    }
    assert set(hooks) == {"_FUNCTIONS", "_CONSTRUCTORS"}
    for module, attr, _ in hooks["_FUNCTIONS"] + hooks["_CONSTRUCTORS"]:
        assert module in sys.modules, module
        assert hasattr(sys.modules[module], attr), f"{module}.{attr}"
    # a constructor is patched through its class's __init__
    for module, attr, _ in hooks["_CONSTRUCTORS"]:
        assert inspect.isclass(getattr(sys.modules[module], attr)), f"{module}.{attr}"
    assert callable(weightmult.enumerate_weyl)
    assert "elements" in inspect.signature(weightmult.kostant_multiplicity).parameters
