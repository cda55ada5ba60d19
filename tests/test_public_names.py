"""Every public function and class of the package is used by the package
itself or by the acceptance suite; code that only tests call lives in
``helpers.py``. Every import of a package module is used in that module.

Public names are found by inspecting the imported modules, and uses by
walking the syntax trees of the package sources and of
``test_acceptance.py``.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import epicurve

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def public_definitions():
    """(module, name) of every public function and class defined in the package."""
    for info in pkgutil.iter_modules(epicurve.__path__):
        module = importlib.import_module(f"epicurve.{info.name}")
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__ and not name.startswith("_")):
                yield info.name, name


def used_names(tree: ast.Module) -> set[str]:
    """Names and attribute names used in a module; a top-level function or
    class does not count as a use of its own name."""
    out = set()
    for statement in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(statement)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.discard(statement.name)
        out |= names
    return out


def package_sources() -> list[Path]:
    return [Path(epicurve.__file__).with_name(f"{info.name}.py")
            for info in pkgutil.iter_modules(epicurve.__path__)]


def test_every_public_name_is_used_outside_tests():
    used = used_names(ast.parse(ACCEPTANCE.read_text()))
    for path in package_sources():
        used |= used_names(ast.parse(path.read_text()))
    unused = [f"{module}.{name}" for module, name in public_definitions()
              if name not in used]
    assert unused == [], "only tests use these; move them to tests/helpers.py"


def imported_names(tree: ast.Module):
    """(line, bound name) of each import in a module, ``__future__`` ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for path in package_sources():
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for line, name in imported_names(tree)
                   if name not in loaded]
    assert unused == []
