"""Source hygiene: every import of a library module sits at module level,
every name it imports is used in it, and every top-level function and class
of a library module is referred to by name somewhere in the package or the
tests, outside its own body.

The package ``__init__`` is exempt, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import flaghom

PACKAGE = Path(flaghom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == [
        (1, "os"), (2, "argv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source):
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body)


def test_detects_a_nested_import():
    assert nested_imports("import os\n\ndef f():\n    from sys import argv\n") == [4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def referenced_names(sources):
    """Names read or taken as attributes in the sources; a top-level function
    or class referring to itself does not count."""
    used = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            used |= names
    return used


def unreferenced_definitions(source, used):
    return [stmt.name for stmt in ast.parse(source).body
            if isinstance(stmt, DEFINITIONS) and stmt.name not in used]


def test_detects_an_unreferenced_definition():
    library = ("def kept():\n    return 1\n\n"
               "def dead(k):\n    return dead(k - 1)\n\n"
               "class Held:\n    pass\n")
    used = referenced_names([library, "kept()\nx = m.Held\n"])
    assert unreferenced_definitions(library, used) == ["dead"]


@pytest.fixture(scope="module")
def used_names():
    return referenced_names(p.read_text() for p in SOURCES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, used_names):
    assert unreferenced_definitions(path.read_text(), used_names) == []
