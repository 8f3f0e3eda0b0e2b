"""Source hygiene: every import of a library module sits at module level,
every name it imports is used in it, every top-level function and class
of a library module is referred to by name somewhere in the package or the
tests, outside its own body, every module-level cache is bounded, and no
library code raises AssertionError: a condition a theorem guarantees is
checked by the tests, not by a branch that never runs.  No library code
calls ``__new__`` outside ``polynomials._poly``, so every Poly that the
checked ``Poly(...)`` does not make comes from that one builder.
No library code lists SSYT of a fixed weight through ``enumerate_fillings``:
the strip walk ``bases._ssyt_of_weight`` is their one implementation.
No library function both tests ``type(x) is not int`` and compares x by
order: ``compositions.as_int`` is the one check of an integer with a bound.
No library function but ``snakes._tabloid_sum`` nests a recursion that
reads ``_anchor_row``: that sum is the one walk over residual shapes.
The unchecked cores of flagged RSK (the two insertions, ``_unfold`` and
``_rho_inverse``) call no checker: their callers check once, at the boundary.
A fresh ``import flaghom.cli`` does not load ``dataclasses``, the heaviest
module of the package's cold import; a record is a named tuple or a plain class.
Test-only code lives in ``tests/oracles.py``: every library definition is
also reached without the tests, from the package, its exported API, or the
benchmark.

The package ``__init__`` is exempt, since its imports are re-exports.

The benchmark in ``perfbench/`` wraps library functions by name and runs
library queries; the last tests read it, without changing it, so that a
renamed or deleted library name, or a changed output, cannot silently
break a benchmark run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flaghom
from flaghom import schubert
from flaghom.cli import main

PACKAGE = Path(flaghom.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def reached_names(package, init, perfbench, layers):
    """Names reached without the tests: those referred to in the package or
    perfbench sources, those the package ``__init__`` imports (the exported
    API), and the layer functions that perfbench wraps by name."""
    exported = {alias.asname or alias.name for stmt in ast.parse(init).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    wrapped = {name for names in layers.values() for name in names}
    return referenced_names([*package, *perfbench]) | exported | wrapped


def test_detects_a_definition_only_tests_reach():
    library = ("def api():\n    return 1\n\ndef traced():\n    return 2\n\n"
               "def helper():\n    return 3\n\ndef caller():\n    return helper()\n\n"
               "def benched():\n    return 4\n\ndef oracle():\n    return 5\n")
    used = reached_names([library, "caller()\n"], "from .lib import api\n",
                         ["x = lib.benched()\n"], {"lib": ("traced",)})
    assert unreferenced_definitions(library, used) == ["oracle"]
    tests = referenced_names(["oracle()\n"])
    assert unreferenced_definitions(library, used | tests) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_definition_is_reached_only_by_tests(path, perfbench):
    tracer, _ = perfbench
    used = reached_names((p.read_text() for p in PACKAGE.glob("*.py")),
                         (PACKAGE / "__init__.py").read_text(),
                         (p.read_text() for p in PERFBENCH.glob("*.py")), tracer.LAYERS)
    assert unreferenced_definitions(path.read_text(), used) == []


def assertion_raises(source):
    """Lines that raise AssertionError, called or not."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and "AssertionError" in {n.id for n in ast.walk(node.exc)
                                           if isinstance(n, ast.Name)})


def test_detects_a_raised_assertion_error():
    source = ("def f(x):\n    if x:\n        raise AssertionError('x')\n"
              "    raise AssertionError\n\ndef g():\n    raise ValueError\n")
    assert assertion_raises(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assertion_error_is_raised(path):
    assert assertion_raises(path.read_text()) == []


def new_calls(source):
    """Lines that call some __new__ outside the body of a function _poly."""
    tree = ast.parse(source)
    builder = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and f.name == "_poly" for node in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__" and id(node) not in builder)


def test_detects_a_call_to_new_outside_the_builder():
    source = ("def _poly(terms):\n    p = Poly.__new__(Poly)\n    return p\n\n"
              "class Poly:\n    @classmethod\n    def zero(cls):\n"
              "        return cls.__new__(cls)\n\n"
              "def copy(p):\n    return object.__new__(type(p))\n")
    assert new_calls(source) == [8, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_poly_is_built_by_one_builder(path):
    assert new_calls(path.read_text()) == []


def weighted_ssyt_calls(source):
    """Lines that call enumerate_fillings with the flavor "SSYT" and a
    weight, by keyword or as the fourth argument."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "enumerate_fillings"
        and any(isinstance(arg, ast.Constant) and arg.value == "SSYT"
                for arg in [*node.args, *(k.value for k in node.keywords)])
        and (len(node.args) > 3 or any(k.arg == "weight" for k in node.keywords)))


def test_detects_a_weighted_ssyt_listing():
    source = ("enumerate_fillings(lam, n, 'SSYT', weight=b)\n"
              "fillings.enumerate_fillings(lam, n, 'SSYT', b)\n"
              "enumerate_fillings(lam, n, 'SSYT')\n"
              "enumerate_fillings(a, n, 'rSSAF', weight=b)\n"
              "enumerate_fillings(lam, n, flavor='SSYT', weight=b)\n")
    assert weighted_ssyt_calls(source) == [1, 2, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_weighted_ssyt_come_from_the_strip_walk(path):
    assert weighted_ssyt_calls(path.read_text()) == []


def residual_walks(source):
    """Names outer.inner of each function nested in a function other than
    _tabloid_sum that calls itself and calls _anchor_row: a recursion over
    residual shapes besides the one sum."""
    found = []
    for f in ast.walk(ast.parse(source)):
        if not isinstance(f, ast.FunctionDef) or f.name == "_tabloid_sum":
            continue
        for g in ast.walk(f):
            if g is f or not isinstance(g, ast.FunctionDef):
                continue
            called = {getattr(c.func, "id", getattr(c.func, "attr", None))
                      for c in ast.walk(g) if isinstance(c, ast.Call)}
            if {g.name, "_anchor_row"} <= called:
                found.append(f"{f.name}.{g.name}")
    return found


def test_detects_a_second_residual_walk():
    source = ("def _tabloid_sum(shape):\n    def go(d):\n"
              "        return _anchor_row(d), go(d)\n\n"
              "def _tabloids(shape):\n    def go(d):\n"
              "        return snakes._anchor_row(d), go(d)\n\n"
              "def expand(b):\n    def go(d):\n        r = _anchor_row(d)\n"
              "        return [go(e) for e in d]\n    return go(b)\n\n"
              "def pieces(d):\n    def grow(s):\n        return grow(s + 1)\n\n"
              "def anchored(d):\n    def row(d):\n        return _anchor_row(d)\n")
    assert residual_walks(source) == ["_tabloids.go", "expand.go"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_residual_shapes_are_walked_by_one_sum(path):
    assert residual_walks(path.read_text()) == []


ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def open_coded_int_checks(source):
    """Lines of a `type(x) is not int` test in a function, other than as_int,
    that also compares x by order."""
    found = []
    for f in ast.walk(ast.parse(source)):
        if not isinstance(f, ast.FunctionDef) or f.name == "as_int":
            continue
        compares = [c for c in ast.walk(f) if isinstance(c, ast.Compare)]
        ordered = {ast.dump(side) for c in compares if any(isinstance(op, ORDER) for op in c.ops)
                   for side in [c.left, *c.comparators]}
        found += [c.lineno for c in compares
                  if isinstance(c.left, ast.Call) and getattr(c.left.func, "id", None) == "type"
                  and isinstance(c.ops[0], ast.IsNot)
                  and getattr(c.comparators[0], "id", None) == "int"
                  and ast.dump(c.left.args[0]) in ordered]
    return sorted(set(found))


def test_detects_an_open_coded_integer_check():
    source = ("def as_int(x, least=0):\n    if type(x) is not int or x < least:\n"
              "        raise ValueError\n\n"
              "def power(k):\n    if type(k) is not int:\n        raise ValueError\n"
              "    if k < 0:\n        raise ValueError\n\n"
              "def variable(i):\n    if type(i) is not int or 1 > i:\n        raise ValueError\n\n"
              "def coefficient(c, k):\n    if type(c) is not int or k < 0:\n"
              "        raise ValueError\n\n"
              "def member(e, n):\n    return type(e) is int and 1 <= e <= n\n")
    assert open_coded_int_checks(source) == [6, 12]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_integers_are_checked_by_as_int(path):
    assert open_coded_int_checks(path.read_text()) == []


RSK_CORES = ("_row_insert", "_flagged_insert", "_unfold", "_rho_inverse")
CHECKERS = {"as_comp", "as_int", "as_matrix", "is_member", "matrix_from_biword"}


def checker_calls(source):
    """(core, checker) for each call of a checker, by name or attribute,
    anywhere in the body of a function named in RSK_CORES."""
    found = []
    for f in ast.walk(ast.parse(source)):
        if isinstance(f, ast.FunctionDef) and f.name in RSK_CORES:
            called = (getattr(c.func, "id", getattr(c.func, "attr", None))
                      for c in ast.walk(f) if isinstance(c, ast.Call))
            found += [(f.name, name) for name in called if name in CHECKERS]
    return sorted(found)


def test_detects_a_checker_call_in_an_rsk_core():
    source = ("def _unfold(P, Q, n):\n    return matrix_from_biword(pairs, n)\n\n"
              "def _row_insert(rows, j, chain):\n    compositions.as_int(j)\n\n"
              "def rsk_inverse(P, Q, n):\n    return is_member(P, 'rSSYT')\n\n"
              "def _flagged_insert(rows, j, n, chain):\n    return len(rows)\n\n"
              "def _rho_inverse(Q, n):\n    def fill():\n        return as_comp(Q)\n")
    assert checker_calls(source) == [("_rho_inverse", "as_comp"), ("_row_insert", "as_int"),
                                     ("_unfold", "matrix_from_biword")]


def test_rsk_cores_call_no_checker():
    source = (PACKAGE / "frsk.py").read_text()
    defined = {stmt.name for stmt in ast.parse(source).body if isinstance(stmt, ast.FunctionDef)}
    assert set(RSK_CORES) <= defined
    assert checker_calls(source) == []


def test_the_cli_imports_no_dataclasses():
    code = "import sys, flaghom.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True).stdout
    assert out == "False\n"


def limited_cache(value):
    """Whether value is `BoundedCache(limit, ...)`, the limit a positive
    integer literal."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "BoundedCache"):
        return False
    limit = value.args[:1] + [keyword.value for keyword in value.keywords if keyword.arg == "limit"]
    return (len(limit) == 1 and isinstance(limit[0], ast.Constant)
            and type(limit[0].value) is int and limit[0].value > 0)


def module_caches(source):
    """Each module-level `*_cache` name, mapped to whether it is bound once,
    to a limited BoundedCache, and written only through its `store`: no item
    assignment and no `update`, `setdefault` or `__setitem__` call on it."""
    tree = ast.parse(source)
    values = {}
    for stmt in tree.body:
        for target in getattr(stmt, "targets", [getattr(stmt, "target", None)]):
            for node in ast.walk(target) if target else ():
                if isinstance(node, ast.Name) and node.id.endswith("_cache"):
                    values.setdefault(node.id, []).append(stmt.value if node is target else None)
    written = {node.value.id for node in ast.walk(tree)
               if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name)}
    written |= {node.func.value.id for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("update", "setdefault", "__setitem__")
                and isinstance(node.func.value, ast.Name)}
    return {name: len(bound) == 1 and limited_cache(bound[0]) and name not in written
            for name, bound in values.items()}


def test_detects_an_unbounded_cache():
    source = ("_loose_cache = {}\n_dict_cache = dict()\n_held_cache = BoundedCache(8)\n"
              "_sized_cache = BoundedCache(64, size=len)\n_named_cache = BoundedCache(limit=8)\n"
              "_open_cache = BoundedCache()\n_zero_cache = BoundedCache(0)\n"
              "_var_cache = BoundedCache(LIMIT)\n_twice_cache = BoundedCache(8)\n"
              "_twice_cache = {}\n_pair_cache, _n = BoundedCache(8), 1\n"
              "_typed_cache: dict = {}\n_set_cache = BoundedCache(8)\n_up_cache = BoundedCache(8)\n"
              "def f(x):\n    _free_cache = {}\n    _set_cache[x] = x\n"
              "    _up_cache.update(x)\n    return _held_cache.store(x, x)\n\n"
              "_free_cache = {}\n_other_cache = {}\n_other_cache.clear()\n")
    assert module_caches(source) == {
        "_loose_cache": False, "_dict_cache": False, "_held_cache": True, "_sized_cache": True,
        "_named_cache": True, "_open_cache": False, "_zero_cache": False, "_var_cache": False,
        "_twice_cache": False, "_pair_cache": False, "_typed_cache": False,
        "_set_cache": False, "_up_cache": False, "_free_cache": False, "_other_cache": False}


def test_module_caches_are_bounded():
    found = {name: bounded for path in MODULES
             for name, bounded in module_caches(path.read_text()).items()}
    assert set(found) >= {"_piece_cache", "_tally_cache", "_oracle_cache", "_strip_cache",
                          "_weight_cache"}
    assert [name for name, bounded in found.items() if not bounded] == []


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracer and child modules, imported from its directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("child")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracer", "workloads", "child"):
            sys.modules.pop(name, None)


def test_perfbench_layer_names_resolve(perfbench):
    tracer, _ = perfbench
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"flaghom.{layer}")
        for name in names:
            if layer == "polynomials" and name in tracer.POLY_METHODS:
                found = [getattr(module.Poly, slot) for slot in tracer.POLY_METHODS[name]]
            else:
                found = [getattr(module, name)]
            assert all(map(callable, found)), f"{layer}.{name}"
    assert isinstance(schubert._oracle_cache, dict)


def test_perfbench_queries_match_expected_digests(perfbench):
    _, child = perfbench
    pool = json.loads((PERFBENCH / "expected.json").read_text())["pool"]
    assert {q["kind"] for q in pool} == set(child.query_kinds())
    digests = [digest for _, digest in child.run_stream([[q["kind"], q["input"]] for q in pool])]
    assert digests == [q["sha256"] for q in pool]


def test_perfbench_readme_commands_match_expected_digests(perfbench, capsysbinary):
    # the README outputs that perfbench pins, checked in process so that an
    # output change shows in the tests rather than in a full bench run
    workloads = importlib.import_module("workloads")
    expected = workloads.load_expected()["readme"]
    for _, args in workloads.README:
        code = main(args)
        stdout = capsysbinary.readouterr().out
        want = expected[" ".join(args)]
        digest = workloads.sha(workloads.normalize(stdout))
        got = (code, digest, workloads.outcome_size(args, stdout))
        assert got == (want["exit"], want["sha256"], want["size"]), args
