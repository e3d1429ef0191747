"""Every global name a function in ``src/tvmap`` reads must exist: a call to
a deleted helper would otherwise fail only when its line first runs.  And
every function, method or class ``src/tvmap`` defines must be used by the
package, ``scripts/`` or ``benchmark/``: code only a test calls belongs with
the tests.  And some caller, tests included, must pass each parameter that
has a default: a default that every caller takes is a constant.  And a
default that only tests pass must be one of the listed test seams: any
other is a setting the package never varies.  Tests are ``tests/`` and
``benchmark/tests/`` alike (:func:`caller_sources`).

The checks match a use to a definition by bare name, so a method shares its
uses with every same-named attribute: ``ndarray.copy()`` anywhere counts as
a use of ``NetWeights.copy``, whose only caller is a benchmark test."""

import ast
import builtins
import importlib
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tvmap"


def undefined_globals(source: str, filename: str, namespace) -> list[tuple[str, str]]:
    """(function, name) for every implicit global that a function (method,
    lambda or comprehension) in ``source`` reads and that is neither in
    ``namespace`` nor a builtin."""
    found = []

    def walk(table):
        if table.get_type() == "function":
            for sym in table.get_symbols():
                name = sym.get_name()
                if (sym.is_global() and not sym.is_declared_global() and sym.is_referenced()
                        and name not in namespace and not hasattr(builtins, name)):
                    found.append((table.get_name(), name))
        for child in table.get_children():
            walk(child)

    walk(symtable.symtable(source, filename, "exec"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_functions_read_only_defined_globals(path):
    module = importlib.import_module("tvmap" if path.stem == "__init__" else f"tvmap.{path.stem}")
    assert undefined_globals(path.read_text(), str(path), vars(module)) == []


def test_undefined_global_is_reported():
    source = (
        "def f():\n    return g() + len([])\n\n"
        "class C:\n    def m(self):\n        return f() + h + (lambda: k)()\n"
    )
    assert undefined_globals(source, "<snippet>", {"f": None, "C": None}) == [
        ("f", "g"), ("m", "h"), ("lambda", "k")
    ]


ROOT = SRC.parents[1]


def caller_sources(root: Path) -> tuple[list[str], list[str]]:
    """(package, tests): the sources under ``scripts/`` and ``benchmark/``
    that call the package, and the test sources, under ``tests/`` and
    ``benchmark/tests/``."""
    package, tests = [], []
    for d in ("scripts", "benchmark", "tests"):
        for p in sorted((root / d).rglob("*.py")):
            (tests if "tests" in p.relative_to(root).parts else package).append(p.read_text())
    return package, tests


def unreferenced_definitions(defining: dict[str, str], using: list[str]) -> list[str]:
    """``module.qualname`` of every function, method or class that the
    ``defining`` sources (module name -> source) define and that no source,
    there or in ``using``, reads by name: as a bare name, an attribute or an
    imported name.  Dunder names are exempt."""
    defined, read = [], set()

    def collect(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defined.append((child.name, f"{prefix}.{child.name}"))
                collect(child, f"{prefix}.{child.name}")
            else:
                collect(child, prefix)

    for module, source in defining.items():
        collect(ast.parse(source), module)
    for source in [*defining.values(), *using]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    return [qualname for name, qualname in defined if name not in read]


def test_every_definition_is_used_outside_tests():
    # code that only a test calls belongs with the tests (tests/oracles.py)
    defining = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(defining, caller_sources(ROOT)[0]) == []


def test_unreferenced_definition_is_reported():
    defining = {
        "m": "def used():\n    pass\n\ndef unused():\n    used()\n\n"
             "class C:\n    def __init__(self):\n        pass\n\n"
             "    def called(self):\n        pass\n\n    def orphan(self):\n        self.called()\n",
    }
    assert unreferenced_definitions(defining, ["from m import C\n"]) == ["m.unused", "m.C.orphan"]
    assert unreferenced_definitions(defining, ["m.unused(); C().orphan()\n"]) == []


def test_definition_used_only_by_a_benchmark_test_is_reported(tmp_path):
    (tmp_path / "benchmark" / "tests").mkdir(parents=True)
    (tmp_path / "benchmark" / "run.py").write_text("from m import used\n")
    (tmp_path / "benchmark" / "tests" / "test_b.py").write_text("from m import unused\n")
    defining = {"m": "def used():\n    pass\n\ndef unused():\n    pass\n"}
    assert unreferenced_definitions(defining, caller_sources(tmp_path)[0]) == ["m.unused"]


def unpassed_defaults(defining: dict[str, str], calling: list[str]) -> list[str]:
    """``module.function(parameter)`` for every parameter with a default, on
    a function or method the ``defining`` sources (module name -> source)
    define, that no call in them or in ``calling`` passes, by keyword or by
    position.  Calls match the function by name (a class call matches
    ``__init__``); a call that spreads ``*args`` passes every positional
    parameter and one that spreads ``**kwargs`` passes every parameter."""
    params = []  # (name a call uses, "module.function(parameter)", parameter, index)

    def collect(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, module, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                called = cls if child.name == "__init__" else child.name
                where = f"{module}.{cls}.{child.name}" if cls else f"{module}.{child.name}"
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    params.append((called, f"{where}({arg.arg})", arg.arg, i - bound))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        params.append((called, f"{where}({arg.arg})", arg.arg, None))
                collect(child, module, None)
            else:
                collect(child, module, cls)

    for module, source in defining.items():
        collect(ast.parse(source), module, None)
    passed = set()  # (name, parameter name or positional index, or "*" / "**")
    for source in [*defining.values(), *calling]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((name, i) for i in range(len(node.args)))
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((name, "*"))
                passed.update((name, kw.arg or "**") for kw in node.keywords)
    return [where for called, where, arg, index in params
            if not {(called, arg), (called, "**")} & passed
            and (index is None or not {(called, index), (called, "*")} & passed)]


def test_every_default_is_passed_somewhere():
    # a parameter whose default every caller takes is a constant
    defining = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    package, tests = caller_sources(ROOT)
    assert unpassed_defaults(defining, package + tests) == []


def test_unpassed_default_is_reported():
    defining = {
        "m": "def f(a, b=1, c=2, *, d=3):\n    pass\n\n"
             "class C:\n    def __init__(self, x=0):\n        pass\n\n"
             "    def g(self, y=0, z=0):\n        pass\n\n"
             "f(0, 1)\nC().g(z=1)\n",
    }
    assert unpassed_defaults(defining, []) == ["m.f(c)", "m.f(d)", "m.C.__init__(x)", "m.C.g(y)"]
    assert unpassed_defaults(defining, ["f(0, 1, 2, d=4)\nC(1).g(0)\n"]) == []
    assert unpassed_defaults(defining, ["f(*args, **kw)\nC(*a)\nC().g(**kw)\n"]) == []


# Parameter defaults that some test passes and no caller in the package,
# scripts/ or benchmark/ does, each with the reason a test needs it.  Any
# other such default is a setting the package never varies: make it a module
# constant, which the test that varies it patches.
TEST_SEAMS = {
    "cli.main(argv)": "the console entry point calls main() with no arguments",
    "qmri.concentric_region_labels(n_regions)": "the 3-region test phantoms",
    "certificates.rate_certificate(step)": "reaches the check that M is positive definite",
}


def defaults_only_tests_pass(defining: dict[str, str], package: list[str],
                             tests: list[str]) -> list[str]:
    """``module.function(parameter)`` for every default that a source in
    ``tests`` passes and none in ``defining`` or ``package`` does."""
    passed_with_tests = set(unpassed_defaults(defining, package + tests))
    return [where for where in unpassed_defaults(defining, package)
            if where not in passed_with_tests]


def test_test_only_defaults_are_listed_seams():
    defining = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = set(defaults_only_tests_pass(defining, *caller_sources(ROOT)))
    # (unlisted, listed but no longer test-only)
    assert (sorted(found - TEST_SEAMS.keys()), sorted(TEST_SEAMS.keys() - found)) == ([], [])


def test_test_only_default_is_reported():
    defining = {"m": "def f(a=1, b=2, c=3):\n    pass\n\nf(a=0)\n"}
    assert defaults_only_tests_pass(defining, ["f(0, 1)\n"], ["f(c=4)\n"]) == ["m.f(c)"]
    assert defaults_only_tests_pass(defining, [], ["f(b=2, c=1)\n"]) == ["m.f(b)", "m.f(c)"]
    assert defaults_only_tests_pass(defining, ["f(0, 1, c=1)\n"], ["f(b=2, c=1)\n"]) == []


def test_default_passed_only_by_a_benchmark_test_is_reported(tmp_path):
    (tmp_path / "benchmark" / "tests").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("f(a=0)\n")
    (tmp_path / "benchmark" / "tests" / "test_b.py").write_text("f(b=1)\n")
    defining = {"m": "def f(a=1, b=2):\n    pass\n"}
    assert defaults_only_tests_pass(defining, *caller_sources(tmp_path)) == ["m.f(b)"]
