"""Every global name a function in ``src/tvmap`` reads must exist: a call to
a deleted helper would otherwise fail only when its line first runs.  And
every function, method or class ``src/tvmap`` defines must be used by the
package, ``scripts/`` or ``benchmark/``: code only a test calls belongs with
the tests."""

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
    using = [p.read_text() for d in ("scripts", "benchmark")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_definitions(defining, using) == []


def test_unreferenced_definition_is_reported():
    defining = {
        "m": "def used():\n    pass\n\ndef unused():\n    used()\n\n"
             "class C:\n    def __init__(self):\n        pass\n\n"
             "    def called(self):\n        pass\n\n    def orphan(self):\n        self.called()\n",
    }
    assert unreferenced_definitions(defining, ["from m import C\n"]) == ["m.unused", "m.C.orphan"]
    assert unreferenced_definitions(defining, ["m.unused(); C().orphan()\n"]) == []
