"""Every global name a function in ``src/tvmap`` reads must exist: a call to
a deleted helper would otherwise fail only when its line first runs."""

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
