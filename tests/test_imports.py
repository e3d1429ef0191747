"""``src/tvmap`` imports only the standard library, numpy, scipy and itself:
a stray import of any other package would make the install need it."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tvmap"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "scipy", "tvmap"}


def foreign_imports(root: Path) -> list[tuple[str, str]]:
    """(file name, top-level module) for every absolute import, at any depth,
    in the ``*.py`` files of ``root`` whose package is not in ``ALLOWED``;
    relative imports stay inside the package and pass."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n.split(".")[0]) for n in names
                      if n.split(".")[0] not in ALLOWED]
    return found


def test_package_imports_only_stdlib_numpy_scipy():
    assert foreign_imports(SRC) == []


def test_foreign_import_is_reported(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os, numpy.linalg\nfrom . import tensors\nfrom scipy import sparse\n\n"
        "def f():\n    import yaml\n    from requests.adapters import HTTPAdapter\n"
    )
    assert foreign_imports(tmp_path) == [("mod.py", "yaml"), ("mod.py", "requests")]
