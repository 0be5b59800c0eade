"""Every name a library module imports is used in that module.

A leftover import hides which routes a module still depends on.  Package
`__init__.py` files are skipped (their imports are the re-exported API), and
so are `__future__` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "octachar"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert {path.stem for path in MODULES} >= {"partitions", "characters", "symfunc"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_a_leftover():
    source = "from fractions import Fraction\nimport itertools\nimport os.path\n\nitertools.chain()\n"
    assert _unused_imports(source) == [(1, "Fraction"), (3, "os")]
