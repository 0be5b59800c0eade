"""Every name a library module imports is used in that module, and every
private module-level helper is used somewhere in the library.

A leftover import hides which routes a module still depends on.  Package
`__init__.py` files are skipped (their imports are the re-exported API), and
so are `__future__` imports.  A private function, class or constant (one
leading underscore) that no library module refers to is dead code that the
import check cannot see, such as a formatter left behind by a rewrite.
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


def _orphaned_helpers(sources: dict) -> list:
    """(module, name) for each module-level private name defined in `sources`
    ({module: source}) that no source reads, as a name or an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in used)


def test_modules_found():
    assert {path.stem for path in MODULES} >= {"partitions", "characters", "symfunc"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_a_leftover():
    source = "from fractions import Fraction\nimport itertools\nimport os.path\n\nitertools.chain()\n"
    assert _unused_imports(source) == [(1, "Fraction"), (3, "os")]


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) == len(MODULES) + 1  # __init__ reads helpers of the layers too
    assert _orphaned_helpers(sources) == []


def test_detects_an_orphan():
    sources = {
        "a": "_LIMIT = 3\n_CACHE = {}\n_unused = 4\n\ndef _helper():\n    return _LIMIT\n\ndef _orphan():\n    return _helper()\n",
        "b": "from . import a\n\na._CACHE.clear()\n",  # an attribute read counts
    }
    assert _orphaned_helpers(sources) == [("a", "_orphan"), ("a", "_unused")]
