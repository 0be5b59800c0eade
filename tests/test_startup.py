"""A CLI run imports only the standard library it uses.

Each command runs in a fresh interpreter, and its start-up is most of a short
run, so a module that the run never uses is pure cost.  `multiprocessing`
belongs to a sweep that starts a pool, `json` to `table --json`; `dataclasses`
and `inspect` to none.  The baseline is a bare interpreter's `sys.modules`,
so what `site` loads on a given host is not blamed on octachar.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = {"multiprocessing", "dataclasses", "inspect", "json"}
LIST_MODULES = "print(' '.join(sorted(sys.modules)))"
RUN_MAIN = "import sys; from octachar.cli import main; code = main(sys.argv[1:]); %s; sys.exit(code)" % LIST_MODULES


def _loaded(*args) -> set:
    """Modules in sys.modules at the end of `python -c ...`, read off its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def baseline():
    return _loaded("import sys; " + LIST_MODULES)


def test_import_loads_none_of_them(baseline):
    assert (_loaded("import sys, octachar.cli; " + LIST_MODULES) - baseline) & WATCHED == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["chartable", "3"],
        ["census", "--m", "6"],
        ["verify", "frobenius", "--max-size", "2"],
        ["sweep", "--max", "2", "--jobs", "1"],
        ["sweep", "--max", "1", "--jobs", "2"],  # one value of n starts no pool
        ["table", "--n", "2"],
    ],
    ids=" ".join,
)
def test_command_loads_none_of_them(baseline, argv):
    assert (_loaded(RUN_MAIN, *argv) - baseline) & WATCHED == set()


def test_guard_sees_a_pool(baseline):
    assert "multiprocessing" in _loaded(RUN_MAIN, "sweep", "--max", "2", "--jobs", "2") - baseline


def test_guard_sees_json(baseline):
    assert "json" in _loaded(RUN_MAIN, "table", "--n", "2", "--json") - baseline
