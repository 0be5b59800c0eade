"""A CLI run imports only the layers and the standard library it uses.

Each command runs in a fresh interpreter, and its start-up is most of a short
run, so a module that the run never uses is pure cost.  Each handler imports
its own layers; LAYERS_BY_COMMAND pins which.  The children run without
`site` (`-S`), and the baseline is a bare interpreter's `sys.modules`, so
what a host's site hooks load neither hides a module octachar loads nor is
blamed on octachar.  A run's shutdown is a fixed cost too: `cli` freezes the
collector at exit, and the library leaves shutdown as it is.
"""

import pytest

from fresh import fresh

WATCHED = {"multiprocessing", "dataclasses", "inspect", "json", "argparse", "gettext", "locale"}
LIST_MODULES = "print(' '.join(sorted(sys.modules)))"
RUN_MAIN = "import sys; from octachar.cli import main; code = main(sys.argv[1:]); %s; sys.exit(code)" % LIST_MODULES

CORE = {"octachar", "octachar.cli", "octachar.partitions"}
CHARACTERS = CORE | {"octachar.characters"}
SYMFUNC = CORE | {"octachar.symfunc", "random"}  # its checks run at integer points
FRACTIONS = {"fractions", "decimal"}
HYPEROCTAHEDRAL = CHARACTERS | {"octachar.hyperoctahedral"}
HARNESS = HYPEROCTAHEDRAL | {"octachar.verify"}


def _loaded(*args) -> set:
    """Modules in sys.modules at the end of `python -S -c ...`, read off its last stdout line."""
    proc = fresh(*args)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _layers(modules: set) -> set:
    """The octachar modules among `modules`, with `fractions`, `decimal` and `random`."""
    return {name for name in modules if name.partition(".")[0] in ("octachar", "fractions", "decimal", "random")}


@pytest.fixture(scope="module")
def baseline():
    return _loaded("import sys; " + LIST_MODULES)


def test_import_loads_none_of_them(baseline):
    assert (_loaded("import sys, octachar.cli; " + LIST_MODULES) - baseline) & WATCHED == set()


def test_import_octachar_runs_no_layer(baseline):
    assert _layers(_loaded("import sys, octachar; " + LIST_MODULES) - baseline) == {"octachar"}


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


LAYERS_BY_COMMAND = {
    "chartable 3": CHARACTERS,
    "char [2,1] [1^3]": CHARACTERS,
    "verify frobenius --max-size 2": SYMFUNC | {"octachar.characters"},
    "verify even-fact --max-size 2": SYMFUNC,
    "verify odd-fact --max-size 2": SYMFUNC,
    "schur [2,1] --at 1,2,3": SYMFUNC | FRACTIONS,
    "basechange ([1]|[1]) --target even": HYPEROCTAHEDRAL,
    "norm [4,2]": HYPEROCTAHEDRAL,
    "sweep --max 2 --jobs 1": HARNESS,
    "census --m 6": {"octachar", "octachar.cli", "octachar.census"},
    "table --n 2": HARNESS,
    "dims --n 2 --target even": HARNESS | {"octachar.census"},  # p(k) from the census layer
}


@pytest.mark.parametrize("command", LAYERS_BY_COMMAND)
def test_command_loads_only_its_layers(baseline, command):
    assert _layers(_loaded(RUN_MAIN, *command.split()) - baseline) == LAYERS_BY_COMMAND[command]


@pytest.mark.parametrize(
    "command",
    [
        "chartable 3",
        "char [2,1] [1^3]",
        "schur [2,1] --at 1,2,3",
        "verify frobenius --max-size 2",
        "verify even-fact --max-size 2",
        "verify odd-fact --max-size 2",
    ],
)
def test_command_loads_no_typing(baseline, command):
    """No NamedTuple reaches these commands through cli or partitions."""
    assert "typing" not in _loaded(RUN_MAIN, *command.split()) - baseline


def test_guard_sees_a_pool(baseline):
    assert "multiprocessing" in _loaded(RUN_MAIN, "sweep", "--max", "2", "--jobs", "2") - baseline


def test_guard_sees_json(baseline):
    assert "json" in _loaded(RUN_MAIN, "table", "--n", "2", "--json") - baseline


def test_guard_sees_argparse(baseline):
    loaded = _loaded("import argparse; " + RUN_MAIN, "chartable", "3") - baseline
    assert {"argparse", "gettext"} <= loaded & WATCHED


def test_guard_sees_a_layer(baseline):
    """Touching one exported name loads its layer and the layers under it."""
    loaded = _loaded("import sys, octachar; octachar.sign_census; " + LIST_MODULES) - baseline
    assert _layers(loaded) == {"octachar", "octachar.census"}
    loaded = _loaded("import sys, octachar; octachar.main_theorem_sweep; " + LIST_MODULES) - baseline
    assert _layers(loaded) == HARNESS - {"octachar.cli"}


# registered before octachar loads, so atexit (last in, first out) runs it after cli's freeze
PRINT_FROZEN_AT_EXIT = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "


@pytest.mark.parametrize(
    "code, returncode, frozen",
    [
        ("from octachar.cli import main; main(['census', '--m', '6'])", 0, True),
        ("from octachar.cli import main; main(['census', '--bogus'])", 2, True),  # SystemExit(2)
        ("import octachar; octachar.sign_census(6)", 0, False),
    ],
    ids=["command", "usage error", "library"],
)
def test_only_the_cli_freezes_the_collector_at_exit(code, returncode, frozen):
    proc = fresh(PRINT_FROZEN_AT_EXIT + code)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (returncode, str(frozen)), proc.stderr
