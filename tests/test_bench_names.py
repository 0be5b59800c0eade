"""The benchmark looks up library functions by name; a rename must not break it.

bench/tracer.py rebinds the functions in OWN_MODULE, and bench/run.py times
the `items_traced` functions of each workload.  Both are loaded here without
running anything, and without writing bytecode next to them.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """(tracer, run), registered under their own names for the test's duration:
    run.py imports tracer by name, and dataclasses look their module up."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = []
    for name in ("tracer", "run"):
        spec = importlib.util.spec_from_file_location(name, BENCH / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


def _is_function(module, attr):
    return inspect.isfunction(getattr(importlib.import_module("octachar." + module), attr, None))


def test_own_module_functions_exist(bench):
    tracer, _ = bench
    assert tracer.OWN_MODULE
    for module, attr in tracer.OWN_MODULE:
        assert _is_function(module, attr), (module, attr)


def test_traced_work_items_exist(bench):
    _, run = bench
    for name, workload in run.WORKLOADS.items():
        for item in workload.items_traced:
            module, _, attr = item.partition(".")
            assert _is_function(module, attr), (name, item)
