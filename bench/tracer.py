"""Run one octachar CLI command with per-layer spans recorded from outside.

    python3 bench/tracer.py --item verify.mn_character -- census --m 34 --jobs 1

The command's own output goes to stdout unchanged.  After it, one line of
statistics goes to stderr: STATS_PREFIX followed by a JSON object.

Layers are the modules partitions, characters, hyperoctahedral, symfunc and
verify.  A span opens at every public function that one module (or the CLI)
imports from another layer: the name is rebound in the importing module's
namespace, so the source tree is not edited.  A few functions that are also
called inside their own module are rebound there too, so their callers are
seen (see OWN_MODULE).  Partition constructions are counted, and timed as
partitions work when they come from outside that layer.  Importing a layer is
also a span, so a layer that does no work still shows its load time.

A layer's self time is its spans' time minus the time of the spans nested in
them.  Work items (calls of the --item functions) are timed separately and kept
in memory; with --rows, calls are summed per first argument (a table row).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.machinery
import inspect
import json
import multiprocessing
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("partitions", "characters", "hyperoctahedral", "symfunc", "verify")
IMPORTERS = ("cli",) + LAYERS
# Functions whose calls from their own module matter to a per-function metric.
OWN_MODULE = (
    ("characters", "mn_character"),
    ("characters", "product_character"),
    ("symfunc", "det"),
    ("symfunc", "schur_eval"),
)
STATS_PREFIX = "octachar-trace-stats "
_DONE = object()


class Spans:
    """Span stack with self time and call counts per 'layer.function' key."""

    def __init__(self):
        self.stack = [[0.0, None]]  # [time of nested spans, layer]; root is no layer
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.constructed = 0

    def _close(self, frame, key, start):
        elapsed = time.perf_counter() - start
        self.stack.pop()
        self.self_s[key] += elapsed - frame[0]
        self.stack[-1][0] += elapsed

    def wrap(self, layer, name, fn, count=True):
        key = layer + "." + name
        stack = self.stack

        if inspect.isgeneratorfunction(fn):
            # A generator works while it is resumed, so each resumption is a span.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[key] += count
                gen = fn(*args, **kwargs)
                while True:
                    frame = [0.0, layer]
                    stack.append(frame)
                    start = time.perf_counter()
                    try:
                        item = next(gen, _DONE)
                    finally:
                        self._close(frame, key, start)
                    if item is _DONE:
                        return
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += count
            frame = [0.0, layer]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, key, start)

        return traced

    def count_partitions(self, partition_cls):
        """Count every Partition built; time the ones built from outside partitions."""
        original = partition_cls.__new__
        timed = self.wrap("partitions", "Partition", original, count=False)

        def new(cls, parts=()):
            self.constructed += 1
            if self.stack[-1][1] == "partitions":
                return original(cls, parts)
            return timed(cls, parts)

        partition_cls.__new__ = staticmethod(new)


class _ImportSpans:
    """Meta-path finder that makes executing a layer's module a span."""

    def __init__(self, spans):
        self.spans = spans

    def find_spec(self, name, path, target=None):
        package, _, layer = name.rpartition(".")
        if package != "octachar" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None:
            loader = spec.loader
            loader.exec_module = self.spans.wrap(layer, "(import)", loader.exec_module, count=False)
        return spec


def install(spans):
    """Import octachar with import spans on, then rebind the cross-layer names."""
    sys.meta_path.insert(0, _ImportSpans(spans))
    modules = {name: importlib.import_module("octachar." + name) for name in IMPORTERS}
    for importer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            package, _, owner = value.__module__.rpartition(".")
            if package == "octachar" and owner in LAYERS and owner != importer:
                setattr(module, attr, spans.wrap(owner, attr, value))
    for owner, attr in OWN_MODULE:
        module = modules[owner]
        setattr(module, attr, spans.wrap(owner, attr, getattr(module, attr)))
    spans.count_partitions(modules["partitions"].Partition)
    return modules


def wrap_items(module, attr, by_first_arg, durations):
    """Time each call of module.attr as one work item (or sum per first argument)."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def item(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            key = args[0] if by_first_arg else len(durations)
            durations[key] = durations.get(key, 0.0) + time.perf_counter() - start

    setattr(module, attr, item)


def pool_probe():
    """Wall time of a bare 2-worker pool's start, close and join, and its workers' CPU."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    pool = multiprocessing.Pool(2)
    pool.close()
    pool.join()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--item", action="append", required=True,
                        help="MODULE.FUNCTION whose calls are work items (repeatable)")
    parser.add_argument("--rows", action="store_true", help="sum item calls per first argument")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    spans = Spans()
    modules = install(spans)
    durations = {}
    for item in args.item:
        module, _, attr = item.partition(".")
        wrap_items(modules[module], attr, args.rows, durations)
    pool_wall, pool_cpu = pool_probe()
    try:
        code = modules["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        stats = {
            "self_s": spans.self_s,
            "calls": spans.calls,
            "constructed": spans.constructed,
            "memo_entries": len(getattr(modules["characters"], "_MN_MEMO", ())),
            "item_s": list(durations.values()),
            "pool_start_s": pool_wall,
            "pool_worker_cpu_s": pool_cpu,
        }
        print(STATS_PREFIX + json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
