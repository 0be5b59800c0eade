"""Benchmark of the octachar command line: four workloads, timed or traced.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Every command runs `octachar.cli.main` from `src/` in a fresh interpreter, so
each starts with a cold character memo and cold lru caches, with --jobs given
explicitly and OCTACHAR_JOBS unset.  One sample is one pass over the
workload's commands; samples repeat for about --seconds seconds.

Every command's stdout and exit code are checked against values pinned at the
commit that added this benchmark, so a faster but wrong change is counted in
`failed`.  Only the schur workload takes the seed (its random points); sweep,
chartable and census are deterministic and run the same inputs for any seed.

With --trace 0 the metrics are end to end: the median time to solution
(wall_s), items per second, CPU time of the commands and their pool workers,
the largest RSS of any process the run started, and the median set-up time
of a fresh interpreter importing octachar.  The speed of each CPU of a
shared host drifts by a fifth or more within seconds, so the run is pinned to
as many CPUs as the workload uses and every timing is scaled to a reference
speed: a fixed pure-Python loop (calibrate) is timed on those CPUs before and
after each command, and the command's time is multiplied by CALIBRATION_REF_S
over the mean of those two.  The times are thus seconds on a machine where
that loop takes CALIBRATION_REF_S; the unscaled medians are in the provenance
line.  With --trace 1 the commands run at --jobs 1 on one CPU under
bench/tracer.py, alternating with untraced runs of the same commands, and the
metrics are per layer.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records
provenance, quartiles and sample counts.  The exit code is 1 if any check
failed and 2 if the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import STATS_PREFIX

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
ENTRY = "import sys; from octachar.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SAMPLES = 11
CALIBRATION_REF_S = 0.035
MIN_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, killed commands included


@dataclass(frozen=True)
class Workload:
    commands: tuple  # functions seed -> CLI argv; one pass over them is one sample
    items: int  # work items in one sample, for items_per_s
    items_traced: tuple  # MODULE.FUNCTION names whose calls are the traced work items
    rows: bool = False  # sum item calls per first argument
    cpus: int = 1  # CPUs the timed run is pinned to; traced runs use one


def _fixed(*argv):
    return lambda seed: list(argv)


def _schur(what, size):
    return lambda seed: ["verify", what, "--max-size", str(size), "--seed", str(seed)]


# Why each workload is here, and which layers it stresses, is in BENCHMARK.json.
WORKLOADS = {
    "sweep": Workload(
        commands=(_fixed("sweep", "--max", "7", "--jobs", "1"),),
        items=5518,
        items_traced=("verify._sweep_one_bipartition",),
    ),
    "chartable": Workload(
        commands=(_fixed("chartable", "15"),),
        items=176 * 176,
        items_traced=("characters.mn_character",),
        rows=True,
    ),
    "census": Workload(
        commands=(_fixed("census", "--m", "30", "--jobs", "2"),),
        items=5604,
        items_traced=("verify.mn_character",),
        cpus=2,
    ),
    "schur": Workload(
        commands=(_schur("frobenius", 6), _schur("even-fact", 5), _schur("odd-fact", 4)),
        items=145 + 82 + 95,
        items_traced=(
            "symfunc.verify_frobenius", "symfunc.verify_factorization_even", "symfunc.verify_factorization_odd",
        ),
    ),
}

# Pinned at the commit that added this benchmark.
CHARTABLE_15_SHA256 = "afd1a0b0ad230f6d177ebb3ab58f33d0e9ac666a2f7adfdb77819a8a28eaa38b"
PINNED_LINES = {
    "sweep": (r"checked (\d+) identities \((\d+) against the group-sum oracle\): (\w+)", ("5518", "142", "PASS")),
    "census": (r"(\d+) total, (\d+) positive, (\d+) negative, (\d+) zero", ("5604", "1978", "1978", "1648")),
    "frobenius": (r"PASS: (\d+) identities hold exactly", ("145",)),
    "even-fact": (r"PASS: (\d+) identities hold exactly", ("82",)),
    "odd-fact": (r"PASS: (\d+) identities hold exactly", ("95",)),
}

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "partitions.calls": "count",
    "partitions.self_s": "s",
    "partitions.Partition.constructed": "count",
    "characters.calls": "count",
    "characters.self_s": "s",
    "characters.mn_character.calls": "count",
    "characters.mn_character.self_s": "s",
    "characters.memo_entries": "count",
    "characters.product_character.calls": "count",
    "hyperoctahedral.calls": "count",
    "hyperoctahedral.self_s": "s",
    "hyperoctahedral.bn_character_positive.calls": "count",
    "hyperoctahedral.bn_character_bruteforce.calls": "count",
    "symfunc.calls": "count",
    "symfunc.self_s": "s",
    "symfunc.det.calls": "count",
    "symfunc.schur_eval.calls": "count",
    "verify.self_s": "s",
    "verify.pool_start_s": "s",
    "verify.pool_worker_cpu_s": "s",
    "verify.item_p50_ms": "ms",
    "verify.item_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# -- correctness -------------------------------------------------------------


def _parse_label(text):
    """Parts of a partition label such as [3,2^2,1]; [] is the empty partition."""
    parts = []
    for token in filter(None, text.strip("[]").split(",")):
        value, _, mult = token.partition("^")
        parts += [int(value)] * int(mult or 1)
    return parts


def _hook_dimension(parts):
    """Number of standard Young tableaux of the shape, by the hook length formula."""
    conj = [sum(1 for v in parts if v > j) for j in range(parts[0] if parts else 0)]
    hooks = math.prod(parts[i] - j + conj[j] - i - 1 for i in range(len(parts)) for j in range(parts[i]))
    return math.factorial(sum(parts)) // hooks


def check_chartable(stdout):
    if hashlib.sha256(stdout.encode()).hexdigest() != CHARTABLE_15_SHA256:
        return "chartable 15 digest differs from the pinned value"
    lines = stdout.splitlines()
    column = lines[0].split("\t").index("[1^15]")
    for line in lines[1:]:
        cells = line.split("\t")
        if int(cells[column]) != _hook_dimension(_parse_label(cells[0])):
            return "identity column differs from the hook length dimension at %s" % cells[0]
    return None


def check_output(argv, returncode, stdout):
    """None when a command's exit code and stdout match the pinned values, else why not."""
    if returncode != 0:
        return "exit code %d" % returncode
    if re.search(r"^FAIL", stdout, re.M):
        return "FAIL line in the output"
    name = argv[1] if argv[0] == "verify" else argv[0]
    if name == "chartable":
        return check_chartable(stdout)
    pattern, expected = PINNED_LINES[name]
    found = re.search(r"^%s$" % pattern, stdout, re.M)
    if found is None or found.groups() != expected:
        return "%s summary differs from the pinned %s" % (name, "/".join(expected))
    return None


# -- running commands --------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    error: str | None
    stderr: str


def _child_env():
    env = dict(os.environ)
    env.pop("OCTACHAR_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, deadline):
    """Run cmd to completion; returns (wall, cpu, returncode, stdout, stderr).

    CPU is user + system time of the child and the workers it reaped.  A child
    still running at the deadline is killed with its whole process group.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended after the timeout fired
            pass
        stdout, stderr = proc.communicate()
        stderr += "\nkilled at the run's time limit"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc.returncode, stdout, stderr


def run_cli(argv, deadline, tracer_args=None):
    cmd = [sys.executable, "-c", ENTRY] if tracer_args is None else [sys.executable, str(TRACER), *tracer_args, "--"]
    wall, cpu, code, stdout, stderr = run_child(cmd + argv, deadline)
    error = check_output(argv, code, stdout)
    if error:
        print("failed: %s: %s\n%s" % (" ".join(argv), error, stderr[-2000:]), file=sys.stderr)
    return Outcome(wall, cpu, error, stderr)


def calibrate():
    """Wall time of a fixed pure-Python loop of dict, tuple and integer work, as octachar does.

    Its dict stays small: a loop that allocates much memory times the
    allocator's page faults, not the CPU's speed.
    """
    start = time.perf_counter()
    memo = {}
    for i in range(150_000):
        key = (i % 97, i % 13)
        memo[key] = memo.get(key, 0) + i
    return time.perf_counter() - start


def pin(cpus):
    """Pin this process, and the commands it starts, to the first `cpus` CPUs it may use."""
    pinned = sorted(os.sched_getaffinity(0))[:cpus]
    os.sched_setaffinity(0, pinned)
    return pinned


class Clock:
    """Scale factors to the reference speed, from calibrate() run between timed steps."""

    def __init__(self, cpus):
        self.cpus = cpus
        self.calibrate()  # warm-up
        self.last = self.calibrate()
        self.calibrations = [self.last]

    def calibrate(self):
        """Mean time of calibrate() on each pinned CPU."""
        if len(self.cpus) == 1:
            return calibrate()
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, [cpu])
            times.append(calibrate())
        os.sched_setaffinity(0, self.cpus)
        return statistics.mean(times)

    def scale(self):
        """The factor for the step that just ended, from the calibrations before and after it."""
        before, self.last = self.last, self.calibrate()
        self.calibrations.append(self.last)
        return CALIBRATION_REF_S / ((before + self.last) / 2)


def measure_setup(deadline, clock):
    """Raw and scaled wall times of a fresh interpreter importing octachar (after one warm-up)."""
    cmd = [sys.executable, "-c", "import octachar"]
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        wall, _, code, _, stderr = run_child(cmd, deadline)
        if code != 0:
            raise RuntimeError("importing octachar failed:\n" + stderr)
        if i == 0:
            clock.scale()  # the warm-up step is not a sample
            continue
        raw.append(wall)
        scaled.append(wall * clock.scale())
    return raw, scaled


def sample_until(seconds, started, take_sample):
    """Call take_sample until the next one would end after `seconds` (at least MIN_SAMPLES)."""
    durations = []
    while True:
        begun = time.perf_counter()
        take_sample()
        durations.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - started
        if len(durations) >= MIN_SAMPLES and elapsed + statistics.median(durations) > seconds:
            return


# -- the two kinds of run ----------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, outcome):
        self.attempted += 1
        self.failed += outcome.error is not None
        return outcome


def timed_run(workload, seed, seconds, deadline, tally):
    started = time.perf_counter()
    clock = Clock(pin(workload.cpus))
    raw_setup, setup = measure_setup(deadline, clock)
    raw_walls, walls, cpus = [], [], []

    def sample():
        raw = wall = cpu = 0.0
        for cmd in workload.commands:
            outcome = tally.add(run_cli(cmd(seed), deadline))
            scale = clock.scale()
            raw += outcome.wall_s
            wall += outcome.wall_s * scale
            cpu += outcome.cpu_s * scale
        raw_walls.append(raw)
        walls.append(wall)
        cpus.append(cpu)

    sample_until(seconds, started, sample)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    wall = statistics.median(walls)
    samples = {
        "wall_s": walls,
        "items_per_s": [workload.items / w for w in walls],
        "cpu_s": cpus,
        "peak_rss_mb": [peak_rss_mb],
        "setup_s": setup,
    }
    values = {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    unscaled = {
        "calibration_s": clock.calibrations,
        "raw_wall_s": raw_walls,
        "raw_setup_s": raw_setup,
    }
    return values, samples, END_TO_END_UNITS, unscaled


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def _layer_values(stats, untraced_wall, traced_wall):
    """Per-layer metrics of one traced sample (the stats of its commands)."""

    def total(field, name):
        """Sum of a 'layer.function' field over functions matching name (a layer or a function)."""
        return sum(v for s in stats for key, v in s[field].items() if name in (key, key.split(".")[0]))

    values = {}
    for name in PER_LAYER_UNITS:
        prefix, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            values[name] = total(kind, prefix)
    items = [d for s in stats for d in s["item_s"]]
    values["partitions.Partition.constructed"] = sum(s["constructed"] for s in stats)
    values["characters.memo_entries"] = sum(s["memo_entries"] for s in stats)
    values["verify.pool_start_s"] = statistics.median(s["pool_start_s"] for s in stats)
    values["verify.pool_worker_cpu_s"] = statistics.median(s["pool_worker_cpu_s"] for s in stats)
    values["verify.item_p50_ms"] = 1000 * _percentile(items, 0.50)
    values["verify.item_p99_ms"] = 1000 * _percentile(items, 0.99)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {name: values[name] for name in PER_LAYER_UNITS}


def _trace_stats(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(STATS_PREFIX):
            return json.loads(line[len(STATS_PREFIX):])
    raise RuntimeError("the traced command wrote no statistics:\n" + stderr[-2000:])


def _one_job(argv):
    """argv with any --jobs value set to 1: traces see one process."""
    return ["1" if prev == "--jobs" else arg for prev, arg in zip([None] + argv, argv)]


def traced_run(workload, seed, seconds, deadline, tally):
    started = time.perf_counter()
    pin(1)
    tracer_args = [arg for name in workload.items_traced for arg in ("--item", name)]
    tracer_args += ["--rows"] if workload.rows else []
    per_sample = []

    commands = [_one_job(cmd(seed)) for cmd in workload.commands]

    def sample():
        untraced = sum(tally.add(run_cli(argv, deadline)).wall_s for argv in commands)
        traced_wall, stats = 0.0, []
        for argv in commands:
            outcome = tally.add(run_cli(argv, deadline, tracer_args))
            stat = _trace_stats(outcome.stderr)
            traced_wall += outcome.wall_s - stat["pool_start_s"]  # the pool probe is not tracing cost
            stats.append(stat)
        per_sample.append(_layer_values(stats, untraced, traced_wall))

    sample_until(seconds, started, sample)
    samples = {name: [s[name] for s in per_sample] for name in PER_LAYER_UNITS}
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples, PER_LAYER_UNITS, {}


# -- reporting ---------------------------------------------------------------


def provenance(workload_name, seed, samples, values, units, unscaled):
    git_sha = None
    if (ROOT / ".git").exists():  # a checkout without git history is identified by source_sha256
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    quartiles = {}
    for name, vals in samples.items():
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        quartiles[name] = {"q1": q[0], "median": values[name], "q3": q[2], "samples": len(vals), "unit": units[name]}
    return {
        "workload": workload_name,
        "seed": seed,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "metrics": quartiles,
        "calibration_ref_s": CALIBRATION_REF_S,
        "unscaled_medians": {name: statistics.median(v) for name, v in unscaled.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "octachar" / "cli.py").is_file():
        print("error: %s/octachar/cli.py not found; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    tally = Tally()
    run = traced_run if args.trace else timed_run
    try:
        values, samples, units, unscaled = run(workload, args.seed, args.seconds, deadline, tally)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    info = provenance(args.workload, args.seed, samples, values, units, unscaled)
    for name, q in info["metrics"].items():
        print("%-45s %14.6g %-5s (samples %d; q1 %.6g, q3 %.6g)" % (name, q["median"], q["unit"], q["samples"], q["q1"], q["q3"]))
    print("error_rate %d/%d" % (tally.failed, tally.attempted))
    print(json.dumps({"provenance": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
