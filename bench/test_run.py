"""Tests of the benchmark itself: pinned-output checks, failure counting, tracing.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import run
import tracer

BENCH = Path(__file__).resolve().parent
SWEEP_OK = "sweep: max=7 seed=0 jobs=1\nchecked 5518 identities (142 against the group-sum oracle): PASS\n"
CENSUS_OK = "5604 total, 1978 positive, 1978 negative, 1648 zero\n"


def test_pinned_outputs_pass():
    assert run.check_output(["sweep", "--max", "7"], 0, SWEEP_OK) is None
    assert run.check_output(["census", "--m", "30"], 0, CENSUS_OK) is None
    assert run.check_output(["verify", "odd-fact"], 0, "branches: ...\nPASS: 95 identities hold exactly\n") is None


def test_outputs_that_differ_from_the_pinned_values_fail():
    assert run.check_output(["sweep"], 0, SWEEP_OK.replace("5518", "5517"))
    assert run.check_output(["sweep"], 0, "FAIL: identity fails\n" + SWEEP_OK)
    assert run.check_output(["sweep"], 1, SWEEP_OK)
    assert run.check_output(["census"], 0, CENSUS_OK.replace("1648 zero", "1649 zero"))
    assert run.check_output(["verify", "frobenius"], 0, "PASS: 144 identities hold exactly\n")
    assert run.check_output(["verify", "even-fact"], 0, "")
    assert run.check_output(["chartable", "15"], 0, "partition\t[1^15]\n[15]\t1\n")


def test_hook_dimension_and_labels():
    assert run._parse_label("[3,2^2,1]") == [3, 2, 2, 1]
    assert [run._hook_dimension(run._parse_label(p)) for p in ("[1^4]", "[2,1^2]", "[2^2]", "[4]")] == [1, 3, 2, 1]


def _fake_checkout(tmp_path, census_line):
    """A checkout whose octachar CLI prints one census line and nothing else."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "octachar"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(textwrap.dedent(
        """
        def main(argv=None):
            print(%r)
            return 0
        """ % census_line
    ))
    return tmp_path


def _bench(checkout, workload="census"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )


def test_a_run_with_wrong_output_is_counted_as_failed(tmp_path):
    proc = _bench(_fake_checkout(tmp_path, "5604 total, 1978 positive, 1977 negative, 1649 zero"))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_SAMPLES


def test_a_run_with_pinned_output_is_correct(tmp_path):
    proc = _bench(_fake_checkout(tmp_path, CENSUS_OK.strip()))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_without_the_source_tree_no_result_is_printed(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_self_time_excludes_nested_spans():
    spans = tracer.Spans()
    inner = spans.wrap("partitions", "inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        yield 1

    outer = spans.wrap("characters", "outer", outer_body)
    assert list(outer()) == [1]
    assert spans.calls == {"characters.outer": 1, "partitions.inner": 1}
    assert spans.self_s["partitions.inner"] >= 0.02 > spans.self_s["characters.outer"] >= 0


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_timings_are_scaled_by_the_calibrations_around_them(monkeypatch):
    calibrations = iter([0.5, 0.07, 0.14])  # warm-up, before the step, after it
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    clock = run.Clock([0])
    assert abs(clock.scale() - run.CALIBRATION_REF_S / 0.105) < 1e-12
    assert clock.calibrations == [0.07, 0.14]
