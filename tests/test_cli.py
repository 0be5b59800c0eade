import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import octachar
from octachar import cli, partitions
from octachar.cli import CENSUS_MAX_M, CHARTABLE_MAX_M, DIMS_MAX_N, SWEEP_MAX, TABLE_MAX_N, VERIFY_MAX_SIZE, main
from octachar.partitions import format_partition, parse_partition, partitions_of
from octachar.symfunc import random_rationals
from octachar.characters import dimension
from octachar.hyperoctahedral import parse_bipartition


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main; help and usage errors exit by SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChar:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "char", "[2,1^6]", "[2^4]")
        assert code == 0
        assert out.strip() == "-1"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "char", "[2,3]", "[2^4]")
        assert code == 2
        assert "position" in err

    def test_size_mismatch_exit_code(self, capsys):
        code, _, err = run(capsys, "char", "[2,1]", "[2,2]")
        assert code == 2
        assert "size mismatch" in err


class TestChartable:
    def test_s3(self, capsys):
        code, out, _ = run(capsys, "chartable", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["partition", "[1^3]", "[2,1]", "[3]"]
        body = {row.split("\t")[0]: row.split("\t")[1:] for row in lines[1:]}
        assert body["[2,1]"] == ["2", "0", "-1"]
        assert body["[3]"] == ["1", "1", "1"]

    def test_reparseable(self, capsys):
        code, out, _ = run(capsys, "chartable", "4")
        lines = out.strip().splitlines()
        for row in lines[1:]:
            parse_partition(row.split("\t")[0])


class TestBasechangeNorm:
    def test_basechange(self, capsys):
        code, out, _ = run(capsys, "basechange", "([]|[1^4])", "--target", "even")
        assert code == 0
        assert out.strip() == "[2,1^6]"
        code, out, _ = run(capsys, "basechange", "([]|[1^4])", "--target", "odd")
        assert out.strip() == "[3,2,1^4]"

    def test_norm(self, capsys):
        code, out, _ = run(capsys, "norm", "[8]")
        assert code == 0
        assert out.strip() == "([4]|[])"
        assert parse_bipartition(out.strip())

    def test_norm_undefined(self, capsys):
        code, _, err = run(capsys, "norm", "[3,2,1]")
        assert code == 2
        assert "norm undefined" in err


class TestSchur:
    def test_integer_point(self, capsys):
        code, out, _ = run(capsys, "schur", "[2,1]", "--at", "1,2,3")
        assert code == 0
        assert out.strip() == "60"

    def test_rational_point(self, capsys):
        code, out, _ = run(capsys, "schur", "[1,1]", "--at", "1/2,3")
        assert code == 0
        assert out.strip() == "3/2"

    @pytest.mark.parametrize("lam, at, value", [("[2,1]", "1,1,1", "8"), ("[1^5]", "1,2", "0"), ("[2]", "0,0,-1/2", "1/4")])
    def test_repeated_zero_and_too_few_coordinates(self, capsys, lam, at, value):
        assert run(capsys, "schur", lam, "--at", at) == (0, value + "\n", "")

    def test_bad_point(self, capsys):
        for token in ("zebra", "1e²"):  # "²" is a digit to str.isdigit, not to int()
            code, _, err = run(capsys, "schur", "[1]", "--at", "1," + token)
            assert code == 2
            assert "bad point value %r" % token in err

    def test_long_bad_point_is_not_echoed(self, capsys):
        code, _, err = run(capsys, "schur", "[1]", "--at", "1," + "x" * 5000)
        assert code == 2
        assert len(err) < 200

    def test_point_at_the_digit_limit(self, capsys):
        code, out, _ = run(capsys, "schur", "[1]", "--at", "9" * 4300 + "e-4299")
        assert code == 0
        assert out.strip() == "9" * 4300 + "/1" + "0" * 4299

    def test_result_past_the_digit_limit_prints_in_full(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "schur", "[300]", "--at", "1e20")
        assert (code, err) == (0, "")
        assert out.strip() == "1" + "0" * 6000
        assert sys.get_int_max_str_digits() == limit
        # the input side still refuses a value past the limit
        code, out, err = run(capsys, "schur", "[1]", "--at", "1,1e4301")
        assert (code, out) == (2, "")
        assert "exceeds 4300 digits" in err

    def test_result_past_the_output_cap_exits_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "schur", "[30000]", "--at", "1e4")
        assert (code, out) == (2, "")
        assert "schur value exceeds 100000 digits" in err
        assert "set_int_max_str_digits" not in err
        assert sys.get_int_max_str_digits() == limit

    def test_output_cap_counts_numerator_and_denominator_together(self, capsys):
        # 51,999 + 50,581 digits: each part is under the cap, the value is not
        code, out, err = run(capsys, "schur", "[13000]", "--at", "9998/7777")
        assert (code, out) == (2, "")
        assert "schur value exceeds 100000 digits" in err

    @pytest.mark.parametrize("limit", [0, 200_000])  # no limit, and one above the cap
    def test_output_cap_holds_under_any_digit_limit(self, capsys, limit):
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run(capsys, "schur", "[30000]", "--at", "1e4")
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(default)
        assert (code, out) == (2, "")
        assert "schur value exceeds 100000 digits" in err


class TestVerifyCommands:
    def test_frobenius(self, capsys):
        code, out, _ = run(capsys, "verify", "frobenius", "--max-size", "3", "--seed", "7")
        assert code == 0
        assert "seed=7" in out
        assert "PASS" in out

    def test_even_fact(self, capsys):
        code, out, _ = run(capsys, "verify", "even-fact", "--max-size", "2", "--seed", "1")
        assert code == 0
        assert "PASS" in out

    def test_odd_fact(self, capsys):
        code, out, _ = run(capsys, "verify", "odd-fact", "--max-size", "1", "--seed", "1")
        assert code == 0
        assert "branches" in out and "PASS" in out

    def test_failed_identity_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("octachar.symfunc.verify_frobenius", lambda lam, values, **kw: False)
        code, out, err = run(capsys, "verify", "frobenius", "--max-size", "1")
        assert (code, err) == (1, "")
        header, failure = out.splitlines()
        assert header == "verify frobenius: max-size=1 seed=0"
        assert failure == "FAIL: frobenius failed at lam=[1] point=%s" % random_rationals(1, random.Random(0))


TABLE_N2_TSV = (
    "lambda_even\ttheta_even\ttheta_odd\tlambda_odd\tsign\tbn_dim\n"
    "[1^4]\t1\t1\t[1^5]\t1\t1\n"
    "[2,1^2]\t-1\t1\t[3,2]\t-1\t1\n"
    "[2^2]\t2\t-2\t[3,1^2]\t1\t2\n"
    "[3,1]\t-1\t1\t[2^2,1]\t-1\t1\n"
    "[4]\t1\t1\t[5]\t1\t1\n"
    "# excluded S_4: \n"
    "# excluded S_5: [2,1^3],[4,1]\n"
)
TABLE_N2_JSON = (
    '{"lambda_even": "[1^4]", "lambda_odd": "[1^5]", "theta_even": 1, "theta_odd": 1, "sign": 1, "bn_dim": 1}\n'
    '{"lambda_even": "[2,1^2]", "lambda_odd": "[3,2]", "theta_even": -1, "theta_odd": 1, "sign": -1, "bn_dim": 1}\n'
    '{"lambda_even": "[2^2]", "lambda_odd": "[3,1^2]", "theta_even": 2, "theta_odd": -2, "sign": 1, "bn_dim": 2}\n'
    '{"lambda_even": "[3,1]", "lambda_odd": "[2^2,1]", "theta_even": -1, "theta_odd": 1, "sign": -1, "bn_dim": 1}\n'
    '{"lambda_even": "[4]", "lambda_odd": "[5]", "theta_even": 1, "theta_odd": 1, "sign": 1, "bn_dim": 1}\n'
    '{"excluded_even": [], "excluded_odd": ["[2,1^3]", "[4,1]"]}\n'
)


class TestTable:
    @pytest.mark.parametrize("flags, expected", [((), TABLE_N2_TSV), (("--json",), TABLE_N2_JSON)])
    def test_n2_output_is_pinned(self, capsys, flags, expected):
        # the whole output, so the JSON key order and the TSV column order are pinned too
        assert run(capsys, "table", "--n", "2", *flags) == (0, expected, "")

    def test_plain_contains_exclusions(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "4")
        assert code == 0
        assert "[2^2,1^4]\t4\t-4\t[3,1^6]" in out
        assert "# excluded S_8: [3,2,1^3],[5,2,1]" in out
        assert "# excluded S_9:" in out

    def test_json_rows_reparse(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == 6  # 5 bipartitions of 2, plus the exclusion object
        for obj in rows[:-1]:
            assert parse_partition(obj["lambda_even"]).size == 4
            assert parse_partition(obj["lambda_odd"]).size == 5
            assert isinstance(obj["theta_even"], int)
        assert set(rows[-1]) == {"excluded_even", "excluded_odd"}

    def test_tsv_round_trips(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3")  # TSV is the default
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        header = lines[0].split("\t")
        assert header[0] == "lambda_even"
        for row in lines[1:]:
            fields = row.split("\t")
            assert parse_partition(fields[0]).size == 6
            assert int(fields[1]) == int(fields[4]) * int(fields[5])


class TestCensusSweepDims:
    def test_census_m8(self, capsys):
        code, out, _ = run(capsys, "census", "--m", "8")
        assert code == 0
        assert out.strip() == "22 total, 10 positive, 10 negative, 2 zero"

    def test_census_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "census", "--m", "8", "--jobs", "2")
        assert code == 0
        assert out.strip() == "22 total, 10 positive, 10 negative, 2 zero"

    def test_census_bench_command_line(self, capsys):
        expected = "5604 total, 1978 positive, 1978 negative, 1648 zero\n"
        assert run(capsys, "census", "--m", "30", "--jobs", "2") == (0, expected, "")

    def test_sweep_bench_command_line(self, capsys):
        expected = "sweep: max=7 jobs=1\nchecked 5518 identities (142 against the group-sum oracle): PASS\n"
        assert run(capsys, "sweep", "--max", "7", "--jobs", "1") == (0, expected, "")

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max", "2")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--max", "0"),
            ("sweep", "--max", "-3"),
            ("verify", "frobenius", "--max-size", "0"),
            ("verify", "even-fact", "--max-size", "0"),
            ("verify", "odd-fact", "--max-size", "-1"),
            ("dims", "--n", "0", "--target", "even"),
            ("dims", "--n", "-1", "--target", "odd"),
        ],
    )
    def test_empty_range_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--n", "3", "--target", "odd")
        assert code == 0
        assert out.strip() == "ok: 10 dimensions match as multisets"

    def test_dims_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("octachar.verify.dimension", lambda lam: dimension(lam) + 1)
        code, out, err = run(capsys, "dims", "--n", "2", "--target", "even")
        assert (code, err) == (1, "")
        assert out == "MISMATCH: B_2 dimensions differ from the |character| multiset\n"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # an eager expansion fails, not the host


def test_huge_exponent_is_rejected_before_expansion():
    src = str(Path(octachar.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from octachar.cli import main; sys.exit(main(sys.argv[1:]))",
         "char", "[1^1000000000]", "[1]"],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert "more than 10000 parts" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["1e20000000", "1e200000000", "1E-99999", "1/" + "3" * 5000])
def test_huge_point_value_is_rejected_before_conversion(value):
    src = str(Path(octachar.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from octachar.cli import main; sys.exit(main(sys.argv[1:]))",
         "schur", "[1]", "--at", "1," + value],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert "exceeds 4300 digits" in proc.stderr
    assert len(proc.stderr) < 200  # the value is not echoed in full
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("m", [CENSUS_MAX_M + 1, 10**8])
def test_census_past_the_limit_is_refused_before_work(m):
    src = str(Path(octachar.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from octachar.cli import main; sys.exit(main(sys.argv[1:]))",
         "census", "--m", str(m)],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: census --m %d exceeds the limit of %d\n" % (m, CENSUS_MAX_M)


@pytest.mark.parametrize("m", [CHARTABLE_MAX_M + 1, 10**8])
def test_chartable_past_the_limit_is_refused_before_work(m):
    src = str(Path(octachar.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from octachar.cli import main; sys.exit(main(sys.argv[1:]))",
         "chartable", str(m)],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: chartable %d exceeds the limit of %d\n" % (m, CHARTABLE_MAX_M)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--max", str(SWEEP_MAX + 1)], "sweep --max %d" % (SWEEP_MAX + 1)),
        (["sweep", "--max", str(10**8), "--jobs", "2"], "sweep --max %d" % 10**8),
        (["table", "--n", str(TABLE_MAX_N + 1)], "table --n %d" % (TABLE_MAX_N + 1)),
        (["table", "--n", str(10**8), "--json"], "table --n %d" % 10**8),
        (["dims", "--n", str(DIMS_MAX_N + 1), "--target", "even"], "dims --n %d" % (DIMS_MAX_N + 1)),
        (["dims", "--n", str(10**8), "--target", "odd"], "dims --n %d" % 10**8),
        *(
            (["verify", what, "--max-size", str(size)], "verify %s --max-size %d" % (what, size))
            for what, limit in VERIFY_MAX_SIZE.items()
            for size in (limit + 1, 10**8)
        ),
    ],
    ids=" ".join,
)
def test_sweep_and_table_past_the_limit_are_refused_before_work(argv, message):
    limits = {"sweep": SWEEP_MAX, "table": TABLE_MAX_N, "dims": DIMS_MAX_N, **VERIFY_MAX_SIZE}
    limit = limits[argv[1] if argv[0] == "verify" else argv[0]]
    src = str(Path(octachar.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from octachar.cli import main; code = main(sys.argv[1:]); "
         "print('octachar.verify' in sys.modules or 'octachar.symfunc' in sys.modules); sys.exit(code)", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "False\n")
    assert proc.stderr == "error: %s exceeds the limit of %d\n" % (message, limit)


@pytest.mark.parametrize(
    "argv, target",
    [
        (["sweep", "--max", str(SWEEP_MAX)], "main_theorem_sweep"),
        (["table", "--n", str(TABLE_MAX_N)], "build_table"),
        (["dims", "--target", "even", "--n", str(DIMS_MAX_N)], "dimension_match"),
        (["verify", "frobenius", "--max-size", str(VERIFY_MAX_SIZE["frobenius"])], "frobenius_sweep"),
        (["verify", "even-fact", "--max-size", str(VERIFY_MAX_SIZE["even-fact"])], "factorization_even_sweep"),
        (["verify", "odd-fact", "--max-size", str(VERIFY_MAX_SIZE["odd-fact"])], "factorization_odd_sweep"),
    ],
    ids=" ".join,
)
def test_sweep_and_table_at_the_limit_run(monkeypatch, capsys, argv, target):
    calls = []

    def stop(n, *args, **kwargs):
        calls.append(n)
        raise ValueError("stopped")

    monkeypatch.setattr("octachar.%s.%s" % ("symfunc" if argv[0] == "verify" else "verify", target), stop)
    assert run(capsys, *argv) == (2, "", "error: stopped\n")
    assert calls == [int(argv[-1])]


def test_target_choices_are_the_target_cores():
    # cli spells the choices out, so that it imports no partitions at load
    assert cli._TARGET == tuple(partitions._TARGET_CORES)


def test_class_past_the_recursion_limit_prints_its_value():
    # the character layers are iterative: 1200 cycles take no stack frame each
    src = str(Path(octachar.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from octachar.cli import main; sys.exit(main(sys.argv[1:]))",
         "char", "[1^1200]", "[1^1200]"],
        capture_output=True, text=True, timeout=20, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


_partition = st.integers(0, 8).flatmap(lambda n: st.sampled_from(list(partitions_of(n))))
_literal = st.one_of(_partition.map(format_partition), st.text(alphabet="[]()|,^0123-", max_size=8))
_target = st.sampled_from(["even", "odd"])
_point = st.sampled_from(["1,2", "1/2,3,-1", "0,0", "x"])
_argv = st.one_of(
    st.tuples(st.just("char"), _literal, _literal),
    st.tuples(st.just("basechange"), _literal.map("({}|[1])".format), st.just("--target"), _target),
    st.tuples(st.just("norm"), _literal),
    st.tuples(st.just("schur"), _literal, st.just("--at"), _point),
    st.tuples(st.just("census"), st.just("--m"), st.integers(-3, 6).map(str)),
    # sweeps beyond --max 3 take seconds each
    st.tuples(st.just("sweep"), st.just("--max"), st.integers(-3, 3).map(str)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv)
def test_fuzzed_arguments_never_end_in_a_traceback(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # the parser rejects the arguments
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_unknown_command_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def readme_examples():
    """(argv, expected stdout) of each `octachar ... # -> value` line of the
    README's command-line block; a value ending in "..." is a prefix."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        command, arrow, value = line.partition("# -> ")
        if arrow:
            examples.append((shlex.split(command)[1:], value.strip()))
    return examples


@pytest.mark.parametrize("argv, value", readme_examples(), ids=lambda case: " ".join(case) if isinstance(case, list) else None)
def test_readme_examples(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if value.endswith("..."):
        assert out.startswith(value[:-3])
    else:
        assert out == value + "\n"


def test_readme_examples_are_found():
    assert len(readme_examples()) == 7


COMMAND_LINES = [
    # argv, exit code, start of stdout, what stderr says after "octachar: error: "
    (["verify", "frobenius", "--max-size=2", "--seed=7"], 0, "verify frobenius: max-size=2 seed=7\n", None),
    (["verify", "frobenius", "--max-s", "2"], 0, "verify frobenius: max-size=2 seed=0\n", None),
    (["sweep", "--jobs", "1", "--m=1"], 0, "sweep: max=1 jobs=1\n", None),
    (["norm", "[4]"], 0, "([2]|[])\n", None),  # --target defaults to None
    (["char", "--", "[1]", "[1]"], 0, "1\n", None),
    (["-h"], 0, "usage: octachar [-h] {char,", None),
    (["--he"], 0, "usage: octachar [-h] {char,", None),
    (["sweep", "-h"], 0, "usage: octachar sweep [-h] --max MAX [--jobs JOBS]\n", None),
    (["table", "--n", "1", "--help"], 0, "usage: octachar table [-h] --n N [--json]\n", None),
    (["sweep", "--=1"], 2, "", "ambiguous option: -- could match --max, --jobs, --help"),
    ([], 2, "", "the following arguments are required: command"),
    (["frobnicate"], 2, "", "argument command: invalid choice: 'frobnicate' (choose from 'char', "),
    (["sweep", "--max", "1", "--bogus"], 2, "", "unrecognized arguments: --bogus"),
    (["char", "[1]"], 2, "", "the following arguments are required: rho"),
    (["dims", "--n", "2"], 2, "", "the following arguments are required: --target"),
    (["schur", "[1]", "--at"], 2, "", "argument --at: expected one argument"),
    (["census", "--m", "x"], 2, "", "argument --m: invalid literal for int()"),
    (["sweep", "--m", "x"], 2, "", "argument --max: invalid literal for int()"),
    (["chartable", "x"], 2, "", "argument m: invalid literal for int()"),
    (["dims", "--n", "2", "--target", "foo"], 2, "", "argument --target: invalid choice: 'foo'"),
    (["verify", "frob"], 2, "", "argument what: invalid choice: 'frob'"),
    (["sweep", "--max", "1", "--jobs", "0"], 2, "", "argument --jobs: jobs must be at least 1"),
    (["table", "--n", "1", "--tsv"], 2, "", "unrecognized arguments: --tsv"),
    (["table", "--n", "1", "--json=1"], 2, "", "argument --json: ignored explicit argument '1'"),
    (["char", "[1]", "[1]", "[1]"], 2, "", "unrecognized arguments: [1]"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", COMMAND_LINES, ids=[" ".join(case[0]) or "no arguments" for case in COMMAND_LINES]
)
def test_command_line(capsys, argv, code, out, err):
    got_code, got_out, got_err = run(capsys, *argv)
    assert got_code == code
    assert got_out.startswith(out) and (code == 0 or got_out == "")
    if err is None:
        assert got_err == ""
    else:
        assert got_err.startswith("usage: octachar")
        assert "\noctachar: error: " + err in got_err


def test_help_lists_commands_and_arguments(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for line in ["char        character value of an irreducible at a class", "dims        match B_n dimensions"]:
        assert "\n  " + line in out
    assert out.count("\n  ") == 11  # ten commands and -h
    code, out, _ = run(capsys, "census", "-h")
    assert code == 0
    assert "\n  --jobs JOBS  accepted; the census runs in one process\n" in out
    assert "\n  --m M\n" in out
    code, out, _ = run(capsys, "basechange", "-h")
    assert "\n  pair                 bipartition literal, e.g. ([2,1]|[1])\n" in out
    assert "\n  --target {even,odd}\n" in out
