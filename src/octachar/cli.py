"""Single command-line entry point: `octachar <subcommand> ...`.

Exit codes: 0 on success / verification pass, 1 on a failed verification or
counterexample, 2 on bad arguments, malformed literals (including a literal
that expands to more than 10,000 parts, `partitions.MAX_LITERAL_PARTS`), an
empty range (a `sweep` or `verify` bound below 1, rejected before any report
line is printed), or a `schur --at` value with more digits or a larger exponent
than the interpreter's int/str digit limit (4300 by default), refused before it
is built, or a `schur` result whose numerator and denominator have more than
100,000 digits together (`RESULT_DIGITS`; a shorter one prints in full, past
the 4300-digit limit), or a `census --m` above 1,000 (`CENSUS_MAX_M`: the scan
takes time about m^3.5, 8.4 s and 21 MB at m = 1,000 and 18.7 s at 1,200 on a
2-vCPU x86-64 host) or a `chartable M` above 27 (`CHARTABLE_MAX_M`: time and
memory grow about 1.55x per step of M, 6.6 s and 252 MB at M = 26, 10.3 s and
389 MB at 27, 16.1 s and 595 MB at 28 on the same host) or a `sweep --max`
above 16 (`SWEEP_MAX`: time about doubles per step of n, 3.6-3.7 s and 64 MB
at 16, 7.3 s and 92 MB at 17 at --jobs 1) or a `table --n` above 22
(`TABLE_MAX_N`: time grows about 1.5x per step of n, 3.3-3.7 s and 67 MB at
22, 5.1-5.6 s and 93 MB at 23) or a `dims --n` above 28 (`DIMS_MAX_N`: time
grows about 1.4x per step of n, 3.3 s and 164 MB at 28, 4.7 s and 220 MB at
29) or a `verify --max-size` above its check's limit (`VERIFY_MAX_SIZE`:
frobenius 22, 4.1 s and 51 MB, against 7.0 s and 67 MB at 23; even-fact 16,
2.9-3.1 s, against 5.0 s at 17; odd-fact 14, 3.1 s, against 6.6 s at 15; those
two in 19 MB), refused before any work.
Randomized verification commands print their seed in the report header.
`sweep --jobs` (default 1) caps the worker processes, one value of n each, so
at most min(jobs, max) start; at --jobs 1 every n goes in one streamed pass.
`census` accepts `--jobs` and runs in one process.
A command imports only the layers it runs: this module imports none at load,
and each handler imports the layers it runs itself, `partitions` included
where it uses it; tests/test_startup.py pins which.
Loading this module registers `gc.freeze` with `atexit`, so a CLI process
skips the cyclic collector's walk over every object still alive at shutdown;
`import octachar` and the layers register nothing.

The command line is read from `_COMMANDS`, one table that dispatch reads too:
the command name, then its positionals in order and its options in any order,
as `--opt value` or `--opt=value`, where a unique prefix of an option (`--max-s`)
names it.  An option's value is the next token as it is, so `--max -3` reads -3;
after `--` every token is a positional.  `-h` or `--help` prints the usage to
stdout and raises SystemExit(0); a usage error (unknown command or option, a
missing or extra argument, a bad int or choice, `--jobs 0`) prints the usage
and `octachar: error: ...` to stderr and raises SystemExit(2).
"""

import atexit
import gc
import sys
from types import SimpleNamespace

atexit.register(gc.freeze)  # one command per process: spare the shutdown collections a walk over every live object


def _refuse_above(limit: int, value: int, what: str) -> None:
    """Refuse a size above its stated limit, before the command loads or runs anything."""
    if value > limit:
        raise ValueError("%s %d exceeds the limit of %d" % (what, value, limit))


def _jobs_value(value) -> int:
    jobs = int(value)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


def _cmd_char(args) -> int:
    from .characters import mn_character
    from .partitions import parse_partition

    lam = parse_partition(args.lam)
    rho = parse_partition(args.rho)
    print(mn_character(lam, rho))
    return 0


CHARTABLE_MAX_M = 27  # the largest chartable M; see the module docstring for its cost


def _cmd_chartable(args) -> int:
    _refuse_above(CHARTABLE_MAX_M, args.m, "chartable")
    from .characters import character_table
    from .partitions import format_partition

    lams, classes, rows = character_table(args.m)
    print("\t".join(["partition"] + [format_partition(c) for c in classes]))
    for lam, row in zip(lams, rows):
        print("\t".join([format_partition(lam)] + [str(v) for v in row]))
    return 0


def _cmd_basechange(args) -> int:
    from .hyperoctahedral import basechange, parse_bipartition
    from .partitions import format_partition

    pair = parse_bipartition(args.pair)
    print(format_partition(basechange(pair, args.target)))
    return 0


def _cmd_norm(args) -> int:
    from .hyperoctahedral import norm
    from .partitions import parse_partition

    print(norm(parse_partition(args.w), args.target))
    return 0


RESULT_DIGITS = 100_000  # printing takes time quadratic in the digits on CPython 3.11


def _excerpt(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:37] + "...")


def _point_value(tok: str) -> "Fraction":
    """One --at coordinate.  A value with more digits, or a larger exponent,
    than the interpreter's int/str digit limit is refused before it is built:
    its result could not be printed, and 1e200000000 would take minutes."""
    from fractions import Fraction

    from .partitions import PartitionParseError

    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = tok.lower().partition("e")
    exponent = "".join(c for c in exponent if c.isdecimal()).lstrip("0")
    if (
        sum(c.isdecimal() for c in mantissa) > limit
        or len(exponent) > len(str(limit))
        or int(exponent or 0) > limit
    ):
        raise PartitionParseError("point value %s exceeds %d digits" % (_excerpt(tok), limit))
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise PartitionParseError("bad point value %s" % _excerpt(tok)) from None


def _cmd_schur(args) -> int:
    from .partitions import parse_partition
    from .symfunc import schur_eval

    lam = parse_partition(args.lam)
    values = [_point_value(tok.strip()) for tok in args.at.split(",") if tok.strip()]
    value = schur_eval(lam, values)
    limit = sys.get_int_max_str_digits()  # it guards parsing; the result has its own cap, whatever the limit
    sys.set_int_max_str_digits(RESULT_DIGITS)
    try:
        text = str(value)
        if sum(c.isdigit() for c in text) > RESULT_DIGITS:  # numerator and denominator together
            raise ValueError
    except ValueError:
        raise ValueError("schur value exceeds %d digits" % RESULT_DIGITS) from None
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return 0


VERIFY_MAX_SIZE = {"frobenius": 22, "even-fact": 16, "odd-fact": 14}  # see the module docstring for their cost


def _cmd_verify(args) -> int:
    defaults = {"frobenius": 6, "even-fact": 5, "odd-fact": 4}
    bound = args.max_size if args.max_size is not None else defaults[args.what]
    _refuse_above(VERIFY_MAX_SIZE[args.what], bound, "verify %s --max-size" % args.what)
    from .symfunc import SweepFailure, factorization_even_sweep, factorization_odd_sweep, frobenius_sweep

    lines = ["verify %s: max-size=%d seed=%d" % (args.what, bound, args.seed)]
    try:
        if args.what == "frobenius":
            checked = frobenius_sweep(bound, args.seed)
        elif args.what == "even-fact":
            checked = factorization_even_sweep(bound, args.seed)
        else:
            checked, branch_a, branch_b = factorization_odd_sweep(bound, args.seed)
            lines.append("branches: core-(1) cases=%d, empty-core cases=%d" % (branch_a, branch_b))
        lines.append("PASS: %d identities hold exactly" % checked)
        code = 0
    except SweepFailure as failure:
        lines.append("FAIL: %s" % failure)
        code = 1
    print("\n".join(lines))  # after the run, so a rejected bound prints nothing
    return code


_TABLE_COLUMNS = ("lambda_even", "theta_even", "theta_odd", "lambda_odd", "sign", "bn_dim")  # the TSV order


TABLE_MAX_N = 22  # the largest table --n; see the module docstring for its cost


def _cmd_table(args) -> int:
    _refuse_above(TABLE_MAX_N, args.n, "table --n")
    from .partitions import Partition, format_partition
    from .verify import build_table

    result = build_table(args.n)
    if args.json:
        import json

        for row in result.rows:  # _asdict() is in the JSON key order
            print(json.dumps({key: str(v) if type(v) is Partition else v for key, v in row._asdict().items()}))
        excluded = {"excluded_even": result.excluded_even, "excluded_odd": result.excluded_odd}
        print(json.dumps({key: [format_partition(p) for p in parts] for key, parts in excluded.items()}))
        return 0
    print("\t".join(_TABLE_COLUMNS))
    for row in result.rows:
        print("\t".join(str(getattr(row, column)) for column in _TABLE_COLUMNS))
    print("# excluded S_%d: %s" % (2 * args.n, ",".join(format_partition(p) for p in result.excluded_even)))
    print("# excluded S_%d: %s" % (2 * args.n + 1, ",".join(format_partition(p) for p in result.excluded_odd)))
    return 0


CENSUS_MAX_M = 1_000  # the largest census --m; see the module docstring for its cost


def _cmd_census(args) -> int:
    _refuse_above(CENSUS_MAX_M, args.m, "census --m")
    from .census import sign_census

    census = sign_census(args.m)
    print(
        "%d total, %d positive, %d negative, %d zero"
        % (census.total, census.num_positive, census.num_negative, census.num_zero)
    )
    return 0


SWEEP_MAX = 16  # the largest sweep --max; see the module docstring for its cost


def _cmd_sweep(args) -> int:
    _refuse_above(SWEEP_MAX, args.max, "sweep --max")
    from .verify import main_theorem_sweep

    report = main_theorem_sweep(args.max, jobs=args.jobs)
    print("sweep: max=%d jobs=%d" % (args.max, args.jobs))  # after the run, so a rejected bound prints nothing
    for failure in report.failures:
        print("FAIL: %s" % failure)
    print(
        "checked %d identities (%d against the group-sum oracle): %s"
        % (report.checked, report.oracle_checked, "PASS" if report.ok else "FAIL")
    )
    return 0 if report.ok else 1


DIMS_MAX_N = 28  # the largest dims --n; see the module docstring for its cost


def _cmd_dims(args) -> int:
    _refuse_above(DIMS_MAX_N, args.n, "dims --n")
    from .census import partition_counts
    from .verify import dimension_match

    ok = dimension_match(args.n, args.target)
    counts = partition_counts(args.n)
    total = sum(counts[k] * counts[args.n - k] for k in range(args.n + 1))
    if ok:
        print("ok: %d dimensions match as multisets" % total)
        return 0
    print("MISMATCH: B_%d dimensions differ from the |character| multiset" % args.n)
    return 1


_REQUIRED = object()  # the default of an argument that must be given
_TARGET = ("even", "odd")  # the keys of partitions._TARGET_CORES
_HELP = ("--help", bool, False, "show this help and exit")  # every command's -h / --help

# name: (handler, help, arguments as (name, type, default, help)), positionals first.
# A name that starts with -- is an option; a positional's default is _REQUIRED.
# A type is a callable, a tuple of choices, or bool for a flag.
_COMMANDS = {
    "char": (_cmd_char, "character value of an irreducible at a class",
             (("lam", str, _REQUIRED, "partition literal, e.g. [3,2,1^4]"),
              ("rho", str, _REQUIRED, "cycle type literal, e.g. [2^4]"))),
    "chartable": (_cmd_chartable, "full character table of S_m as TSV", (("m", int, _REQUIRED, ""),)),
    "basechange": (_cmd_basechange, "partition attached to a bipartition",
                   (("pair", str, _REQUIRED, "bipartition literal, e.g. ([2,1]|[1])"),
                    ("--target", _TARGET, _REQUIRED, ""))),
    "norm": (_cmd_norm, "halve an even-cycle class down to B_n",
             (("w", str, _REQUIRED, "cycle type literal, e.g. [4,2,2]"), ("--target", _TARGET, None, ""))),
    "schur": (_cmd_schur, "exact Schur polynomial value at a point",
              (("lam", str, _REQUIRED, ""), ("--at", str, _REQUIRED, "comma-separated rationals, e.g. 1,1/2,3"))),
    "verify": (_cmd_verify, "identity sweeps with seeded random points",
               (("what", ("frobenius", "even-fact", "odd-fact"), _REQUIRED, ""),
                ("--max-size", int, None, ""), ("--seed", int, 0, ""))),
    "table": (_cmd_table, "the 2n <-> 2n+1 correspondence table",
              (("--n", int, _REQUIRED, ""), ("--json", bool, False, ""))),
    "census": (_cmd_census, "signs of characters at the involution class",
               (("--m", int, _REQUIRED, ""), ("--jobs", _jobs_value, 1, "accepted; the census runs in one process"))),
    "sweep": (_cmd_sweep, "exhaustive main character identity check",
              (("--max", int, _REQUIRED, ""), ("--jobs", _jobs_value, 1, "worker processes, one value of n each"))),
    "dims": (_cmd_dims, "match B_n dimensions against |character| values",
             (("--n", int, _REQUIRED, ""), ("--target", _TARGET, _REQUIRED, ""))),
}
_COMMANDS[None] = (None, "Exact symmetric-group / hyperoctahedral character computations.",
                   (("command", tuple(_COMMANDS), _REQUIRED, ""),))  # the command line itself


def _label(argument: str, kind) -> str:
    """An argument as usage and help show it: lam, {even,odd}, --max MAX or --json."""
    choices = "{%s}" % ",".join(kind) if type(kind) is tuple else None
    if not argument.startswith("--"):
        return choices or argument
    return argument if kind is bool else "%s %s" % (argument, choices or argument[2:].replace("-", "_").upper())


def _usage(name) -> str:
    words = ["usage: octachar", name, "[-h]"]
    for argument, kind, default, _ in _COMMANDS[name][2]:
        words.append(_label(argument, kind) if default is _REQUIRED else "[%s]" % _label(argument, kind))
    return " ".join(filter(None, words))


def _help(name) -> str:
    if name:
        rows = [(_label(argument, kind), text) for argument, kind, _, text in _COMMANDS[name][2]]
    else:
        rows = [(command, spec[1]) for command, spec in _COMMANDS.items() if command]
    rows.append(("-h, --help", _HELP[3]))
    width = max(len(label) for label, _ in rows)
    rows = [("  %-*s  %s" % (width, *row)).rstrip() for row in rows]
    return "\n".join([_usage(name), "", _COMMANDS[name][1], ""] + rows)


def _fail(name, message: str):
    print("%s\noctachar: error: %s" % (_usage(name), message), file=sys.stderr)
    raise SystemExit(2)


def _read(tokens: list, name) -> dict:
    """{dest: value} for the arguments of command `name`, or {"command": name}
    for the first token of the command line when `name` is None.  -h prints
    help and raises SystemExit(0); a usage error raises SystemExit(2)."""
    arguments = _COMMANDS[name][2]
    options = {a[0]: a for a in arguments + (_HELP,) if a[0].startswith("--")}
    waiting = [a for a in arguments if a[0] not in options]
    values, extra, tokens, ended = {}, [], iter(tokens), False
    for token in tokens:
        if token == "--" and not ended:
            ended = True  # the rest are positionals
            continue
        if ended or not (token == "-h" or token.startswith("--")):
            if not waiting:
                extra.append(token)
                continue
            (argument, kind, _, _), value = waiting.pop(0), token
        else:
            flag, explicit, value = token.partition("=")
            flag = "--help" if flag == "-h" else flag
            found = [flag] if flag in options else [option for option in options if option.startswith(flag)]
            if len(found) > 1:
                _fail(name, "ambiguous option: %s could match %s" % (flag, ", ".join(found)))
            if not found:
                extra.append(token)
                continue
            argument, kind, _, _ = options[found[0]]
            if kind is bool and explicit:
                _fail(name, "argument %s: ignored explicit argument %r" % (argument, value))
            if argument == "--help":
                print(_help(name))
                raise SystemExit(0)
            if kind is not bool and not explicit:
                value = next(tokens, None)  # taken as it is, so "--max -3" reads -3
                if value is None:
                    _fail(name, "argument %s: expected one argument" % argument)
        if type(kind) is tuple and value not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(name, "argument %s: invalid choice: %r (choose from %s)" % (argument, value, choices))
        try:
            values[argument] = True if kind is bool else value if type(kind) is tuple else kind(value)
        except ValueError as exc:
            _fail(name, "argument %s: %s" % (argument, exc))
    missing = [argument for argument, _, default, _ in arguments if default is _REQUIRED and argument not in values]
    if missing:
        _fail(name, "the following arguments are required: %s" % ", ".join(missing))
    if extra:
        _fail(name, "unrecognized arguments: %s" % " ".join(extra))
    return {a.lstrip("-").replace("-", "_"): values.get(a, default) for a, _, default, _ in arguments}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = _read(argv[:1], None)["command"]
    args = SimpleNamespace(**_read(argv[1:], name))
    try:
        return _COMMANDS[name][0](args)
    except ValueError as exc:  # PartitionParseError among them
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
