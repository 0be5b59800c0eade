"""Single command-line entry point: `octachar <subcommand> ...`.

Exit codes: 0 on success / verification pass, 1 on a failed verification or
counterexample, 2 on bad arguments, malformed literals (including a literal
that expands to more than 10,000 parts, `partitions.MAX_LITERAL_PARTS`), an
empty range (a `sweep` or `verify` bound below 1, rejected before any report
line is printed), or a `schur --at` value with more digits or a larger
exponent than the interpreter's int/str digit limit (4300 by default), refused
before it is built, or a `schur` result with more than 100,000 digits
(`RESULT_DIGITS`; a shorter one prints in full, past the 4300-digit limit).
Randomized verification commands print their seed in the report header.
`sweep --jobs` (default 1) caps the worker processes, one value of n each, so
at most min(jobs, max) start; `census` accepts `--jobs` and runs in one process.
A command imports only the layers it runs: this module loads partitions and
characters, which every layer imports, and each handler imports the rest
itself; tests/test_startup.py pins which.
"""

from __future__ import annotations

import argparse
import sys

from .partitions import PartitionParseError, format_partition, parse_partition, partition_counts
from .characters import mn_character, character_table


def _jobs_value(value) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octachar",
        description="Exact symmetric-group / hyperoctahedral character computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="character value of an irreducible at a class")
    p.add_argument("lam", help="partition literal, e.g. [3,2,1^4]")
    p.add_argument("rho", help="cycle type literal, e.g. [2^4]")

    p = sub.add_parser("chartable", help="full character table of S_m as TSV")
    p.add_argument("m", type=int)

    p = sub.add_parser("basechange", help="partition attached to a bipartition")
    p.add_argument("pair", help="bipartition literal, e.g. ([2,1]|[1])")
    p.add_argument("--target", choices=("even", "odd"), required=True)

    p = sub.add_parser("norm", help="halve an even-cycle class down to B_n")
    p.add_argument("w", help="cycle type literal, e.g. [4,2,2]")
    p.add_argument("--target", choices=("even", "odd"))

    p = sub.add_parser("schur", help="exact Schur polynomial value at a point")
    p.add_argument("lam")
    p.add_argument("--at", required=True, help="comma-separated rationals, e.g. 1,1/2,3")

    p = sub.add_parser("verify", help="identity sweeps with seeded random points")
    p.add_argument("what", choices=("frobenius", "even-fact", "odd-fact"))
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table", help="the 2n <-> 2n+1 correspondence table")
    p.add_argument("--n", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--tsv", action="store_true")

    p = sub.add_parser("census", help="signs of characters at the involution class")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_value, default=1, help="accepted; the census runs in one process")

    p = sub.add_parser("sweep", help="exhaustive main character identity check")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_value, default=1, help="worker processes, one value of n each")

    p = sub.add_parser("dims", help="match B_n dimensions against |character| values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=("even", "odd"), required=True)

    return parser


def _cmd_char(args) -> int:
    lam = parse_partition(args.lam)
    rho = parse_partition(args.rho)
    print(mn_character(lam, rho))
    return 0


def _cmd_chartable(args) -> int:
    lams, classes, rows = character_table(args.m)
    print("\t".join(["partition"] + [format_partition(c) for c in classes]))
    for lam, row in zip(lams, rows):
        print("\t".join([format_partition(lam)] + [str(v) for v in row]))
    return 0


def _cmd_basechange(args) -> int:
    from .hyperoctahedral import basechange, parse_bipartition

    pair = parse_bipartition(args.pair)
    print(format_partition(basechange(pair, args.target)))
    return 0


def _cmd_norm(args) -> int:
    from .hyperoctahedral import norm

    print(norm(parse_partition(args.w), args.target))
    return 0


RESULT_DIGITS = 100_000  # printing takes time quadratic in the digits on CPython 3.11


def _excerpt(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:37] + "...")


def _point_value(tok: str) -> Fraction:
    """One --at coordinate.  A value with more digits, or a larger exponent,
    than the interpreter's int/str digit limit is refused before it is built:
    its result could not be printed, and 1e200000000 would take minutes."""
    from fractions import Fraction

    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = tok.lower().partition("e")
    exponent = "".join(c for c in exponent if c.isdigit()).lstrip("0")
    if (
        sum(c.isdigit() for c in mantissa) > limit
        or len(exponent) > len(str(limit))
        or int(exponent or 0) > limit
    ):
        raise PartitionParseError("point value %s exceeds %d digits" % (_excerpt(tok), limit))
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise PartitionParseError("bad point value %s" % _excerpt(tok)) from None


def _cmd_schur(args) -> int:
    from .symfunc import schur_eval

    lam = parse_partition(args.lam)
    values = [_point_value(tok.strip()) for tok in args.at.split(",") if tok.strip()]
    value = schur_eval(lam, values)
    limit = sys.get_int_max_str_digits()  # it guards parsing, not this exact result
    sys.set_int_max_str_digits(limit and max(limit, RESULT_DIGITS))
    try:
        text = str(value)
    except ValueError:
        raise ValueError("schur value exceeds %d digits" % RESULT_DIGITS) from None
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _cmd_verify(args) -> int:
    from .symfunc import SweepFailure, factorization_even_sweep, factorization_odd_sweep, frobenius_sweep

    defaults = {"frobenius": 6, "even-fact": 5, "odd-fact": 4}
    bound = args.max_size if args.max_size is not None else defaults[args.what]
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


def _table_row_object(row) -> dict:
    return {
        "lambda_even": format_partition(row.lambda_even),
        "lambda_odd": format_partition(row.lambda_odd),
        "theta_even": row.theta_even,
        "theta_odd": row.theta_odd,
        "sign": row.sign,
        "bn_dim": row.bn_dim,
    }


def _cmd_table(args) -> int:
    from .verify import build_table

    result = build_table(args.n)
    if args.json:
        import json

        for row in result.rows:
            print(json.dumps(_table_row_object(row)))
        print(
            json.dumps(
                {
                    "excluded_even": [format_partition(p) for p in result.excluded_even],
                    "excluded_odd": [format_partition(p) for p in result.excluded_odd],
                }
            )
        )
        return 0
    print("\t".join(["lambda_even", "theta_even", "theta_odd", "lambda_odd", "sign", "bn_dim"]))
    for row in result.rows:
        print(
            "\t".join(
                [
                    format_partition(row.lambda_even),
                    str(row.theta_even),
                    str(row.theta_odd),
                    format_partition(row.lambda_odd),
                    str(row.sign),
                    str(row.bn_dim),
                ]
            )
        )
    print("# excluded S_%d: %s" % (2 * args.n, ",".join(format_partition(p) for p in result.excluded_even)))
    print("# excluded S_%d: %s" % (2 * args.n + 1, ",".join(format_partition(p) for p in result.excluded_odd)))
    return 0


def _cmd_census(args) -> int:
    from .verify import sign_census

    census = sign_census(args.m)
    print(
        "%d total, %d positive, %d negative, %d zero"
        % (census.total, census.num_positive, census.num_negative, census.num_zero)
    )
    return 0


def _cmd_sweep(args) -> int:
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


def _cmd_dims(args) -> int:
    from .verify import dimension_match

    ok = dimension_match(args.n, args.target)
    counts = partition_counts(args.n)
    total = sum(counts[k] * counts[args.n - k] for k in range(args.n + 1))
    if ok:
        print("ok: %d dimensions match as multisets" % total)
        return 0
    print("MISMATCH: B_%d dimensions differ from the |character| multiset" % args.n)
    return 1


_HANDLERS = {
    "char": _cmd_char,
    "chartable": _cmd_chartable,
    "basechange": _cmd_basechange,
    "norm": _cmd_norm,
    "schur": _cmd_schur,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "census": _cmd_census,
    "sweep": _cmd_sweep,
    "dims": _cmd_dims,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (PartitionParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
