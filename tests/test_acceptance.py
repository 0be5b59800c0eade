"""Acceptance suite: every criterion at full stated scale, exact tolerances.

Each test prints one PASS line when it completes (visible with pytest -s or
-rA); a failure is a plain pytest failure.  Golden numbers are transcribed
values for the S_8/S_9 correspondence and for the S_20 / S_21 sign censuses.
"""

import time

from fractions import Fraction

from octachar.cli import main as cli_main
from octachar.partitions import (
    Partition,
    from_core_and_quotient,
    p_core,
    p_quotient,
    parse_partition,
    partitions_of,
    sign_shuffle,
)
from octachar.characters import (
    centralizer_order,
    character_table,
    even_cycle_classes,
    mn_character,
    product_character,
)
from octachar.hyperoctahedral import (
    bipartitions_of,
    bn_class,
    norm,
)
from octachar.symfunc import (
    factorization_even_sweep,
    factorization_odd_sweep,
    frobenius_sweep,
)
from octachar.verify import (
    build_table,
    dimension_match,
    main_theorem_sweep,
    sign_census,
)

from oracles import embed_class, sign_odd_parts, sn_character_table_young


def P(text):
    return parse_partition(text)


# (lambda_even, theta_even, theta_odd, lambda_odd) for the S_8 <-> S_9 table
GOLDEN_TABLE_N4 = [
    ("[1^8]", 1, 1, "[1^9]"),
    ("[2,1^6]", -1, 1, "[3,2,1^4]"),
    ("[2^2,1^4]", 4, -4, "[3,1^6]"),
    ("[2^3,1^2]", -4, 4, "[3,2^3]"),
    ("[2^4]", 6, -6, "[3,2^2,1^2]"),
    ("[3,1^5]", -3, 3, "[2^2,1^5]"),
    ("[3,2^2,1]", -2, 2, "[2^4,1]"),
    ("[3^2,1^2]", 8, 8, "[3^2,1^3]"),
    # [3^3] restricts to exactly [3^2,2], so both characters at the involution
    # class equal -6; the sign pattern here follows that forced value
    ("[3^2,2]", -6, -6, "[3^3]"),
    ("[4,1^4]", 3, -3, "[5,2,1^2]"),
    ("[4,2,1^2]", -6, 6, "[5,1^4]"),
    ("[4,2^2]", 8, 8, "[5,2^2]"),
    ("[4,3,1]", -2, 2, "[5,4]"),
    ("[4^2]", 6, -6, "[5,3,1]"),
    ("[5,1^3]", 3, -3, "[4,2,1^3]"),
    ("[5,3]", -4, 4, "[4^2,1]"),
    ("[6,1^2]", -3, 3, "[7,2]"),
    ("[6,2]", 4, -4, "[7,1^2]"),
    ("[7,1]", -1, 1, "[6,2,1]"),
    ("[8]", 1, 1, "[9]"),
]

GOLDEN_EXCLUDED_S8 = {"[5,2,1]", "[3,2,1^3]"}
GOLDEN_EXCLUDED_S9 = {
    "[8,1]", "[6,3]", "[6,1^3]", "[4,3,2]", "[4,3,1^2]",
    "[4,2^2,1]", "[3^2,2,1]", "[2,1^7]", "[2^3,1^3]", "[4,1^5]",
}


def test_criterion_1_table_reproduction(capsys):
    start = time.monotonic()
    result = build_table(4)
    assert len(result.rows) == 20
    by_even = {r.lambda_even: r for r in result.rows}
    for even_txt, theta_even, theta_odd, odd_txt in GOLDEN_TABLE_N4:
        row = by_even[P(even_txt)]
        assert row.theta_even == theta_even, even_txt
        assert row.theta_odd == theta_odd, even_txt
        assert row.lambda_odd == P(odd_txt), even_txt
        assert abs(theta_even) == row.bn_dim
    assert {str(p) for p in result.excluded_even} == GOLDEN_EXCLUDED_S8
    assert {str(p) for p in result.excluded_odd} == GOLDEN_EXCLUDED_S9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "table build took %.2fs" % elapsed

    # same content through the CLI
    assert cli_main(["table", "--n", "4"]) == 0
    out = capsys.readouterr().out
    for even_txt, theta_even, theta_odd, odd_txt in GOLDEN_TABLE_N4:
        assert "%s\t%d\t%d\t%s" % (even_txt, theta_even, theta_odd, odd_txt) in out
    print("ACCEPTANCE 1 (correspondence table n=4): PASS (%.2fs)" % elapsed)


def test_criterion_2_census_s20_and_b10_dimensions(capsys):
    start = time.monotonic()
    census = sign_census(20)
    assert census.total == 627
    assert census.num_positive == 227
    assert census.num_negative == 254
    assert census.num_zero == 146
    assert sum(1 for _ in bipartitions_of(10)) == 481
    assert dimension_match(10, "even")

    assert cli_main(["census", "--m", "20"]) == 0
    assert capsys.readouterr().out.strip() == "627 total, 227 positive, 254 negative, 146 zero"
    assert cli_main(["dims", "--n", "10", "--target", "even"]) == 0
    assert capsys.readouterr().out.strip() == "ok: 481 dimensions match as multisets"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("ACCEPTANCE 2 (S_20 census, B_10 dims): PASS (%.2fs)" % elapsed)


def test_criterion_3_census_s21(capsys):
    census = sign_census(21)
    assert census.total == 792
    assert census.num_positive == 252
    assert census.num_negative == 229
    assert census.num_zero == 311

    assert cli_main(["census", "--m", "21"]) == 0
    assert capsys.readouterr().out.strip() == "792 total, 252 positive, 229 negative, 311 zero"
    assert cli_main(["dims", "--n", "10", "--target", "odd"]) == 0
    assert capsys.readouterr().out.strip() == "ok: 481 dimensions match as multisets"
    print("ACCEPTANCE 3 (S_21 census, odd dims): PASS")


def test_criterion_4_main_theorem_sweep():
    report = main_theorem_sweep(6)
    assert report.failures == []
    expected = sum(
        sum(1 for _ in bipartitions_of(n)) * 2 * sum(1 for _ in partitions_of(n))
        for n in range(1, 7)
    )
    assert report.checked == expected
    assert report.oracle_checked == sum(
        sum(1 for _ in bipartitions_of(n)) * sum(1 for _ in partitions_of(n))
        for n in range(1, 5)
    )
    print(
        "ACCEPTANCE 4 (main identity n<=6, oracle n<=4): PASS (%d checks, %d against oracle)"
        % (report.checked, report.oracle_checked)
    )


def test_criterion_5_littlewood_vanishing_and_factorization():
    checked_zero = checked_fact = 0
    for m in range(2, 14):  # even sizes up to 12, odd sizes up to 13
        core_wanted = Partition() if m % 2 == 0 else Partition([1])
        for lam in partitions_of(m):
            eligible = p_core(lam, 2) == core_wanted
            quotient = p_quotient(lam, 2) if eligible else None
            for w in even_cycle_classes(m):
                value = mn_character(lam, w)
                if not eligible:
                    assert value == 0, (lam, w)
                    checked_zero += 1
                else:
                    halved = norm(w).positive
                    expected = sign_shuffle(lam) * product_character(
                        quotient[0], quotient[1], halved
                    )
                    assert value == expected, (lam, w)
                    checked_fact += 1
    print(
        "ACCEPTANCE 5 (vanishing + factorization, |lam|<=12/13): PASS (%d zero, %d factored)"
        % (checked_zero, checked_fact)
    )


def test_criterion_6_sign_agreement():
    checked = 0
    for n in range(0, 21):
        for lam in partitions_of(n):
            core = p_core(lam, 2)
            if core == Partition() or core == Partition([1]):
                assert sign_shuffle(lam) == sign_odd_parts(lam), lam
                checked += 1
    assert checked > 0
    print("ACCEPTANCE 6 (shuffle sign = odd-part sign, |lam|<=20): PASS (%d checked)" % checked)


def test_criterion_7_schur_identities():
    start = time.monotonic()
    frob = frobenius_sweep(6, seed=0)
    even = factorization_even_sweep(5, seed=0)
    odd, branch_a, branch_b = factorization_odd_sweep(4, seed=0)
    assert frob > 0 and even > 0 and odd > 0
    assert branch_a > 0 and branch_b > 0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        "ACCEPTANCE 7 (Schur identities): PASS (%d + %d + %d checks, %.2fs)"
        % (frob, even, odd, elapsed)
    )


def test_criterion_8_structural_suites():
    # core/quotient roundtrip up to size 30 for p in {2, 3, 5}
    roundtrips = 0
    for n in range(0, 31):
        for lam in partitions_of(n):
            for p in (2, 3, 5):
                core = p_core(lam, p)
                quotient = p_quotient(lam, p)
                assert lam.size == core.size + p * sum(q.size for q in quotient)
                assert from_core_and_quotient(core, quotient, p) == lam
                roundtrips += 1

    # bipartition / core-partition count identity up to n = 12
    for n in range(0, 13):
        bipartition_count = sum(1 for _ in bipartitions_of(n))
        assert bipartition_count == sum(
            1 for lam in partitions_of(2 * n) if p_core(lam, 2) == Partition()
        )
        assert bipartition_count == sum(
            1 for lam in partitions_of(2 * n + 1) if p_core(lam, 2) == Partition([1])
        )

    # character orthogonality for m <= 8
    for m in range(2, 9):
        lams, classes, rows = character_table(m)
        weights = [Fraction(1, centralizer_order(rho)) for rho in classes]
        for i in range(len(lams)):
            for j in range(i, len(lams)):
                inner = sum(w * rows[i][k] * rows[j][k] for k, w in enumerate(weights))
                assert inner == (1 if i == j else 0)

    # involution-class fiber count floor(n/2) + 1 for n <= 10
    for n in range(1, 11):
        w0 = Partition([2] * n)
        fiber = sum(
            1
            for pair in bipartitions_of(n)
            if embed_class(bn_class(pair.p0, pair.p1)) == w0
        )
        assert fiber == n // 2 + 1

    # recursion-free character tables for S_4 and S_5
    for n in (4, 5):
        oracle = sn_character_table_young(n)
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert mn_character(lam, rho) == oracle[lam][rho]

    print("ACCEPTANCE 8 (structural suites): PASS (%d roundtrips)" % roundtrips)
