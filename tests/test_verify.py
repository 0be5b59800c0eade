from math import comb

import pytest

from octachar import characters, hyperoctahedral, partitions, verify
from octachar.cli import main
from octachar.partitions import Partition, beta_mask, parse_partition, partition_counts, partitions_of, sign_shuffle
from octachar.characters import even_cycle_classes, mn_character
from octachar.hyperoctahedral import basechange, bipartition, bipartitions_of, bn_character, bn_class, norm
from octachar.census import sign_census
from octachar.verify import (
    build_table,
    dimension_match,
    main_theorem_sweep,
    w0_class,
)
from oracles import sign_census_by_columns


def P(text):
    return parse_partition(text)


class TestW0:
    def test_values(self):
        assert w0_class(8) == Partition([2, 2, 2, 2])
        assert w0_class(9) == Partition([2, 2, 2, 2, 1])

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            w0_class(1)


class TestBuildTable:
    def test_n1(self):
        result = build_table(1)
        assert len(result.rows) == 2
        assert {(r.lambda_even, r.lambda_odd) for r in result.rows} == {
            (P("[1^2]"), P("[1^3]")),
            (P("[2]"), P("[3]")),
        }
        assert result.excluded_even == ()
        assert result.excluded_odd == (P("[2,1]"),)

    def test_n4_highlights(self):
        result = build_table(4)
        assert len(result.rows) == 20
        by_even = {r.lambda_even: r for r in result.rows}
        row = by_even[P("[2^2,1^4]")]
        assert row.theta_even == 4
        assert row.theta_odd == -4
        assert row.lambda_odd == P("[3,1^6]")
        assert row.bn_dim == 4
        assert row.sign == 1

    def test_rows_sorted_and_consistent(self):
        result = build_table(3)
        evens = [r.lambda_even for r in result.rows]
        assert evens == sorted(evens)
        for row in result.rows:
            assert abs(row.theta_even) == row.bn_dim
            assert abs(row.theta_odd) == row.bn_dim
            assert row.theta_even == row.sign * row.bn_dim

    @pytest.mark.parametrize("target", ["even", "odd"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exclusions_partition_everything(self, n, target):
        # the excluded partitions are those off the involution column's support,
        # so this says the basechange image is exactly that support
        result = build_table(n)
        image = {getattr(row, "lambda_" + target) for row in result.rows}
        excluded = set(getattr(result, "excluded_" + target))
        assert image | excluded == set(partitions_of(2 * n + (target == "odd")))
        assert not image & excluded


class TestCensus:
    def test_m2(self):
        census = sign_census(2)
        assert (census.num_positive, census.num_negative, census.num_zero) == (1, 1, 0)
        assert census.total == 2

    def test_total_is_partition_count(self):
        for m in (5, 8, 11):
            census = sign_census(m)
            assert census.total == sum(1 for _ in partitions_of(m))

    def test_matches_direct_recount(self):
        census = sign_census(9)
        w = w0_class(9)
        values = [mn_character(lam, w) for lam in partitions_of(9)]
        assert census.num_positive == sum(1 for v in values if v > 0)
        assert census.num_negative == sum(1 for v in values if v < 0)

    @pytest.mark.parametrize("m", range(2, 41))
    def test_matches_column_census(self, m):
        assert sign_census(m) == sign_census_by_columns(m)

    @pytest.mark.parametrize(
        "m, counts",
        [
            (60, (293_462, 295_666, 377_339)),
            (200, (921_840_555_708, 921_805_265_058, 2_129_353_208_622)),
        ],
    )
    def test_pins_beyond_the_columns(self, m, counts):
        census = sign_census(m)
        assert (census.num_positive, census.num_negative, census.num_zero) == counts
        assert census.total == partition_counts(m)[m]

    @pytest.mark.parametrize("m", [*range(2, 61), 200])
    def test_nonzero_count_is_bipartition_count(self, m):
        # the nonzero values are the basechanged bipartitions of n, so the
        # scan's pruning drops no quotient pair
        n = m // 2
        p = partition_counts(n)
        census = sign_census(m)
        assert census.num_positive + census.num_negative == sum(p[k] * p[n - k] for k in range(n + 1))

    @pytest.mark.parametrize("m", [m for m in range(2, 61) if m % 4 in (2, 3)])
    def test_conjugation_balances_odd_n(self, m):
        # chi^lam'(w0) = sgn(w0) chi^lam(w0) with sgn(w0) = (-1)^n, and
        # conjugation permutes the partitions of m
        census = sign_census(m)
        assert census.num_positive == census.num_negative

    def test_walks_no_hook_layer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the census walked a character column")

        monkeypatch.setattr(verify, "mn_column", refuse)
        monkeypatch.setattr(partitions, "hook_layer", refuse)
        monkeypatch.setattr(characters, "hook_layer", refuse)
        census = sign_census(30)
        assert (census.total, census.num_positive, census.num_negative, census.num_zero) == (5604, 1978, 1978, 1648)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match="m must be at least 2"):
            sign_census(1)


class TestDimensionMatch:
    def test_small(self):
        for n in range(1, 6):
            assert dimension_match(n, "even")
            assert dimension_match(n, "odd")

    def test_bad_target(self):
        with pytest.raises(ValueError):
            dimension_match(3, "diagonal")


class TestMainTheoremSweep:
    def test_n1_counts(self):
        report = main_theorem_sweep(1)
        # 2 bipartitions x (1 even class + 1 odd class)
        assert report.checked == 4
        assert report.ok

    def test_n3(self):
        report = main_theorem_sweep(3)
        assert report.ok
        assert report.checked == sum(
            sum(1 for _ in bipartitions_of(n)) * 2 * sum(1 for _ in partitions_of(n))
            for n in (1, 2, 3)
        )
        assert report.oracle_checked > 0

    def test_parallel_agrees(self):
        serial = main_theorem_sweep(2)
        parallel = main_theorem_sweep(2, jobs=2)
        assert (serial.checked, serial.oracle_checked, serial.failures) == (
            parallel.checked,
            parallel.oracle_checked,
            parallel.failures,
        )


class TestSweepFailures:
    """A wrong sign, a wrong column value, a colliding basechange and a wrong
    split weight in the oracle each show up as failure records that name the pair
    and the class (or the partition two pairs share), and make `octachar sweep`
    exit 1 with FAIL lines and no PASS."""

    PAIR = bipartition([], [1, 1, 1, 1])  # basechange [2,1^6]; chi_[1^4] vanishes nowhere

    def wrong_sign(self, monkeypatch):
        real, mask = verify._two_quotient, beta_mask(P("[2,1^6]"))

        def flipped(m, size):
            eps, q0, q1 = real(m, size)
            return (-eps if m == mask else eps), q0, q1

        monkeypatch.setattr(verify, "_two_quotient", flipped)

    def wrong_column_value(self, monkeypatch):
        real, w, mask = verify.mn_columns, P("[4,2,2]"), beta_mask(P("[2,1^6]"))

        def corrupted(classes):
            columns = real(classes)
            if w in columns:
                columns[w] = {**columns[w], mask: columns[w][mask] + 1}
            return columns

        monkeypatch.setattr(verify, "mn_columns", corrupted)

    def colliding_basechange(self, monkeypatch):
        # ([]|[1]) is sent to the basechange of ([1]|[]) at both targets
        real, mine, other = verify._quotient_mask, (0, beta_mask(P("[1]"))), (beta_mask(P("[1]")), 0)
        monkeypatch.setattr(verify, "_quotient_mask", lambda core, masks: real(core, other if masks == mine else masks))

    def wrong_split_weight(self, monkeypatch):
        # C(n, k) + 1 for 0 < k < n: sending one of the two 1-cycles of ([1^2]|[]) to B_1 weighs 3, not 2
        monkeypatch.setattr(hyperoctahedral, "comb", lambda n, k: comb(n, k) + (0 < k < n))

    def test_wrong_sign_names_pair_and_every_class(self, monkeypatch):
        self.wrong_sign(monkeypatch)
        report = main_theorem_sweep(4)
        assert not report.ok
        lam = P("[2,1^6]")
        assert report.failures == [
            "identity fails: pair=%s target=even w=%s: %d != %d * %d"
            % (self.PAIR, w, mn_character(lam, w), -sign_shuffle(lam), bn_character(self.PAIR, norm(w)))
            for w in even_cycle_classes(8)
        ]

    def test_wrong_column_value_names_pair_and_class(self, monkeypatch):
        self.wrong_column_value(monkeypatch)
        report = main_theorem_sweep(4)
        assert len(report.failures) == 1
        assert report.failures[0].startswith("identity fails: pair=%s target=even w=[4,2^2]: " % (self.PAIR,))

    def test_colliding_basechange_names_both_pairs(self, monkeypatch):
        self.colliding_basechange(monkeypatch)
        report = main_theorem_sweep(1)
        collisions = [f for f in report.failures if f.startswith("basechange not injective")]
        assert collisions == [
            "basechange not injective: ([]|[1]) and ([1]|[]) both map to %s (target=%s)"
            % (basechange(bipartition([1], []), target), target)
            for target in ("even", "odd")
        ]

    def test_wrong_split_weight_is_an_oracle_mismatch(self, monkeypatch):
        self.wrong_split_weight(monkeypatch)
        assert hyperoctahedral.bn_character_bruteforce(bipartition([1], [1]), bn_class([1, 1], [])) == 3
        report = main_theorem_sweep(4)
        assert "oracle mismatch: pair=([1]|[1]) class=([1^2]|[])" in report.failures
        assert all(failure.startswith("oracle mismatch: ") for failure in report.failures)

    @pytest.mark.parametrize("fault", ["wrong_sign", "wrong_column_value", "colliding_basechange", "wrong_split_weight"])
    def test_cli_exits_1_with_fail_lines(self, fault, monkeypatch, capsys):
        getattr(self, fault)(monkeypatch)
        assert main(["sweep", "--max", "4"]) == 1
        out, err = capsys.readouterr()
        assert any(line.startswith("FAIL: ") for line in out.splitlines())
        assert "PASS" not in out
        assert err == ""
