import weakref
from math import comb

import pytest

from octachar import characters, partitions, verify
from octachar.cli import main
from octachar.partitions import Partition, beta_mask, parse_partition, partitions_of, sign_shuffle
from octachar.characters import even_cycle_classes, mn_character
from octachar.hyperoctahedral import basechange, bipartition, bipartitions_of, bn_character, bn_class, norm
from octachar.census import partition_counts, sign_census
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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reads_theta_off_the_columns(self, n, monkeypatch):
        # each row's thetas are entries of the two involution columns, not one walk per row
        expected = build_table(n)

        def refuse(*args, **kwargs):
            raise AssertionError("build_table read a character top-down")

        monkeypatch.setattr(verify, "mn_character", refuse)
        assert build_table(n) == expected

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

    def test_each_dimension_is_computed_once(self, monkeypatch):
        # the dimension match and the table read one table of dimensions
        real = verify.dimension
        for run in (lambda: dimension_match(12, "odd"), lambda: build_table(12)):
            calls = []
            monkeypatch.setattr(verify, "dimension", lambda lam: calls.append(lam) or real(lam))
            assert run()
            assert sorted(calls) == sorted(lam for k in range(13) for lam in partitions_of(k))  # 1 + 1 + ... + 77
            assert len(calls) == sum(partition_counts(12)) == 272


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

    def test_n10_counts(self):
        # every class of every n <= 10, the oracle on the n <= 4 pairs only
        report = main_theorem_sweep(10)
        assert (report.checked, report.oracle_checked, report.failures) == (72_062, 142, [])

    def test_parallel_agrees(self):
        serial = main_theorem_sweep(2)
        parallel = main_theorem_sweep(2, jobs=2)
        assert (serial.checked, serial.oracle_checked, serial.failures) == (
            parallel.checked,
            parallel.oracle_checked,
            parallel.failures,
        )

    def test_jobs_2_and_jobs_1_give_identical_reports(self):
        # --jobs 1 runs every n in one pass, --jobs 2 one n per worker
        serial, parallel = main_theorem_sweep(6), main_theorem_sweep(6, jobs=2)
        assert vars(serial) == vars(parallel)
        assert (serial.checked, serial.oracle_checked) == (2_218, 142)


class TestSweepStream:
    """The sweep runs its B_n walk and its two S_m walks in lockstep over every
    n at once, and keeps no column past its class."""

    def test_walks_share_layers_across_n(self, monkeypatch):
        calls = []

        def counting(real):
            def layer(frontier, t, add=False, rows=None):
                calls.append(t)
                return real(frontier, t, add, rows)

            return layer

        monkeypatch.setattr(verify, "_pair_layer", counting(verify._pair_layer))
        monkeypatch.setattr(verify, "hook_layer", counting(verify.hook_layer))
        assert main_theorem_sweep(7).ok
        ascending = [tuple(reversed(rho)) for n in range(1, 8) for rho in partitions_of(n)]
        prefixes = {rho[:j] for rho in ascending for j in range(1, len(rho) + 1)}
        assert len(prefixes) == 44  # every prefix is itself a class: one layer per class and walk
        assert len(calls) == 3 * 44 + 1 == 133  # and the odd walk's fixed point

        def per_n(n):  # the layers of one walk per n and family: B_n, 2rho and [2rho, 1]
            ascending = [tuple(reversed(rho)) for rho in partitions_of(n)]
            return 3 * len({rho[:j] for rho in ascending for j in range(1, len(rho) + 1)}) + 1

        assert sum(map(per_n, range(1, 8))) == 250

    def test_a_walk_out_of_order_fails_loudly(self, monkeypatch):
        real = verify._walk

        def swapped(start, sequences, layer):
            steps = list(real(start, sequences, layer))
            if layer is verify.hook_layer:
                steps[:2] = steps[1::-1]
            return iter(steps)

        monkeypatch.setattr(verify, "_walk", swapped)
        with pytest.raises(RuntimeError, match=r"^sweep walks out of step: \[2\^2\] \(target=even\) against \(\[1\]\|\[\]\)$"):
            main_theorem_sweep(3)

    def test_a_short_walk_fails_loudly(self, monkeypatch):
        real = verify._walk

        def short(start, sequences, layer):
            steps = list(real(start, sequences, layer))
            return iter(steps[:-1] if layer is verify.hook_layer else steps)

        monkeypatch.setattr(verify, "_walk", short)
        with pytest.raises(ValueError, match="zip"):
            main_theorem_sweep(3)

    def test_no_class_column_outlives_its_class(self, monkeypatch):
        class Column(dict):  # a dict subclass takes weak references
            pass

        real, refs, stale = verify._walk, [], []

        def tracked(start, sequences, layer):
            for i, (key, column) in enumerate(real(start, sequences, layer)):
                # the three walks step together: only the previous step's columns may be alive
                stale.extend(j for j, ref in refs if j < i - 1 and ref() is not None)
                column = Column(column)
                refs.append((i, weakref.ref(column)))
                yield key, column

        monkeypatch.setattr(verify, "_walk", tracked)
        assert main_theorem_sweep(7).ok
        assert len(refs) == 3 * 44
        assert stale == []
        assert [j for j, ref in refs if ref() is not None] == []


class TestSweepFailures:
    """A wrong sign, a wrong column value, a colliding basechange, a wrong
    split weight in the oracle and a nonzero value off the basechange image
    each show up as failure records that name the pair (or the partition) and
    the class, and make `octachar sweep` exit 1 with FAIL lines and no PASS."""

    PAIR = bipartition([], [1, 1, 1, 1])  # basechange [2,1^6]; chi_[1^4] vanishes nowhere

    def wrong_sign(self, monkeypatch):
        real, mask = verify._from_two_quotient, beta_mask(P("[2,1^6]"))

        def flipped(q0, q1, odd_size):
            image, eps = real(q0, q1, odd_size)
            return image, (-eps if image == mask else eps)

        monkeypatch.setattr(verify, "_from_two_quotient", flipped)

    def wrong_column_value(self, monkeypatch):
        real, w, mask = verify._walk, P("[4,2,2]"), beta_mask(P("[2,1^6]"))

        def corrupted(start, sequences, layer):
            for key, column in real(start, sequences, layer):
                yield key, ({**column, mask: column[mask] + 1} if key == w else column)

        monkeypatch.setattr(verify, "_walk", corrupted)

    def colliding_basechange(self, monkeypatch):
        # ([]|[1]) is sent to the basechange of ([1]|[]) at both targets
        real, mine, other = verify._from_two_quotient, (0, beta_mask(P("[1]"))), (beta_mask(P("[1]")), 0)

        def collide(q0, q1, odd_size):
            return real(*(other if (q0, q1) == mine else (q0, q1)), odd_size)

        monkeypatch.setattr(verify, "_from_two_quotient", collide)

    def off_image_value(self, monkeypatch):
        # [3,2,1] is its own 2-core, so it is no pair's basechange and must vanish at [2^3]
        real, w, mask = verify._walk, P("[2^3]"), beta_mask(P("[3,2,1]"))

        def planted(start, sequences, layer):
            for key, column in real(start, sequences, layer):
                yield key, ({**column, mask: 1} if key == w else column)

        monkeypatch.setattr(verify, "_walk", planted)

    def wrong_split_weight(self, monkeypatch):
        # C(n, k) + 1 for 0 < k < n: sending one of the two 1-cycles of ([1^2]|[]) to B_1 weighs 3, not 2
        monkeypatch.setattr(verify, "comb", lambda n, k: comb(n, k) + (0 < k < n))

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

    def test_off_image_value_names_the_partition(self, monkeypatch):
        self.off_image_value(monkeypatch)
        assert main_theorem_sweep(3).failures == [
            "identity fails: lambda=[3,2,1] (no pair's basechange) target=even w=[2^3]: 1 != 0"
        ]

    def test_failures_come_in_class_then_bitmask_order(self, monkeypatch):
        # every sign flipped: each nonzero cell fails, for each n and target by class, then by bitmask
        real = verify._from_two_quotient

        def flipped(q0, q1, odd_size):
            image, eps = real(q0, q1, odd_size)
            return image, -eps

        monkeypatch.setattr(verify, "_from_two_quotient", flipped)
        expected = []
        for n in (1, 2, 3):
            for target in ("even", "odd"):
                pair_of = {beta_mask(basechange(pair, target)): pair for pair in bipartitions_of(n)}
                for w in even_cycle_classes(2 * n + (target == "odd")):
                    for mask in sorted(pair_of):
                        pair = pair_of[mask]
                        lam = basechange(pair, target)
                        if mn_character(lam, w):
                            expected.append(
                                "identity fails: pair=%s target=%s w=%s: %d != %d * %d"
                                % (pair, target, w, mn_character(lam, w), -sign_shuffle(lam), bn_character(pair, norm(w)))
                            )
        assert len(expected) > 20
        assert main_theorem_sweep(3).failures == expected

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
        assert verify._bruteforce_column(bn_class([1, 1], []))[beta_mask(P("[1]")), beta_mask(P("[1]"))] == 3
        report = main_theorem_sweep(4)
        assert "oracle mismatch: pair=([1]|[1]) class=([1^2]|[])" in report.failures
        assert all(failure.startswith("oracle mismatch: ") for failure in report.failures)

    def test_wrong_pair_layer_is_an_oracle_mismatch(self, monkeypatch):
        # a B_n walk that drops the signs of its layers is caught at the oracle's classes
        real = verify._pair_layer
        monkeypatch.setattr(verify, "_pair_layer", lambda *args: {k: abs(v) for k, v in real(*args).items()})
        failures = main_theorem_sweep(2).failures
        assert failures[:2] == [
            "oracle mismatch: pair=([]|[1^2]) class=([2]|[])", "oracle mismatch: pair=([1^2]|[]) class=([2]|[])"]

    def test_one_pass_orders_failures_as_one_n_at_a_time(self, monkeypatch):
        self.wrong_split_weight(monkeypatch)
        self.colliding_basechange(monkeypatch)
        real = verify._from_two_quotient
        monkeypatch.setattr(verify, "_from_two_quotient", lambda *args: (lambda mask, eps: (mask, -eps))(*real(*args)))
        whole = verify._sweep(range(1, 5))
        parts = [verify._sweep(range(n, n + 1)) for n in range(1, 5)]
        assert whole.failures == [failure for part in parts for failure in part.failures]

        def stage(failure):  # 0 the oracle, then per target 1 + 2t its collisions and 2 + 2t its identity failures
            if failure.startswith("oracle mismatch: "):
                return 0
            return (3 if "target=odd" in failure else 1) + failure.startswith("identity fails: ")

        for part in parts:
            stages = list(map(stage, part.failures))
            assert stages == sorted(stages)
        assert set(map(stage, parts[0].failures)) == {1, 2, 3, 4}  # the collision is at n = 1
        assert set(map(stage, parts[1].failures)) == {0, 2, 4}  # the wrong weight first shows at n = 2

    @pytest.mark.parametrize(
        "fault", ["wrong_sign", "wrong_column_value", "colliding_basechange", "wrong_split_weight", "off_image_value"]
    )
    def test_cli_exits_1_with_fail_lines(self, fault, monkeypatch, capsys):
        getattr(self, fault)(monkeypatch)
        assert main(["sweep", "--max", "4"]) == 1
        out, err = capsys.readouterr()
        assert any(line.startswith("FAIL: ") for line in out.splitlines())
        assert "PASS" not in out
        assert err == ""
