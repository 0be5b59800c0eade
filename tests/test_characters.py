from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings, strategies as st

from octachar.partitions import Partition, beta_mask, hook_layer, parse_partition, partitions_of
from octachar import characters
from octachar.characters import (
    centralizer_order,
    character_table,
    class_size,
    dimension,
    even_cycle_classes,
    mn_character,
    mn_column,
    mn_columns,
    product_character,
)

from fractions import Fraction
from math import comb, factorial

from oracles import (
    centralizer_count,
    double_class,
    induced_product_character,
    mn_by_recursion,
    sign_of_class,
    sn_character_table_young,
)

young_table = lru_cache(maxsize=None)(sn_character_table_young)


def P(text):
    return parse_partition(text)


class TestCentralizers:
    def test_examples(self):
        assert centralizer_order(Partition([1, 1])) == 2
        assert centralizer_order(Partition([2])) == 2
        assert centralizer_order(Partition([2, 2, 1])) == 8

    def test_against_bruteforce_s5(self):
        for rho in partitions_of(5):
            assert centralizer_order(rho) == centralizer_count(rho)

    def test_class_equation(self):
        for m in range(1, 9):
            assert sum(class_size(rho) for rho in partitions_of(m)) == factorial(m)


class TestDoubleClass:
    def test_examples(self):
        assert double_class(Partition([1])) == Partition([2])
        assert double_class(Partition([2, 1])) == Partition([4, 2])

    def test_centralizer_doubling(self):
        for rho in partitions_of(6):
            assert centralizer_order(double_class(rho)) == 2 ** len(rho) * centralizer_order(rho)


class TestMurnaghanNakayama:
    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            mn_character(Partition([2, 1]), Partition([2, 2]))

    def test_trivial_and_sign_rows(self):
        for m in range(1, 8):
            for rho in partitions_of(m):
                assert mn_character(Partition([m]), rho) == 1
                assert mn_character(Partition([1] * m), rho) == sign_of_class(rho)

    def test_identity_column_is_dimension(self):
        for m in range(1, 9):
            identity = Partition([1] * m)
            for lam in partitions_of(m):
                assert mn_character(lam, identity) == dimension(lam)

    def test_golden_involution_values(self):
        w0 = Partition([2, 2, 2, 2])
        assert mn_character(P("[2,1^6]"), w0) == -1
        assert mn_character(P("[3^2,2]"), w0) == -6

    def test_bounded_by_dimension(self):
        for m in range(1, 8):
            for lam in partitions_of(m):
                d = dimension(lam)
                for rho in partitions_of(m):
                    assert abs(mn_character(lam, rho)) <= d

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tables_match_young_symmetrizer_oracle(self, n):
        oracle = young_table(n)
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert mn_character(lam, rho) == oracle[lam][rho], (lam, rho)

    @pytest.mark.parametrize("m", [10, 12])
    def test_frontiers_hold_at_most_p_k_canonical_masks(self, m):
        # a mask that is not canonical would hold one partition under many keys
        counts = [sum(1 for _ in partitions_of(k)) for k in range(m + 1)]
        everything = {beta_mask(lam): 1 for lam in partitions_of(m)}
        for rho in partitions_of(m):
            for j in range(len(rho) + 1):
                k = sum(rho[j:])
                for frontier in (
                    mn_column(rho[j:]),  # the walk's frontier after the shortest cycles
                    reduce(hook_layer, rho[:j], everything),
                ):
                    assert len(frontier) <= counts[k], (rho, j)
                    assert not any(mask & 1 for mask in frontier), (rho, j)

    def test_columns_match_recursion_at_every_class(self):
        for m in range(1, 11):
            for rho in partitions_of(m):
                column = mn_column(rho)
                assert column == {
                    beta_mask(lam): v for lam in partitions_of(m) if (v := mn_by_recursion(lam, rho))
                }, rho

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 14).flatmap(lambda m: st.tuples(
        st.sampled_from(list(partitions_of(m))), st.sampled_from(list(partitions_of(m))))))
    def test_columns_top_down_recursion_and_young_agree(self, case):
        lam, rho = case
        value = mn_by_recursion(lam, rho)
        assert mn_character(lam, rho) == value
        assert mn_column(rho).get(beta_mask(lam), 0) == value
        if lam.size <= 5:
            assert young_table(lam.size)[lam][rho] == value

    def test_s3_oracle_against_textbook_values(self):
        # guards the oracle itself
        oracle = sn_character_table_young(3)
        std = Partition([2, 1])
        assert oracle[std] == {
            Partition([1, 1, 1]): 2,
            Partition([2, 1]): 0,
            Partition([3]): -1,
        }


class TestFamilyWalk:
    @staticmethod
    def counting_layers(monkeypatch):
        """Record (t, rows, masks of the frontier found in rows, rows built) per layer."""
        calls = []

        def counting(frontier, t, add=False, rows=None):
            found = 0 if rows is None else sum(mask in rows for mask in frontier)
            before = 0 if rows is None else len(rows)
            layer = hook_layer(frontier, t, add, rows)
            calls.append((t, rows, found, 0 if rows is None else len(rows) - before))
            return layer

        monkeypatch.setattr(characters, "hook_layer", counting)
        return calls

    def test_layer_calls_are_distinct_shortest_first_prefixes(self, monkeypatch):
        # a shared prefix of cycle lengths is expanded once, not once per class
        calls = self.counting_layers(monkeypatch)
        character_table(15)
        classes = list(partitions_of(15))
        prefixes = {tuple(reversed(rho))[:j] for rho in classes for j in range(1, len(rho) + 1)}
        assert len(prefixes) == 351
        assert sum(len(rho) for rho in classes) == 1068  # one column per class from the empty partition
        assert len(calls) == len(prefixes)

    def test_family_builds_each_move_row_once(self, monkeypatch):
        # 7,717 (mask, t) visits over the 351 layers, 1,246 of them distinct
        calls = self.counting_layers(monkeypatch)
        character_table(15)
        assert len(calls) == 351
        assert sum(built for _, _, _, built in calls) == 1246
        assert sum(found for _, _, found, _ in calls) == 6471
        assert len({id(rows) for _, rows, _, _ in calls}) == 15  # one rows dict per hook length

    def test_one_class_records_no_rows(self, monkeypatch):
        calls = self.counting_layers(monkeypatch)
        mn_column(P("[2^15]"))
        assert [(t, rows) for t, rows, _, _ in calls] == [(2, None)] * 15

    def test_family_columns_equal_columns_of_one(self):
        for m in range(13):
            classes = list(partitions_of(m))
            assert mn_columns(classes) == {rho: mn_column(rho) for rho in classes}, m
        for m in range(2, 14):  # the sweep's families, [2rho, 1] at odd m
            classes = list(even_cycle_classes(m))
            assert mn_columns(classes) == {w: mn_column(w) for w in classes}, m

    def test_family_takes_cycles_in_any_order(self):
        columns = mn_columns([(1, 2, 1), (1, 3)])
        assert columns == {P("[2,1^2]"): mn_column(P("[2,1^2]")), P("[3,1]"): mn_column(P("[3,1]"))}
        assert mn_columns([]) == {}


class TestOrthogonality:
    @pytest.mark.parametrize("m", list(range(2, 9)))
    def test_first_and_second(self, m):
        lams, classes, rows = character_table(m)
        weights = [Fraction(1, centralizer_order(rho)) for rho in classes]
        for i, lam in enumerate(lams):
            for j in range(i, len(lams)):
                inner = sum(w * rows[i][k] * rows[j][k] for k, w in enumerate(weights))
                assert inner == (1 if i == j else 0)
        for a, rho in enumerate(classes):
            for b in range(a, len(classes)):
                inner = sum(rows[i][a] * rows[i][b] for i in range(len(lams)))
                expected = centralizer_order(rho) if a == b else 0
                assert inner == expected


class TestProductCharacter:
    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            product_character(Partition([1]), Partition([1]), Partition([3]))

    def test_dimension_is_binomial_times_dims(self):
        for a in range(0, 4):
            for b in range(0, 4):
                if a + b == 0:
                    continue
                identity = Partition([1] * (a + b))
                value = product_character(
                    Partition([a] if a else []), Partition([b] if b else []), identity
                )
                assert value == comb(a + b, a)

    def test_regular_representation_off_identity(self):
        assert product_character(Partition([1]), Partition([1]), Partition([2])) == 0

    def test_littlewood_instance(self):
        # the quotient of [2,1^6] paired with the halved class of [4,4]
        q0, q1 = Partition(), Partition([1, 1, 1, 1])
        assert product_character(q0, q1, Partition([2, 2])) == 1
        assert mn_character(P("[2,1^6]"), Partition([4, 4])) == -1  # eps = -1

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4), (2, 4)])
    def test_against_group_sum_oracle(self, a, b):
        for p0 in partitions_of(a):
            for p1 in partitions_of(b):
                for rho in partitions_of(a + b):
                    assert product_character(p0, p1, rho) == induced_product_character(
                        p0, p1, rho
                    ), (p0, p1, rho)


class TestEvenCycleClasses:
    def test_even_sizes(self):
        classes = list(even_cycle_classes(8))
        assert Partition([2, 2, 2, 2]) in classes
        assert Partition([8]) in classes
        assert all(all(v % 2 == 0 for v in c) for c in classes)
        assert len(classes) == 5  # p(4)

    def test_odd_sizes(self):
        classes = list(even_cycle_classes(9))
        assert all(sorted(c, reverse=True)[-1] == 1 for c in classes)
        assert all(sum(1 for v in c if v == 1) == 1 for c in classes)
        assert len(classes) == 5
