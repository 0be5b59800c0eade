import pytest

from collections import Counter
from functools import reduce
from fractions import Fraction
from math import factorial

from hypothesis import given, settings, strategies as st

from octachar.partitions import (
    Partition, PartitionParseError, beta_mask, parse_partition, partitions_of, p_core, p_quotient,
)
from octachar.characters import _pair_layer, _walk, even_cycle_classes, mn_character, product_character
from octachar.hyperoctahedral import (
    BiPartition,
    basechange,
    bipartition,
    bipartitions_of,
    bn_character,
    bn_class,
    bn_column,
    bn_columns,
    bn_dimension,
    format_bipartition,
    norm,
    parse_bipartition,
    _signed_cycles,
)
from octachar.verify import _bruteforce_column

from oracles import (
    bn_by_recursion,
    bn_class_of,
    bn_elements,
    embed_class,
    signed_class_representative,
    signed_compose,
    signed_inverse,
)


def P(text):
    return parse_partition(text)


def oracle_character(pair, c):
    """The group-sum oracle's value of the irreducible `pair` at the class `c`."""
    return _bruteforce_column(c).get((beta_mask(pair.p0), beta_mask(pair.p1)), 0)


class TestEmbedding:
    def test_examples(self):
        assert embed_class(bn_class([1], [])) == Partition([1, 1])
        assert embed_class(bn_class([], [1])) == Partition([2])
        assert embed_class(bn_class([2, 2], [])) == Partition([2, 2, 2, 2])

    def test_matches_explicit_elements(self):
        # the embedded cycle type of a class is the S_2n cycle type of any
        # representative acting on {+-1..+-n}
        for n in (1, 2, 3):
            for g in bn_elements(n):
                c = bn_class_of(g)
                points = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
                seen = set()
                lengths = []
                for start in points:
                    if start in seen:
                        continue
                    x, length = start, 0
                    while x not in seen:
                        seen.add(x)
                        x = g[x - 1] if x > 0 else -g[-x - 1]
                        length += 1
                    lengths.append(length)
                assert Partition(sorted(lengths, reverse=True)) == embed_class(c)

    def test_involution_fiber_count(self):
        for n in range(1, 11):
            w0 = Partition([2] * n)
            fiber = [
                pair
                for pair in bipartitions_of(n)
                if embed_class(bn_class(pair.p0, pair.p1)) == w0
            ]
            assert len(fiber) == n // 2 + 1


class TestNorm:
    def test_examples(self):
        assert norm(Partition([2])) == bn_class([1], [])
        assert norm(Partition([8])) == bn_class([4], [])
        assert norm(Partition([4, 2, 2, 1])) == bn_class([2, 1, 1], [])

    def test_explicit_target(self):
        assert norm(Partition([4, 2]), "even") == bn_class([2, 1], [])
        assert norm(Partition([4, 2, 1]), "odd") == bn_class([2, 1], [])

    @pytest.mark.parametrize("bad", [[3, 2, 1], [2, 1, 1], [5, 4], [1, 1]])
    def test_undefined(self, bad):
        with pytest.raises(ValueError, match="norm undefined"):
            norm(Partition(sorted(bad, reverse=True)))

    def test_target_mismatch(self):
        with pytest.raises(ValueError, match="norm undefined"):
            norm(Partition([4, 2]), "odd")
        with pytest.raises(ValueError, match="norm undefined"):
            norm(Partition([4, 2, 1]), "even")

    def test_norm_squares_embedding(self):
        # the embedded class of the norm is the class of the square: doubling
        # then halving is the identity on even-cycle classes
        for n in range(1, 7):
            for rho in partitions_of(n):
                w = Partition(sorted((2 * v for v in rho), reverse=True))
                assert norm(w).positive == rho


class TestBasechange:
    def test_empty(self):
        assert basechange(bipartition(), "even") == Partition()

    def test_golden_rows(self):
        q = bipartition([], [1, 1, 1, 1])
        assert basechange(q, "even") == P("[2,1^6]")
        assert basechange(q, "odd") == P("[3,2,1^4]")
        q2 = bipartition([2], [2])
        assert basechange(q2, "even") == P("[4^2]")
        assert basechange(q2, "odd") == P("[5,3,1]")

    def test_inverse_of_quotient_extraction(self):
        for n in range(7):
            for pair in bipartitions_of(n):
                even = basechange(pair, "even")
                assert p_core(even, 2) == Partition()
                assert p_quotient(even, 2) == (pair.p0, pair.p1)
                odd = basechange(pair, "odd")
                assert p_core(odd, 2) == Partition([1])
                assert p_quotient(odd, 2) == (pair.p0, pair.p1)

    def test_injective_and_onto_the_right_cores(self):
        for n in range(6):
            for target, size, core in (("even", 2 * n, Partition()), ("odd", 2 * n + 1, Partition([1]))):
                image = {basechange(pair, target) for pair in bipartitions_of(n)}
                expected = {lam for lam in partitions_of(size) if p_core(lam, 2) == core}
                assert image == expected
                assert len(image) == sum(1 for _ in bipartitions_of(n))

    def test_bad_target(self):
        with pytest.raises(ValueError):
            basechange(bipartition([1]), "sideways")


class TestDimensions:
    def test_examples(self):
        assert bn_dimension(bipartition([1], [])) == 1
        assert bn_dimension(bipartition([1, 1, 1], [1])) == 4  # basechanges to [2^2,1^4]

    def test_sum_of_squares_is_group_order(self):
        from math import factorial

        for n in range(1, 9):
            total = sum(bn_dimension(pair) ** 2 for pair in bipartitions_of(n))
            assert total == 2**n * factorial(n)

    def test_character_at_identity(self):
        for n in range(1, 5):
            identity = bn_class([1] * n, [])
            for pair in bipartitions_of(n):
                assert bn_character(pair, identity) == bn_dimension(pair)


class TestSignedPermutations:
    def test_compose_inverse(self):
        for g in bn_elements(3):
            assert signed_compose(g, signed_inverse(g)) == (1, 2, 3)
            assert signed_compose(signed_inverse(g), g) == (1, 2, 3)

    def test_class_representative_lands_in_class(self):
        for n in range(1, 5):
            for pair in bipartitions_of(n):
                c = bn_class(pair.p0, pair.p1)
                assert bn_class_of(signed_class_representative(c)) == c

    def test_class_invariance_under_conjugation(self):
        for g in bn_elements(3):
            c = bn_class_of(g)
            for t in bn_elements(3):
                assert bn_class_of(signed_compose(signed_inverse(t), signed_compose(g, t))) == c


class TestBruteForceOracle:
    def test_b1_values(self):
        negative = bn_class([], [1])
        assert oracle_character(bipartition([1], []), negative) == 1
        assert oracle_character(bipartition([], [1]), negative) == -1

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="oracle scale exceeded"):
            _bruteforce_column(bn_class([7], []))

    def test_positive_route_matches_oracle(self):
        for n in range(1, 5):
            for pair in bipartitions_of(n):
                for rho in partitions_of(n):
                    c = bn_class(rho, [])
                    assert bn_character(pair, c) == oracle_character(pair, c), (pair, c)

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_table_orthogonality(self, n):
        # class sizes by explicit enumeration; first orthogonality over the group
        sizes = Counter(map(bn_class_of, bn_elements(n)))
        order = sum(sizes.values())
        pairs = list(bipartitions_of(n))
        table = {
            pair: {c: oracle_character(pair, c) for c in sizes}
            for pair in pairs
        }
        for i, a in enumerate(pairs):
            for b in pairs[i:]:
                inner = sum(sizes[c] * table[a][c] * table[b][c] for c in sizes)
                assert inner == (order if a == b else 0)

    @pytest.mark.parametrize("n", range(7))
    def test_class_sizes_match_enumeration(self, n):
        # the oracle's split weights are ratios of these centralizer orders; every
        # class is checked, those with negative cycles too, which the sweep never reads
        sizes = Counter(map(bn_class_of, bn_elements(n)))
        assert sorted(sizes) == sorted(_bn_classes(n))
        assert all(sizes[c] * _bn_centralizer_order(c) == 2**n * factorial(n) for c in sizes)

    @pytest.mark.parametrize("n", range(13))
    def test_class_sizes_count_the_group(self, n):
        # past enumeration: the class sizes the centralizer orders give are integers adding up to |B_n|
        order = 2**n * factorial(n)
        assert all(order % _bn_centralizer_order(c) == 0 for c in _bn_classes(n))
        assert sum(order // _bn_centralizer_order(c) for c in _bn_classes(n)) == order

    def test_dimension_column(self):
        for n in range(1, 5):
            identity = bn_class([1] * n, [])
            for pair in bipartitions_of(n):
                assert oracle_character(pair, identity) == bn_dimension(pair)


def _bn_classes(n):
    return [bn_class(pos, neg) for pos, neg in bipartitions_of(n)]


def _bn_centralizer_order(c):
    """prod over cycle lengths i of (2i)^a_i a_i! (2i)^b_i b_i!, with a_i and b_i
    the numbers of positive and negative cycles of length i."""
    order = 1
    for cycles in (c.positive, c.negative):
        for i, mult in Counter(cycles).items():
            order *= (2 * i) ** mult * factorial(mult)
    return order


class TestMurnaghanNakayamaB:
    def test_worked_values(self):
        assert bn_character(((2, 1), ()), ((1, 1, 1), ())) == 2  # plain tuples are accepted
        negative = bn_class([], [1])
        assert bn_character(bipartition([1], []), negative) == 1
        assert bn_character(bipartition([], [1]), negative) == -1
        # the sign character of S_2 pulled back, twisted by the Z/2 signs
        assert bn_character(bipartition([], [1, 1]), bn_class([], [2])) == 1
        assert bn_character(bipartition([], [1, 1]), bn_class([2], [])) == -1

    def test_matches_oracle_at_every_class(self):
        for n in range(1, 5):
            for pair in bipartitions_of(n):
                for c in _bn_classes(n):
                    assert bn_character(pair, c) == oracle_character(pair, c), (pair, c)

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_oracle_at_every_class_up_to_its_scale(self, n):
        # both columns hold every nonzero value, so equal columns agree at every pair
        for c in _bn_classes(n):
            assert _bruteforce_column(c) == bn_column(c), c

    def test_matches_recursion_at_positive_classes(self):
        # at (rho|()) the B_n character is the character induced from S_a x S_b
        for n in range(1, 9):
            for pair in bipartitions_of(n):
                for rho in partitions_of(n):
                    expected = bn_by_recursion(pair, (rho, ()))
                    assert bn_character(pair, bn_class(rho, [])) == expected, (pair, rho)
                    assert product_character(pair.p0, pair.p1, rho) == expected, (pair, rho)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_both_orthogonality_relations(self, n):
        pairs = list(bipartitions_of(n))
        classes = _bn_classes(n)
        z = {c: _bn_centralizer_order(c) for c in classes}
        assert sum(Fraction(1, z[c]) for c in classes) == 1  # class sizes add up to |B_n|
        table = {pair: {c: bn_character(pair, c) for c in classes} for pair in pairs}
        for i, a in enumerate(pairs):
            for b in pairs[i:]:
                inner = sum(Fraction(table[a][c] * table[b][c], z[c]) for c in classes)
                assert inner == (1 if a == b else 0), (a, b)
        for i, c in enumerate(classes):
            for d in classes[i:]:
                column = sum(table[pair][c] * table[pair][d] for pair in pairs)
                assert column == (z[c] if c == d else 0), (c, d)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="^size mismatch: class of B_2 against irreducible of B_3$"):
            bn_character(bipartition([2], [1]), bn_class([2], []))

    def test_cycle_lengths_in_any_order(self):
        pair = bipartition([2, 1], [1])
        expected = bn_character(pair, bn_class([2, 1], [1]))
        assert bn_character(pair, ((1, 2), (1,))) == expected
        assert bn_character(pair, [[1, 2], [1]]) == expected
        assert bn_character(bipartition([2, 1], []), ((1, 2), ())) == bn_character(
            bipartition([2, 1], []), bn_class([2, 1], [])
        )
        assert bn_character(bipartition([1], [2, 1]), ((), (1, 3))) == bn_character(
            bipartition([1], [2, 1]), bn_class([], [3, 1])
        )

    def test_frontiers_hold_canonical_mask_pairs(self):
        # a bead at 0 would store one bipartition under several keys
        n = 6
        counts = [sum(1 for _ in bipartitions_of(k)) for k in range(n + 1)]
        for c in _bn_classes(n):
            cycles = _signed_cycles(c)
            for j in range(len(cycles) + 1):
                bottom_up = dict(_walk({(0, 0): 1}, {c: tuple(reversed(cycles[j:]))}, _pair_layer))[c]
                everything = {(beta_mask(p0), beta_mask(p1)): 1 for p0, p1 in bipartitions_of(n)}
                top_down = reduce(_pair_layer, cycles[:j], everything)
                k = sum(abs(t) for t in cycles[j:])
                for frontier in (bottom_up, top_down):
                    assert len(frontier) <= counts[k], (c, j)
                    for mask0, mask1 in frontier:
                        assert not mask0 & 1 and not mask1 & 1

    def test_columns_match_oracle_at_every_class(self):
        for n in range(1, 5):
            for c in _bn_classes(n):
                column = bn_column(c)
                for pair in bipartitions_of(n):
                    value = oracle_character(pair, c)
                    assert column.get((beta_mask(pair.p0), beta_mask(pair.p1)), 0) == value, (pair, c)
                assert 0 not in column.values()

    def test_family_columns_equal_columns_of_one(self):
        for n in range(8):
            classes = _bn_classes(n)
            assert bn_columns(classes) == {c: bn_column(c) for c in classes}, n
            norms = [norm(w) for w in even_cycle_classes(2 * n)]  # the sweep's family (rho|)
            assert bn_columns(norms) == {h: bn_column(h) for h in norms}, n

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.sampled_from(list(bipartitions_of(n))), st.sampled_from(_bn_classes(n)))))
    def test_columns_top_down_and_recursion_agree(self, case):
        pair, c = case
        value = bn_by_recursion(pair, c)
        assert bn_character(pair, c) == value
        assert bn_column(c).get((beta_mask(pair.p0), beta_mask(pair.p1)), 0) == value


class TestBipartitionText:
    def test_format(self):
        assert format_bipartition(bipartition([2, 1], [1])) == "([2,1]|[1])"
        assert format_bipartition(bipartition()) == "([]|[])"

    def test_parse(self):
        assert parse_bipartition("([2,1]|[1])") == bipartition([2, 1], [1])
        assert parse_bipartition("( [] | [3^2] )") == bipartition([], [3, 3])

    @pytest.mark.parametrize("bad", ["", "([2,1][1])", "([2,1]|[1]", "[2,1]|[1]", "([2,1]|[1]) x", "([1]|[1^²])"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PartitionParseError):
            parse_bipartition(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "expected '(' at position 0 in ''"),
            ("([2,1][1])", "expected '|' at position 6 in '([2,1][1])'"),
            ("([2,1]|[1]", "expected ')' at position 10 in '([2,1]|[1]'"),
            (" [2,1]|[1]", "expected '(' at position 1 in ' [2,1]|[1]'"),
            ("( [2,1] | [1] ) x", "unexpected trailing 'x' at position 16"),
            ("(2|[1])", "expected '[' at position 1 in '(2|[1])'"),
            ("([1]| [1,2])", "parts must be non-increasing at position 9 in '([1]| [1,2])'"),
        ],
    )
    def test_parse_errors_name_a_position(self, bad, message):
        with pytest.raises(PartitionParseError) as error:
            parse_bipartition(bad)
        assert str(error.value) == message

    def test_roundtrip(self):
        for n in range(6):
            for pair in bipartitions_of(n):
                assert parse_bipartition(format_bipartition(pair)) == pair


def test_counting_identity():
    for n in range(13):
        bipartition_count = sum(1 for _ in bipartitions_of(n))
        empty_core = sum(1 for lam in partitions_of(2 * n) if p_core(lam, 2) == Partition())
        assert bipartition_count == empty_core
