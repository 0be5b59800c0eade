import pytest
from hypothesis import given, settings, strategies as st

from octachar import partitions
from octachar.census import partition_counts
from octachar.partitions import (
    MAX_LITERAL_PARTS,
    Partition,
    PartitionParseError,
    beta_mask,
    format_partition,
    from_core_and_quotient,
    hook_layer,
    hook_lengths,
    p_core,
    p_quotient,
    parse_partition,
    partitions_of,
    sign_shuffle,
    _from_mask,
    _from_two_quotient,
    _two_quotient,
)

from oracles import (
    beta_set,
    is_p_core,
    mask_beads,
    p_quotient_on_tuples,
    partition_from_beta,
    rim_hook_cores,
    rim_hook_removals,
    rim_hooks_on_tuples,
    sign_odd_parts,
    sign_shuffle_by_permutation,
)


def P(text):
    return parse_partition(text)


class TestPartitionType:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Partition([2, 0])
        with pytest.raises(ValueError):
            Partition([-1])

    def test_partition_is_returned_unchanged(self):
        lam = Partition([3, 1])
        assert Partition(lam) is lam

    def test_empty_is_fine(self):
        assert Partition().size == 0
        assert Partition([]) == ()

    def test_conjugate_involution(self):
        for lam in partitions_of(7):
            assert lam.conjugate().conjugate() == lam

    def test_enumeration_counts(self):
        # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in enumerate(expected):
            assert sum(1 for _ in partitions_of(n)) == count

    def test_enumeration_is_every_partition_in_descending_order(self):
        # p(n) valid partitions of n, strictly descending, can only be all of them in order
        counts = partition_counts(25)
        for n in range(26):
            lams = list(partitions_of(n))
            assert all(type(lam) is Partition and lam == Partition(lam) and lam.size == n for lam in lams)
            assert all(a > b for a, b in zip(lams, lams[1:])) and len(lams) == counts[n], n

    def test_partition_counts_match_enumeration(self):
        assert partition_counts(30) == [sum(1 for _ in partitions_of(n)) for n in range(31)]
        assert partition_counts(0) == [1]
        with pytest.raises(ValueError):
            partition_counts(-1)
        with pytest.raises(ValueError, match="non-negative"):
            list(partitions_of(-1))  # a generator: the check runs on the first draw


class TestBetaSets:
    def test_basic(self):
        assert beta_set(Partition([3, 1]), 2) == (4, 1)
        assert beta_set(Partition(), 3) == (2, 1, 0)

    def test_padded(self):
        assert beta_set(Partition([2, 1, 1, 1, 1, 1]), 8) == (9, 7, 6, 5, 4, 3, 1, 0)

    def test_insufficient_length(self):
        with pytest.raises(ValueError, match="insufficient beta length"):
            beta_set(Partition([3, 1]), 1)

    def test_decode(self):
        assert partition_from_beta((4, 1)) == Partition([3, 1])
        assert partition_from_beta((2, 1, 0)) == Partition()
        assert partition_from_beta((9, 7, 6, 5, 4, 3, 1, 0)) == Partition([2, 1, 1, 1, 1, 1])

    def test_decode_rejects_unsorted(self):
        with pytest.raises(ValueError):
            partition_from_beta((1, 4))
        with pytest.raises(ValueError):
            partition_from_beta((4, 4, 1))

    def test_roundtrip_all_small(self):
        for n in range(11):
            for lam in partitions_of(n):
                for r in range(len(lam), len(lam) + 4):
                    assert partition_from_beta(beta_set(lam, r)) == lam

    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=8),
        st.integers(min_value=0, max_value=5),
    )
    def test_roundtrip_hypothesis(self, parts, extra):
        lam = Partition(sorted(parts, reverse=True))
        assert partition_from_beta(beta_set(lam, len(lam) + extra)) == lam

    def test_mask_decodes_at_any_padding(self):
        # beads at 0..k-1 carry no part
        for n in range(21):
            for lam in partitions_of(n):
                for k in range(4):
                    assert _from_mask((beta_mask(lam) << k) | ((1 << k) - 1)) == lam


class TestHooks:
    def test_examples(self):
        assert hook_lengths(Partition([1])) == [[1]]
        assert hook_lengths(Partition([2, 1])) == [[3, 1], [1]]
        assert hook_lengths(Partition([3, 2])) == [[4, 3, 1], [2, 1]]

    def test_against_bruteforce(self):
        # arm and leg counted cell by cell
        for lam in partitions_of(8):
            hooks = hook_lengths(lam)
            for i in range(len(lam)):
                for j in range(lam[i]):
                    arm = lam[i] - j - 1
                    leg = sum(1 for k in range(i + 1, len(lam)) if lam[k] > j)
                    assert hooks[i][j] == arm + leg + 1


def rim_hooks(mask, t):
    """(removed, sign) for every rim hook of length t removed from one mask."""
    return hook_layer({mask: 1}, t).items()


class TestRimHooks:
    def test_beta_mask(self):
        assert beta_mask(Partition()) == 0
        assert beta_mask(Partition([3, 1])) == 0b10010  # beta-set (4, 1)
        for n in range(9):
            for lam in partitions_of(n):
                assert mask_beads(beta_mask(lam)) == beta_set(lam, len(lam))

    def test_one_result_per_cell_with_that_hook_length(self):
        for n in range(13):
            for lam in partitions_of(n):
                mask = beta_mask(lam)
                hooks = [h for row in hook_lengths(lam) for h in row]
                for t in range(1, n + 1):
                    results = list(rim_hooks(mask, t))
                    assert len(results) == hooks.count(t), (lam, t)
                    assert len({removed for removed, _ in results}) == len(results)
                    for removed, sign in results:
                        mu = partition_from_beta(mask_beads(removed))
                        assert mu.size == n - t
                        assert removed == beta_mask(mu)  # canonical: bit 0 clear
                        assert sign in (1, -1)

    def test_signs(self):
        # [2,1] has one 3-hook with leg 1; [1^3] has one 3-hook with leg 2
        assert list(rim_hooks(beta_mask(Partition([2, 1])), 3)) == [(0, -1)]
        assert list(rim_hooks(beta_mask(Partition([1, 1, 1])), 3)) == [(0, 1)]
        # [2,2]: the vertical domino (leg 1) leaves [1,1], the horizontal one [2]
        assert sorted(rim_hooks(beta_mask(Partition([2, 2])), 2)) == [(0b100, 1), (0b110, -1)]

    def test_padded_input_gives_canonical_output(self):
        # beta-set (5, 4, 1, 0) is [2,2] padded to four parts
        padded = sum(1 << b for b in beta_set(Partition([2, 2]), 4))
        assert sorted(rim_hooks(padded, 2)) == [(0b100, 1), (0b110, -1)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 20).flatmap(lambda n: st.tuples(
        st.sampled_from(list(partitions_of(n))), st.integers(1, max(n, 1)))))
    def test_agrees_with_tuple_route_and_cell_surgery(self, case):
        lam, t = case
        got = {(partition_from_beta(mask_beads(removed)), sign) for removed, sign in rim_hooks(beta_mask(lam), t)}
        tuples = {(partition_from_beta(removed), sign)
                  for removed, sign in rim_hooks_on_tuples(beta_set(lam, len(lam)), t)}
        assert got == tuples
        # the cell route gives the partitions; the sign is (-1)^(rows of the hook - 1)
        cells = set()
        for mu in rim_hook_removals(lam, t):
            rows = sum(1 for i, v in enumerate(lam) if (mu[i] if i < len(mu) else 0) < v)
            cells.add((mu, -1 if rows % 2 == 0 else 1))
        assert got == cells


class TestHookLayer:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda k: st.tuples(
        st.just(k),
        st.dictionaries(st.sampled_from(list(partitions_of(k))), st.integers(-3, 3)),
        st.integers(1, 6))))
    def test_agrees_with_tuple_route_both_ways(self, case):
        # a whole frontier moves at once: results merge, and cancelled ones drop
        k, frontier, t = case
        masks = {beta_mask(lam): value for lam, value in frontier.items()}
        removed, added = {}, {}
        for lam, value in frontier.items():
            for mu, sign in rim_hooks_on_tuples(beta_set(lam, len(lam)), t):
                key = beta_mask(partition_from_beta(mu))
                removed[key] = removed.get(key, 0) + sign * value
        for nu in partitions_of(k + t):
            for mu, sign in rim_hooks_on_tuples(beta_set(nu, len(nu)), t):
                value = frontier.get(partition_from_beta(mu), 0)
                added[beta_mask(nu)] = added.get(beta_mask(nu), 0) + sign * value
        assert hook_layer(masks, t) == {key: value for key, value in removed.items() if value}
        assert hook_layer(masks, t, add=True) == {key: value for key, value in added.items() if value}

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda k: st.tuples(
        st.dictionaries(st.sampled_from(list(partitions_of(k))), st.integers(-3, 3)),
        st.dictionaries(st.sampled_from(list(partitions_of(k))), st.integers(-3, 3)),
        st.integers(1, 6), st.booleans())))
    def test_rows_give_the_same_layer(self, case):
        # cold rows, the same rows again (all hits), and rows filled by another frontier
        frontier, other, t, add = case
        masks = {beta_mask(lam): value for lam, value in frontier.items()}
        expected = hook_layer(masks, t, add)
        rows = {}
        assert hook_layer(masks, t, add, rows) == expected
        assert set(rows) == set(masks)
        assert hook_layer(masks, t, add, rows) == expected
        rows = {}
        hook_layer({beta_mask(lam): value for lam, value in other.items()}, t, add, rows)
        assert hook_layer(masks, t, add, rows) == expected
        assert set(rows) == set(masks) | {beta_mask(lam) for lam in other}


def add_hooks(mask, t):
    """(added, sign) for every rim hook of length t added to one mask."""
    return hook_layer({mask: 1}, t, add=True).items()


class TestAddHooks:
    def test_inverse_of_rim_hooks(self):
        # (mu, s) comes from lam exactly when rim_hooks(mu, t) yields (lam, s)
        removals = {}
        for size in range(25):
            for mu in partitions_of(size):
                mask = beta_mask(mu)
                for t in range(1, min(size, 12) + 1):
                    for lam, sign in rim_hooks(mask, t):
                        removals.setdefault((lam, t), []).append((mask, sign))
        for n in range(13):
            for lam in partitions_of(n):
                mask = beta_mask(lam)
                for t in range(1, 13):
                    added = list(add_hooks(mask, t))
                    assert sorted(added) == sorted(removals.get((mask, t), [])), (lam, t)

    def test_examples(self):
        # onto [1]: the 2-hooks give [3] (leg 0) and [1^3] (leg 1); [2,1] has no 2-hook
        assert sorted(add_hooks(beta_mask(Partition([1])), 2)) == sorted(
            [(beta_mask(Partition([1, 1, 1])), -1), (beta_mask(Partition([3])), 1)]
        )
        assert sorted(add_hooks(0, 3)) == sorted(
            (beta_mask(lam), -1 if len(lam) % 2 == 0 else 1) for lam in ([3], [2, 1], [1, 1, 1])
        )

    def test_hooks_onto_the_empty_partition(self):
        # every bead moved comes from below 0: the hooks [t - j, 1^j], sign (-1)^j
        for t in range(1, 13):
            expected = {beta_mask([t - j] + [1] * j): (-1) ** j for j in range(t)}
            assert dict(add_hooks(0, t)) == expected, t

    def test_padded_input_gives_canonical_output(self):
        # beta-set (5, 4, 1, 0) is [2,2] padded to four parts; t = 2 moves the bead at 0
        padded = sum(1 << b for b in beta_set(Partition([2, 2]), 4))
        for t in range(1, 7):
            assert sorted(add_hooks(padded, t)) == sorted(add_hooks(beta_mask(Partition([2, 2])), t)), t


class TestCores:
    def test_examples(self):
        assert p_core(Partition([1, 1]), 2) == Partition()
        assert p_core(Partition([2, 1]), 2) == Partition([2, 1])
        assert p_core(Partition([1] * 8), 2) == Partition()

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            p_core(Partition([3]), 1)

    def test_core_has_no_divisible_hook(self):
        for p in (2, 3, 5):
            for n in range(13):
                for lam in partitions_of(n):
                    core = p_core(lam, p)
                    assert core.size % p == lam.size % p
                    assert all(h % p for row in hook_lengths(core) for h in row)

    def test_matches_rim_hook_surgery_all_orders(self):
        for p in (2, 3, 5):
            for n in range(11):
                for lam in partitions_of(n):
                    outcomes = rim_hook_cores(lam, p)
                    assert outcomes == frozenset([p_core(lam, p)])


def _quotient_mismatches() -> list:
    """(lam, p) for each lam of size <= 14 and p = 2..5 where `p_quotient`
    differs from the quotient read off tuple beta-sets."""
    return [
        (lam, p)
        for p in range(2, 6)
        for m in range(15)
        for lam in partitions_of(m)
        if p_quotient(lam, p) != p_quotient_on_tuples(lam, p)
    ]


class TestQuotients:
    def test_empty(self):
        assert p_quotient(Partition(), 2) == (Partition(), Partition())

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            p_quotient(Partition([2]), 1)

    def test_pinned_slot_for_1_1(self):
        assert p_quotient(Partition([1, 1]), 2) == (Partition([1]), Partition())

    def test_shared_quotient_across_the_correspondence(self):
        # the partner partitions of 8 and 9 carry the same 2-quotient
        assert p_quotient(P("[2,1^6]"), 2) == p_quotient(P("[3,2,1^4]"), 2)
        assert p_quotient(P("[2,1^6]"), 2) == (Partition(), Partition([1, 1, 1, 1]))
        assert p_quotient(P("[4^2]"), 2) == p_quotient(P("[5,3,1]"), 2)

    def test_regression_value(self):
        assert p_quotient(Partition([3, 2, 1, 1, 1]), 2) == (Partition(), Partition([1]))

    def test_matches_tuple_beta_sets(self):
        assert _quotient_mismatches() == []

    def test_tuple_oracle_sees_a_reversed_runner_order(self, monkeypatch):
        real = partitions._split
        monkeypatch.setattr(partitions, "_split", lambda mask, size, p: real(mask, size, p)[::-1])
        assert _quotient_mismatches()

    def test_size_identity(self):
        for p in (2, 3, 5):
            for n in range(16):
                for lam in partitions_of(n):
                    quotient = p_quotient(lam, p)
                    assert lam.size == p_core(lam, p).size + p * sum(
                        q.size for q in quotient
                    )


class TestReconstruction:
    def test_trivial(self):
        assert from_core_and_quotient(Partition(), (Partition(), Partition()), 2) == Partition()
        assert from_core_and_quotient(Partition([2, 1]), (Partition(), Partition()), 2) == Partition([2, 1])

    def test_rejects_non_core(self):
        with pytest.raises(ValueError, match="not a p-core"):
            from_core_and_quotient(Partition([2]), (Partition(), Partition()), 2)
        with pytest.raises(ValueError, match="p must be at least 2"):
            from_core_and_quotient(Partition(), (Partition([1]),), 1)
        with pytest.raises(ValueError, match="exactly 2 components"):
            from_core_and_quotient(Partition(), (Partition(), Partition(), Partition()), 2)

    def test_rejects_exactly_the_non_cores(self):
        # from_core_and_quotient tests that the core's runners are flush
        for p in range(2, 6):
            empty = (Partition(),) * p
            for m in range(11):
                for lam in partitions_of(m):
                    if rim_hook_cores(lam, p) == {lam}:
                        assert from_core_and_quotient(lam, empty, p) == lam
                    else:
                        with pytest.raises(ValueError, match="not a p-core"):
                            from_core_and_quotient(lam, empty, p)

    def test_roundtrip_table_entry(self):
        lam = P("[3,2,1^4]")
        quotient = p_quotient(lam, 2)
        assert from_core_and_quotient(Partition([1]), quotient, 2) == lam

    def test_roundtrip_medium(self):
        for p in (2, 3, 5):
            for n in range(15):
                for lam in partitions_of(n):
                    rebuilt = from_core_and_quotient(p_core(lam, p), p_quotient(lam, p), p)
                    assert rebuilt == lam

    @given(st.lists(st.integers(min_value=1, max_value=9), max_size=9), st.sampled_from([2, 3, 5]))
    @settings(max_examples=150)
    def test_roundtrip_hypothesis(self, parts, p):
        lam = Partition(sorted(parts, reverse=True))
        assert from_core_and_quotient(p_core(lam, p), p_quotient(lam, p), p) == lam


class TestParityCriterion:
    """Core shape read off the parity census of the beta-set."""

    def test_exhaustive(self):
        for n in range(21):
            for lam in partitions_of(n):
                r = len(lam) + (1 if len(lam) % 2 != n % 2 else 0)
                beta = beta_set(lam, r)
                k = sum(1 for b in beta if b % 2 == 0)
                l = r - k
                if n % 2 == 0:
                    assert (p_core(lam, 2) == Partition()) == (k == l)
                else:
                    assert (p_core(lam, 2) == Partition([1])) == (l == k + 1)


class TestSigns:
    def test_shuffle_golden(self):
        assert sign_shuffle(P("[1^8]")) == 1
        assert sign_shuffle(P("[2^4]")) == 1
        assert sign_shuffle(P("[2,1^6]")) == -1

    def test_shuffle_undefined(self):
        with pytest.raises(ValueError, match="sign undefined"):
            sign_shuffle(Partition([2, 1]))  # its own 2-core
        with pytest.raises(ValueError, match="sign undefined"):
            sign_shuffle(Partition([5, 2, 1]))

    def test_shuffle_matches_permutation_definition(self):
        for n in range(21):
            for lam in partitions_of(n):
                try:
                    sign = sign_shuffle(lam)
                except ValueError:
                    sign = None
                assert sign == sign_shuffle_by_permutation(lam), lam

    def test_two_quotient_split_matches_sign_and_quotient(self):
        # one runner split gives the shuffle sign (0 where it is undefined) and the 2-quotient
        for n in range(15):
            for lam in partitions_of(n):
                eps, q0, q1 = _two_quotient(beta_mask(lam), n)
                assert (eps, _from_mask(q0), _from_mask(q1)) == (
                    sign_shuffle_by_permutation(lam) or 0,
                    *p_quotient(lam, 2),
                ), lam

    @pytest.mark.parametrize("odd_size", [0, 1])
    def test_from_two_quotient_inverts_the_split(self, odd_size):
        # the rebuilt bitmask is canonical, has the target's 2-core, and the runner
        # split gives back the quotient and the sign, that of the permutation definition
        core = Partition([1] * odd_size)
        for n in range(13):
            for k in range(n + 1):
                for q0 in partitions_of(k):
                    for q1 in partitions_of(n - k):
                        mask, eps = _from_two_quotient(beta_mask(q0), beta_mask(q1), odd_size)
                        lam = _from_mask(mask)
                        assert mask == beta_mask(lam) and lam.size == 2 * n + odd_size, (q0, q1)
                        split, r0, r1 = _two_quotient(mask, lam.size)
                        assert (split, _from_mask(r0), _from_mask(r1)) == (eps, q0, q1), (q0, q1)
                        assert p_core(lam, 2) == core and eps == sign_shuffle_by_permutation(lam), (q0, q1)

    def test_odd_parts_golden(self):
        assert sign_odd_parts(P("[1^8]")) == 1
        assert sign_odd_parts(P("[2^4]")) == 1
        assert sign_odd_parts(Partition([3, 2, 1, 1, 1, 1])) == 1
        assert sign_odd_parts(Partition([2, 1, 1, 1, 1, 1, 1])) == -1

    def test_agreement_exhaustive(self):
        for n in range(21):
            for lam in partitions_of(n):
                core = p_core(lam, 2)
                if core == Partition() or core == Partition([1]):
                    assert sign_shuffle(lam) == sign_odd_parts(lam), lam


class TestBijection:
    def test_cardinalities(self):
        for n in range(13):
            bipartitions = sum(
                sum(1 for _ in partitions_of(k)) * sum(1 for _ in partitions_of(n - k))
                for k in range(n + 1)
            )
            empty_core = sum(
                1 for lam in partitions_of(2 * n) if p_core(lam, 2) == Partition()
            )
            core_one = sum(
                1 for lam in partitions_of(2 * n + 1) if p_core(lam, 2) == Partition([1])
            )
            assert bipartitions == empty_core == core_one


class TestTextFormat:
    def test_format(self):
        assert format_partition(Partition()) == "[]"
        assert format_partition(Partition([3, 2, 1, 1, 1, 1])) == "[3,2,1^4]"
        assert format_partition(Partition([1] * 9)) == "[1^9]"

    def test_parse_both_notations(self):
        assert parse_partition("[3,2,1^4]") == Partition([3, 2, 1, 1, 1, 1])
        assert parse_partition("[3,2,1,1,1,1]") == Partition([3, 2, 1, 1, 1, 1])
        assert parse_partition("[1^9]") == Partition([1] * 9)
        assert parse_partition("[]") == Partition()
        assert parse_partition(" [ 2^2 , 1 ] ") == Partition([2, 2, 1])

    @pytest.mark.parametrize(
        "bad",
        ["", "[", "3,2", "[0]", "[2,3]", "[1^0]", "[-1]", "[2,]", "[2 3]", "[2,1] junk", "[1^]", "[²]", "[1^²]"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(PartitionParseError):
            parse_partition(bad)

    def test_parse_error_has_position(self):
        # "²" is a digit to str.isdigit but not to int(): it must end the number, not reach int()
        for bad in ("[2,3]", "[²]", "[1^²]"):
            with pytest.raises(PartitionParseError, match="position"):
                parse_partition(bad)

    def test_parse_reads_the_digits_int_reads(self):
        assert parse_partition("[٣,１^2]") == Partition([3, 1, 1])  # Arabic-Indic three, fullwidth one

    def test_part_count_is_bounded_before_expansion(self):
        limit = MAX_LITERAL_PARTS
        assert len(parse_partition("[2^%d,1]" % (limit - 1))) == limit
        assert len(parse_partition("[" + ",".join(["1"] * limit) + "]")) == limit
        for bad in ("[1^%d]" % (limit + 1), "[2^%d,1]" % limit, "[1^1000000000]", "[" + ",".join(["1"] * (limit + 1)) + "]"):
            with pytest.raises(PartitionParseError, match="more than %d parts" % limit):
                parse_partition(bad)

    def test_roundtrip_exhaustive(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert parse_partition(format_partition(lam)) == lam

    @given(st.lists(st.integers(min_value=1, max_value=30), max_size=12))
    def test_roundtrip_hypothesis(self, parts):
        lam = Partition(sorted(parts, reverse=True))
        assert parse_partition(format_partition(lam)) == lam


def test_is_p_core_matches_hooks():
    for n in range(11):
        for lam in partitions_of(n):
            for p in (2, 3):
                by_hooks = all(h % p for row in hook_lengths(lam) for h in row)
                assert is_p_core(lam, p) == by_hooks
