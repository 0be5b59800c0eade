import gc
import random
import weakref
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

import octachar
from octachar import characters, symfunc
from octachar.cli import main
from octachar.characters import centralizer_order
from octachar.partitions import Partition, beta_mask, parse_partition, partitions_of, p_core
from octachar.symfunc import (
    SweepFailure,
    _frobenius_weights,
    _point,
    det,
    factorization_even_sweep,
    factorization_odd_sweep,
    frobenius_sweep,
    mirrored_point,
    mirrored_point_plus,
    random_rationals,
    schur_eval,
    verify_factorization_even,
    verify_factorization_odd,
    verify_frobenius,
)

from oracles import (
    det_cofactor,
    interpolate_coefficients,
    mn_by_recursion,
    power_sum,
    schur_by_tableaux,
    vandermonde,
)


F = Fraction


def P(text):
    return parse_partition(text)


def kernel_point(d, rng):
    """d distinct rationals of height up to 50 with a zero and a negative coordinate."""
    values = random_rationals(d, rng, max_height=50)
    values[0] = -abs(values[0])
    values[-1] = F(0)
    return values


def bialternant(lam, values):
    """det(x_i^e) / det(x_i^(d-j)) through the rational `det`."""
    d = len(values)
    exponents = [part + d - 1 - i for i, part in enumerate(tuple(lam) + (0,) * (d - len(lam)))]
    numerator = det([[F(v) ** e for e in exponents] for v in values])
    return numerator / det([[F(v) ** (d - 1 - j) for j in range(d)] for v in values])


class TestPowerSums:
    def test_basic(self):
        assert power_sum(1, [1, 2]) == 3
        assert power_sum(3, [F(1, 2), 2]) == F(1, 8) + 8

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            power_sum(0, [1])

    def test_odd_power_cancels_on_mirrored_points(self):
        point = mirrored_point([F(2), F(1, 3), F(5)])
        for r in (1, 3, 5, 7):
            assert power_sum(r, point) == 0

    def test_on_mirrored_plus_one(self):
        x = F(3, 7)
        point = mirrored_point_plus([F(2), F(1, 3)], x)
        assert power_sum(3, point) == x**3
        assert power_sum(2, point) == 2 * power_sum(2, [F(2), F(1, 3)]) + x**2


class TestDeterminant:
    def test_against_cofactor(self):
        rng = random.Random(7)
        for d in range(0, 6):
            for _ in range(8):
                rows = [
                    [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
                    for _ in range(d)
                ]
                assert det(rows) == det_cofactor(rows)

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            det([[1, 2]])
        with pytest.raises(ValueError, match="square"):
            det([[1, 2], [3]])


class TestSchurEval:
    def test_standard_rep(self):
        a, b = F(3), F(5, 2)
        assert schur_eval(Partition([1]), [a, b]) == a + b

    def test_one_variable_power(self):
        v = F(7, 3)
        for k in range(1, 6):
            assert schur_eval(Partition([k]), [v]) == v**k

    def test_known_points(self):
        assert schur_eval(Partition([2, 1]), [1, 2, 3]) == 60
        assert schur_eval(Partition([1, 1]), [1, 2, 3]) == 11

    def test_empty_everything(self):
        assert schur_eval(Partition(), []) == 1
        assert schur_eval(Partition(), [F(2)]) == 1

    def test_degenerate_points_match_tableaux(self):
        # repeated and zero coordinates, and fewer coordinates than parts (s_lam = 0)
        rng = random.Random(37)
        points = [[F(2), F(2)], [F(0)], [F(0), F(0), F(-1, 3)], [F(1), F(1), F(1)], [F(-3, 2), F(3, 2), F(-3, 2)], []]
        points += [[rng.choice([F(0), F(1), F(-2, 3)]) for _ in range(d)] for d in (2, 3, 4) for _ in range(2)]
        for values in points:
            for n in range(0, 8):
                for lam in partitions_of(n):
                    expected = schur_by_tableaux(lam, values) if len(lam) <= len(values) else 0
                    assert schur_eval(lam, values) == expected, (lam, values)
        assert schur_eval(Partition([2, 1]), [1, 1, 1]) == 8  # the dimension of that GL_3 irreducible
        assert schur_eval(P("[1^5]"), [1, 2]) == 0

    def test_against_rational_bialternant(self):
        rng = random.Random(41)
        for d in (1, 2, 3, 5, 8):
            for _ in range(2):
                values = kernel_point(d, rng)
                for n in range(0, 9):
                    for lam in partitions_of(n):
                        if len(lam) <= d:
                            assert schur_eval(lam, values) == bialternant(lam, values), (lam, values)

    def test_against_rational_bialternant_at_mirrored_points(self):
        # the sweeps' regime: (X, -X) in 10 and 12 variables, every lam up to 12 boxes
        rng = random.Random(43)
        for d in (10, 12):
            values = mirrored_point(random_rationals(d // 2, rng))
            for n in range(0, 13):
                for lam in partitions_of(n):
                    if len(lam) <= d:
                        assert schur_eval(lam, values) == bialternant(lam, values), (lam, values)

    def test_tall_columns_are_elementary(self):
        # [1^k] in k variables has one tableau, the product of the coordinates
        rng = random.Random(47)
        for k in range(1, 9):
            values = kernel_point(k, rng)[::-1]
            lam = Partition([1] * k)
            assert schur_eval(lam, values) == schur_by_tableaux(lam, values) == prod(values)
        for k in (20, 40):
            values = random_rationals(k, rng, max_height=50)
            assert schur_eval(Partition([1] * k), values) == prod(values)
            assert schur_eval(Partition([1] * (k - 1)), values) == prod(values) * sum(1 / v for v in values)

    def test_long_rows_past_the_kept_sequence(self):
        # s_(a,b)(x, y) = (xy)^b (x^(a-b+1) - y^(a-b+1)) / (x - y), with a beyond
        # the h_k a point keeps
        x, y = F(-2, 3), F(5, 7)
        for a, b in ((symfunc._H_KEPT + 40, 0), (300, 299), (300, 3), (3 * symfunc._H_KEPT, 1)):
            expected = (x * y) ** b * (x ** (a - b + 1) - y ** (a - b + 1)) / (x - y)
            assert schur_eval(Partition([a, b] if b else [a]), [x, y]) == expected, (a, b)

    def test_streamed_and_kept_sequences_agree(self, monkeypatch):
        point = kernel_point(5, random.Random(53))
        lams = [lam for n in range(0, 11) for lam in partitions_of(n) if len(lam) <= 5]
        octachar.clear_caches()
        kept = [schur_eval(lam, point) for lam in lams]
        monkeypatch.setattr(symfunc, "_H_KEPT", 2)
        octachar.clear_caches()
        assert [schur_eval(lam, point) for lam in lams] == kept
        _, _, h = _point(tuple(v.numerator for v in point), tuple(v.denominator for v in point))
        assert len(h) == 2  # every later h_k was streamed

    def test_against_tableau_expansion(self):
        rng = random.Random(11)
        for d in (2, 3, 4):
            for values in (random_rationals(d, rng, max_height=6), kernel_point(d, rng)):
                for n in range(0, 9):
                    for lam in partitions_of(n):
                        if len(lam) > d:
                            continue
                        assert schur_eval(lam, values) == schur_by_tableaux(lam, values), lam

    def test_symmetric_under_permutation(self):
        values = [F(1), F(2), F(5, 3)]
        swapped = [F(2), F(5, 3), F(1)]
        for lam in partitions_of(5):
            if len(lam) <= 3:
                assert schur_eval(lam, values) == schur_eval(lam, swapped)


_distinct_points = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=50), min_size=1, max_size=6, unique=True
)


class TestIntegerKernel:
    @given(values=_distinct_points, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance_and_vandermonde(self, values, data):
        d = len(values)
        parts = data.draw(st.lists(st.integers(min_value=1, max_value=5), max_size=d))
        lam = Partition(sorted(parts, reverse=True))
        permuted = data.draw(st.permutations(values))
        assert schur_eval(lam, values) == schur_eval(lam, permuted)
        nums = [v.numerator for v in values]
        dens = [v.denominator for v in values]
        closed = F(vandermonde(nums, dens), prod(dens) ** (d - 1))
        assert closed == det([[v ** (d - 1 - j) for j in range(d)] for v in values])


def holds_at(xs, x, max_size):
    """Both factorization checks at (X, -X) and (X, -X, x) for every lam up to max_size."""
    for n in range(0, max_size + 1):
        for lam in partitions_of(n):
            assert verify_factorization_even(lam, xs), (lam, xs)
            assert verify_factorization_odd(lam, xs, x), (lam, xs, x)


class TestPoints:
    def test_mirrored_points_take_zero_coordinates(self):
        assert mirrored_point([F(0), F(1)]) == (0, 1, 0, -1)
        assert mirrored_point_plus([F(0)], 0) == (0, 0, 0)
        holds_at([F(0), F(2, 3)], F(0), 8)
        holds_at([F(0)], F(5, 4), 8)

    def test_mirrored_points_take_matching_absolute_values(self):
        assert mirrored_point([F(2), F(-2)]) == (2, -2, -2, 2)
        holds_at([F(2), F(-2), F(1, 3)], F(-1, 2), 8)

    def test_plus_one_takes_a_colliding_extra_value(self):
        assert mirrored_point_plus([F(2)], F(-2)) == (2, -2, -2)
        holds_at([F(2), F(-1, 3)], F(-2), 8)
        holds_at([F(2), F(-1, 3)], F(1, 3), 8)

    def test_generator_constraints(self):
        rng = random.Random(0)
        values = random_rationals(30, rng)
        assert len({abs(v) for v in values}) == 30
        assert all(v != 0 for v in values)
        assert all(abs(v.numerator) <= 20 and v.denominator <= 20 for v in values)

    def test_generator_deterministic(self):
        assert random_rationals(5, random.Random(3)) == random_rationals(5, random.Random(3))

    def test_generator_rejects_more_values_than_exist(self):
        # 255 reduced fractions a/b with 1 <= a, b <= 20
        values = random_rationals(255, random.Random(4))
        assert len({abs(v) for v in values}) == 255
        with pytest.raises(ValueError, match="255 distinct"):
            random_rationals(256, random.Random(4))
        with pytest.raises(ValueError):
            random_rationals(2, random.Random(4), max_height=1)
        # a tall height is not enumerated when the request is small
        assert len(random_rationals(3, random.Random(4), max_height=10**9)) == 3


class TestFrobenius:
    def test_single_box(self):
        assert verify_frobenius(Partition([1]), [F(1), F(7, 2)])

    def test_specific(self):
        assert verify_frobenius(Partition([2, 1]), [F(1), F(2), F(3)])

    def test_sweep(self):
        assert frobenius_sweep(5, seed=0) == 5 * (1 + 2 + 3 + 5 + 7)  # five points at each size, p(1..5) shapes

    def test_weights_are_power_sums_over_centralizers(self):
        # the expansion at mu is sum over rho of chi_mu(rho) p_rho / |Z(rho)|
        point = kernel_point(4, random.Random(17))
        for n in range(0, 7):
            [(expansion, denominator)] = _frobenius_weights(n, [tuple(point)])
            assert set(expansion) <= {beta_mask(mu) for mu in partitions_of(n)}
            for mu in partitions_of(n):
                expected = sum(
                    mn_by_recursion(mu, rho) * prod((power_sum(r, point) for r in rho), start=F(1))
                    / centralizer_order(rho)
                    for rho in partitions_of(n)
                )
                assert F(expansion.get(beta_mask(mu), 0), denominator) == expected

    def test_holds_at_degenerate_points(self):
        for point in ([F(0), F(2)], [F(3), F(3), F(-3)], [F(0)] * 3, [F(1, 2), F(-1, 2), F(0), F(1, 2)]):
            for n in range(1, 8):
                for lam in partitions_of(n):
                    assert verify_frobenius(lam, point), (lam, point)

    def test_fresh_and_passed_weights_agree(self):
        # verify_frobenius builds the weights itself unless a sweep passes them in
        point = random_rationals(4, random.Random(23), max_height=50)
        other = random_rationals(4, random.Random(24), max_height=50)
        for n in range(1, 8):
            weights, wrong = _frobenius_weights(n, [point, other])
            lams = [lam for lam in partitions_of(n) if len(lam) <= 4]
            assert [verify_frobenius(lam, point) for lam in lams] == [True] * len(lams)
            assert [verify_frobenius(lam, point, weights=weights) for lam in lams] == [True] * len(lams)
            assert not all(verify_frobenius(lam, point, weights=wrong) for lam in lams)  # the passed ones are read


class TestSchurCaches:
    def test_cold_and_warm_point_sequences_agree(self):
        # the warm run extends one point's h sequence by short and long rows in turn
        point = kernel_point(6, random.Random(29))
        lams = [lam for n in range(0, 10) for lam in partitions_of(n) if len(lam) <= 6]
        lams = lams[::2] + lams[1::2][::-1]
        cold = []
        for lam in lams:
            octachar.clear_caches()
            cold.append(schur_eval(lam, point))
        octachar.clear_caches()
        warm = [schur_eval(lam, point) for lam in lams]
        info = _point.cache_info()
        assert (info.misses, info.hits) == (1, len(lams) - 1)  # one miss per point
        assert cold == warm
        assert warm == [bialternant(lam, point) for lam in lams]

    def test_repeated_coordinates_are_cached_like_any_point(self):
        octachar.clear_caches()
        point = [F(2), F(1, 3), F(2)]
        values = [schur_eval(lam, point) for lam in (Partition([1]), Partition([2, 1]), Partition([1]))]
        assert values == [F(13, 3), schur_by_tableaux(Partition([2, 1]), point), F(13, 3)]
        info = _point.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


class TestOperationCounts:
    """Work the sweeps do, counted by call, so the guards hold on any machine."""

    def test_determinant_order_is_the_shorter_side(self, monkeypatch):
        shapes, orders = [], []
        evaluate = symfunc.schur_eval
        bareiss = symfunc._det_int_bareiss

        def tracing(lam, values):
            shapes.append(Partition(lam))
            return evaluate(lam, values)

        def counting(m):
            orders.append((len(m), shapes[-1]))
            return bareiss(m)

        monkeypatch.setattr(symfunc, "schur_eval", tracing)
        monkeypatch.setattr(symfunc, "_det_int_bareiss", counting)
        octachar.clear_caches()
        assert factorization_even_sweep(5, 0) == 82
        assert len(orders) == len([lam for lam in shapes if lam]) > 82
        assert all(order <= min(len(lam), lam[0]) for order, lam in orders)
        assert max(order for order, _ in orders) == 5  # [5,1^5]; the bialternant took order 10 at 10 boxes

    def test_columns_are_walked_once_per_size(self, monkeypatch):
        calls = []
        walk = characters.mn_columns

        def counting(classes):
            calls.append(1)
            return walk(classes)

        monkeypatch.setattr(characters, "mn_columns", counting)
        octachar.clear_caches()
        assert frobenius_sweep(6, 0) == 145
        assert len(calls) == 6  # not once per size and point (30)

    def test_no_class_column_outlives_the_sweep(self, monkeypatch):
        class Column(dict):  # a dict subclass takes weak references
            pass

        refs = []
        walk = characters.mn_columns

        def tracked(classes):
            columns = {rho: Column(column) for rho, column in walk(classes).items()}
            refs.extend(weakref.ref(column) for column in columns.values())
            return columns

        monkeypatch.setattr(characters, "mn_columns", tracked)
        octachar.clear_caches()
        assert frobenius_sweep(6, 0) == 145
        gc.collect()
        assert len(refs) == 29  # p(1) + ... + p(6) classes
        assert [ref for ref in refs if ref() is not None] == []  # each size's columns go with its weights

    @pytest.mark.parametrize(
        "name, sweep, items",
        [
            ("verify_frobenius", lambda: frobenius_sweep(6, 0), 145),
            ("verify_factorization_even", lambda: factorization_even_sweep(5, 0), 82),
            ("verify_factorization_odd", lambda: factorization_odd_sweep(4, 0)[0], 95),
        ],
    )
    def test_sweeps_check_each_lam_by_its_public_function(self, monkeypatch, name, sweep, items):
        calls = []
        check = getattr(symfunc, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(symfunc, name, counting)
        assert sweep() == items
        assert len(calls) == items


class TestFactorizationEven:
    def test_column_of_two(self):
        x = F(2, 3)
        point = mirrored_point([x])
        assert schur_eval(Partition([1, 1]), point) == -(x**2)
        assert verify_factorization_even(Partition([1, 1]), [x])

    def test_own_core_vanishes(self):
        # [2,1] is its own 2-core; with 2 parts it fits in 2 variables
        assert schur_eval(Partition([2, 1]), mirrored_point([F(3)])) == 0
        assert verify_factorization_even(Partition([2, 1]), [F(3)])

    def test_sweep(self):
        assert factorization_even_sweep(3, seed=1) > 0

    def test_sweep_failure_reported(self, monkeypatch):
        # sabotage: eps = +1 everywhere; [1^2] has shuffle sign -1 and fails first, at n = 1
        xs = random_rationals(1, random.Random(0))
        assert verify_factorization_even(Partition([1, 1]), xs)
        sabotage(monkeypatch, "plus_sign")
        with pytest.raises(SweepFailure) as failure:
            factorization_even_sweep(5, 0)
        assert str(failure.value) == "even factorization failed at lam=[1^2] X=%s" % (xs,)


class TestFactorizationOdd:
    def test_single_box(self):
        x = F(5, 4)
        assert schur_eval(Partition([1]), (x,)) == x
        assert verify_factorization_odd(Partition([1]), [], x)

    def test_too_many_parts_vanish(self):
        # [1^2] in one variable: s = 0, and so is the factorization through s_[1](x_empty)
        assert schur_eval(Partition([1, 1]), [F(5, 4)]) == 0
        assert verify_factorization_odd(Partition([1, 1]), [], F(5, 4))
        assert verify_factorization_even(P("[2^2,1^2]"), [F(5, 4)])

    @pytest.mark.parametrize("fault, lam", [("plus_sign", "[2,1]"), ("swapped_quotient", "[3]")])
    def test_sweep_failure_reported(self, monkeypatch, fault, lam):
        values = random_rationals(2, random.Random(0))
        assert verify_factorization_odd(P(lam), values[:1], values[1])
        sabotage(monkeypatch, fault)
        with pytest.raises(SweepFailure) as failure:
            factorization_odd_sweep(4, 0)
        assert str(failure.value) == "odd factorization failed at lam=%s X=%s x=%s" % (lam, values[:1], values[1])

    def test_sweep_hits_both_branches(self):
        checked, branch_a, branch_b = factorization_odd_sweep(2, seed=2)
        assert checked > 0
        assert branch_a > 0
        assert branch_b > 0

    def _coefficients_in_x(self, lam, xs, rng):
        degree = sum(lam)
        samples = []
        taken = {abs(v) for v in xs}
        while len(samples) < degree + 1:
            x = random_rationals(1, rng)[0]
            if abs(x) in taken:
                continue
            taken.add(abs(x))
            samples.append((x, schur_eval(lam, mirrored_point_plus(xs, x))))
        return interpolate_coefficients(samples)

    def test_wrong_core_value_divisible_by_x_cubed(self):
        # odd-size partitions whose 2-core is [2,1]: the mirrored-plus-one value,
        # as a polynomial in the last coordinate, has no terms below x^3 (here
        # the vanishing direction makes the whole polynomial zero)
        rng = random.Random(5)
        xs = random_rationals(2, rng)
        for lam in (Partition([4, 3, 2]), Partition([4, 3]), Partition([2, 2, 2, 1])):
            assert p_core(lam, 2) == Partition([2, 1])
            coeffs = self._coefficients_in_x(lam, xs, rng)
            assert coeffs[0] == 0 and coeffs[1] == 0 and coeffs[2] == 0

    def test_odd_polynomial_with_factorized_linear_term(self):
        # for odd-size partitions the value is an odd polynomial in x; with
        # 2-core (1) the linear coefficient is the factorization at x -> 0
        from octachar.partitions import p_quotient, sign_shuffle

        rng = random.Random(9)
        xs = random_rationals(3, rng)
        squares = [v * v for v in xs]
        for lam in (P("[3,2,1^4]"), Partition([4, 2, 1]), Partition([5])):
            coeffs = self._coefficients_in_x(lam, xs, rng)
            assert all(c == 0 for c in coeffs[0::2])
            q0, q1 = p_quotient(lam, 2)
            expected = (
                sign_shuffle(lam)
                * schur_eval(q0, squares)
                * schur_eval(q1, squares + [F(0)])
            )
            assert coeffs[1] == expected
            assert any(c != 0 for c in coeffs)


def sabotage(monkeypatch, fault):
    """Replace the factorization checks' (eps, q0, q1) by a wrong one: eps = +1
    everywhere, or the two quotient runners swapped."""
    real = symfunc._two_quotient

    def plus_sign(mask, size):
        return (1,) + real(mask, size)[1:]

    def swapped_quotient(mask, size):
        eps, q0, q1 = real(mask, size)
        return eps, q1, q0

    monkeypatch.setattr(symfunc, "_two_quotient", {"plus_sign": plus_sign, "swapped_quotient": swapped_quotient}[fault])


@pytest.mark.parametrize(
    "what, fault",
    [("even-fact", "plus_sign"), ("odd-fact", "plus_sign"), ("odd-fact", "swapped_quotient")],
)
def test_cli_exits_1_on_a_sabotaged_factorization(monkeypatch, capsys, what, fault):
    # swapping q0 and q1 leaves s_q0(X^2) s_q1(X^2) as it is, so only odd-fact sees it
    sabotage(monkeypatch, fault)
    assert main(["verify", what]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.startswith("FAIL: ")]
    assert "PASS" not in out
    assert err == ""


def test_sweep_failure_type_exists():
    assert issubclass(SweepFailure, Exception)
