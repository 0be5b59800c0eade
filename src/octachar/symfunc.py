"""Exact rational evaluation of Schur polynomials and power sums.

Schur values come from the bialternant det(x_i^(lam_j + d - j)) / det(x_i^(d-j));
both determinants go through fraction-free (Bareiss) elimination after clearing
row denominators, so all intermediate arithmetic is on integers.  No symbolic
polynomial ring is involved: the factorization identities are checked by
evaluating both sides at rational points, which decides polynomial identities
exactly when swept over seeded random points.

Point constraints: the bialternant needs pairwise distinct coordinates, so the
mirrored point (X, -X) needs the |x_i| distinct and nonzero, and (X, -X, x)
additionally needs |x| distinct from every |x_i|.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod

from .partitions import Partition, beta_set, partition_from_beta, p_core, p_quotient, partitions_of, sign_shuffle
from .characters import centralizer_order, mn_character


def power_sum(r: int, values) -> Fraction:
    """p_r at the point: sum of r-th powers."""
    if r < 1:
        raise ValueError("power sum index must be at least 1")
    return sum((Fraction(v) ** r for v in values), Fraction(0))


def _det_int_bareiss(m: list) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    Every division below is exact (Bareiss invariant: entries stay minors of
    the original matrix), which bounds intermediate growth.
    """
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of rationals."""
    rows = [[Fraction(v) for v in row] for row in rows]
    scale = Fraction(1)
    cleared = []
    for row in rows:
        m = lcm(*(v.denominator for v in row)) if row else 1
        scale *= m
        cleared.append([int(v * m) for v in row])
    return Fraction(_det_int_bareiss(cleared)) / scale


def schur_eval(lam, values) -> Fraction:
    """Schur polynomial s_lam at the given point, as an exact rational."""
    lam = Partition(lam)
    vals = [Fraction(v) for v in values]
    d = len(vals)
    if len(lam) > d:
        raise ValueError(
            "too many parts: %d parts in %d variables" % (len(lam), d)
        )
    if len(set(vals)) != d:
        raise ValueError("Weyl denominator vanishes: point values must be distinct")
    if d == 0:
        return Fraction(1)
    exponents = beta_set(lam, d)
    numerator = det([[v**e for e in exponents] for v in vals])
    denominator = det([[v**e for e in range(d - 1, -1, -1)] for v in vals])
    return numerator / denominator


def mirrored_point(xs) -> tuple:
    """(x_1..x_m, -x_1..-x_m); requires nonzero values with distinct absolute values."""
    xs = tuple(Fraction(v) for v in xs)
    if any(v == 0 for v in xs):
        raise ValueError("mirrored point values must be nonzero")
    if len({abs(v) for v in xs}) != len(xs):
        raise ValueError("mirrored point values must have distinct absolute values")
    return xs + tuple(-v for v in xs)


def mirrored_point_plus(xs, x) -> tuple:
    """(x_1..x_m, -x_1..-x_m, x) with the same distinctness constraints."""
    base = mirrored_point(xs)
    x = Fraction(x)
    if x == 0 or abs(x) in {abs(v) for v in base}:
        raise ValueError("extra value must be nonzero with a fresh absolute value")
    return base + (x,)


def verify_frobenius(lam, values) -> bool:
    """Check s_lam(point) against the power-sum expansion with character coefficients:
    sum over classes rho of chi_lam(rho)/|Z(rho)| * p_rho(point)."""
    lam = Partition(lam)
    lhs = schur_eval(lam, values)
    rhs = Fraction(0)
    for rho in partitions_of(lam.size):
        coeff = Fraction(mn_character(lam, rho), centralizer_order(rho))
        rhs += coeff * prod((power_sum(r, values) for r in rho), start=Fraction(1))
    return lhs == rhs


def verify_factorization_even(lam, xs) -> bool:
    """Littlewood factorization at a mirrored point (X, -X) in 2m variables.

    Nonempty 2-core: the Schur value must vanish.  Empty 2-core: the value must
    equal the shuffle sign times s_{q0}(X^2) s_{q1}(X^2) over the 2-quotient.
    """
    lam = Partition(lam)
    point = mirrored_point(xs)
    value = schur_eval(lam, point)
    if p_core(lam, 2):
        return value == 0
    q0, q1 = p_quotient(lam, 2)
    squares = [Fraction(v) ** 2 for v in xs]
    return value == sign_shuffle(lam) * schur_eval(q0, squares) * schur_eval(q1, squares)


def verify_factorization_odd(lam, xs, x) -> bool:
    """Factorization at a mirrored-plus-one point (X, -X, x) in 2m+1 variables.

    With beta-numbers taken at exactly 2m+1 parts, let k and l count the even
    and odd entries.  If |k - l| != 1 the Schur value must vanish.  If
    l = k + 1 (2-core (1)) the value is eps * x * s_{q0}(X^2) s_{q1}(X^2, x^2);
    if k = l + 1 (empty 2-core) it is eps * s_{q1}(X^2) s_{q0}(X^2, x^2), where
    (q0, q1) decode the even resp. odd beta-entries at this padding.
    """
    lam = Partition(lam)
    point = mirrored_point_plus(xs, x)
    d = len(point)
    if len(lam) > d:
        raise ValueError("too many parts: %d parts in %d variables" % (len(lam), d))
    value = schur_eval(lam, point)

    beta = beta_set(lam, d)
    evens = tuple(b // 2 for b in beta if b % 2 == 0)
    odds = tuple((b - 1) // 2 for b in beta if b % 2 == 1)
    if abs(len(evens) - len(odds)) != 1:
        return value == 0
    q_even = partition_from_beta(evens)
    q_odd = partition_from_beta(odds)
    eps = sign_shuffle(lam)
    squares = [Fraction(v) ** 2 for v in xs]
    extended = squares + [Fraction(x) ** 2]
    if len(odds) == len(evens) + 1:
        rhs = eps * Fraction(x) * schur_eval(q_even, squares) * schur_eval(q_odd, extended)
    else:
        rhs = eps * schur_eval(q_odd, squares) * schur_eval(q_even, extended)
    return value == rhs


def random_rationals(count: int, rng: random.Random, max_height: int = 20) -> list:
    """Seeded nonzero rationals with distinct absolute values (height <= max_height)."""
    out = []
    seen = set()
    while len(out) < count:
        v = Fraction(rng.randint(1, max_height), rng.randint(1, max_height))
        if rng.random() < 0.5:
            v = -v
        if abs(v) in seen:
            continue
        seen.add(abs(v))
        out.append(v)
    return out


# -- sweep drivers shared by the CLI and the test suite ----------------------


class SweepFailure(Exception):
    """Carries the first counterexample of a verification sweep."""


def frobenius_sweep(max_size: int, seed: int, points_per_size: int = 5) -> int:
    """Check the power-sum expansion for every lam with |lam| <= max_size at
    seeded random points; returns the number of identities checked."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1, got %d" % max_size)
    rng = random.Random(seed)
    checked = 0
    for m in range(1, max_size + 1):
        points = [random_rationals(m, rng) for _ in range(points_per_size)]
        for lam in partitions_of(m):
            for point in points:
                if not verify_frobenius(lam, point):
                    raise SweepFailure(
                        "frobenius failed at lam=%s point=%s" % (lam, point)
                    )
                checked += 1
    return checked


def factorization_even_sweep(max_n: int, seed: int) -> int:
    """Check the even factorization for every lam of 2n, n <= max_n, at a seeded
    mirrored point on n values; returns the number of identities checked."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1, got %d" % max_n)
    rng = random.Random(seed)
    checked = 0
    for n in range(1, max_n + 1):
        xs = random_rationals(n, rng)
        for lam in partitions_of(2 * n):
            if not verify_factorization_even(lam, xs):
                raise SweepFailure(
                    "even factorization failed at lam=%s X=%s" % (lam, xs)
                )
            checked += 1
    return checked


def factorization_odd_sweep(max_n: int, seed: int) -> tuple:
    """Check the odd-arity factorization at seeded points (X, -X, x) on n values.

    Sweeps every lam of 2n+1 (vanishing or 2-core (1)) and of 2n (vanishing or
    empty 2-core), so both branch shapes occur.  Returns (checked, branch_a,
    branch_b) with the counts of 2-core-(1) and empty-2-core cases hit.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1, got %d" % max_n)
    rng = random.Random(seed)
    checked = branch_a = branch_b = 0
    for n in range(1, max_n + 1):
        values = random_rationals(n + 1, rng)
        xs, x = values[:n], values[n]
        for size in (2 * n + 1, 2 * n):
            for lam in partitions_of(size):
                if not verify_factorization_odd(lam, xs, x):
                    raise SweepFailure(
                        "odd factorization failed at lam=%s X=%s x=%s" % (lam, xs, x)
                    )
                checked += 1
                core = p_core(lam, 2)
                if core == Partition((1,)):
                    branch_a += 1
                elif not core:
                    branch_b += 1
    return checked, branch_a, branch_b
