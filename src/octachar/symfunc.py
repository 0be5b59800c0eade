"""Exact rational evaluation of Schur polynomials.

Schur values come from the bialternant det(x_i^(lam_j + d - j)) / det(x_i^(d-j))
on an integer kernel.  Writing each coordinate as x_i = a_i/b_i, the point's
denominators are cleared once: the numerator rows are the integers
a_i^e * b_i^(top-e), whose determinant is taken by fraction-free (Bareiss)
elimination, and the Weyl denominator is the closed-form Vandermonde
prod_{i<j} (a_i b_j - a_j b_i).  One Fraction is built per value.  The
power-sum expansions of all Schur functions of one size are cached per point,
over one denominator, from the character columns of all classes of that size,
built in one walk (`characters.mn_columns`).
No symbolic polynomial ring is involved: the factorization identities are
checked by evaluating both sides at rational points, which decides polynomial
identities exactly when swept over seeded random points.  Both Littlewood
factorizations take the 2-core, the 2-quotient and the shuffle sign from
`partitions`, at its padding convention.  `det` stays as the independent
rational route that the tests compare the kernel against.

Point constraints: the bialternant needs pairwise distinct coordinates, so the
mirrored point (X, -X) needs the |x_i| distinct and nonzero, and (X, -X, x)
additionally needs |x| distinct from every |x_i|.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from .partitions import Partition, beta_mask, beta_set, p_core, p_quotient, partitions_of, sign_shuffle
from .characters import class_size, mn_columns


def _det_int_bareiss(m: list) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    Every division below is exact (Bareiss invariant: entries stay minors of
    the original matrix), which bounds intermediate growth.
    """
    rows = [list(row) for row in m]
    if not rows:
        return 1
    sign = 1
    prev = 1
    # Each step eliminates the first column and keeps only the trailing block.
    while len(rows) > 1:
        k = next((i for i, row in enumerate(rows) if row[0] != 0), None)
        if k is None:
            return 0
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            sign = -sign
        top = rows[0]
        pivot = top[0]
        rows = [
            [(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
            for row in rows[1:]
        ]
        prev = pivot
    return sign * rows[0][0]


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of rationals."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(
            "determinant needs a square matrix, got row lengths %s for %d rows"
            % ([len(row) for row in rows], len(rows))
        )
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
    vals = [v if type(v) is Fraction else Fraction(v) for v in values]
    d = len(vals)
    if len(lam) > d:
        raise ValueError(
            "too many parts: %d parts in %d variables" % (len(lam), d)
        )
    nums = [v.numerator for v in vals]
    dens = [v.denominator for v in vals]
    # Fractions are normalized, so equal values have equal (numerator, denominator).
    if len(set(zip(nums, dens))) != d:
        raise ValueError("Weyl denominator vanishes: point values must be distinct")
    if d == 0:
        return Fraction(1)
    exponents = beta_set(lam, d)
    top = exponents[0]
    numerator = _det_int_bareiss(
        [[a**e * b ** (top - e) for e in exponents] for a, b in zip(nums, dens)]
    )
    # det(x_i^e) = numerator / prod(b)^top and the Weyl denominator is
    # vandermonde / prod(b)^(d-1), so prod(b) is left to the power lam_1.
    return Fraction(numerator, _vandermonde(nums, dens) * prod(dens) ** (top + 1 - d))


def _vandermonde(nums, dens) -> int:
    """prod_{i<j} (a_i b_j - a_j b_i): det(x_i^(d-j)) at x_i = a_i/b_i, times prod(b)^(d-1)."""
    out = 1
    for i, (a, b) in enumerate(zip(nums, dens)):
        for c, e in zip(nums[i + 1 :], dens[i + 1 :]):
            out *= a * e - c * b
    return out


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


@lru_cache(maxsize=64)
def _frobenius_weights(size: int, values: tuple) -> tuple:
    """Power-sum expansions of the Schur functions of `size` at the point, as
    ({beta_mask(mu): sum over rho of chi_mu(rho) w_rho}, denominator), read
    from the columns of every class (an absent mu has the value 0).  Here
    p_rho/|Z(rho)| = w_rho / denominator: with L the lcm of the point's
    denominators, p_r is P_r / L^r for an integer P_r, and
    1/|Z(rho)| = class_size(rho) / size!, so w_rho = class_size(rho) * prod P_r
    and the denominator is size! * L^size.
    """
    scale = lcm(*(v.denominator for v in values))
    cleared = [v.numerator * (scale // v.denominator) for v in values]
    sums = [None] + [sum(c**r for c in cleared) for r in range(1, size + 1)]
    expansion = {}
    for rho, column in mn_columns(partitions_of(size)).items():
        weight = class_size(rho) * prod(sums[r] for r in rho)
        for mask, value in column.items():
            expansion[mask] = expansion.get(mask, 0) + value * weight
    return expansion, factorial(size) * scale**size


def verify_frobenius(lam, values) -> bool:
    """Check s_lam(point) against the power-sum expansion with character coefficients:
    sum over classes rho of chi_lam(rho)/|Z(rho)| * p_rho(point)."""
    lam = Partition(lam)
    values = tuple(Fraction(v) for v in values)
    lhs = schur_eval(lam, values)
    expansion, denominator = _frobenius_weights(lam.size, values)
    return lhs == Fraction(expansion.get(beta_mask(lam), 0), denominator)


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

    Read off the 2-core and the 2-quotient (q0, q1) of lam.  If the 2-core is
    neither () nor (1) the Schur value must vanish.  Otherwise it is
    eps * s_{q0}(X^2) s_{q1}(X^2, x^2), times x when the 2-core is (1).
    """
    lam = Partition(lam)
    value = schur_eval(lam, mirrored_point_plus(xs, x))
    core = p_core(lam, 2)
    if core not in ((), (1,)):
        return value == 0
    q0, q1 = p_quotient(lam, 2)
    squares = [Fraction(v) ** 2 for v in xs]
    rhs = sign_shuffle(lam) * schur_eval(q0, squares) * schur_eval(q1, squares + [Fraction(x) ** 2])
    return value == (rhs * Fraction(x) if core else rhs)


def random_rationals(count: int, rng: random.Random, max_height: int = 20) -> list:
    """Seeded nonzero rationals with distinct absolute values (height <= max_height)."""
    # a/1 and 1/a alone give 2 * max_height - 1 values; count the rest only
    # when a request could exceed them, so the count costs no more than the draws.
    if count > 2 * max_height - 1:
        span = range(1, max_height + 1)
        available = sum(1 for a in span for b in span if gcd(a, b) == 1)
        if count > available:
            raise ValueError(
                "only %d distinct absolute values a/b with 1 <= a, b <= %d, %d requested"
                % (available, max_height, count)
            )
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
