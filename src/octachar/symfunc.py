"""Exact rational evaluation of Schur polynomials.

Schur values come from the Jacobi-Trudi determinants (Macdonald I (3.4),
(3.5)) on an integer kernel.  Writing each coordinate as x_i = a_i/b_i, the
point's denominators are cleared once: L = lcm(b_i) and c_i = a_i L / b_i, so
s_lam(x) = s_lam(c) / L^|lam|.  Per point, and kept in a cache keyed by the
integer numerators and denominators, are e_0(c)..e_d(c) (one pass over the
coordinates) and h_0(c), h_1(c), ... up to the largest index a call has
needed (h_k = sum_i (-1)^(i-1) e_i h_(k-i)).  A value is then
det[h_(lam_i - i + j)] of order l(lam), or det[e_(lam'_i - i + j)] of order
lam_1, whichever is smaller, by fraction-free (Bareiss) elimination: an int at
an integer point, and one Fraction at any other.  Cost model: O(d (lam_1 + l)) big-int steps per point for h, then
one determinant of order min(l, lam_1) per value; a long row in few
variables pays for every h_k below its length (h is kept up to `_H_KEPT`
entries per point, and past that only the last d values are held).
The Frobenius sweep builds, per point, the power-sum expansions of all Schur
functions of one size over one denominator, from one `characters.mn_columns`
walk per size; only those weights load the character walk, so a Schur value
or a Littlewood factorization loads no character code.  No symbolic
polynomial ring is involved: both sides of an identity are evaluated exactly
at seeded random rational points.  Both sides of each identity are
homogeneous of degree |lam|, so a sweep clears each point's denominators
once and checks the identity at the integer point c = L x, where it holds
exactly when it holds at x; the checks then build no Fraction, and a
failure still prints the rational point x.  A mismatch refutes the identity;
agreement is evidence, not a decision (Schwartz-Zippel bounds the chance
that a false identity holds at a random point).  Littlewood's factorization
is one rule at (X, -X, x), `_littlewood`, and the check at (X, -X) is its
x = 0 case; it takes the shuffle sign and the 2-quotient of lam from one split
of its bitmask into two runners (`partitions._two_quotient`, at its padding
convention).  `det` stays as the independent rational route that the tests
compare the kernel against.

Point constraints: none.  Both determinants are polynomials in the e_k or
h_k, so any rational point will do, with repeated or zero coordinates, and a
lam with more parts than coordinates gives 0, which is s_lam in that many
variables.  Every identity checked here is a polynomial identity, so it holds
at every point, the mirrored points (X, -X) and (X, -X, x) included.
"""

import random
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from .partitions import Partition, _from_mask, _two_quotient, beta_mask, partitions_of


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


def det(rows) -> "Fraction":
    """Exact determinant of a square matrix of rationals."""
    from fractions import Fraction

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


def schur_eval(lam, values):
    """Schur polynomial s_lam at the given point, as an exact rational: an int
    when every coordinate is an int, a Fraction otherwise."""
    lam = Partition(lam)
    values = tuple(values)
    integral = all(type(v) is int for v in values)
    if not integral:
        from fractions import Fraction

        values = [v if type(v) is Fraction else Fraction(v) for v in values]
    scale, e, h = _point(tuple(v.numerator for v in values), tuple(v.denominator for v in values))
    if not lam:
        return 1 if integral else Fraction(1)
    if len(lam) <= lam[0]:  # det[h_(lam_i - i + j)], of order l(lam)
        parts = lam
        entries = _complete(e, h, {k for r, v in enumerate(lam) for k in range(max(0, v - r), v - r + len(lam))})
    else:  # det[e_(lam'_i - i + j)], of order lam_1
        parts = lam.conjugate()
        entries = dict(enumerate(e))
    order = range(len(parts))
    minor = [[entries.get(part - r + c, 0) for c in order] for r, part in enumerate(parts)]
    value = _det_int_bareiss(minor)
    return value if integral else Fraction(value, scale**lam.size)


@lru_cache(maxsize=64)
def _point(nums: tuple, dens: tuple) -> tuple:
    """(L, e, h) at the point x_i = nums[i]/dens[i] with its denominators
    cleared, c_i = x_i L for L = lcm(dens): e = [e_0(c), ..., e_d(c)] by one
    pass over the coordinates, and h = [h_0(c)], which `_complete` extends."""
    scale = lcm(*dens)
    e = [1] + [0] * len(nums)
    for j, (a, b) in enumerate(zip(nums, dens), 1):
        c = a * (scale // b)
        for k in range(j, 0, -1):
            e[k] += c * e[k - 1]
    return scale, e, [1]


_H_KEPT = 256  # h_k values a point keeps; a longer row streams past them


def _complete(e: list, h: list, wanted: set) -> dict:
    """{k: h_k} for the indices in `wanted`, by h_k = sum_(i=1..d) (-1)^(i-1) e_i h_(k-i).

    `h` is the point's list h_0, h_1, ...; it is extended in place up to
    `_H_KEPT` entries.  Past that only the last d values are held, so a long
    row keeps the entries its determinant reads, not every h_k below it.
    """
    top = max(wanted)
    far = {}
    if top >= len(h):
        d = len(e) - 1
        terms = [(i, v if i % 2 else -v) for i, v in enumerate(e) if i and v]
        recent = h[max(0, len(h) - d) :]  # h_(k-d)..h_(k-1), fewer while k < d
        for k in range(len(h), top + 1):
            value = sum(v * recent[-i] for i, v in terms if i <= k)
            recent.append(value)
            if len(recent) > d:
                del recent[0]
            if k < _H_KEPT:
                h.append(value)
            elif k in wanted:
                far[k] = value
    return {k: h[k] if k < len(h) else far[k] for k in wanted}


def mirrored_point(xs) -> tuple:
    """(x_1..x_m, -x_1..-x_m)."""
    xs = tuple(xs)
    return xs + tuple(-v for v in xs)


def mirrored_point_plus(xs, x) -> tuple:
    """(x_1..x_m, -x_1..-x_m, x)."""
    return mirrored_point(xs) + (x,)


def _frobenius_weights(size: int, points) -> list:
    """One ({beta_mask(mu): sum over rho of chi_mu(rho) w_rho}, denominator)
    per point: the power-sum expansions of the Schur functions of `size`,
    read from every class's column of one `mn_columns` walk that only this
    call holds (an absent mu has the value 0).  Here p_rho/|Z(rho)| =
    w_rho / denominator: with L the lcm of the point's denominators, p_r is
    P_r / L^r for an integer P_r, and 1/|Z(rho)| = class_size(rho) / size!,
    so w_rho = class_size(rho) * prod P_r and the denominator is size! * L^size.
    """
    from .characters import class_size, mn_columns

    classes = [(rho, class_size(rho), column) for rho, column in mn_columns(partitions_of(size)).items()]
    weights = []
    for values in points:
        scale = lcm(*(v.denominator for v in values))
        cleared = [v.numerator * (scale // v.denominator) for v in values]
        sums = [None] + [sum(c**r for c in cleared) for r in range(1, size + 1)]
        expansion = {}
        for rho, count, column in classes:
            weight = count * prod(sums[r] for r in rho)
            for mask, value in column.items():
                expansion[mask] = expansion.get(mask, 0) + value * weight
        weights.append((expansion, factorial(size) * scale**size))
    return weights


def verify_frobenius(lam, values, *, weights=None) -> bool:
    """Check s_lam(point) by power sums; a call without `weights=` walks every class column of |lam|.

    The expansion is the sum over classes rho of chi_lam(rho)/|Z(rho)| *
    p_rho(point).  A sweep over many lam at one point passes that point's
    `weights` from _frobenius_weights(|lam|, points) and walks the columns once.
    """
    lam = Partition(lam)
    if weights is None:
        values = tuple(values)
        [weights] = _frobenius_weights(lam.size, [values])
    expansion, denominator = weights
    return schur_eval(lam, values) * denominator == expansion.get(beta_mask(lam), 0)


def _littlewood(lam, xs, x, point, squares) -> bool:
    """The rule of `verify_factorization_odd` at `point` and `squares`; a zero
    coefficient (eps, or x at odd size) needs the value 0 and evaluates no quotient."""
    lam = Partition(lam)
    value = schur_eval(lam, point)
    eps, q0, q1 = _two_quotient(beta_mask(lam), lam.size)
    coefficient = eps * x if lam.size % 2 else eps
    if not coefficient:
        return value == 0
    return value == coefficient * schur_eval(_from_mask(q0), squares[: len(xs)]) * schur_eval(_from_mask(q1), squares)


def verify_factorization_even(lam, xs, *, point=None, squares=None) -> bool:
    """Littlewood factorization at a mirrored point (X, -X) in 2m variables: the
    odd check's rule at x = 0, as s_lam(X, -X) = s_lam(X, -X, 0), so s_lam
    vanishes at odd size and is otherwise eps * s_{q0}(X^2) s_{q1}(X^2).  A sweep
    over many lam at one X passes `point` = mirrored_point(xs) and `squares` = [x_i^2]."""
    point = mirrored_point(xs) if point is None else point
    return _littlewood(lam, xs, 0, point, [v * v for v in xs] if squares is None else squares)


def verify_factorization_odd(lam, xs, x, *, point=None, squares=None) -> bool:
    """Littlewood factorization at a mirrored-plus-one point (X, -X, x) in 2m+1
    variables: with eps, q0, q1 the shuffle sign and 2-quotient of lam, s_lam is
    eps * s_{q0}(X^2) s_{q1}(X^2, x^2), times x at odd size, where eps = 0 (so s_lam
    vanishes) unless the 2-core is () at even size or (1) at odd size.  A sweep over
    many lam at one (X, x) passes `point` = mirrored_point_plus(xs, x) and `squares` =
    [x_1^2, ..., x_m^2, x^2]."""
    point = mirrored_point_plus(xs, x) if point is None else point
    return _littlewood(lam, xs, x, point, [v * v for v in (*xs, x)] if squares is None else squares)


def random_rationals(count: int, rng: random.Random, max_height: int = 20) -> list:
    """Seeded nonzero rationals with distinct absolute values (height <= max_height).

    The kernel takes any point; the sweeps still draw generic ones, where a
    false identity is less likely to hold by accident (at x_i = 0 or
    x_i = -x_j many terms drop out of both sides)."""
    return _rationals(_draw(count, rng, max_height))


def _draw(count: int, rng: random.Random, max_height: int = 20) -> list:
    """The draws of `random_rationals` as reduced int pairs (a, b), b > 0, with the sign on a."""
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
        a, b = rng.randint(1, max_height), rng.randint(1, max_height)
        g = gcd(a, b)
        a, b = a // g, b // g
        sign = -1 if rng.random() < 0.5 else 1
        if (a, b) in seen:
            continue
        seen.add((a, b))
        out.append((sign * a, b))
    return out


def _rationals(draws) -> list:
    """The draws as Fractions a/b."""
    from fractions import Fraction

    return [Fraction(a, b) for a, b in draws]


def _cleared(draws) -> list:
    """The point of `draws` (x_i = a_i/b_i) times L = lcm(b_i): the integers c_i = a_i L / b_i."""
    scale = lcm(*(b for _, b in draws))
    return [a * (scale // b) for a, b in draws]


# -- sweep drivers shared by the CLI and the test suite ----------------------


class SweepFailure(Exception):
    """Carries the first counterexample of a verification sweep."""


_POINTS_PER_SIZE = 5  # seeded points the Frobenius sweep checks each size at


def frobenius_sweep(max_size: int, seed: int) -> int:
    """Check the power-sum expansion for every lam with |lam| <= max_size at
    seeded random points; returns the number of identities checked."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1, got %d" % max_size)
    rng = random.Random(seed)
    checked = 0
    for m in range(1, max_size + 1):
        draws = [_draw(m, rng) for _ in range(_POINTS_PER_SIZE)]
        points = [_cleared(draw) for draw in draws]
        weights = _frobenius_weights(m, points)
        for lam in partitions_of(m):
            for draw, point, point_weights in zip(draws, points, weights):
                if not verify_frobenius(lam, point, weights=point_weights):
                    raise SweepFailure(
                        "frobenius failed at lam=%s point=%s" % (lam, _rationals(draw))
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
        draw = _draw(n, rng)
        xs = _cleared(draw)
        point, squares = mirrored_point(xs), [v * v for v in xs]
        for lam in partitions_of(2 * n):
            if not verify_factorization_even(lam, xs, point=point, squares=squares):
                raise SweepFailure(
                    "even factorization failed at lam=%s X=%s" % (lam, _rationals(draw))
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
    checked, hits = 0, [0, 0]  # lam with a nonvanishing branch, by the parity of |lam|
    for n in range(1, max_n + 1):
        draw = _draw(n + 1, rng)
        values = _cleared(draw)
        xs, x = values[:n], values[n]
        point, squares = mirrored_point_plus(xs, x), [v * v for v in values]
        for size in (2 * n + 1, 2 * n):
            for lam in partitions_of(size):
                if not verify_factorization_odd(lam, xs, x, point=point, squares=squares):
                    rationals = _rationals(draw)
                    raise SweepFailure(
                        "odd factorization failed at lam=%s X=%s x=%s" % (lam, rationals[:n], rationals[n])
                    )
                checked += 1
                if _two_quotient(beta_mask(lam), size)[0]:
                    hits[size % 2] += 1
    return checked, hits[1], hits[0]
