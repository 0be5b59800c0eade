"""Independent brute-force oracles for the test suite.

Nothing here shares algorithms with the library paths it checks: cores are
recomputed by literal diagram surgery, Schur values by semistandard-tableau
enumeration, symmetric-group characters by Young symmetrizer left ideals,
determinants by cofactor expansion, induced characters by summation over
the full group, and B_n class sizes by classifying all 2^n n! signed
permutations (the library takes them from centralizer orders).  Power sums and the closed-form Vandermonde, which no library
route needs, are computed directly.  Rim hooks have two reference routes:
cell-by-cell diagram surgery, and bead moves on tuple beta-sets (the library
moves beads on int bitmasks).  Characters of S_m and B_n have a reference route in the
remove-hooks recursion on tuple beta-sets (the library goes by layers of
bitmasks, and adds hooks for whole columns).  The sign census has a reference
route in the Murnaghan-Nakayama column at the involution class (the library
counts 2-quotients by the paper's identity).

A few small routes that no library path calls live here too, so the library
does not carry them: encoding and decoding a tuple beta-set, the doubled and embedded
classes, the sign character, the odd-part sign that the shuffle sign equals,
and `is_p_core`, which asks the library's `p_core` (the tests check it
against the hook lengths).
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from octachar.partitions import Partition, p_core, partitions_of
from octachar.characters import mn_character, mn_column
from octachar.hyperoctahedral import BnClass
from octachar.census import SignCensus, partition_counts
from octachar.verify import w0_class


# -- small routes that only the tests use -----------------------------------


def beta_set(lam, length: int) -> tuple:
    """Beta-set of lam padded to `length` parts: {lam_i + length - i}, decreasing."""
    lam = tuple(lam)
    if length < len(lam):
        raise ValueError("insufficient beta length: %d < %d parts" % (length, len(lam)))
    padded = lam + (0,) * (length - len(lam))
    return tuple(padded[i] + (length - 1 - i) for i in range(length))


def partition_from_beta(beta):
    """Inverse of beta_set; beta must be strictly decreasing and non-negative."""
    beta = tuple(beta)
    for i, b in enumerate(beta):
        if not isinstance(b, int) or b < 0:
            raise ValueError("beta entries must be non-negative integers, got %r" % (b,))
        if i and beta[i - 1] <= b:
            raise ValueError("beta entries must be strictly decreasing, got %r" % (beta,))
    r = len(beta)
    return Partition(v for v in (beta[i] - (r - 1 - i) for i in range(r)) if v > 0)


def p_quotient_on_tuples(lam, p):
    """p-quotient of lam on a tuple beta-set at the library's padding length:
    the fewest parts, at least len(lam), with the parity of |lam| at p = 2 and
    a multiple of p at p >= 3.  Slot i is the partition whose beta-set is the
    entries congruent to i, minus i, divided by p."""
    lam = Partition(lam)
    length = len(lam)
    while (length - lam.size) % 2 if p == 2 else length % p:
        length += 1
    beta = beta_set(lam, length)
    return tuple(partition_from_beta((b - i) // p for b in beta if b % p == i) for i in range(p))


def is_p_core(lam, p):
    """True when removing p-hooks leaves lam unchanged (the library's p_core)."""
    return p_core(lam, p) == Partition(lam)


def sign_odd_parts(lam):
    """(-1)^k where the number of odd parts is 2k or 2k+1; defined everywhere."""
    k = sum(1 for v in lam if v % 2) // 2
    return -1 if k % 2 else 1


def double_class(rho):
    """Cycle type with every part doubled (a class of S_{2m})."""
    return Partition(2 * v for v in rho)


def sign_of_class(rho):
    """Sign character of S_m at cycle type rho."""
    rho = Partition(rho)
    return -1 if (sum(rho) - len(rho)) % 2 else 1


def embed_class(c):
    """Cycle type in S_2n of a B_n class: each positive cycle twice, negatives doubled."""
    return Partition(sorted(list(c.positive) * 2 + [2 * v for v in c.negative], reverse=True))


# -- permutations of {0..n-1} as image tuples --------------------------------


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[j] for j in q)


def invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cycle_type(p, points=None):
    """Cycle type of p restricted to `points` (default: everything)."""
    if points is None:
        points = range(len(p))
    points = list(points)
    seen = set()
    lengths = []
    for i in points:
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def perm_with_cycle_type(rho):
    """A permutation of {0..n-1} with the given cycle type, consecutive cycles."""
    n = sum(rho)
    img = list(range(n))
    start = 0
    for length in rho:
        for i in range(length - 1):
            img[start + i] = start + i + 1
        img[start + length - 1] = start
        start += length
    return tuple(img)


# -- rim hook surgery on Young diagrams --------------------------------------


def rim_hook_removals(lam, p):
    """All partitions obtained from lam by removing one rim hook of p cells."""
    lam = tuple(lam)
    n = sum(lam)
    if n < p:
        return []
    results = []
    for mu in partitions_of(n - p):
        mu_padded = tuple(mu) + (0,) * (len(lam) - len(mu))
        if len(mu) > len(lam) or any(m > l for m, l in zip(mu_padded, lam)):
            continue
        cells = {
            (i, j) for i in range(len(lam)) for j in range(mu_padded[i], lam[i])
        }
        if any(
            (i, j) in cells and (i + 1, j) in cells and (i, j + 1) in cells and (i + 1, j + 1) in cells
            for (i, j) in cells
        ):
            continue
        # connectivity of the strip
        start = next(iter(cells))
        frontier, seen = [start], {start}
        while frontier:
            i, j = frontier.pop()
            for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if cell in cells and cell not in seen:
                    seen.add(cell)
                    frontier.append(cell)
        if seen == cells:
            results.append(Partition(mu))
    return results


def mask_beads(mask):
    """The beta-set held in a bitmask, as a strictly decreasing tuple."""
    return tuple(b for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1)


def rim_hooks_on_tuples(beta, t):
    """Yield (removed, sign) for every rim hook of length t >= 1 of the partition
    with beta-set beta (a strictly decreasing tuple): each bead move b -> b - t
    onto a free position, with sign (-1)^leg, the leg being the beads strictly
    between.  `removed` is canonical: one bead per part, none at 0."""
    for i, b in enumerate(beta):
        low = b - t
        if low < 0:
            return
        j = i + 1
        while j < len(beta) and beta[j] > low:
            j += 1
        if j < len(beta) and beta[j] == low:
            continue
        removed = beta[:i] + beta[i + 1 : j] + (low,) + beta[j:]
        pad = 0  # beads at 0, 1, ..., pad - 1 carry no part
        while pad < len(removed) and removed[-1 - pad] == pad:
            pad += 1
        if pad:
            removed = tuple(x - pad for x in removed[:-pad])
        yield removed, -1 if (j - i - 1) % 2 else 1


def _canonical_beta(lam):
    return beta_set(lam, len(lam))


def mn_by_recursion(lam, rho):
    """chi_lam(rho) by the Murnaghan-Nakayama recursion: remove a rho_1-hook in
    every way, recurse on the rest of rho."""
    rho = tuple(sorted(rho, reverse=True))

    @lru_cache(maxsize=None)
    def rec(beta, k):
        if k == len(rho):
            return 1
        return sum(sign * rec(removed, k + 1) for removed, sign in rim_hooks_on_tuples(beta, rho[k]))

    return rec(_canonical_beta(lam), 0)


def bn_by_recursion(pair, c):
    """B_n character of pair = (p0, p1) at c = (positive, negative) by the type-B
    recursion: each cycle removes a hook from p0, or from p1 with the sign
    negated for a negative cycle."""
    cycles = tuple(c[0]) + tuple(-v for v in c[1])

    @lru_cache(maxsize=None)
    def rec(beta0, beta1, k):
        if k == len(cycles):
            return 1
        t = cycles[k]
        total = sum(sign * rec(removed, beta1, k + 1) for removed, sign in rim_hooks_on_tuples(beta0, abs(t)))
        for removed, sign in rim_hooks_on_tuples(beta1, abs(t)):
            total += (sign if t > 0 else -sign) * rec(beta0, removed, k + 1)
        return total

    return rec(_canonical_beta(pair[0]), _canonical_beta(pair[1]), 0)


def rim_hook_cores(lam, p):
    """Every terminal partition reachable by repeatedly removing p-hooks, over
    all removal orders.  Order independence means this is a singleton."""
    memo = {}

    def rec(t):
        if t in memo:
            return memo[t]
        nxt = rim_hook_removals(t, p)
        result = (
            frozenset([t]) if not nxt else frozenset().union(*(rec(s) for s in nxt))
        )
        memo[t] = result
        return result

    return rec(Partition(lam))


# -- signed permutations of {+-1..+-n} as image tuples -----------------------
#
# An element is a tuple g of length n with g[i] = image of i+1 in {+-1..+-n};
# the image of -(i+1) is forced to -g[i].


def bn_elements(n):
    """All 2^n n! signed permutations of {+-1..+-n}."""
    return tuple(
        tuple(s * p for s, p in zip(signs, perm))
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    )


def bn_class_of(g):
    """Classify a signed permutation by its positive and negative cycle lengths."""
    n = len(g)
    seen = [False] * n
    pos, neg = [], []
    for i in range(n):
        if seen[i]:
            continue
        j, length, sign = i, 0, 1
        while not seen[j]:
            seen[j] = True
            image = g[j]
            if image < 0:
                sign = -sign
            j = abs(image) - 1
            length += 1
        (pos if sign == 1 else neg).append(length)
    return BnClass(Partition(sorted(pos, reverse=True)), Partition(sorted(neg, reverse=True)))


def signed_compose(g, h):
    """g after h."""
    return tuple(g[x - 1] if x > 0 else -g[-x - 1] for x in h)


def signed_inverse(g):
    inv = [0] * len(g)
    for i, x in enumerate(g):
        if x > 0:
            inv[x - 1] = i + 1
        else:
            inv[-x - 1] = -(i + 1)
    return tuple(inv)


def signed_class_representative(c):
    """A signed permutation with positive cycles c[0] and negative cycles c[1],
    on consecutive points."""
    img = [0] * (sum(c[0]) + sum(c[1]))
    start = 0
    for length, negative in [(v, False) for v in c[0]] + [(v, True) for v in c[1]]:
        for i in range(length - 1):
            img[start + i] = start + i + 2
        img[start + length - 1] = -(start + 1) if negative else start + 1
        start += length
    return tuple(img)


# -- Schur polynomials by semistandard tableaux ------------------------------


def schur_by_tableaux(lam, values):
    """Sum of monomials over semistandard tableaux of shape lam in len(values)
    letters."""
    lam = tuple(lam)
    d = len(values)
    if len(lam) > d:
        raise ValueError("shape too tall for the alphabet")
    vals = [Fraction(v) for v in values]
    total = Fraction(0)

    def gen_row(length, prev):
        def rec(j, last, acc):
            if j == length:
                yield acc
                return
            lo = max(last, prev[j] + 1 if prev is not None else 1)
            for v in range(lo, d + 1):
                yield from rec(j + 1, v, acc + (v,))

        yield from rec(0, 1, ())

    def walk(i, prev, monomial):
        nonlocal total
        if i == len(lam):
            total += monomial
            return
        for row in gen_row(lam[i], prev if i else None):
            m = monomial
            for v in row:
                m *= vals[v - 1]
            walk(i + 1, row, m)

    walk(0, None, Fraction(1))
    return total


def power_sum(r, values):
    """p_r at the point: sum of r-th powers."""
    if r < 1:
        raise ValueError("power sum index must be at least 1")
    return sum((Fraction(v) ** r for v in values), Fraction(0))


# -- determinants by cofactor expansion --------------------------------------


def vandermonde(nums, dens):
    """prod_{i<j} (a_i b_j - a_j b_i): det(x_i^(d-j)) at x_i = a_i/b_i, times prod(b)^(d-1)."""
    out = 1
    for i, (a, b) in enumerate(zip(nums, dens)):
        for c, e in zip(nums[i + 1 :], dens[i + 1 :]):
            out *= a * e - c * b
    return out


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = Fraction(rows[0][j]) * det_cofactor(minor)
        total += -term if j % 2 else term
    return total


# -- symmetric group characters from Young symmetrizer left ideals -----------


def _block_permutations(blocks, n):
    """All permutations of {0..n-1} preserving each block setwise."""
    for pieces in itertools.product(*[itertools.permutations(b) for b in blocks]):
        img = list(range(n))
        for block, piece in zip(blocks, pieces):
            for src, dst in zip(block, piece):
                img[src] = dst
        yield tuple(img)


def young_symmetrizer(lam):
    """Group algebra element sum_{r in rows, q in cols} sgn(q) r*q for the
    canonical row-major tableau of shape lam, as a dict perm -> coefficient."""
    lam = tuple(lam)
    n = sum(lam)
    row_blocks = []
    start = 0
    for part in lam:
        row_blocks.append(list(range(start, start + part)))
        start += part
    conj = [sum(1 for v in lam if v > j) for j in range(lam[0] if lam else 0)]
    col_blocks = [
        [sum(lam[:i]) + j for i in range(conj[j])] for j in range(len(conj))
    ]
    element = {}
    for r in _block_permutations(row_blocks, n):
        for q in _block_permutations(col_blocks, n):
            key = compose(r, q)
            element[key] = element.get(key, 0) + perm_sign(q)
    return element


def sn_character_table_young(n):
    """Character table of S_n computed from left ideals of Young symmetrizers.

    Returns {lam: {rho: value}} over all partitions lam and cycle types rho.
    """
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = {}
    for lam in partitions_of(n):
        element = young_symmetrizer(lam)
        basis = []  # (pivot, row) in reduced row echelon form

        def express(vec):
            coords = []
            for pivot, row in basis:
                c = vec[pivot]
                coords.append(c)
                if c:
                    vec = [a - c * b for a, b in zip(vec, row)]
            assert not any(vec), "vector escaped the ideal"
            return coords

        for h in perms:
            vec = [Fraction(0)] * order
            for k, coeff in element.items():
                vec[index[compose(h, k)]] += coeff
            for pivot, row in basis:
                c = vec[pivot]
                if c:
                    vec = [a - c * b for a, b in zip(vec, row)]
            pivot = next((i for i, v in enumerate(vec) if v), None)
            if pivot is None:
                continue
            lead = vec[pivot]
            row = [v / lead for v in vec]
            for i, (pv, prow) in enumerate(basis):
                c = prow[pivot]
                if c:
                    basis[i] = (pv, [a - c * b for a, b in zip(prow, row)])
            basis.append((pivot, row))

        values = {}
        for rho in partitions_of(n):
            g = perm_with_cycle_type(rho)
            trace = Fraction(0)
            for i, (pivot, row) in enumerate(basis):
                moved = [Fraction(0)] * order
                for j, v in enumerate(row):
                    if v:
                        moved[index[compose(g, perms[j])]] = v
                trace += express(moved)[i]
            assert trace.denominator == 1
            values[rho] = int(trace)
        table[lam] = values
    return table


# -- the shuffle sign by its definition ---------------------------------------


def sign_shuffle_by_permutation(lam):
    """Sign of the permutation that sorts the beta-set by parity, built slot by
    slot and signed by its cycles (the library counts inversions on runners).

    Even |lam|: pad to an even length r; position i of {0..r-1} carries the
    i-th smallest bead, and sorting sends the evens to the even slots and the
    odds to the odd slots, each in increasing order.  Odd |lam|: pad to an odd
    length 2m+1, the reference set is {1..2m+1} with the odds on the odd slots,
    and the sign carries an extra (-1)^m.  None when the 2-core is not () resp.
    (1), where the sign is undefined.
    """
    lam = Partition(lam)
    n = lam.size
    r = len(lam) + (len(lam) % 2 != n % 2)
    beads = sorted(beta_set(lam, r))
    evens = [b for b in beads if b % 2 == 0]
    odds = [b for b in beads if b % 2 == 1]
    if len(odds) - len(evens) != n % 2:
        return None
    slot = {b: 2 * i + n % 2 for i, b in enumerate(evens)}  # 0-based
    slot.update({b: 2 * i + 1 - n % 2 for i, b in enumerate(odds)})
    sign = perm_sign([slot[b] for b in beads])
    return -sign if n % 2 and len(evens) % 2 else sign


# -- induced characters by explicit group sums -------------------------------


def induced_product_character(p0, p1, rho):
    """Character of Ind from S_a x S_b of lam(p0) x lam(p1) at cycle type rho,
    by averaging the block-supported character over all of S_{a+b}."""
    p0, p1 = Partition(p0), Partition(p1)
    a, b = p0.size, p1.size
    n = a + b
    s = perm_with_cycle_type(Partition(sorted(rho, reverse=True)))
    total = 0
    for t in itertools.permutations(range(n)):
        u = compose(invert(t), compose(s, t))
        if all(u[i] < a for i in range(a)):
            total += mn_character(p0, cycle_type(u, range(a))) * mn_character(
                p1, cycle_type(u, range(a, n))
            )
    q, r = divmod(total, factorial(a) * factorial(b))
    assert r == 0
    return q


def centralizer_count(rho):
    """Size of the centralizer of a permutation of cycle type rho, by counting."""
    n = sum(rho)
    g = perm_with_cycle_type(rho)
    return sum(
        1 for t in itertools.permutations(range(n)) if compose(t, g) == compose(g, t)
    )


# -- the sign census by one character column --------------------------------


def sign_census_by_columns(m):
    """The census of `census.sign_census` read off the Murnaghan-Nakayama
    column at the involution class: every value computed, none taken from
    the paper's identity."""
    values = mn_column(w0_class(m)).values()
    pos = sum(1 for v in values if v > 0)
    return SignCensus(m, pos, len(values) - pos, partition_counts(m)[m] - len(values))


# -- exact polynomial interpolation ------------------------------------------


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def interpolate_coefficients(samples):
    """Coefficients (ascending) of the unique polynomial of degree < len(samples)
    through the exact rational points (x, y)."""
    n = len(samples)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(samples):
        poly = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if j == i:
                continue
            poly = poly_mul(poly, [-xj, Fraction(1)])
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, cv in enumerate(poly):
            coeffs[k] += scale * cv
    return coeffs
