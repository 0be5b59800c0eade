"""End-to-end harnesses: correspondence tables, dimension matches, theorem sweeps.

These drive the other modules over whole families of partitions and classes.
They read characters by columns: the table and the dimension match read the
column at `w0_class(m)`, the table each row's theta at its basechange bitmask,
and both take the B_n dimensions from one table of `dimension` per partition
(`_bn_dimensions`).  The sweep streams the columns of every n at once from
three `characters._walk`s in lockstep (B_n at (rho|()), S_2n at 2rho and
S_2n+1 at 2rho + (1)) and compares each S_m column whole with the B_n column
at its norm, re-keyed by basechange bitmask and signed, before the walks move
on.  It checks the B_n columns of n <= 4 against an independent group-sum
oracle that induces from B_a x B_b (`_bruteforce_column`), kept here beside
its one caller.  Both the table and the sweep read a pair's basechange bitmask
and shuffle sign off one abacus join of its two quotient bitmasks
(`partitions._from_two_quotient`, over `partitions._join`).  The sweep can
farm the values of n out to worker processes, one n each; it imports
`multiprocessing` only when it starts more than one, so a run that starts no
pool does not pay for loading it.  The records are `NamedTuple`s and one
plain class, not dataclasses, for the same reason.
"""

from collections import Counter, defaultdict
from itertools import product
from math import comb, prod
from typing import NamedTuple

from .partitions import Partition, _TARGET_CORES, _from_mask, _from_two_quotient, _partition, _target_core
from .partitions import beta_mask, hook_layer, partitions_of
from .characters import _pair_layer, _walk, dimension, even_cycle_classes, mn_character, mn_column
from .hyperoctahedral import BnClass, _signed_cycles, bipartitions_of, norm


def w0_class(m: int) -> Partition:
    """Cycle type of the involution pairing off the points of S_m: [2^(m/2)],
    with a fixed point appended when m is odd."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return Partition([2] * (m // 2) + [1] * (m % 2))


class CorrespondenceRow(NamedTuple):
    """One line of the 2n <-> 2n+1 correspondence through a bipartition.

    `sign` is the shuffle sign of lambda_even, so theta_even = sign * bn_dim;
    theta_odd carries its own sign.
    """

    lambda_even: Partition
    lambda_odd: Partition
    theta_even: int
    theta_odd: int
    sign: int
    bn_dim: int


class TableResult(NamedTuple):
    n: int
    rows: tuple
    excluded_even: tuple
    excluded_odd: tuple


def build_table(n: int) -> TableResult:
    """Rows for every bipartition of n, sorted by lambda_even, plus the
    partitions of 2n and 2n+1 whose character vanishes on the involution class.
    A row's thetas are the involution columns' entries at its basechange bitmasks."""
    if n < 1:
        raise ValueError("n must be at least 1")
    col_even, col_odd = mn_column(w0_class(2 * n)), mn_column(w0_class(2 * n + 1))
    rows = []
    for pair, bn_dim in zip(bipartitions_of(n), _bn_dimensions(n), strict=True):
        key = beta_mask(pair[0]), beta_mask(pair[1])
        (even, sign), (odd, _) = _from_two_quotient(*key, 0), _from_two_quotient(*key, 1)
        theta_even, theta_odd = col_even.get(even, 0), col_odd.get(odd, 0)
        rows.append(CorrespondenceRow(_from_mask(even), _from_mask(odd), theta_even, theta_odd, sign, bn_dim))
    rows.sort(key=lambda row: row.lambda_even)
    excluded_even = tuple(lam for lam in sorted(partitions_of(2 * n)) if beta_mask(lam) not in col_even)
    excluded_odd = tuple(lam for lam in sorted(partitions_of(2 * n + 1)) if beta_mask(lam) not in col_odd)
    return TableResult(n, tuple(rows), excluded_even, excluded_odd)


def _bn_dimensions(n: int) -> list:
    """C(n, |p0|) dim(p0) dim(p1) for every (p0, p1) in `bipartitions_of(n)`
    order, from one `dimension` per partition of each k <= n."""
    dims = [[dimension(lam) for lam in partitions_of(k)] for k in range(n + 1)]
    return [comb(n, k) * a * b for k in range(n + 1) for a in dims[k] for b in dims[n - k]]


def _map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], on min(jobs, len(items)) worker processes
    when that is more than one, else in this process."""
    workers = min(jobs, len(items))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, items, chunksize=1)
    return [fn(item) for item in items]


def dimension_match(n: int, target: str) -> bool:
    """True when B_n irreducible dimensions and the nonzero |character at the
    involution| over S_2n (or S_2n+1) agree as multisets."""
    if n < 1:
        raise ValueError("n must be at least 1")
    thetas = sorted(abs(v) for v in mn_column(w0_class(2 * n + _target_core(target).size)).values())
    return sorted(_bn_dimensions(n)) == thetas


class SweepReport:
    def __init__(self):
        self.checked = 0
        self.oracle_checked = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures


def _sweep_one_bipartition(failures, pair, key, target, odd_size, named) -> tuple:
    """The per-pair step at one target: (basechange bitmask, shuffle sign) of
    `pair` from its mask pair `key`, entered in `named` as mask -> (pair, key, eps)."""
    mask, eps = _from_two_quotient(*key, odd_size)
    if mask in named:
        failures.append("basechange not injective: %s and %s both map to %s (target=%s)" % (
            named[mask][0], pair, _from_mask(mask), target))
    named[mask] = pair, key, eps
    return mask, eps


_ORACLE_MAX = 4  # the largest n whose B_n columns the sweep checks against the oracle


def _bruteforce_column(c: BnClass) -> dict:
    """Oracle column {(beta_mask(p0), beta_mask(p1)): character} at the class c
    of B_n (n <= 6), each irreducible induced from A = B_a x B_b with
    a = |p0|, b = |p1|.

    On A the inducing character is chi_p0 on B_a times chi_p1 twisted by the
    signs on B_b, i.e. (-1)^(negative cycles), each read at the underlying cycle
    type.  Ind_A^G psi(c) is the sum over the splits of c's cycles into classes
    c0 of B_a and c1 of B_b of |Z(c)| / (|Z(c0)| |Z(c1)|) psi(c0, c1).  A class
    (alpha|beta) has centralizer order 2^(l(alpha)+l(beta)) z_alpha z_beta
    (Geck-Pfeiffer 2000), so when k of the m cycles of each (length, sign) go
    to B_a the weight is the product of the binomials C(m, k): an integer.  One
    split serves every (p0, p1) of its sizes, as the outer product of the S_a
    values at c0 and the S_b values at c1, each top-down by `mn_character`.
    """
    if c.n > 6:
        raise ValueError("oracle scale exceeded: n = %d > 6" % c.n)
    kinds = Counter(_signed_cycles(c))  # cycle length, negated when negative -> count
    column = {}
    for split in product(*(range(m + 1) for m in kinds.values())):  # k of each kind go to B_a
        c0 = _partition(abs(t) for t, k in zip(kinds, split) for _ in range(k))  # kinds come longest first
        rest = [(t, m - k) for (t, m), k in zip(kinds.items(), split)]  # r of each kind go to B_b
        c1 = _partition(abs(t) for t, r in rest for _ in range(r))
        weight = prod(map(comb, kinds.values(), split)) * (-1) ** sum(r for t, r in rest if t < 0)
        values1 = [(beta_mask(p1), mn_character(p1, c1)) for p1 in partitions_of(c1.size)]
        for p0 in partitions_of(c0.size):
            mask0, value0 = beta_mask(p0), weight * mn_character(p0, c0)
            for mask1, value1 in values1:
                column[mask0, mask1] = column.get((mask0, mask1), 0) + value0 * value1
    return {key: value for key, value in column.items() if value}


def _sweep(ns) -> SweepReport:
    """The sweep over the values of n in `ns` (ascending) in one pass: three
    walks in lockstep over the classes rho of every n, the B_n walk at (rho|())
    and the S_m walks at 2rho and 2rho + (1).  Sorted by ascending cycle
    lengths, the three walks visit the classes in one order; a step whose
    norm(w, target) is not the B_n key raises.  A B_n column of n <=
    _ORACLE_MAX must equal the oracle's, and each S_m column at w must equal
    theta = {basechange mask of key: eps * value} over the B_n column, so a
    value off the basechange image must be 0.  Only the walk stacks, the pairs
    and their basechange images outlive a class.  Failures come per n: the oracle's
    (pair, then class), then per target the injectivity failures (pair order)
    and the masks where the two columns differ (class, then bitmask order)."""
    report, found = SweepReport(), defaultdict(list)  # (n, stage, order...) -> failures
    mask_of = {lam: beta_mask(lam) for k in range(ns[-1] + 1) for lam in partitions_of(k)}
    pairs = {n: [(pair, (mask_of[pair[0]], mask_of[pair[1]])) for pair in bipartitions_of(n)] for n in ns}
    sides = [(target, core.size, {}, {}) for target, core in _TARGET_CORES.items()]  # named and image per target
    for n in ns:
        for t, (target, odd_size, named, image) in enumerate(sides):
            failures = found[n, 1 + 2 * t]
            for pair, key in pairs[n]:
                image[key] = _sweep_one_bipartition(failures, pair, key, target, odd_size, named)
    position = {BnClass(rho, Partition()): i for n in ns for i, rho in enumerate(partitions_of(n))}
    walks = [_walk({(0, 0): 1}, {h: h.positive[::-1] for h in position}, _pair_layer)] + [
        _walk({0: 1}, {w: w[::-1] for n in ns for w in even_cycle_classes(2 * n + odd_size)}, hook_layer)
        for _, odd_size, _, _ in sides]
    for (h, b_column), *s_steps in zip(*walks, strict=True):
        n = h.n
        if n <= _ORACLE_MAX:
            oracle = _bruteforce_column(h)
            for i, (pair, key) in enumerate(pairs[n] if oracle != b_column else ()):
                if oracle.get(key, 0) != b_column.get(key, 0):
                    found[n, 0, i, position[h]].append("oracle mismatch: pair=%s class=%s" % (pair, h))
            report.oracle_checked += len(pairs[n])
        for t, ((target, _, named, image), (w, s_column)) in enumerate(zip(sides, s_steps)):
            if norm(w, target) != h:
                raise RuntimeError("sweep walks out of step: %s (target=%s) against %s" % (w, target, h))
            theta = {mask: eps * value for (mask, eps), value in zip(map(image.get, b_column), b_column.values())}
            for mask in sorted({mask for mask, _ in theta.items() ^ s_column.items()}) if theta != s_column else ():
                if mask in named:
                    pair, key, eps = named[mask]
                    failure = "identity fails: pair=%s target=%s w=%s: %d != %d * %d" % (
                        pair, target, w, s_column.get(mask, 0), eps, b_column.get(key, 0))
                else:
                    failure = "identity fails: lambda=%s (no pair's basechange) target=%s w=%s: %d != 0" % (
                        _from_mask(mask), target, w, s_column[mask])
                found[n, 2 + 2 * t, position[h]].append(failure)
            report.checked += len(pairs[n])
    for stage in sorted(found):
        report.failures += found[stage]
    return report


def main_theorem_sweep(n_max: int, jobs: int = 1) -> SweepReport:
    """Exhaustively check, for every bipartition of n <= n_max and every class w
    of S_2n / S_2n+1 that is a product of even cycles with at most one fixed
    point, that the character of the basechanged irreducible at w equals the
    shuffle sign times the B_n character at the norm of w, and that every
    irreducible which is no pair's basechange vanishes at w.

    Both sides are read from columns built by adding rim hooks, streamed
    class by class: at `jobs` 1 every n <= n_max goes in one pass (`_sweep`),
    otherwise each n is one pass on a worker.  For n <= 4 every B_n column is
    also cross-checked against the explicit group-sum oracle at every
    bipartition.  Basechange injectivity is asserted over the whole range.
    Failures are collected per n (oracle, then for each target injectivity and
    the identity in class order, then bitmask order), not raised; n_max < 1
    raises ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1, got %d" % n_max)
    report = SweepReport()
    groups = [range(1, n_max + 1)] if jobs == 1 else [range(n, n + 1) for n in range(1, n_max + 1)]
    for part in _map(_sweep, groups, jobs):
        report.checked += part.checked
        report.oracle_checked += part.oracle_checked
        report.failures.extend(part.failures)
    return report

