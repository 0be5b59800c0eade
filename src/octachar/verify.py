"""End-to-end harnesses: correspondence tables, dimension matches, theorem sweeps.

These drive the other modules over whole families of partitions and classes.
They read characters by columns: the table and the dimension match read the
column at `w0_class(m)`, and the sweep streams the columns of every n at once
from three `characters._walk`s in lockstep (B_n at (rho|()), S_2n at 2rho and
S_2n+1 at 2rho + (1)) and compares each S_m column whole with the B_n column
at its norm, re-keyed by basechange bitmask and signed, before the walks move
on.  Both the table and the sweep read a pair's basechange bitmask and shuffle
sign off one abacus join of its two quotient bitmasks
(`partitions._from_two_quotient`, over `partitions._join`).  The sweep can
farm the values of n out to worker processes, one n each; it imports
`multiprocessing` only when it starts more than one, so a run that starts no
pool does not pay for loading it.  The records are `NamedTuple`s and one
plain class, not dataclasses, for the same reason.
"""

from collections import defaultdict
from math import comb
from typing import NamedTuple

from .partitions import Partition, _TARGET_CORES, _from_mask, _from_two_quotient, _target_core, beta_mask
from .partitions import hook_layer, partitions_of
from .characters import _pair_layer, _walk, dimension, even_cycle_classes, mn_character, mn_column
from .hyperoctahedral import BnClass, _bruteforce_column, bipartitions_of, bn_dimension, norm


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
    partitions of 2n and 2n+1 whose character vanishes on the involution class."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w_even = w0_class(2 * n)
    w_odd = w0_class(2 * n + 1)
    rows = []
    for pair in bipartitions_of(n):
        key = beta_mask(pair[0]), beta_mask(pair[1])
        even, sign = _from_two_quotient(*key, 0)
        lam_even, lam_odd = _from_mask(even), _from_mask(_from_two_quotient(*key, 1)[0])
        rows.append(
            CorrespondenceRow(
                lambda_even=lam_even,
                lambda_odd=lam_odd,
                theta_even=mn_character(lam_even, w_even),
                theta_odd=mn_character(lam_odd, w_odd),
                sign=sign,
                bn_dim=bn_dimension(pair),
            )
        )
    rows.sort(key=lambda row: row.lambda_even)
    col_even, col_odd = mn_column(w_even), mn_column(w_odd)
    excluded_even = tuple(lam for lam in sorted(partitions_of(2 * n)) if beta_mask(lam) not in col_even)
    excluded_odd = tuple(lam for lam in sorted(partitions_of(2 * n + 1)) if beta_mask(lam) not in col_odd)
    return TableResult(n, tuple(rows), excluded_even, excluded_odd)


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
    involution| over S_2n (or S_2n+1) agree as multisets.  The dimension of
    (p0, p1) is C(n, |p0|) dim(p0) dim(p1), from one table of `dimension`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    thetas = sorted(abs(v) for v in mn_column(w0_class(2 * n + _target_core(target).size)).values())
    dims = [[dimension(lam) for lam in partitions_of(k)] for k in range(n + 1)]  # once per partition
    return sorted(comb(n, k) * a * b for k in range(n + 1) for a in dims[k] for b in dims[n - k]) == thetas


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

