"""End-to-end harnesses: correspondence tables, sign censuses, theorem sweeps.

These drive the other modules over whole families of partitions and classes.
All heavy loops are per-partition maps over immutable inputs, so they can be
farmed out to worker processes; each worker keeps its own character memo.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from functools import partial

from .partitions import Partition, partitions_of, sign_shuffle
from .characters import mn_character, even_cycle_classes
from .hyperoctahedral import (
    bipartitions_of,
    basechange,
    bn_dimension,
    bn_character,
    bn_character_bruteforce,
    norm,
)


def w0_class(m: int) -> Partition:
    """Cycle type of the involution pairing off the points of S_m: [2^(m/2)],
    with a fixed point appended when m is odd."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return Partition([2] * (m // 2) + [1] * (m % 2))


@dataclass(frozen=True)
class CorrespondenceRow:
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


@dataclass(frozen=True)
class TableResult:
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
        lam_even = basechange(pair, "even")
        lam_odd = basechange(pair, "odd")
        rows.append(
            CorrespondenceRow(
                lambda_even=lam_even,
                lambda_odd=lam_odd,
                theta_even=mn_character(lam_even, w_even),
                theta_odd=mn_character(lam_odd, w_odd),
                sign=sign_shuffle(lam_even),
                bn_dim=bn_dimension(pair),
            )
        )
    rows.sort(key=lambda row: row.lambda_even)
    excluded_even = tuple(
        lam for lam in sorted(partitions_of(2 * n)) if mn_character(lam, w_even) == 0
    )
    excluded_odd = tuple(
        lam for lam in sorted(partitions_of(2 * n + 1)) if mn_character(lam, w_odd) == 0
    )
    return TableResult(n, tuple(rows), excluded_even, excluded_odd)


@dataclass(frozen=True)
class SignCensus:
    m: int
    num_positive: int
    num_negative: int
    num_zero: int

    @property
    def total(self) -> int:
        return self.num_positive + self.num_negative + self.num_zero


def _map(fn, items: list, jobs: int, chunksize: int) -> list:
    """[fn(item) for item in items], on `jobs` worker processes when jobs > 1."""
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(fn, items, chunksize=chunksize)
    return [fn(item) for item in items]


def sign_census(m: int, jobs: int = 1) -> SignCensus:
    """Counts of partitions of m with positive / negative / zero character on
    the involution class."""
    values = _map(partial(mn_character, rho=w0_class(m)), list(partitions_of(m)), jobs, 16)
    pos = sum(1 for v in values if v > 0)
    neg = sum(1 for v in values if v < 0)
    return SignCensus(m, pos, neg, len(values) - pos - neg)


def dimension_match(n: int, target: str) -> bool:
    """True when B_n irreducible dimensions and the nonzero |character at the
    involution| over S_2n (or S_2n+1) agree as multisets."""
    if target not in ("even", "odd"):
        raise ValueError("target must be 'even' or 'odd', got %r" % (target,))
    m = 2 * n if target == "even" else 2 * n + 1
    w = w0_class(m)
    dims = sorted(bn_dimension(pair) for pair in bipartitions_of(n))
    thetas = sorted(
        abs(v) for v in (mn_character(lam, w) for lam in partitions_of(m)) if v != 0
    )
    return dims == thetas


@dataclass
class SweepReport:
    n_max: int
    checked: int = 0
    oracle_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _sweep_one_bipartition(args):
    """Check every admissible class against one bipartition; returns a partial
    report tuple (checked, oracle_checked, failures)."""
    pair, target, run_oracle = args
    checked = oracle_checked = 0
    failures = []
    lam = basechange(pair, target)
    eps = sign_shuffle(lam)
    for w in even_cycle_classes(lam.size):
        h = norm(w, target)
        lhs = mn_character(lam, w)
        rhs_bn = bn_character(pair, h)
        if lhs != eps * rhs_bn:
            failures.append(
                "identity fails: pair=%s target=%s w=%s: %d != %d * %d"
                % (pair, target, w, lhs, eps, rhs_bn)
            )
        checked += 1
        if run_oracle and target == "even":
            if bn_character_bruteforce(pair, h) != rhs_bn:
                failures.append("oracle mismatch: pair=%s class=%s" % (pair, h))
            oracle_checked += 1
    return checked, oracle_checked, failures


def main_theorem_sweep(n_max: int, oracle_max: int = 4, jobs: int = 1) -> SweepReport:
    """Exhaustively check, for every bipartition of n <= n_max and every class w
    of S_2n / S_2n+1 that is a product of even cycles with at most one fixed
    point, that the character of the basechanged irreducible at w equals the
    shuffle sign times the B_n character at the norm of w.

    The B_n side is the type-B Murnaghan-Nakayama rule; for n <= oracle_max it
    is additionally cross-checked against the explicit group-sum oracle.
    Basechange injectivity is asserted over the whole range.  Failures are
    collected, not raised; an empty range (n_max < 1) raises ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1, got %d" % n_max)
    report = SweepReport(n_max=n_max)
    work = []
    for n in range(1, n_max + 1):
        for target in ("even", "odd"):
            seen = {}
            for pair in bipartitions_of(n):
                lam = basechange(pair, target)
                if lam in seen:
                    report.failures.append(
                        "basechange not injective: %s and %s both map to %s"
                        % (seen[lam], pair, lam)
                    )
                seen[lam] = pair
                work.append((pair, target, n <= oracle_max))
    for checked, oracle_checked, failures in _map(_sweep_one_bipartition, work, jobs, 8):
        report.checked += checked
        report.oracle_checked += oracle_checked
        report.failures.extend(failures)
    return report


def basechange_image_matches_support(n: int, target: str) -> bool:
    """True when the basechange image equals the set of partitions whose
    character at the involution class is nonzero."""
    m = 2 * n if target == "even" else 2 * n + 1
    image = {basechange(pair, target) for pair in bipartitions_of(n)}
    w = w0_class(m)
    support = {lam for lam in partitions_of(m) if mn_character(lam, w) != 0}
    return image == support
