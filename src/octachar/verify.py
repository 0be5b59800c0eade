"""End-to-end harnesses: correspondence tables, sign censuses, theorem sweeps.

These drive the other modules over whole families of partitions and classes.
They read characters by columns: the table and the dimension match read the
column at `w0_class(m)`, and the sweep builds each class family's columns in
one walk per n (`characters.mn_columns`, `hyperoctahedral.bn_columns`) and
checks each pair by lookups, its basechange and shuffle sign read off
bitmasks.  The sign census reads no character: by the paper's identity the
sign at `w0_class(m)` is a shuffle sign, so it counts 2-quotient pairs by
that sign.  The sweep can farm the values of n out to worker processes; it
imports `multiprocessing` only when it starts more than one, so a run that
starts no pool does not pay for loading it.  The records are `NamedTuple`s and one plain class, not
dataclasses, for the same reason.
"""

from typing import NamedTuple

from .partitions import Partition, _TARGET_CORES, _from_mask, _padded_mask, _quotient_mask, _two_quotient
from .partitions import _target_core, beta_mask, partition_counts, partitions_of, sign_shuffle
from .characters import even_cycle_classes, mn_character, mn_column, mn_columns
from .hyperoctahedral import (
    bipartitions_of,
    basechange,
    bn_character_bruteforce,
    bn_columns,
    bn_dimension,
    norm,
)


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
    col_even, col_odd = mn_column(w_even), mn_column(w_odd)
    excluded_even = tuple(lam for lam in sorted(partitions_of(2 * n)) if beta_mask(lam) not in col_even)
    excluded_odd = tuple(lam for lam in sorted(partitions_of(2 * n + 1)) if beta_mask(lam) not in col_odd)
    return TableResult(n, tuple(rows), excluded_even, excluded_odd)


class SignCensus(NamedTuple):
    m: int
    num_positive: int
    num_negative: int
    num_zero: int

    @property
    def total(self) -> int:
        return self.num_positive + self.num_negative + self.num_zero


def _map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], on min(jobs, len(items)) worker processes
    when that is more than one, else in this process."""
    workers = min(jobs, len(items))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, items, chunksize=1)
    return [fn(item) for item in items]


def sign_census(m: int) -> SignCensus:
    """Counts of partitions of m with positive / negative / zero character on
    the involution class w0, counted over 2-quotients without computing a value.

    By the paper's identity chi^lam(w0) = eps(lam) * (a B_n dimension) when lam
    has 2-core () (m = 2n) or (1) (m = 2n+1), and 0 for every other lam.  With
    the quotient (q0, q1) as two Maya diagrams, beads at u_i = q0_i - i and at
    v_k = q1_k - k + m % 2, eps is (-1)^D, D the number of pairs v_k < u_i
    relative to the empty pair.  One scan over the positions [-n-1, n], where
    the two diagrams differ from empty ones, places a bead or a hole of each
    diagram; a state is (beads missing from q0 and from q1 against the empty
    diagrams so far, parity of D) and holds its counts by |q0| + |q1| as one
    int, a slot per size.  A bead shifts the counts by the holes below it.
    k missing beads force k * k more cells (each of the k beads still to come
    lies above at least k holes), so a state with no count at size <= n minus
    that is dropped.  `sign_census_by_columns` in tests/oracles.py, which reads
    every value off the Murnaghan-Nakayama column, checks this route."""
    if m < 2:
        raise ValueError("m must be at least 2")
    n, odd = divmod(m, 2)
    total = partition_counts(m)[m]
    width = total.bit_length() + 1  # a slot counts at most p(m) quotient pairs
    keep = [(1 << width * (n + 1 - forced)) - 1 for forced in range(n + 1)]  # slots 0..n-forced
    states = {(0, 0, 0): 1}
    for x in range(-n - 1, n + 1):
        for runner, offset in ((0, 0), (1, odd)):
            empty = x < offset  # the empty diagram has a bead at x
            holes = max(x - offset, 0)  # and this many holes below x in the window
            layer = {}
            for key, counts in states.items():
                missing = key[runner]
                for bead in (0, 1):
                    state = list(key)
                    state[runner] = missing + empty - bead
                    forced = state[0] ** 2 + state[1] ** 2
                    if state[runner] < 0 or forced > n:
                        continue
                    moved = (counts << width * (holes + missing) if bead else counts) & keep[forced]
                    if bead and not runner:  # a q0 bead crosses every q1 bead below x
                        state[2] ^= (min(x, odd) + n + 1 - key[1]) & 1
                    if moved:
                        state = tuple(state)
                        layer[state] = layer.get(state, 0) + moved
            states = layer
    empty_parity = n * (n + 1) // 2 & 1
    pos, neg = (states.get((0, 0, parity), 0) >> width * n for parity in (empty_parity, 1 - empty_parity))
    return SignCensus(m, pos, neg, total - pos - neg)


def dimension_match(n: int, target: str) -> bool:
    """True when B_n irreducible dimensions and the nonzero |character at the
    involution| over S_2n (or S_2n+1) agree as multisets."""
    if n < 1:
        raise ValueError("n must be at least 1")
    thetas = sorted(abs(v) for v in mn_column(w0_class(2 * n + _target_core(target).size)).values())
    dims = sorted(bn_dimension(pair) for pair in bipartitions_of(n))
    return dims == thetas


class SweepReport:
    def __init__(self):
        self.checked = 0
        self.oracle_checked = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures


def _sweep_one_bipartition(report, pair, key, target, mask, eps, columns):
    """Check one pair (mask pair `key`, basechange bitmask `mask`, shuffle sign
    `eps`) at every (w, S_m column at w, B_n column at norm w) of `columns`
    into `report`."""
    for w, s_column, b_column in columns:
        lhs = s_column.get(mask, 0)
        rhs_bn = b_column.get(key, 0)
        if lhs != eps * rhs_bn:
            report.failures.append(
                "identity fails: pair=%s target=%s w=%s: %d != %d * %d"
                % (pair, target, w, lhs, eps, rhs_bn)
            )
    report.checked += len(columns)


_ORACLE_MAX = 4  # the largest n whose B_n columns the sweep checks against the oracle


def _sweep_n(n: int) -> SweepReport:
    """The sweep at one n: the B_n columns in one walk for both targets, checked
    against the oracle at every pair when n <= _ORACLE_MAX, the S_m columns in
    one walk per target, and each pair's basechange bitmask and sign from its
    masks; a Partition is built only to name a failure."""
    report = SweepReport()
    pairs = [(pair, (beta_mask(pair.p0), beta_mask(pair.p1))) for pair in bipartitions_of(n)]
    b_columns = bn_columns([norm(w, "even") for w in even_cycle_classes(2 * n)])
    if n <= _ORACLE_MAX:
        for pair, key in pairs:
            for h, b_column in b_columns.items():
                if bn_character_bruteforce(pair, h) != b_column.get(key, 0):
                    report.failures.append("oracle mismatch: pair=%s class=%s" % (pair, h))
                report.oracle_checked += 1
    for target, core in _TARGET_CORES.items():
        m = 2 * n + core.size
        s_columns = mn_columns(even_cycle_classes(m))
        columns = [(w, s_columns[w], b_columns[norm(w, target)]) for w in s_columns]
        core_mask = _padded_mask(beta_mask(core), core.size, 2)
        seen = {}
        for pair, key in pairs:
            mask = _quotient_mask(core_mask, key)
            if mask in seen:
                report.failures.append(
                    "basechange not injective: %s and %s both map to %s (target=%s)"
                    % (seen[mask], pair, _from_mask(mask), target)
                )
            seen[mask] = pair
            eps = _two_quotient(mask, m)[0]
            _sweep_one_bipartition(report, pair, key, target, mask, eps, columns)
    return report


def main_theorem_sweep(n_max: int, jobs: int = 1) -> SweepReport:
    """Exhaustively check, for every bipartition of n <= n_max and every class w
    of S_2n / S_2n+1 that is a product of even cycles with at most one fixed
    point, that the character of the basechanged irreducible at w equals the
    shuffle sign times the B_n character at the norm of w.

    Both sides are read from columns built by adding rim hooks; for n <= 4
    every B_n column is also cross-checked against the explicit group-sum
    oracle at every bipartition.  Basechange injectivity is asserted over the
    whole range.  Failures are collected, not raised; an empty range
    (n_max < 1) raises ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1, got %d" % n_max)
    report = SweepReport()
    for part in _map(_sweep_n, range(1, n_max + 1), jobs):
        report.checked += part.checked
        report.oracle_checked += part.oracle_checked
        report.failures.extend(part.failures)
    return report

