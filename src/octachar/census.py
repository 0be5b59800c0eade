"""The sign census: how many characters of S_m are positive, negative or zero
on the involution class.

The census reads no character: by the paper's identity the sign at the
involution class (`verify.w0_class(m)`) is a shuffle sign, so it counts
2-quotient pairs by that sign.  It needs only the partition counts, so a
census loads no character, hyperoctahedral or harness code.
"""

from typing import NamedTuple

from .partitions import partition_counts


class SignCensus(NamedTuple):
    m: int
    num_positive: int
    num_negative: int
    num_zero: int

    @property
    def total(self) -> int:
        return self.num_positive + self.num_negative + self.num_zero


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
