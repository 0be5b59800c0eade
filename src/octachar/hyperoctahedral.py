"""The hyperoctahedral group B_n = (Z/2)^n x| S_n inside S_2n.

B_n is realized as the signed permutations of {+-1, ..., +-n}, i.e. the
centralizer in S_2n of the fixed-point-free involution pairing i with -i.
Conjugacy classes are bipartitions (positive cycles, negative cycles): a cycle
is negative when the product of the signs around it is -1, equivalently when
the element's order on that cycle doubles.  Irreducibles are likewise indexed
by bipartitions (p0, p1); the (Z/2)^n block acts trivially on the p0 factor
and by the sign character on each Z/2 of the p1 factor.

Characters come from the type-B Murnaghan-Nakayama rule on the beta-set
bitmasks of p0 and p1, with no memo: one value top-down (`bn_character`), or
the columns over (p0, p1) of a family of classes bottom-up in one walk
(`bn_columns`); a class's cycle lengths may come in any order.  The module
keeps no cache.  The group-sum oracle that cross-checks these columns lives
in `verify`, next to the sweep, its one caller (`verify._bruteforce_column`).
"""

from functools import reduce
from math import comb
from typing import NamedTuple

from .partitions import (
    Partition,
    format_partition,
    from_core_and_quotient,
    partitions_of,
    _cycle_type,
    _expect,
    _parse_partition_at,
    _partition,
    _target_core,
    beta_mask,
)
from .characters import _pair_layer, _walk, dimension


class BiPartition(NamedTuple):
    """Ordered pair of partitions indexing a B_n irreducible; B_n classes are `BnClass`."""

    p0: Partition
    p1: Partition

    @property
    def n(self) -> int:
        return sum(self.p0) + sum(self.p1)

    def __str__(self):
        return format_bipartition(self)


class BnClass(NamedTuple):
    """Conjugacy class of B_n: positive and negative cycle lengths."""

    positive: Partition
    negative: Partition

    @property
    def n(self) -> int:
        return sum(self.positive) + sum(self.negative)

    def __str__(self):
        return format_bipartition(self)


def bipartition(p0=(), p1=()) -> BiPartition:
    return BiPartition(Partition(p0), Partition(p1))


def bn_class(positive=(), negative=()) -> BnClass:
    return BnClass(Partition(positive), Partition(negative))


def bipartitions_of(n: int):
    """All ordered pairs (p0, p1) with |p0| + |p1| = n."""
    for k in range(n + 1):
        seconds = list(partitions_of(n - k))
        for q0 in partitions_of(k):
            for q1 in seconds:
                yield BiPartition(q0, q1)


def format_bipartition(pair) -> str:
    return "(%s|%s)" % (format_partition(pair[0]), format_partition(pair[1]))


def parse_bipartition(text: str) -> BiPartition:
    """Parse a ([..]|[..]) literal."""
    p0, i = _parse_partition_at(text, _expect(text, 0, "("))
    p1, i = _parse_partition_at(text, _expect(text, i, "|"))
    _expect(text, _expect(text, i, ")"), "")
    return BiPartition(p0, p1)


def norm(w, target: str | None = None) -> BnClass:
    """Norm map: the S_2n class with all cycles even {2p_1 >= ... >= 2p_r} goes to
    the all-positive B_n class with cycles {p_1 >= ... >= p_r}.

    Classes of S_2n+1 are admitted when they carry exactly one fixed point and
    even cycles otherwise; the fixed point is stripped first.  `target` may be
    "even", "odd", or None to infer from the cycle type.
    """
    w = _cycle_type(w)
    fixed = sum(1 for v in w if v == 1)
    if any(v % 2 and v > 1 for v in w) or fixed > 1:
        raise ValueError("norm undefined on this class: %s" % format_partition(w))
    if target is not None and _target_core(target).size != fixed:  # the fixed points are the 2-core
        raise ValueError(
            "norm undefined on this class: %s is not admissible for target %r"
            % (format_partition(w), target)
        )
    halved = _partition(v // 2 for v in w if v > 1)
    return BnClass(halved, Partition())


def basechange(pi: BiPartition, target: str) -> Partition:
    """The partition of 2n (target "even") or 2n+1 ("odd") whose 2-core is empty
    resp. (1) and whose 2-quotient is (p0, p1)."""
    return from_core_and_quotient(_target_core(target), pi, 2)


def bn_dimension(pi: BiPartition) -> int:
    """dim of the irreducible (p0, p1): C(n, |p0|) * dim(p0) * dim(p1)."""
    p0, p1 = Partition(pi[0]), Partition(pi[1])
    n = p0.size + p1.size
    return comb(n, p0.size) * dimension(p0) * dimension(p1)


def bn_character(pi: BiPartition, c: BnClass) -> int:
    """Character of the irreducible (p0, p1) at any class, by the type-B
    Murnaghan-Nakayama rule (Geck-Pfeiffer 2000, the MN rule for type B).

    A cycle of length t removes a t-rim hook from p0 with sign (-1)^leg, or
    one from p1 with sign (-1)^leg, negated when the cycle is negative.
    """
    p0, p1 = Partition(pi[0]), Partition(pi[1])
    c = BnClass(_cycle_type(c[0]), _cycle_type(c[1]))
    if c.n != p0.size + p1.size:
        raise ValueError(
            "size mismatch: class of B_%d against irreducible of B_%d" % (c.n, p0.size + p1.size)
        )
    return reduce(_pair_layer, _signed_cycles(c), {(beta_mask(p0), beta_mask(p1)): 1}).get((0, 0), 0)


def bn_column(c: BnClass) -> dict:
    """{(beta_mask(p0), beta_mask(p1)): character} over the irreducibles of B_n
    with a nonzero value at the class c, grown bottom-up by adding hooks."""
    return bn_columns([c]).popitem()[1]


def bn_columns(classes) -> dict:
    """{c: bn_column(c)} for a family of classes, in their order, from one `characters._walk`."""
    classes = [BnClass(_cycle_type(c[0]), _cycle_type(c[1])) for c in classes]
    columns = dict(_walk({(0, 0): 1}, {c: tuple(reversed(_signed_cycles(c))) for c in classes}, _pair_layer))
    return {c: columns[c] for c in classes}


def _signed_cycles(c: BnClass) -> list:
    """Cycle lengths, longest first, negated for negative cycles."""
    return sorted(tuple(c.positive) + tuple(-v for v in c.negative), key=abs, reverse=True)
