"""Exact character values of symmetric groups.

Conjugacy classes of S_m are identified with their cycle-type partitions.
Character values come from the Murnaghan-Nakayama rule on beta-set bitmasks
(`partitions.beta_mask`), one layer of partitions per cycle, with no memo.  A
single value removes the cycles top-down from {mask of lam: 1} with
`partitions.rim_hooks`; a whole column {mask: chi_lam(rho)} at one class grows
bottom-up from the empty partition with `partitions.add_hooks`, and
`character_table` is one column per class.  The character induced from
S_a x S_b runs the same layers on pairs of masks (`_pair_moves`), the frontier
that `hyperoctahedral` uses for B_n characters.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod

from .partitions import Partition, _cycle_type, _partition, add_hooks, beta_mask, hook_lengths, partitions_of, rim_hooks


def centralizer_order(rho) -> int:
    """|Z(c_rho)| = prod over distinct parts v of v^mult * mult!."""
    rho = Partition(rho)
    return prod(v**c * factorial(c) for v, c in Counter(rho).items())


def class_size(rho) -> int:
    rho = Partition(rho)
    return factorial(rho.size) // centralizer_order(rho)


def double_class(rho) -> Partition:
    """Cycle type with every part doubled (a class of S_{2m})."""
    return Partition(2 * v for v in rho)


def sign_of_class(rho) -> int:
    """Sign character of S_m at cycle type rho."""
    rho = Partition(rho)
    return -1 if (rho.size - len(rho)) % 2 else 1


def dimension(lam) -> int:
    """Dimension of the irreducible indexed by lam, by the hook length formula."""
    lam = Partition(lam)
    return factorial(lam.size) // prod(h for row in hook_lengths(lam) for h in row)


def mn_character(lam, rho) -> int:
    """Character of the irreducible lam of S_m at cycle type rho (|lam| = |rho|)."""
    lam = Partition(lam)
    rho = _cycle_type(rho)
    if lam.size != rho.size:
        raise ValueError(
            "size mismatch: partition of %d against class of %d" % (lam.size, rho.size)
        )
    return _frontier({beta_mask(lam): 1}, rho, rim_hooks).get(0, 0)


def mn_column(rho) -> dict:
    """{beta_mask(lam): chi_lam(rho)} over the lam of |rho| with a nonzero value.
    Enumerates every such lam, so a class with many cycles makes a large column."""
    return _frontier({0: 1}, reversed(_cycle_type(rho)), add_hooks)


def _frontier(frontier: dict, lengths, moves) -> dict:
    """Murnaghan-Nakayama by layers: for each length t every key moves by
    `moves(key, t)`, a stream of (moved key, sign); equal keys merge and zeros
    drop, so a layer of canonical masks over partitions of k has at most p(k)
    keys.  Iterative, so the number of cycles is not bounded by the stack."""
    for t in lengths:
        layer = {}
        for key, value in frontier.items():
            for moved, sign in moves(key, t):
                layer[moved] = layer.get(moved, 0) + (value if sign > 0 else -value)
        frontier = {key: value for key, value in layer.items() if value}
    return frontier


def _pair_moves(hooks):
    """Moves of a (mask0, mask1) key by a signed cycle length: `hooks` acts on
    either mask, with the sign negated in mask1 for a negative cycle."""
    def moves(key, t):
        mask0, mask1 = key
        for moved, sign in hooks(mask0, abs(t)):
            yield (moved, mask1), sign
        for moved, sign in hooks(mask1, abs(t)):
            yield (mask0, moved), sign if t > 0 else -sign
    return moves


def product_character(p0, p1, rho) -> int:
    """Character of the representation of S_{a+b} induced from lam(p0) x lam(p1).

    Each cycle of rho removes a rim hook from p0 or from p1, as in the type-B
    Murnaghan-Nakayama rule at a class with positive cycles only: the induced
    character is the B_n character of (p0, p1) at (rho|()).
    """
    p0 = Partition(p0)
    p1 = Partition(p1)
    rho = _cycle_type(rho)
    a, b = p0.size, p1.size
    if rho.size != a + b:
        raise ValueError(
            "size mismatch: class of %d against factors of %d and %d" % (rho.size, a, b)
        )
    return _frontier({(beta_mask(p0), beta_mask(p1)): 1}, rho, _pair_moves(rim_hooks)).get((0, 0), 0)


def even_cycle_classes(m: int):
    """Classes of S_m that are products of even cycles with at most one fixed point.

    For even m these are the doubled classes 2*rho, rho a partition of m/2; for
    odd m the same with a single fixed point appended.  Every consumer of this
    class family must go through this one generator.
    """
    for rho in partitions_of(m // 2):
        yield _partition(tuple(2 * v for v in rho) + (1,) * (m % 2))


def character_table(m: int) -> tuple:
    """(partitions, classes, rows): full character table of S_m.

    Rows follow `partitions`, columns follow `classes`, both in ascending
    lexicographic order.
    """
    lams = sorted(partitions_of(m))
    classes = sorted(partitions_of(m))
    columns = [mn_column(rho) for rho in classes]
    rows = [[column.get(mask, 0) for column in columns] for mask in map(beta_mask, lams)]
    return lams, classes, rows
