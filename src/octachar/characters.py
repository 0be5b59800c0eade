"""Exact character values of symmetric groups.

Conjugacy classes of S_m are identified with their cycle-type partitions.
Character values come from the Murnaghan-Nakayama rule on beta-set bitmasks
(`partitions.beta_mask`), one `partitions.hook_layer` per cycle.  A single
value removes the cycles top-down from {mask of lam: 1}, iteratively, so the
number of cycles is not bounded by the stack; columns {mask: chi_lam(rho)}
grow from the empty partition, shortest cycle first.  One walk, `_walk`,
yields a family's columns one at a time in sorted cycle-length order and
expands each shared prefix once (`character_table` 15: 351 layers for 176
columns); `mn_columns` collects them in the family's order.  The only memo is
the walk's move rows: one row per distinct (mask, |t|) the walk reaches (1,246
for `character_table` 15, against 7,717 mask visits), freed when it ends.
The character induced from S_a x S_b runs the same layers on pairs of masks
(`_pair_layer`), the frontier that `hyperoctahedral` uses for B_n characters:
each pair moves by the move row of the mask that moves, and a walk's rows of
one |t| serve both masks.
"""

from collections import Counter, defaultdict
from functools import reduce
from math import factorial, prod

from .partitions import Partition, _cycle_type, _partition, beta_mask, hook_layer, hook_lengths, partitions_of


def centralizer_order(rho) -> int:
    """|Z(c_rho)| = prod over distinct parts v of v^mult * mult!."""
    rho = Partition(rho)
    return prod(v**c * factorial(c) for v, c in Counter(rho).items())


def class_size(rho) -> int:
    rho = Partition(rho)
    return factorial(rho.size) // centralizer_order(rho)


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
    return reduce(hook_layer, rho, {beta_mask(lam): 1}).get(0, 0)  # top-down, one layer per cycle


def mn_column(rho) -> dict:
    """{beta_mask(lam): chi_lam(rho)} over the lam of |rho| with a nonzero value.
    Enumerates every such lam, so a class with many cycles makes a large column."""
    return mn_columns([rho]).popitem()[1]


def mn_columns(classes) -> dict:
    """{rho: mn_column(rho)} for a family of classes, in their order, from one `_walk`."""
    sequences = {rho: tuple(reversed(rho)) for rho in map(_cycle_type, classes)}
    columns = dict(_walk({0: 1}, sequences, hook_layer))
    return {rho: columns[rho] for rho in sequences}


def _walk(start: dict, sequences: dict, layer):
    """Yield (key, `start` grown by adding hooks of the lengths sequences[key])
    for every key, in the sorted order of the sequences, from one depth-first
    walk: the frontier after each prefix of the current sequence stays on a
    stack, so a shared prefix is expanded once, and only the stack stays alive
    between yields.  With more than one sequence the layers of one hook length
    |t| share their move rows (see `partitions.hook_layer`), freed when the walk
    ends.  One sequence records none: its layers all differ in size, so an S_m
    column never meets a mask twice."""
    stack = [((), start)]  # (prefix, frontier after it)
    rows = defaultdict(dict) if len(sequences) > 1 else None  # |t| -> {mask: row}
    for key, lengths in sorted(sequences.items(), key=lambda item: item[1]):
        while lengths[: len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        for t in lengths[len(stack[-1][0]) :]:
            shared = None if rows is None else rows[abs(t)]
            stack.append((stack[-1][0] + (t,), layer(stack[-1][1], t, True, shared)))
        yield key, stack[-1][1]


def _pair_layer(frontier: dict, t: int, add: bool = False, rows: dict = None) -> dict:
    """`hook_layer` on (mask0, mask1) keys at a signed cycle length t: the hook
    goes into mask0, or into mask1 with its sign negated when t < 0.  Each key
    moves by the move row (see `hook_layer`) of the mask that moves, so `rows`,
    keyed by mask alone, serves t, -t and both sides; without it the layer
    keeps its own.  A mask's row is built the first time it moves."""
    length, layer = abs(t), {}
    rows = {} if rows is None else rows
    get = layer.get
    for (mask0, mask1), value in frontier.items():
        if mask0 not in rows:
            hook_layer({mask0: 1}, length, add, rows)
        if mask1 not in rows:
            hook_layer({mask1: 1}, length, add, rows)
        plus, minus = rows[mask0]
        for moved in plus:
            key = moved, mask1
            layer[key] = get(key, 0) + value
        for moved in minus:
            key = moved, mask1
            layer[key] = get(key, 0) - value
        plus, minus = rows[mask1] if t > 0 else reversed(rows[mask1])
        for moved in plus:
            key = mask0, moved
            layer[key] = get(key, 0) + value
        for moved in minus:
            key = mask0, moved
            layer[key] = get(key, 0) - value
    if 0 in layer.values():
        layer = {key: value for key, value in layer.items() if value}
    return layer


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
    return reduce(_pair_layer, rho, {(beta_mask(p0), beta_mask(p1)): 1}).get((0, 0), 0)


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
    classes = list(lams)
    index = {beta_mask(lam): i for i, lam in enumerate(lams)}
    rows = [[0] * len(classes) for _ in lams]
    for j, column in enumerate(mn_columns(classes).values()):
        for mask, value in column.items():
            rows[index[mask]][j] = value
    return lams, classes, rows
