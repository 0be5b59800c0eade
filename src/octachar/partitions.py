"""Partition arithmetic: beta-sets, hooks, p-cores, p-quotients, and signs.

Everything here works through beta-sets (strictly decreasing non-negative
integers).  A partition padded with zeros to r parts corresponds to the
beta-set {lam_i + r - i : i = 1..r}; removing a rim hook of length t is the
bead move b -> b - t, and adding one is b -> b + t, where the beads below 0
that every beta-set implicitly has (at -1, -2, ...) may move up too.  The
library holds a beta-set as an int bitmask (`beta_mask`, bit b set when b is
a bead).  The one copy of the bead-move arithmetic, `hook_layer`, moves a
whole frontier {mask: value} by one hook length.  The abacus is one split and
one join: `_split` pads a bitmask and splits it into its p runners (runner i
holds the beads congruent to i mod p), which are the p-quotient, and `_join`
lifts quotient runners over the bead counts of a p-core and interleaves them,
each runner's foot of beads as one block.  The p-core is the join of the
split's bead counts with empty runners (every runner flushed, which is what
removing p-hooks one at a time leaves), and at p = 2 the shuffle sign is read
off the runners of either one (`_runner_sign`).  Padding length matters for
the p-quotient and for the shuffle sign, so the convention is fixed once
here, in `_split`:

  * p = 2: pad to the smallest length with the parity of |lam|.  This makes
    the 2-quotient of a partition of 2n and of its partner of 2n+1 (same
    quotient, 2-core () resp. (1)) come out in the same slot order, which is
    what the basechange bijection needs.
  * p >= 3: pad to the smallest multiple of p.  Slot i collects the
    beta-numbers congruent to i mod p; other padding choices permute slots.

So is the even/odd choice of the paper's identity: target "even" (S_2n) or
"odd" (S_2n+1) names the 2-core () or (1) of its side (`_target_core`).
"""

import itertools


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is cls:  # already validated
            return parts
        parts = tuple(parts)
        for i, v in enumerate(parts):
            if not isinstance(v, int) or v < 1:
                raise ValueError("parts must be positive integers, got %r" % (v,))
            if i and parts[i - 1] < v:
                raise ValueError("parts must be weakly decreasing, got %r" % (parts,))
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        return _partition(sum(1 for v in self if v > j) for j in range(self[0] if self else 0))

    def __repr__(self):
        return "Partition(%s)" % (list(self),)

    def __str__(self):
        return format_partition(self)


def _partition(parts) -> Partition:
    """Trusted constructor for parts the library computed itself: no validation."""
    return tuple.__new__(Partition, parts)


def _cycle_type(parts) -> Partition:
    """Validated Partition from the cycle lengths of a class, given in any order."""
    return Partition(parts if type(parts) is Partition else sorted(parts, reverse=True))


_TARGET_CORES = {"even": _partition(()), "odd": _partition((1,))}  # target -> 2-core of its side


def _target_core(target) -> Partition:
    """The 2-core of the side a target names: () for "even" (S_2n), (1) for "odd" (S_2n+1)."""
    try:
        return _TARGET_CORES[target]
    except (KeyError, TypeError):
        raise ValueError("target must be 'even' or 'odd', got %r" % (target,)) from None


def partitions_of(n: int):
    """Yield all partitions of n in descending lexicographic order: each next
    one lowers the last part above 1 by one and refills what is left after it
    with the largest parts allowed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    parts = [n] if n else []
    while True:
        yield _partition(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        v = parts.pop() - 1
        q, r = divmod(ones + 1, v)
        parts += [v] * (q + 1)
        if r:
            parts.append(r)


def beta_mask(lam) -> int:
    """Canonical beta-set of lam as a bitmask (a Maya diagram): bit b is set when
    b = lam_i + r - i for one of the r parts, so bit 0 is clear and () is 0."""
    lam = Partition(lam)
    r = len(lam)
    mask = 0
    for i, v in enumerate(lam):
        mask |= 1 << (v + r - 1 - i)
    return mask


def hook_layer(frontier: dict, t: int, add: bool = False, rows: dict = None) -> dict:
    """{mask: value} -> {moved: sum of +-value} over every rim hook of length t
    removed from (with `add`, added to) each mask: a bead b moves to a free
    b - t (b + t) with sign (-1)^(beads between).  Adding also moves the beads
    below 0 that every mask implicitly has: for a free p < t, the bead at
    p - t moves up to p.  Equal results merge, zeros drop, and beads at
    0..k-1 are shifted out.

    `rows`, when given, is {mask: (plus, minus)} for this t and direction: the
    moved masks of each mask by sign.  A mask found there is moved by its row;
    any other mask gets its row recorded while it is moved."""
    layer = {}
    get = layer.get
    for mask, value in frontier.items():
        row = None
        if rows is not None:
            row = rows.get(mask)
            if row is not None:
                for moved in row[0]:
                    layer[moved] = get(moved, 0) + value
                for moved in row[1]:
                    layer[moved] = get(moved, 0) - value
                continue
            row = rows[mask] = ([], [])
        if add:
            moves = mask & ~(mask >> t)
            below = ~mask & ((1 << t) - 1)  # free p < t, filled from p - t
        else:
            moves = (mask & ~(mask << t)) >> t
            below = 0
        while moves:
            low = moves & -moves
            moves ^= low
            high = low << t
            moved = mask ^ high ^ low
            if moved & 1:
                moved >>= (moved ^ (moved + 1)).bit_length() - 1
            odd = (mask & (high - (low << 1))).bit_count() & 1
            layer[moved] = get(moved, 0) + (-value if odd else value)
            if row is not None:
                row[odd].append(moved)
        while below:
            low = below & -below
            below ^= low
            j = t + 1 - low.bit_length()  # the bead at -j lands on p = t - j
            moved = ((mask | low) << j) | ((1 << j) - 2)
            odd = (j - 1 + (mask & (low - 1)).bit_count()) & 1
            layer[moved] = get(moved, 0) + (-value if odd else value)
            if row is not None:
                row[odd].append(moved)
    if 0 in layer.values():
        layer = {key: value for key, value in layer.items() if value}
    return layer


def hook_lengths(lam) -> list:
    """Hook length (arm + leg + 1) of every cell, as a ragged row-major matrix."""
    lam = Partition(lam)
    conj = lam.conjugate()
    return [
        [(lam[i] - j) + (conj[j] - i) - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


def _from_mask(mask: int) -> Partition:
    """Partition with beta-set bitmask `mask`; beads at 0..k-1 carry no part."""
    parts = []
    while mask:
        low = mask & -mask
        mask ^= low
        parts.append(low.bit_length() - 1 - len(parts))
    return _partition(v for v in reversed(parts) if v)


def _foot(mask: int) -> int:
    """Length of a bitmask's foot: its unbroken beads from bit 0 up."""
    return (mask ^ (mask + 1)).bit_length() - 1


def _split(mask: int, size: int, p: int) -> list:
    """The p abacus runners of canonical bitmask `mask` of a partition of
    `size`, padded with beads at the bottom to the module's length: bit j of
    runner i is bit p*j + i of the padded mask."""
    beads = mask.bit_count()
    pad = (beads + size) % 2 if p == 2 else -beads % p
    mask = (mask << pad) | ((1 << pad) - 1)
    runners = [0] * p
    while mask:
        low = mask & -mask
        mask ^= low
        j, i = divmod(low.bit_length() - 1, p)
        runners[i] |= 1 << j
    return runners


def _join(beads_on, masks) -> tuple:
    """(canonical bitmask, runners) of the partition with p-quotient bitmasks
    `masks` whose p-core has beads_on[i] beads on runner i.  Each mask goes
    over a foot of beads, so that every runner holds `top` beads more than the
    core's, `top` the least that leaves no foot negative (the masks [0] * p
    give the core itself).  Interleaving sends bit j of runner i to bit
    p*j + i; the foot under each mask goes in as one block, and only the
    mask's own beads are placed one at a time (bit j to bit p*j is low ** p)."""
    p = len(masks)
    lifts = list(map(int.__sub__, map(int.bit_count, masks), beads_on))
    top = max(0, *lifts)
    runners, merged = [], 0
    for i, (mask, lift) in enumerate(zip(masks, lifts)):
        pad = top - lift
        runners.append(((mask + 1) << pad) - 1)  # mask shifted up over pad beads at its foot
        merged |= ((1 << p * pad) - 1) // ((1 << p) - 1) << i
        mask <<= pad
        while mask:
            low = mask & -mask
            mask ^= low
            merged |= low**p << i
    return merged >> _foot(merged), runners


def p_core(lam, p: int) -> Partition:
    """The partition left after removing rim hooks of length p, one at a time,
    until none is left (the result does not depend on the order, a classical
    fact the tests check).  Each removal slides a bead one step down its
    runner, so the core has every runner's beads flushed to its foot."""
    lam = Partition(lam)
    if p < 2:
        raise ValueError("p must be at least 2")
    beads_on = [runner.bit_count() for runner in _split(beta_mask(lam), lam.size, p)]
    return _from_mask(_join(beads_on, [0] * p)[0])


def p_quotient(lam, p: int) -> tuple:
    """Ordered tuple of p partitions read off the abacus runners of the beta-set.

    Slot i holds the partition whose beta-set is (entries congruent to i) minus
    i, divided by p.  Padding follows the module convention above, so for p = 2
    the slot order is stable across the 2n <-> 2n+1 correspondence.
    """
    lam = Partition(lam)
    if p < 2:
        raise ValueError("p must be at least 2")
    return tuple(map(_from_mask, _split(beta_mask(lam), lam.size, p)))


def from_core_and_quotient(core, quotient, p: int) -> Partition:
    """Rebuild the unique partition with the given p-core and p-quotient."""
    core = Partition(core)
    if p < 2:
        raise ValueError("p must be at least 2")
    quotient = tuple(Partition(q) for q in quotient)
    if len(quotient) != p:
        raise ValueError("quotient must have exactly %d components" % p)
    runners = _split(beta_mask(core), core.size, p)
    if any(runner & (runner + 1) for runner in runners):  # a core's runners are flush
        raise ValueError("not a p-core: %s has a hook divisible by %d" % (core, p))

    result = _from_mask(_join([runner.bit_count() for runner in runners], [beta_mask(q) for q in quotient])[0])
    assert result.size == core.size + p * sum(q.size for q in quotient)
    return result


def sign_shuffle(lam) -> int:
    """Sign of the shuffle permutation that sorts the beta-set by parity.

    Defined for partitions of even size with empty 2-core (pad to an even
    number of parts; the permutation sends slot i to the position its
    beta-number takes when even and odd entries are separately sorted into the
    even and odd slots of {r-1, ..., 1, 0}), and for partitions of odd size
    with 2-core (1) (pad to an odd number 2m+1 of parts, reference set
    {2m+1, ..., 1}, with an extra factor (-1)^m).
    """
    lam = Partition(lam)
    eps, _, _ = _two_quotient(beta_mask(lam), lam.size)
    if not eps:
        raise ValueError("sign undefined: 2-core of %s is not %s" % (lam, "(1)" if lam.size % 2 else "empty"))
    return eps


def _two_quotient(mask: int, size: int) -> tuple:
    """(eps, q0, q1) for the partition of `size` with canonical bitmask `mask`:
    q0 and q1, the 2-quotient, are the two runners `_split` gives, and eps is
    the shuffle sign (`_runner_sign`), or 0 when the 2-core is not () at even
    size or (1) at odd size."""
    odd_size = size % 2
    even, odd = _split(mask, size, 2)
    if odd.bit_count() != even.bit_count() + odd_size:
        return 0, even, odd
    return _runner_sign(even, odd, odd_size), even, odd


def _from_two_quotient(q0: int, q1: int, odd_size: int) -> tuple:
    """Inverse of `_two_quotient`: (canonical bitmask, shuffle sign) of the
    partition with 2-core () (`odd_size` 0) or (1) (`odd_size` 1, its one bead
    on the odd runner) and 2-quotient bitmasks (q0, q1), both read off the
    runners `_join` builds."""
    mask, runners = _join((0, odd_size), (q0, q1))
    return mask, _runner_sign(*runners, odd_size)


def _runner_sign(even: int, odd: int, odd_size: int) -> int:
    """Shuffle sign of a partition of parity `odd_size` from the two runners of
    a padded bitmask with odd_size more odd beads than even ones.  The k-th odd
    bead (from 0, ascending) with c_k even beads below it on the runners takes
    part in c_k + k + 1 inversions mod 2 at even size, c_k + k at odd size, and
    in one more for each even bead at odd size; c_k's parity is bit k' of the
    even runner's prefix parity, k' the odd bead's place on its runner.
    Dropping one foot bead from both runners leaves the sign unchanged."""
    parity, shift, top = even, 1, odd.bit_length()
    while shift < top:
        parity ^= parity << shift
        shift <<= 1
    beads = odd.bit_count()
    return -1 if ((parity & odd).bit_count() + beads * (beads + 1) // 2 + odd_size) & 1 else 1


def format_partition(lam) -> str:
    """Render in exponent notation: [3,2,1^4].  Empty partition is []."""
    lam = tuple(lam)
    if not lam:
        return "[]"
    chunks = []
    for v, run in itertools.groupby(lam):
        c = len(tuple(run))
        chunks.append("%d^%d" % (v, c) if c > 1 else "%d" % v)
    return "[" + ",".join(chunks) + "]"


class PartitionParseError(ValueError):
    """Malformed partition literal; message carries the offending position."""


MAX_LITERAL_PARTS = 10_000  # parts one literal may expand to, exponents included


def parse_partition(text: str) -> Partition:
    """Parse [3,2,1^4] or [3,2,1,1,1,1]; rejects unsorted or non-positive parts."""
    parts, i = _parse_partition_at(text, 0)
    _expect(text, i, "")
    return parts


def _expect(text: str, i: int, tokens: str) -> int:
    """Skip white space from index i, consume one of the characters of `tokens`
    ("" expects the end of the text) and the white space after it, and return
    the index reached; anything else raises, naming the position."""
    while i < len(text) and text[i].isspace():
        i += 1
    if not tokens:
        if i < len(text):
            raise PartitionParseError("unexpected trailing %r at position %d" % (text[i], i))
        return i
    if i == len(text) or text[i] not in tokens:
        raise PartitionParseError("expected %s at position %d in %r" % (" or ".join(map(repr, tokens)), i, text))
    i += 1
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_int(text, i):
    j = i
    while j < len(text) and text[j].isdecimal():  # what int() reads
        j += 1
    if j == i:
        raise PartitionParseError("expected digit at position %d in %r" % (i, text))
    return int(text[i:j]), j


def _parse_partition_at(text, i):
    """Parse a partition literal starting at index i; returns (Partition, next index)."""
    i = _expect(text, i, "[")
    parts = []
    if text.startswith("]", i):  # the empty literal
        return _partition(parts), _expect(text, i, "]")
    while True:
        at = i
        value, i = _parse_int(text, i)
        count = 1
        if text.startswith("^", i):
            count, i = _parse_int(text, i + 1)
        if value < 1 or count < 1:
            raise PartitionParseError(
                "parts and exponents must be positive at position %d in %r" % (at, text)
            )
        if parts and parts[-1] < value:
            raise PartitionParseError(
                "parts must be non-increasing at position %d in %r" % (at, text)
            )
        if len(parts) + count > MAX_LITERAL_PARTS:
            raise PartitionParseError(
                "literal has more than %d parts at position %d" % (MAX_LITERAL_PARTS, at)
            )
        parts.extend([value] * count)
        j, i = i, _expect(text, i, ",]")
        if "]" in text[j:i]:  # only white space and the one token lie between
            return _partition(parts), i
