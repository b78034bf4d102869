"""Partitions, Young diagrams, hooks, residues and dimension vectors.

A diagram is its row lengths.  Diagrams use English notation: row 0 is the
longest row, rows grow downward.  A box sits in column ``col`` and row ``row``
(both counted from zero) and has residue ``col - row``.
"""

from functools import cache, wraps
from math import factorial, prod
from typing import Iterable


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; ``Partition()`` is empty."""
    __slots__ = ()  # no per-instance dict: monomials hold many partitions

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    def size(self) -> int:
        return sum(self)

    def part(self, row: int) -> int:
        """Length of row ``row`` (0-indexed); zero beyond the last row."""
        return self[row] if row < len(self) else 0

    def multiplicities(self) -> dict[int, int]:
        """Map part value i to the number of rows of length i."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


# The most boxes a partition literal may have: hooks, Euler classes and
# weights loop box by box, and Schur data stops at degree 20 anyway.
MAX_LITERAL_BOXES = 1000


def parse_partition(text: str) -> Partition:
    """Parse the bracket form, e.g. "[2,1]" or "[]"; ValueError on a literal
    of more than MAX_LITERAL_BOXES boxes."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected a bracketed partition like [2,1], got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Partition()
    try:
        parts = [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"invalid partition literal {text!r}") from None
    shape = Partition(parts)
    if shape.size() > MAX_LITERAL_BOXES:
        raise ValueError(f"a partition literal has at most {MAX_LITERAL_BOXES} boxes, got {shape.size()}")
    return shape


# The largest degree of Schur data: `boson.characters` and `boson.schur` raise
# above it, and a schur_memo table stores no key with a partition of more
# boxes.  The character tables of degrees 0 to 20 build in about 0.4 s
# (Python 3.11, one core).
MAX_SCHUR_DEGREE = 20


class _Unstored(Exception):
    """Carries the value of a call whose key schur_memo does not store."""


def schur_memo(raw):
    """Memoise raw(shape), or raw(shape, k) whose results are partitions of
    |shape| - k boxes, storing a key only when every partition the call reads
    or returns has 0 to MAX_SCHUR_DEGREE boxes: at most the 2,714 shapes of
    those degrees, with 20 values of k each.  Any other key, such as the 10^5
    parts of p1^100000 or a strip alpha(-40) adds, is computed and not stored.

    A hit is one lookup in the functools.cache table; the size gate runs only
    on a miss, which raises _Unstored to keep an oversized key out, since the
    table stores no call that raised."""
    keyed = raw if raw.__code__.co_argcount == 2 else lambda shape, k: raw(shape)

    def gated(shape, k):
        value = keyed(shape, k)
        size = sum(shape)
        if size <= MAX_SCHUR_DEGREE and 0 <= size - k <= MAX_SCHUR_DEGREE:
            return value
        raise _Unstored(value)

    table = cache(gated)

    @wraps(raw)
    def memoised(shape, k=0):
        try:
            return table(shape, k)
        except _Unstored as unstored:
            return unstored.args[0]

    memoised.cache_clear, memoised.cache_info = table.cache_clear, table.cache_info
    return memoised


@schur_memo
def hook_product(shape: Partition) -> int:
    """Product over the boxes of their hooks, arm + leg + 1: the box in
    column col of a row of this length has arm length - col - 1, and its
    leg is the number of rows below longer than col."""
    result = 1
    for row, length in enumerate(shape):
        for col in range(length):
            result *= length - col + sum(1 for below in shape[row + 1:] if below > col)
    return result


def conjugate(shape: Partition) -> Partition:
    """The transposed diagram: its column lengths, longest first."""
    return Partition(sum(1 for row_len in shape if row_len > col) for col in range(shape.part(0)))


def dimension_vector(shape: Partition) -> dict[int, int]:
    """Number of boxes of each residue; absent keys mean zero."""
    counts: dict[int, int] = {}
    for row, length in enumerate(shape):
        for col in range(length):
            counts[col - row] = counts.get(col - row, 0) + 1
    return counts


@schur_memo
def z_factor(shape: Partition) -> int:
    """prod over part values i of i^(multiplicity) * multiplicity!."""
    return prod(i**m * factorial(m) for i, m in shape.multiplicities().items())


def move_box(shape: Partition, k: int, step: int) -> Partition | None:
    """shape with its box of residue k added (step 1) or removed (step -1), or
    None when it has none.  The box ends its row, in column shape_row (added)
    or shape_row - 1 (removed); shape_row - row falls strictly with the row,
    so at most one row qualifies and the walk stops once it passes k."""
    for row in range(len(shape) + (step == 1)):  # a box may start a new row
        length = shape.part(row)
        residue = length - row - (step == -1)
        if residue > k:
            continue
        if residue < k:
            return None
        beside = row - step  # the row above (adding) or below (removing)
        if beside >= 0 and shape.part(beside) == length:
            return None  # as long as this row: moving the box breaks the order
        parts = shape[:row] + (length + step,) + shape[row + 1:]
        return tuple.__new__(Partition, parts if parts[-1] else parts[:-1])
    return None


@schur_memo
def ribbons(shape: Partition, k: int) -> tuple[tuple[int, Partition], ...]:
    """Border strips of size |k|: removed from shape for k > 0, added for k < 0.

    Works on the beta-set {shape_i - i}: a strip moves the bead at slot i by
    |k| to a free position, where it lands at slot q among the other beads,
    and its sign (-1)^height is (-1)^(i + q).  Results come as (sign, shape)
    pairs, top row's bead first.
    """
    if k == 0:
        raise ValueError("a border strip has positive size")
    length = len(shape)
    beads = [part - i for i, part in enumerate(shape)]  # below them every position <= -length is filled
    occupied = set(beads)
    result = []
    for i in range(length + max(-k, 0)):  # for k < 0 the top -k tail beads may move too
        bead = beads[i] if i < length else -i
        target = bead - k
        if target <= -length or target in occupied:
            continue
        if k > 0:  # down past the beads i + 1 .. q, each one position up and one box shorter
            q = i
            while q + 1 < length and beads[q + 1] > target:
                q += 1
            parts = [*shape[:i], *(p - 1 for p in shape[i + 1:q + 1]), target + q, *shape[q + 1:]]
            while parts and not parts[-1]:
                parts.pop()
        else:  # up past the beads q .. i - 1, each one position down and one box longer;
            # the tail beads among them are empty rows, so they become 1s
            q = min(i, length)
            while q and beads[q - 1] < target:
                q -= 1
            parts = [*shape[:q], target + q, *(p + 1 for p in shape[q:i])]
            parts += [1] * (i - length)
            parts += shape[i + 1:]
        # the parts are weakly decreasing by construction
        result.append((-1 if (i + q) & 1 else 1, tuple.__new__(Partition, parts)))
    return tuple(result)


def cartan_apply(counts: dict[int, int], k: int) -> int:
    """(C v)_k for the doubly infinite tridiagonal Cartan matrix of type A."""
    return 2 * counts.get(k, 0) - counts.get(k - 1, 0) - counts.get(k + 1, 0)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, e.g. (3), (2,1), (1,1,1)."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of size 0, 1, ..., n, smaller sizes first."""
    return [shape for m in range(n + 1) for shape in partitions_of(m)]
