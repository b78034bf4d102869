"""Partitions, Young diagrams, hooks, residues and dimension vectors.

Diagrams use English notation: row 0 is the longest row, rows grow downward.
A box sits in column ``col`` and row ``row`` (both counted from zero) and has
residue ``col - row``.
"""

from functools import cache, lru_cache
from math import factorial, prod
from typing import Iterable, NamedTuple


class Box(NamedTuple):
    col: int
    row: int

    @property
    def residue(self) -> int:
        return self.col - self.row


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

    def contains_box(self, box: Box) -> bool:
        return box.col >= 0 and box.row >= 0 and box.col < self.part(box.row)

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


def boxes(shape: Partition) -> list[Box]:
    """All boxes of the diagram in row-major order."""
    return [Box(j, k) for k, row_len in enumerate(shape) for j in range(row_len)]


def arm(shape: Partition, box: Box) -> int:
    return shape.part(box.row) - box.col - 1


def leg(shape: Partition, box: Box) -> int:
    return sum(1 for row_len in shape[box.row + 1:] if row_len > box.col)


def hook(shape: Partition, box: Box) -> int:
    """Arm plus leg plus one for a box inside the diagram."""
    if not shape.contains_box(box):
        raise ValueError(f"box {box} lies outside the diagram of {shape}")
    return arm(shape, box) + leg(shape, box) + 1


@cache
def hook_product(shape: Partition) -> int:
    result = 1
    for box in boxes(shape):
        result *= hook(shape, box)
    return result


def conjugate(shape: Partition) -> Partition:
    """The transposed diagram: its column lengths, longest first."""
    return Partition(sum(1 for row_len in shape if row_len > col) for col in range(shape.part(0)))


def dimension_vector(shape: Partition) -> dict[int, int]:
    """Number of boxes of each residue; absent keys mean zero."""
    counts: dict[int, int] = {}
    for box in boxes(shape):
        r = box.residue
        counts[r] = counts.get(r, 0) + 1
    return counts


# z_mu is read once per output monomial of every Schur expansion and once per
# shared monomial of every Hall pairing.  The memo is bounded: 4096 entries
# hold every partition of degree up to 20 (there are 2,714 of them), the
# degrees that carry Schur data, and a long-lived process stays finite.
@lru_cache(maxsize=4096)
def z_factor(shape: Partition) -> int:
    """prod over part values i of i^(multiplicity) * multiplicity!."""
    return prod(i**m * factorial(m) for i, m in shape.multiplicities().items())


def addable_corners(shape: Partition) -> list[Box]:
    """Boxes whose addition yields a partition, ordered top row first."""
    corners = []
    for row in range(len(shape) + 1):
        col = shape.part(row)
        if row == 0 or shape.part(row - 1) > col:
            corners.append(Box(col, row))
    return corners


def removable_corners(shape: Partition) -> list[Box]:
    """Boxes whose removal yields a partition, ordered top row first."""
    corners = []
    for row, row_len in enumerate(shape):
        if shape.part(row + 1) < row_len:
            corners.append(Box(row_len - 1, row))
    return corners


def addable_boxes(shape: Partition, k: int) -> list[Box]:
    return [b for b in addable_corners(shape) if b.residue == k]


def removable_boxes(shape: Partition, k: int) -> list[Box]:
    return [b for b in removable_corners(shape) if b.residue == k]


@cache
def ribbons(shape: Partition, k: int) -> tuple[tuple[int, Partition], ...]:
    """Border strips of size |k|: removed from shape for k > 0, added for k < 0.

    Works on the beta-set {shape_i - i}: a strip moves one bead by |k| to a
    free position, and its sign (-1)^height is (-1) to the number of beads
    passed.  Results come as (sign, shape) pairs, top row's bead first.
    """
    if k == 0:
        raise ValueError("a border strip has positive size")
    # Beads below index `count` sit at every position <= -count.
    count = len(shape) + max(-k, 0)
    beads = [shape.part(i) - i for i in range(count)]
    occupied = set(beads)
    result = []
    for i, bead in enumerate(beads):
        target = bead - k
        if target <= -count or target in occupied:
            continue
        low, high = (target, bead) if k > 0 else (bead, target)
        passed = sum(1 for b in beads if low < b < high)
        moved = sorted(beads[:i] + [target] + beads[i + 1:], reverse=True)
        parts = [b + j for j, b in enumerate(moved)]
        while parts and parts[-1] == 0:
            parts.pop()
        result.append((-1 if passed % 2 else 1, Partition(parts)))
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
