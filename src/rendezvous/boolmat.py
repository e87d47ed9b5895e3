"""Boolean matrix arithmetic over the {0,1} semiring.

Addition is logical OR, multiplication is logical AND.  A matrix is stored
as one Python int per row, with bit ``j`` of ``rows[i]`` holding entry
``(i, j)``.  Row-level operations (products, supports, weights) are then
word-parallel bit operations.  Whole-matrix column data (weights, supports,
backward reachability) comes from one ``transpose()``; ``col(j)`` reads a
single column.  ``max_column_weight`` is the one column-count kernel: it
counts columns with bit-sliced counters (one int per bit of the count), so
a row costs a few word-parallel operations, not one step per set bit.
``row_image`` is the one "OR of rows over a mask's support" kernel: a
product row, a memoized child row in the semigroup search, a subset
preimage in the subset search and a column of the heuristic's product
are all row images.

All values here are immutable after construction, so they can be shared
freely between threads and reused as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionError, NonNZError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def row_image(rows: tuple[int, ...], mask: int) -> int:
    """OR of ``rows[j]`` over the set bits j of ``mask``: row ``mask`` of a
    boolean product whose right factor has bit rows ``rows``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def max_column_weight(n: int, rows: tuple[int, ...]) -> int:
    """Largest column weight of the n x n matrix with bit rows ``rows``.

    Column counts are bit-sliced: bit j of ``planes[b]`` is bit b of column
    j's count, and each row is added by a carry-save add across the planes.
    The largest count is read from the top plane down, keeping the columns
    whose count agrees with the maximum on the planes read so far.
    """
    planes: list[int] = []
    for carry in rows:
        b = 0
        for plane in planes:
            planes[b] = plane ^ carry
            carry &= plane
            if not carry:
                break
            b += 1
        else:
            if carry:
                planes.append(carry)
    count, live = 0, (1 << n) - 1
    for plane in reversed(planes):
        count <<= 1
        if live & plane:
            live &= plane
            count |= 1
    return count


@dataclass(frozen=True)
class BoolMatrix:
    """Square binary matrix over the boolean semiring."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.n}")
        if len(self.rows) != self.n:
            raise DimensionError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row < 0 or row > full:
                raise DimensionError(f"row {i} has bits outside dimension {self.n}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BoolMatrix":
        """Build from nested 0/1 entries; any positive entry is taken as 1."""
        packed = []
        for row in rows:
            mask = 0
            for j, value in enumerate(row):
                if value:
                    mask |= 1 << j
            packed.append(mask)
        return cls(len(packed), tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def ones(cls, n: int) -> "BoolMatrix":
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def col(self, j: int) -> int:
        """Bitmask of column ``j`` (bit i set iff entry (i, j) is 1)."""
        mask = 0
        for i, row in enumerate(self.rows):
            mask |= ((row >> j) & 1) << i
        return mask

    def transpose(self) -> "BoolMatrix":
        n = self.n
        cols = [0] * n
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        return BoolMatrix(n, tuple(cols))

    def __matmul__(self, other: "BoolMatrix") -> "BoolMatrix":
        """Boolean product: result (i, j) = OR over s of self(i,s) AND other(s,j)."""
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(
                f"cannot multiply {self.n}x{self.n} by {other.n}x{other.n}"
            )
        rows = other.rows
        return BoolMatrix(self.n, tuple([row_image(rows, mask) for mask in self.rows]))

    def nz_defect(self) -> tuple[str, int] | None:
        """First zero row or zero column, or None when the matrix is NZ."""
        for i, row in enumerate(self.rows):
            if row == 0:
                return ("row", i)
        seen = 0
        for row in self.rows:
            seen |= row
        full = (1 << self.n) - 1
        if seen != full:
            missing = full & ~seen
            return ("column", next(bits(missing)))
        return None

    def to_lines(self) -> list[str]:
        return [
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.n))
            for row in self.rows
        ]

    def __str__(self) -> str:
        return "\n".join(self.to_lines())


def _toggle_prime(label: str) -> str:
    return label[:-1] if label.endswith("'") else label + "'"


def _reach_from_zero(rows: tuple[int, ...]) -> int:
    """Bitmask of the vertices reachable from vertex 0 in the bit-row digraph."""
    reach = 1
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            new = rows[v] & ~reach
            reach |= new
            nxt.extend(bits(new))
        frontier = nxt
    return reach


def _unreachable_pair(n: int, rows: tuple[int, ...]) -> tuple[int, int] | None:
    """Pair (i, j) with no directed path i -> j in the bit-row digraph, if any."""
    # Strong connectivity: everything reachable from 0, forward and backward.
    full = (1 << n) - 1
    missing = full & ~_reach_from_zero(rows)
    if missing:
        return (0, next(bits(missing)))
    missing = full & ~_reach_from_zero(BoolMatrix(n, rows).transpose().rows)
    if missing:
        return (next(bits(missing)), 0)
    return None


@dataclass(frozen=True)
class MatrixSet:
    """Ordered, labeled set of same-dimension boolean matrices.

    Generator order is part of the value: breadth-first searches and all
    tie-breaking downstream depend on it.
    """

    n: int
    generators: tuple[BoolMatrix, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.generators:
            raise DimensionError("a matrix set needs at least one generator")
        for g in self.generators:
            if g.n != self.n:
                raise DimensionError(
                    f"generator dimension {g.n} does not match set dimension {self.n}"
                )
        if len(self.labels) != len(self.generators):
            raise DimensionError("one label per generator required")

    @classmethod
    def of(
        cls,
        generators: Iterable[BoolMatrix],
        labels: Iterable[str] | None = None,
    ) -> "MatrixSet":
        gens = tuple(generators)
        if labels is None:
            labels = tuple(f"M{i + 1}" for i in range(len(gens)))
        else:
            labels = tuple(labels)
        n = gens[0].n if gens else 0
        return cls(n, gens, labels)

    @property
    def m(self) -> int:
        return len(self.generators)

    def transposed(self) -> "MatrixSet":
        """Transpose every generator, keeping order; labels get a prime toggled."""
        return MatrixSet(
            self.n,
            tuple(g.transpose() for g in self.generators),
            tuple(_toggle_prime(lbl) for lbl in self.labels),
        )

    def union_rows(self) -> tuple[int, ...]:
        """Bit rows of the entrywise OR of all generators."""
        acc = [0] * self.n
        for g in self.generators:
            for i, row in enumerate(g.rows):
                acc[i] |= row
        return tuple(acc)

    def reducibility_witness(self) -> tuple[int, int] | None:
        """States (i, j) with no path i -> j in the union digraph, if reducible."""
        return _unreachable_pair(self.n, self.union_rows())

    def first_non_nz(self) -> tuple[int, str, int] | None:
        """(generator index, 'row'/'column', line index) of the first NZ defect."""
        for g_idx, g in enumerate(self.generators):
            defect = g.nz_defect()
            if defect is not None:
                return (g_idx, defect[0], defect[1])
        return None

    def require_nz(self) -> None:
        defect = self.first_non_nz()
        if defect is not None:
            g_idx, kind, index = defect
            raise NonNZError(self.labels[g_idx], kind, index)
