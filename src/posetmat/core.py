"""Poset matrices: binary unit lower-triangular transitive matrices.

A poset matrix of order n encodes a naturally labelled partial order on
{1,..,n}: entry a[i,j] = 1 exactly when j <= i in the order.  Natural
labelling (x below y implies label(x) <= label(y)) forces the matrix to be
lower triangular with a unit diagonal; transitivity of the order becomes
transitivity of the entries.

Everything here is an immutable value; all operations are pure functions.
Indices on the public surface are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    NotLowerTriangular,
    NotReflexive,
    TransitivityViolation,
    ValidationError,
)


class BinaryMatrix:
    """Immutable rectangular grid of 0/1 entries."""

    __slots__ = ("rows", "height", "width")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        height = len(rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for x in r:
                if x not in (0, 1):
                    raise ValueError(f"entry {x!r} is not a bit")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "width", width)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @property
    def n(self) -> int:
        """Order of a square matrix."""
        if self.height != self.width:
            raise ValueError(f"matrix is {self.height}x{self.width}, not square")
        return self.height

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        if not (1 <= i <= self.height and 1 <= j <= self.width):
            raise IndexOutOfRange(f"entry ({i},{j}) of a {self.height}x{self.width} matrix")
        return self.rows[i - 1][j - 1]

    @classmethod
    def zeros(cls, height: int, width: int) -> "BinaryMatrix":
        return cls.__new_unchecked(tuple(((0,) * width,) * height))

    @classmethod
    def ones(cls, height: int, width: int) -> "BinaryMatrix":
        return cls.__new_unchecked(tuple(((1,) * width,) * height))

    @classmethod
    def __new_unchecked(cls, rows):
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "height", len(rows))
        object.__setattr__(m, "width", len(rows[0]) if rows else 0)
        return m

    @classmethod
    def from_bits(cls, rows) -> "BinaryMatrix":
        """Build from "100;110;111" or an iterable of '0'/'1' strings."""
        if isinstance(rows, str):
            rows = rows.replace("\n", ";").split(";")
        return cls([[int(c) for c in str(r).strip()] for r in rows if str(r).strip()])

    def bit_rows(self) -> tuple:
        """Rows as '0'/'1' strings."""
        return tuple("".join(str(x) for x in r) for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, (BinaryMatrix, PosetMatrix)) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({';'.join(self.bit_rows())!r})"


class PosetMatrix:
    """Validated n x n binary unit lower-triangular transitive matrix."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix is not square")
        _check_poset(rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def _wrap(cls, rows) -> "PosetMatrix":
        # Fast path for constructions proven to preserve the invariants.
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "n", len(rows))
        return m

    @classmethod
    def from_bits(cls, rows) -> "PosetMatrix":
        return validate(BinaryMatrix.from_bits(rows))

    @property
    def height(self) -> int:
        return self.n

    @property
    def width(self) -> int:
        return self.n

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"entry ({i},{j}) of an order-{self.n} matrix")
        return self.rows[i - 1][j - 1]

    def bit_rows(self) -> tuple:
        return tuple("".join(str(x) for x in r) for r in self.rows)

    def binary(self) -> BinaryMatrix:
        return BinaryMatrix(self.rows)

    def __eq__(self, other):
        return isinstance(other, (BinaryMatrix, PosetMatrix)) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"PosetMatrix({';'.join(self.bit_rows())!r})"


UNIT = PosetMatrix._wrap(((1,),))


def _check_poset(rows) -> None:
    """Raise the first violation in row-major scan order."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 1:
            raise NotReflexive(i + 1)
        for j in range(i + 1, n):
            if rows[i][j]:
                raise NotLowerTriangular(i + 1, j + 1)
    # Transitivity via row bitmasks: j's down-set must sit inside i's whenever a[i,j]=1.
    bits = []
    for i in range(n):
        b = 0
        for j in range(i + 1):
            if rows[i][j]:
                b |= 1 << j
        bits.append(b)
    for i in range(n):
        for j in range(i):
            if rows[i][j]:
                missing = bits[j] & ~bits[i]
                if missing:
                    # lowest set bit = first k in ascending scan
                    k = (missing & -missing).bit_length()
                    raise TransitivityViolation(i + 1, j + 1, k)


def validate(m) -> PosetMatrix:
    """Check the three poset-matrix invariants; raise a ValidationError otherwise."""
    rows = m.rows if isinstance(m, (BinaryMatrix, PosetMatrix)) else tuple(m)
    return PosetMatrix(rows)


def is_poset_matrix(m) -> bool:
    """True iff validate(m) succeeds.  Input that is not a grid of 0/1
    entries (None, a number, ragged rows, other entries) gives False."""
    try:
        validate(m)
        return True
    except (ValidationError, ValueError, TypeError, OverflowError):
        # OverflowError: int() of an infinite float entry.
        return False


def index_set(alpha, n: int) -> tuple:
    """Normalise an index set: strictly increasing 1-based indices within [n]."""
    alpha = tuple(int(a) for a in alpha)
    for a in alpha:
        if not 1 <= a <= n:
            raise IndexOutOfRange(f"index {a} outside [1,{n}]")
    if any(alpha[t] >= alpha[t + 1] for t in range(len(alpha) - 1)):
        raise IndexOutOfRange(f"indices {alpha} are not strictly increasing")
    return alpha


@dataclass(frozen=True)
class BlockView:
    """The five blocks of a poset matrix around insertion position i.

    a11 is the order-(i-1) top-left principal block, row/col are the entries
    of row i left of the diagonal and of column i below it, a21 the
    lower-left rectangle and a22 the order-(n-i) bottom-right principal
    block.  Boundary positions (i = 1 or i = n) just make blocks empty.
    """

    i: int
    a11: PosetMatrix
    row: tuple
    col: tuple
    a21: BinaryMatrix
    a22: PosetMatrix

    def reassemble(self) -> PosetMatrix:
        """Put the blocks back together (inverse of block_decompose)."""
        i = self.i
        k = self.a11.n
        top = [self.a11.rows[p] + (0,) * (1 + self.a22.n) for p in range(k)]
        mid = [self.row + (1,) + (0,) * self.a22.n]
        bot = [
            self.a21.rows[r] + (self.col[r],) + self.a22.rows[r]
            for r in range(self.a22.n)
        ]
        return PosetMatrix(top + mid + bot)


def block_decompose(a: PosetMatrix, i: int) -> BlockView:
    """Split a around row/column i into the five insertion blocks."""
    n = a.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"position {i} outside [1,{n}]")
    rows = a.rows
    a11 = PosetMatrix._wrap(tuple(rows[p][: i - 1] for p in range(i - 1)))
    row = rows[i - 1][: i - 1]
    col = tuple(rows[s][i - 1] for s in range(i, n))
    a21 = BinaryMatrix(tuple(rows[s][: i - 1] for s in range(i, n)))
    a22 = PosetMatrix._wrap(tuple(rows[s][i:] for s in range(i, n)))
    return BlockView(i=i, a11=a11, row=row, col=col, a21=a21, a22=a22)


def submatrix(a, row_set, col_set) -> BinaryMatrix:
    """Select the given rows and columns (both 1-based, strictly increasing)."""
    rows = index_set(row_set, a.height)
    cols = index_set(col_set, a.width)
    grid = tuple(tuple(a.rows[r - 1][c - 1] for c in cols) for r in rows)
    return BinaryMatrix(grid)


def principal_subposet(a: PosetMatrix, alpha) -> PosetMatrix:
    """Principal block on alpha; always a valid poset matrix."""
    alpha = index_set(alpha, a.n)
    if not alpha:
        raise IndexOutOfRange("empty index set")
    grid = tuple(tuple(a.rows[r - 1][c - 1] for c in alpha) for r in alpha)
    return PosetMatrix._wrap(grid)


def minimal_elements(a: PosetMatrix) -> tuple:
    """Elements whose sub-diagonal row is empty or all zero."""
    return tuple(
        i + 1 for i in range(a.n) if not any(a.rows[i][:i])
    )


def maximal_elements(a: PosetMatrix) -> tuple:
    """Elements whose sub-diagonal column is empty or all zero."""
    n = a.n
    return tuple(
        j + 1 for j in range(n) if not any(a.rows[s][j] for s in range(j + 1, n))
    )


def cover_relation(a: PosetMatrix) -> tuple:
    """Transitive reduction: pairs (i, j) with j covering i, sorted."""
    n = a.n
    covers = []
    for j in range(1, n):  # 0-based row of the larger element
        for i in range(j):
            if not a.rows[j][i]:
                continue
            if any(a.rows[k][i] and a.rows[j][k] for k in range(i + 1, j)):
                continue
            covers.append((i + 1, j + 1))
    return tuple(sorted(covers))


def closure_of_covers(n: int, covers) -> PosetMatrix:
    """Reflexive-transitive closure of a cover set; oracle inverse of cover_relation."""
    below = [1 << i for i in range(n)]  # down-set bitmask per element, self included
    for i, j in sorted(covers):
        below[j - 1] |= below[i - 1]
    changed = True
    while changed:
        changed = False
        for i, j in covers:
            merged = below[j - 1] | below[i - 1]
            if merged != below[j - 1]:
                below[j - 1] = merged
                changed = True
    rows = tuple(
        tuple(1 if (below[i] >> j) & 1 else 0 for j in range(n)) for i in range(n)
    )
    return PosetMatrix(rows)
