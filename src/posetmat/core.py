"""Poset matrices: binary unit lower-triangular transitive matrices.

A poset matrix of order n encodes a naturally labelled partial order on
{1,..,n}: entry a[i,j] = 1 exactly when j <= i in the order.  Natural
labelling (x below y implies label(x) <= label(y)) forces the matrix to be
lower triangular with a unit diagonal; transitivity of the order becomes
transitivity of the entries.

A matrix is a tuple of int row codes and a width: bit j of codes[r] is
entry (r+1, j+1), for BinaryMatrix and its validated subtype PosetMatrix
alike.  `.rows` is a tuple-of-tuples view built from the codes when read.
Minimal and maximal elements are two bit masks, read in one pass over the
rows (_extremal) when first needed.

Everything here is an immutable value; all operations are pure functions.
Indices on the public surface are 1-based.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter, index

from .errors import (
    IndexOutOfRange,
    NotLowerTriangular,
    NotReflexive,
    TransitivityViolation,
    ValidationError,
)

# Most matrix entries one command may build or print, as pascal_matrix and
# factor count them before they start: 10^8 entries are 10^8 characters of
# text.  Larger inputs are refused with ResourceLimit.
ENTRY_BUDGET = 10**8


class Record:
    """Immutable value with named fields, the base of the result types.

    A subclass lists its fields, two or more, in order, as its __slots__, and
    annotates them in the same order; they are set by position or by keyword
    and never again.  Records are equal when their types and fields are,
    hash by their fields, print as Name(field=value, ...), and pickle and
    copy by being built anew from their fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        cls._fields = fields
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        cls._values = staticmethod(attrgetter(*fields))  # a tuple: two fields or more

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple([kwargs.pop(f) for f in fields[len(args) :] if f in kwargs])
        if kwargs or len(args) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {', '.join(fields)}, "
                "each once, by position or keyword"
            )
        for put, value in zip(self._setters, args):
            put(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuild through __init__: a raising __setattr__ rules out the
        # default restore of slots.
        return type(self), self._values(self)


@lru_cache(maxsize=None)
def _bit_strings(width: int) -> tuple:
    """The '0'/'1' string, column 1 first, of every row code of a width up to 10."""
    return tuple(format(x, f"0{width}b")[::-1] if width else "" for x in range(1 << width))


class BinaryMatrix:
    """Immutable rectangular grid of 0/1 entries, stored as int row codes."""

    __slots__ = ("codes", "width")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for x in r:
                if x not in (0, 1):
                    raise ValueError(f"entry {x!r} is not a bit")
        _set_codes(self, tuple(sum(x << j for j, x in enumerate(r)) for r in rows))
        _set_width(self, width)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def _of(cls, codes: tuple, width: int):
        # Fast path for codes known to fit the width (and any invariants of cls).
        m = _new(cls)
        _set_codes(m, codes)
        _set_width(m, width)
        return m

    @property
    def height(self) -> int:
        return len(self.codes)

    @property
    def n(self) -> int:
        """Order of a square matrix."""
        if len(self.codes) != self.width:
            raise ValueError(f"matrix is {self.height}x{self.width}, not square")
        return self.width

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of row tuples, built from the codes."""
        w = self.width
        return tuple(tuple((x >> j) & 1 for j in range(w)) for x in self.codes)

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        if not (1 <= i <= self.height and 1 <= j <= self.width):
            raise IndexOutOfRange(f"entry ({i},{j}) of a {self.height}x{self.width} matrix")
        return (self.codes[i - 1] >> (j - 1)) & 1

    @classmethod
    def zeros(cls, height: int, width: int) -> "BinaryMatrix":
        return BinaryMatrix._of((0,) * height, width)

    @classmethod
    def from_bits(cls, rows) -> "BinaryMatrix":
        """Build from "100;110;111" or an iterable of '0'/'1' strings."""
        if isinstance(rows, str):
            rows = rows.replace("\n", ";").split(";")
        return BinaryMatrix([[int(c) for c in str(r).strip()] for r in rows if str(r).strip()])

    def bit_rows(self) -> tuple:
        """Rows as '0'/'1' strings."""
        w = self.width
        if w <= 10:
            return tuple(map(_bit_strings(w).__getitem__, self.codes))
        return tuple([format(x, f"0{w}b")[::-1] for x in self.codes])

    def __eq__(self, other):  # same codes and same shape, whatever the type
        return isinstance(other, BinaryMatrix) and self.codes == other.codes and (
            self.width == other.width
        )

    def __hash__(self):
        return hash((self.codes, self.width))

    def __repr__(self):
        return f"{type(self).__name__}({';'.join(self.bit_rows())!r})"

    def __reduce__(self):
        # Rebuild from the codes: a raising __setattr__ rules out the default
        # restore of slots, for pickle, copy and deepcopy alike.
        return type(self)._of, (self.codes, self.width)


_new = object.__new__
_set_codes = BinaryMatrix.__dict__["codes"].__set__
_set_width = BinaryMatrix.__dict__["width"].__set__


class PosetMatrix(BinaryMatrix):
    """Validated n x n binary unit lower-triangular transitive matrix."""

    __slots__ = ()

    def __init__(self, rows):
        m = validate(BinaryMatrix(rows))
        _set_codes(self, m.codes)
        _set_width(self, m.width)

    @classmethod
    def _wrap(cls, codes: tuple) -> "PosetMatrix":
        # Fast path for constructions proven to preserve the invariants.
        return cls._of(codes, len(codes))

    @classmethod
    def from_bits(cls, rows) -> "PosetMatrix":
        return validate(BinaryMatrix.from_bits(rows))

    @property
    def n(self) -> int:
        return self.width


UNIT = PosetMatrix._wrap((1,))


def _check_poset(codes) -> None:
    """Raise the first violation in row-major scan order.

    Transitivity is checked by the cover walk that cover_relation also
    takes: the highest element left in a row's strict down-set is covered
    by the row's element, and dropping its down-set leaves the next one."""
    if not codes:
        raise ValidationError("order must be positive")
    for i, x in enumerate(codes):
        if not (x >> i) & 1:
            raise NotReflexive(i + 1)
        above = x >> (i + 1)
        if above:
            raise NotLowerTriangular(i + 1, i + 1 + (above & -above).bit_length())
    # Row i is transitive when each row j below i sits inside it.  Rows before i
    # are, so only the maximal such j need checking: each covers its down-set.
    for i, x in enumerate(codes):
        rest = x ^ (1 << i)
        while rest:
            j = rest.bit_length() - 1
            if codes[j] & ~x:  # report the least j, then the least k
                j = next(j for j in range(i) if (x >> j) & 1 and codes[j] & ~x)
                missing = codes[j] & ~x
                raise TransitivityViolation(i + 1, j + 1, (missing & -missing).bit_length())
            rest &= ~codes[j]


def validate(m) -> PosetMatrix:
    """Check the three poset-matrix invariants; raise a ValidationError otherwise."""
    if not isinstance(m, BinaryMatrix):
        m = BinaryMatrix(m)
    if len(m.codes) != m.width:
        raise ValueError("matrix is not square")
    _check_poset(m.codes)
    return PosetMatrix._wrap(m.codes)


def index_set(alpha, n: int) -> tuple:
    """Normalise an index set: strictly increasing 1-based indices within [n].
    An index that is not an integer (1.5, "1") raises TypeError."""
    alpha = tuple(map(index, alpha))
    for a in alpha:
        if not 1 <= a <= n:
            raise IndexOutOfRange(f"index {a} outside [1,{n}]")
    if any(alpha[t] >= alpha[t + 1] for t in range(len(alpha) - 1)):
        raise IndexOutOfRange(f"indices {alpha} are not strictly increasing")
    return alpha


class BlockView(Record):
    """The five blocks of a poset matrix around insertion position i.

    a11 is the order-(i-1) top-left principal block, row/col are the entries
    of row i left of the diagonal and of column i below it, a21 the
    lower-left rectangle and a22 the order-(n-i) bottom-right principal
    block.  Boundary positions (i = 1 or i = n) just make blocks empty.
    """

    __slots__ = ("i", "a11", "row", "col", "a21", "a22")
    i: int
    a11: PosetMatrix
    row: tuple
    col: tuple
    a21: BinaryMatrix
    a22: PosetMatrix

    def reassemble(self) -> PosetMatrix:
        """Put the blocks back together (inverse of block_decompose)."""
        k = self.a11.n
        mid = sum(x << q for q, x in enumerate(self.row)) | 1 << k
        bot = tuple(
            x | self.col[r] << k | self.a22.codes[r] << (k + 1)
            for r, x in enumerate(self.a21.codes)
        )
        return validate(BinaryMatrix._of(self.a11.codes + (mid,) + bot, k + 1 + self.a22.n))


def block_decompose(a: PosetMatrix, i: int) -> BlockView:
    """Split a around row/column i into the five insertion blocks."""
    codes = a.codes
    n = len(codes)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"position {i} outside [1,{n}]")
    k = i - 1
    low = (1 << k) - 1
    lower = codes[i:]
    return BlockView(
        i=i,
        a11=PosetMatrix._wrap(codes[:k]),
        row=tuple((codes[k] >> q) & 1 for q in range(k)),
        col=tuple((x >> k) & 1 for x in lower),
        a21=BinaryMatrix._of(tuple(x & low for x in lower), k),
        a22=PosetMatrix._wrap(tuple(x >> i for x in lower)),
    )


def _gather(codes, rows, cols) -> tuple:
    """Row codes of the block on the given rows and distinct columns, both
    0-based: bit p of row r's new code is bit cols[p] of codes[rows[r]].
    Each row costs one step per set bit it keeps."""
    place = {1 << c: 1 << p for p, c in enumerate(cols)}
    keep, out = sum(place), []
    for r in rows:
        x, y = codes[r] & keep, 0
        while x:
            low = x & -x
            x, y = x ^ low, y | place[low]
        out.append(y)
    return tuple(out)


def submatrix(a, row_set, col_set) -> BinaryMatrix:
    """Select the given rows and columns (both 1-based, strictly increasing)."""
    rows = [r - 1 for r in index_set(row_set, a.height)]
    cols = [c - 1 for c in index_set(col_set, a.width)]
    return BinaryMatrix._of(_gather(a.codes, rows, cols), len(cols))


def principal_subposet(a: PosetMatrix, alpha) -> PosetMatrix:
    """Principal block on alpha; always a valid poset matrix."""
    alpha = index_set(alpha, a.n)
    if not alpha:
        raise IndexOutOfRange("empty index set")
    idx = [x - 1 for x in alpha]
    return PosetMatrix._wrap(_gather(a.codes, idx, idx))


def relabel(a: PosetMatrix, order) -> PosetMatrix:
    """Relabel by a linear extension listing (element at position p gets label p).

    order must list 1..n once each, else IndexOutOfRange.  A permutation
    keeps the diagonal and every relation, so the result is a poset matrix
    exactly when it is lower triangular, that is when order is a linear
    extension of a; any other permutation raises NotLowerTriangular."""
    idx = [x - 1 for x in order]
    if sorted(idx) != list(range(a.n)):
        listed = tuple(x + 1 for x in idx)
        raise IndexOutOfRange(f"order {listed} is not a permutation of [1,{a.n}]")
    return validate(BinaryMatrix._of(_gather(a.codes, idx, idx), len(idx)))


# Compositions insert the same B many times: memoise its masks (bounded).
@lru_cache(maxsize=1 << 10)
def _extremal(codes) -> tuple:
    """(n, minimal, maximal) of an order-n matrix, from one pass over its
    rows: bit q of minimal is set when element q+1's row is the diagonal
    alone, and bit q of maximal when no other row has bit q."""
    mins = below = 0
    for q, x in enumerate(codes):
        if x == 1 << q:
            mins |= x
        below |= x ^ 1 << q
    n = len(codes)
    return n, mins, ~below & (1 << n) - 1


def _members(mask: int) -> tuple:
    """The elements of a bit mask, ascending and 1-based: bit q is element
    q+1.  It takes one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def minimal_elements(a: PosetMatrix) -> tuple:
    """Elements whose sub-diagonal row is empty or all zero."""
    return _members(_extremal(a.codes)[1])


def maximal_elements(a: PosetMatrix) -> tuple:
    """Elements whose sub-diagonal column is empty or all zero."""
    return _members(_extremal(a.codes)[2])


def cover_relation(a: PosetMatrix) -> tuple:
    """Transitive reduction: pairs (i, j) with j covering i, sorted.

    The cover walk of _check_poset: the highest element k left in j's strict
    down-set is covered by j, as anything between k and j would have a label
    above k and, once dropped, would have taken k with it.  Dropping k's
    down-set leaves the next cover, so each cover costs one step.  A matrix
    that is not a PosetMatrix is validated first: the walk ends only on a
    unit diagonal."""
    codes = (a if isinstance(a, PosetMatrix) else validate(a)).codes
    covers = []
    for j, x in enumerate(codes, 1):
        rest = x ^ 1 << j - 1
        while rest:
            k = rest.bit_length()
            covers.append((k, j))
            rest &= ~codes[k - 1]
    covers.sort()
    return tuple(covers)


def closure_of_covers(n: int, covers) -> PosetMatrix:
    """Reflexive-transitive closure of a cover set; oracle inverse of cover_relation.

    Every pair (i, j) must have 1 <= i < j <= n, else IndexOutOfRange.  One
    pass in sorted order closes the set: each pair (h, i) sorts before each
    (i, j), as h < i, so i's down-set is final when (i, j) reads it."""
    below = [1 << i for i in range(n)]  # down-set bitmask per element, self included
    for i, j in sorted(covers):
        if not 1 <= i < j <= n:
            raise IndexOutOfRange(f"cover ({i},{j}) is not a pair 1 <= i < j <= {n}")
        below[j - 1] |= below[i - 1]
    return validate(BinaryMatrix._of(tuple(below), n))
