"""The eleven partial compositions on poset matrices.

All of them replace the diagonal entry at position i of an order-n matrix A
with an order-m matrix B, producing an order n+m-1 matrix; they differ only
in how the m x (i-1) block U left of B and the (n-i) x m block V below B are
filled.  _RULES is the definition: it maps each kind to its U-fill, its
V-fill and its precondition on A, and compose reads nothing else.

  U-fill    ROW        m stacked copies of A's row prefix at i
            ROW_AT_MAX that prefix in the rows of B's maximal elements, 0 elsewhere
            0 or 1     the constant
  V-fill    COL        m side-by-side copies of A's column suffix at i
            COL_AT_MIN that suffix in the columns of B's minimal elements, 0 elsewhere
            0 or 1     the constant

  square    (ROW, COL), an operad.
  min       (ROW, COL_AT_MIN), an operad.
  max       (ROW_AT_MAX, COL), an operad.
  minmax    (ROW_AT_MAX, COL_AT_MIN): closed, but not an operad (nested
            associativity fails).
  boxed(u, a21, v)
            (u, v), legal only when A's lower-left block has the constant
            fill a21; seven of the eight fill triples are admissible,
            (1,0,1) being the non-transitive forbidden pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BinaryMatrix, PosetMatrix, maximal_elements, minimal_elements
from .errors import DimensionMismatch, IndexOutOfRange, PreconditionViolated

SQUARE = "square"
MIN = "min"
MAX = "max"
MINMAX = "minmax"

_ADMISSIBLE = {
    (1, 1, 1),
    (0, 1, 0),
    (1, 1, 0),
    (0, 1, 1),
    (0, 0, 0),
    (0, 0, 1),
    (1, 0, 0),
}


@dataclass(frozen=True)
class Boxed:
    """Constant-fill insertion (u, a21, v); (1, 0, 1) is unrepresentable."""

    u: int
    a21: int
    v: int

    def __post_init__(self):
        if (self.u, self.a21, self.v) not in _ADMISSIBLE:
            raise ValueError(
                f"fill triple ({self.u},{self.a21},{self.v}) is not one of the "
                f"seven admissible patterns"
            )


ALL_BOXED = tuple(Boxed(*t) for t in sorted(_ADMISSIBLE, reverse=True))
MASK_KINDS = (SQUARE, MIN, MAX, MINMAX)
ALL_KINDS = MASK_KINDS + ALL_BOXED

OPERAD_KINDS = (SQUARE, MIN, MAX)  # the three proven operads

ROW = "row"
ROW_AT_MAX = "row@max"
COL = "col"
COL_AT_MIN = "col@min"

# kind -> (U-fill, V-fill, constant a21 required of A's lower-left block or None)
_RULES = {
    SQUARE: (ROW, COL, None),
    MIN: (ROW, COL_AT_MIN, None),
    MAX: (ROW_AT_MAX, COL, None),
    MINMAX: (ROW_AT_MAX, COL_AT_MIN, None),
    **{k: (k.u, k.v, k.a21) for k in ALL_BOXED},
}


def kind_name(kind) -> str:
    if isinstance(kind, Boxed):
        return f"boxed:{kind.u}{kind.a21}{kind.v}"
    return str(kind)


def parse_kind(name: str):
    """Inverse of kind_name; accepts square|min|max|minmax|boxed:UAV."""
    if name in MASK_KINDS:
        return name
    if name.startswith("boxed:") and len(name) == 9 and set(name[6:]) <= {"0", "1"}:
        return Boxed(int(name[6]), int(name[7]), int(name[8]))
    raise ValueError(f"unknown composition kind {name!r}")


def _rule(kind):
    try:
        return _RULES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown composition kind {kind!r}") from None


def _check_position(a: PosetMatrix, i: int) -> None:
    if not 1 <= i <= a.n:
        raise IndexOutOfRange(f"position {i} outside [1,{a.n}]")


def insert(a: PosetMatrix, i: int, b: PosetMatrix, u: BinaryMatrix, v: BinaryMatrix) -> BinaryMatrix:
    """Raw block assembly; performs no validity check on the result."""
    n, m = a.n, b.n
    _check_position(a, i)
    if u.height != m or u.width != i - 1:
        raise DimensionMismatch(f"U is {u.height}x{u.width}, expected {m}x{i - 1}")
    if v.height != n - i or (v.height and v.width != m):
        raise DimensionMismatch(f"V is {v.height}x{v.width}, expected {n - i}x{m}")
    return BinaryMatrix(_assemble(a, i, b, u.rows, v.rows))


def _assemble(a: PosetMatrix, i: int, b: PosetMatrix, u_rows, v_rows):
    ar, n, m = a.rows, a.n, b.n
    mid_zero = (0,) * m
    tail_zero = (0,) * (n - i)
    out = [ar[p][: i - 1] + mid_zero + ar[p][i:] for p in range(i - 1)]
    out += [u_rows[q] + b.rows[q] + tail_zero for q in range(m)]
    out += [ar[s][: i - 1] + v_rows[s - i] + ar[s][i:] for s in range(i, n)]
    return tuple(out)


def _check_lower_left(a: PosetMatrix, i: int, a21: int) -> None:
    """A's lower-left block at i must be constantly a21.

    The precondition is a condition on A, not a rewrite of it: a mismatched
    block is an error, never silently overwritten.  Empty blocks (i = 1 or
    i = n) satisfy either fill.
    """
    for s in range(i, a.n):
        for q in range(i - 1):
            if a.rows[s][q] != a21:
                raise PreconditionViolated(
                    f"lower-left block of A at position {i} has entry "
                    f"{a.rows[s][q]} at ({s + 1},{q + 1}), expected constant {a21}"
                )


def _u_rows(fill, a: PosetMatrix, i: int, b: PosetMatrix) -> tuple:
    """The m x (i-1) block U left of B under a U-fill, as m rows."""
    if fill == ROW:
        return (a.rows[i - 1][: i - 1],) * b.n
    if fill == ROW_AT_MAX:
        row, zero, maxs = a.rows[i - 1][: i - 1], (0,) * (i - 1), maximal_elements(b)
        return tuple(row if j in maxs else zero for j in range(1, b.n + 1))
    return ((fill,) * (i - 1),) * b.n


def _v_rows(fill, a: PosetMatrix, i: int, b: PosetMatrix) -> tuple:
    """The (n-i) x m block V below B under a V-fill, as n-i rows."""
    m = b.n
    col = tuple(a.rows[s][i - 1] for s in range(i, a.n))
    if fill == COL:
        return tuple((x,) * m for x in col)
    if fill == COL_AT_MIN:
        mins = minimal_elements(b)
        at_min, zero = tuple(1 if j in mins else 0 for j in range(1, m + 1)), (0,) * m
        return tuple(at_min if x else zero for x in col)
    return ((fill,) * m,) * len(col)


def min_mask(a: PosetMatrix, i: int, b: PosetMatrix) -> BinaryMatrix:
    """(n-i) x m mask whose column j copies A's column suffix at B's minimal j."""
    _check_position(a, i)
    return BinaryMatrix(_v_rows(COL_AT_MIN, a, i, b))


def max_mask(a: PosetMatrix, i: int, b: PosetMatrix) -> BinaryMatrix:
    """m x (i-1) mask whose row j copies A's row prefix at B's maximal j."""
    _check_position(a, i)
    return BinaryMatrix(_u_rows(ROW_AT_MAX, a, i, b))


def compose(kind, a: PosetMatrix, i: int, b: PosetMatrix) -> PosetMatrix:
    """A with B inserted at position i under kind.

    _RULES is the definition of every kind: compose looks up the kind's
    U-fill, V-fill and precondition there and builds nothing else.  An
    unknown kind raises ValueError, then a position outside [1, n]
    IndexOutOfRange, then a failed precondition PreconditionViolated.
    """
    u_fill, v_fill, a21 = _rule(kind)
    _check_position(a, i)
    if a21 is not None:
        _check_lower_left(a, i, a21)
    u_rows = _u_rows(u_fill, a, i, b)
    return PosetMatrix._wrap(_assemble(a, i, b, u_rows, _v_rows(v_fill, a, i, b)))


def host_fills(kind, c: PosetMatrix, i: int, b: PosetMatrix) -> tuple:
    """A's row prefix and column suffix at i, as c = compose(kind, A, i, B) shows them.

    A copied fill puts the whole prefix in the row of every maximal element
    of B and the whole suffix in the column of every minimal one, so both
    are read there (element 1 of B is always minimal).  A constant fill
    hides them; the constant is returned in their place.
    """
    u_fill, v_fill, _ = _rule(kind)
    m = b.n
    if u_fill in (0, 1):
        prefix = (u_fill,) * (i - 1)
    else:
        prefix = c.rows[i + maximal_elements(b)[0] - 2][: i - 1]
    if v_fill in (0, 1):
        suffix = (v_fill,) * (c.n - m - i + 1)
    else:
        suffix = tuple(c.rows[s][i - 1] for s in range(i + m - 1, c.n))
    return prefix, suffix
