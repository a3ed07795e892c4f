"""The eleven partial compositions on poset matrices.

All of them replace the diagonal entry at position i of an order-n matrix A
with an order-m matrix B, producing an order n+m-1 matrix; they differ only
in how the m x (i-1) block U left of B and the (n-i) x m block V below B are
filled.  A kind's rule is the definition: its U-fill, its V-fill and its
precondition on A, and compose reads nothing else.  _RULES holds the rules
of the four mask kinds; a boxed kind (u, a21, v) is its own rule, (u, v) with
the precondition a21, read from its fields by _rule.  U is
A's row prefix at i in every row of B (ROW), only in the rows of B's
maximal elements (ROW_AT_MAX), or a constant; V is A's column suffix at i
in every column of B (COL), only in those of B's minimal elements
(COL_AT_MIN), or a constant.  _lower_left_wrong names the first entry of
A's lower-left block that breaks the precondition, and compose raises from
it; the law rules carry the precondition at every position of a matrix as
one mask, from each matrix to its children (operad._reader).  The same
rules read backwards give the one host A that could have produced a
composite at a given split (_host); this is how structure.factor finds its
factorizations.  _host reads a copied U-fill at B's last element and a
copied V-fill at B's first, which natural labelling makes maximal and
minimal, so it reads no extremal mask of B.

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

from .core import BinaryMatrix, PosetMatrix, Record, _extremal
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


class Boxed(Record):
    """Constant-fill insertion (u, a21, v); (1, 0, 1) is unrepresentable."""

    __slots__ = ("u", "a21", "v")
    u: int
    a21: int
    v: int

    def __init__(self, u, a21, v):
        if (u, a21, v) not in _ADMISSIBLE:
            raise ValueError(
                f"fill triple ({u},{a21},{v}) is not one of the seven admissible patterns"
            )
        super().__init__(u, a21, v)


ALL_BOXED = tuple(Boxed(*t) for t in sorted(_ADMISSIBLE, reverse=True))
_BOXED = {(k.u, k.a21, k.v): k for k in ALL_BOXED}  # parse_kind builds none anew
MASK_KINDS = (SQUARE, MIN, MAX, MINMAX)
ALL_KINDS = MASK_KINDS + ALL_BOXED

OPERAD_KINDS = (SQUARE, MIN, MAX)  # the three proven operads

ROW = "row"
ROW_AT_MAX = "row@max"
COL = "col"
COL_AT_MIN = "col@min"

# kind -> (U-fill, V-fill, constant a21 required of A's lower-left block or None),
# for the mask kinds; _rule gives a boxed kind's.
# compose builds the composite from int row codes (bit j is column j+1; see
# core).  With a_s A's row s, b_q B's row q, k = i-1, low = 2^k - 1 and
# full = 2^m - 1: rows above i are A's, unchanged; B's row q becomes
# U_q | b_q << k; A's row s > i becomes (a_s & low) | V_s << k | (a_s >> i) << (k+m).
#
#   U_q   ROW         a_i & low
#         ROW_AT_MAX  a_i & low if bit q of B's maximal mask, else 0
#         0 or 1      0 or low
#   V_s   COL         full if bit k of a_s, else 0
#         COL_AT_MIN  B's minimal mask if bit k of a_s, else 0
#         0 or 1      0 or full
_RULES = {
    SQUARE: (ROW, COL, None),
    MIN: (ROW, COL_AT_MIN, None),
    MAX: (ROW_AT_MAX, COL, None),
    MINMAX: (ROW_AT_MAX, COL_AT_MIN, None),
}

# Duality of kinds.  For A of order n, B of order m and 1 <= i <= n,
#   dual(A o_i^K B) = dual(A) o_{n+1-i}^{K*} dual(B),
# and one side is defined exactly when the other is.  K* swaps K's two fills
# and dualises each, keeping a21: ROW <-> COL, ROW_AT_MAX <-> COL_AT_MIN and
# a constant U-fill u <-> a constant V-fill u.  So min <-> max and
# boxed(u, a21, v) <-> boxed(v, a21, u); square and minmax are their own duals.
# Proof.  dual(X), X of order x, has X's entry (r*, c*) at (c, r), where
# r* = x+1-r.  Let C = A o_i B, of order N = n+m-1, and i* = n+1-i.
#   - Shape.  C's element i-1+q (B's q) is dual(C)'s N+1-(i-1+q) = i*-1+q*.
#     C's s < i (A's s) is dual(C)'s s* + m-1, with s* > i*; C's s+m-1
#     (A's s > i) is dual(C)'s s* < i*.  So dual(C) has the places of
#     dual(A) o_{i*} dual(B): B's elements at i*, ..., i*+m-1 in reverse.
#   - Among B's elements C holds B's entries, so dual(C) holds dual(B)'s; among
#     A's elements other than i, C holds A's, so dual(C) holds dual(A)'s.
#     Each entry between an element of A and one of B is in C's U block
#     (B's row q, A's column t < i) or its V block (A's row s > i, B's
#     column q), or is 0 above the diagonal on both sides.  The U block
#     lands on dual(A)'s row t* > i* over dual(B)'s column q*, the V block
#     of dual(C); the V block lands on dual(B)'s row q* over dual(A)'s
#     column s* < i*, the U block of dual(C).
#   - U-fill to V-fill.  ROW puts A's entry (i, t) in every row q, and that
#     is dual(A)'s entry (t*, i*), its column i* at row t*, in every column
#     q*: COL.  ROW_AT_MAX puts it only in the rows of B's maximal
#     elements, whose q* are dual(B)'s minimal ones: COL_AT_MIN.  A constant
#     u stays u in every entry: the constant V-fill u.
#   - V-fill to U-fill.  COL puts A's entry (s, i) in every column q, and
#     that is dual(A)'s entry (i*, s*), its row prefix at i*, in every row
#     q*: ROW.  COL_AT_MIN puts it only in the columns of B's minimal
#     elements, whose q* are dual(B)'s maximal ones: ROW_AT_MAX.  A constant
#     v stays v: the constant U-fill v.
#   - Definedness.  A mask kind has no precondition.  A boxed kind reads A's
#     lower-left block at i, its entries (s, t) with t < i < s; dual(A)'s
#     block at i* holds at (t*, s*) the entry (s, t), with s* < i* < t*, so
#     the two blocks hold the same entries, and one has the constant a21
#     iff the other has.
# tests/test_duality.py::TestDualityOfKinds checks the identity for every kind.


def kind_name(kind) -> str:
    if isinstance(kind, Boxed):
        return f"boxed:{kind.u}{kind.a21}{kind.v}"
    return str(kind)


def parse_kind(name: str):
    """Inverse of kind_name; accepts square|min|max|minmax|boxed:UAV."""
    if name in MASK_KINDS:
        return name
    if name.startswith("boxed:") and len(name) == 9 and set(name[6:]) <= {"0", "1"}:
        fills = int(name[6]), int(name[7]), int(name[8])
        return _BOXED.get(fills) or Boxed(*fills)  # Boxed raises for (1, 0, 1)
    raise ValueError(f"unknown composition kind {name!r}")


def _rule(kind):
    """kind's (U-fill, V-fill, a21): a Boxed's fields, so that no call hashes
    one, or a mask kind's entry in _RULES."""
    if type(kind) is Boxed:
        return kind.u, kind.v, kind.a21
    try:
        return _RULES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown composition kind {kind!r}") from None


def insert(a: PosetMatrix, i: int, b: PosetMatrix, u: BinaryMatrix, v: BinaryMatrix) -> BinaryMatrix:
    """Raw block assembly; performs no validity check on the result."""
    n, m = a.n, b.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"position {i} outside [1,{n}]")
    if u.height != m or u.width != i - 1:
        raise DimensionMismatch(f"U is {u.height}x{u.width}, expected {m}x{i - 1}")
    if v.height != n - i or (v.height and v.width != m):
        raise DimensionMismatch(f"V is {v.height}x{v.width}, expected {n - i}x{m}")
    ac, k = a.codes, i - 1
    mid = tuple(u_q | b_q << k for u_q, b_q in zip(u.codes, b.codes))
    low = (1 << k) - 1
    bottom = tuple((x & low) | v_s << k | (x >> i) << (k + m) for x, v_s in zip(ac[i:], v.codes))
    return BinaryMatrix._of(ac[:k] + mid + bottom, n + m - 1)


def _lower_left_wrong(ac, i: int, a21):
    """The first entry (s, q) of A's lower-left block at i, 1-based and in
    row-major order, that is not the constant a21, or None when there is
    none.  Empty blocks (i = 1 or i = n) satisfy either fill.  Each row
    takes one masked compare; the first row that fails is the first row
    equal to it, as an earlier equal one would have failed, so its number
    is found by rows.index."""
    low = (1 << (i - 1)) - 1
    want = low if a21 else 0
    rows = ac[i:]
    for x in rows:
        if x & low != want:
            diff = x & low ^ want
            return i + 1 + rows.index(x), (diff & -diff).bit_length()
    return None


def min_mask(a: PosetMatrix, i: int, b: PosetMatrix) -> BinaryMatrix:
    """(n-i) x m mask whose column j copies A's column suffix at B's minimal j:
    the V block of compose(MIN, a, i, b)."""
    c, m = _compose(_RULES[MIN], a.codes, i, b.codes), b.n
    return BinaryMatrix._of(tuple((x >> (i - 1)) & ((1 << m) - 1) for x in c[i - 1 + m :]), m)


def max_mask(a: PosetMatrix, i: int, b: PosetMatrix) -> BinaryMatrix:
    """m x (i-1) mask whose row j copies A's row prefix at B's maximal j:
    the U block of compose(MAX, a, i, b)."""
    c = _compose(_RULES[MAX], a.codes, i, b.codes)
    return BinaryMatrix._of(tuple(x & ((1 << (i - 1)) - 1) for x in c[i - 1 : i - 1 + b.n]), i - 1)


def _compose(rule, ac, i: int, bc) -> tuple:
    """Row codes of A o_i B from those of A and B under rule = _rule(kind),
    by the shift and mask formulas beside _RULES, once A passes the
    kind's precondition.  B's extremal masks are read only by the fills
    that need them."""
    u_fill, v_fill, a21 = rule
    if not 1 <= i <= len(ac):
        raise IndexOutOfRange(f"position {i} outside [1,{len(ac)}]")
    if a21 is not None:
        # the precondition is a condition on A, not a rewrite of it: a
        # mismatched block is refused, never silently overwritten
        wrong = _lower_left_wrong(ac, i, a21)
        if wrong:
            raise PreconditionViolated(
                f"lower-left block of A at position {i} has entry {1 - a21} "
                f"at ({wrong[0]},{wrong[1]}), expected constant {a21}"
            )
    k = i - 1
    low = (1 << k) - 1
    if u_fill == ROW_AT_MAX:
        u, maxs = ac[k] & low, _extremal(bc)[2]
        mid = [(u if (maxs >> q) & 1 else 0) | b_q << k for q, b_q in enumerate(bc)]
    else:
        u = ac[k] & low if u_fill == ROW else low if u_fill else 0
        mid = [u | b_q << k for b_q in bc]
    # V_s is `on` where A's entry (s, i) is 1, else `off`: 0, or `on` for a constant
    full = (1 << len(bc)) - 1
    on = (_extremal(bc)[1] if v_fill == COL_AT_MIN else full if v_fill else 0) << k
    off = on if v_fill in (0, 1) else 0
    shift = k + len(bc)
    return (
        ac[:k]
        + tuple(mid)
        + tuple([(x & low) | (on if (x >> k) & 1 else off) | (x >> i) << shift for x in ac[i:]])
    )


def compose(kind, a: PosetMatrix, i: int, b: PosetMatrix) -> PosetMatrix:
    """A with B inserted at position i under kind.

    The kind's rule is its definition: compose looks up the kind's U-fill,
    V-fill and precondition (_rule) and builds nothing else.  An
    unknown kind raises ValueError, then a position outside [1, n]
    IndexOutOfRange, then a failed precondition PreconditionViolated,
    which names the first wrong entry (_lower_left_wrong).
    """
    return PosetMatrix._wrap(_compose(_rule(kind), a.codes, i, b.codes))


def _host(rule, cc, i: int, bc) -> tuple:
    """Row codes of the host A to try for C = _compose(rule, A, i, B): the
    formulas beside _RULES read backwards.  Rows above i are C's.  A
    copied U-fill shows A's row prefix at i in the row of every maximal
    element of B, so it is read at B's last row, C's row shift - 1, which a
    copied U-fill always fills (element m of B is maximal).  A row below
    keeps its bits left and right of B, and its bit at i is C's bit at B's
    first column, which a copied V-fill always fills (element 1 of B is
    minimal).  So neither read needs B's extremal elements.  A constant
    fill hides A's entries; the constant stands in their place.
    """
    u_fill, v_fill, _ = rule
    k, shift = i - 1, i - 1 + len(bc)
    low = (1 << k) - 1
    u = cc[shift - 1] & low if u_fill in (ROW, ROW_AT_MAX) else low if u_fill else 0
    keep, v = (low, v_fill << k) if v_fill in (0, 1) else (low | 1 << k, 0)
    below = [(x & keep) | v | (x >> shift) << i for x in cc[shift:]]
    return cc[:k] + (u | 1 << k,) + tuple(below)
