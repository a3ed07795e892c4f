"""Operad-axiom checking for the partial compositions.

Three axioms: nested associativity (A o_i B) o_{i+j-1} C = A o_i (B o_j C),
parallel associativity (A o_i B) o_{j+m-1} C = (A o_j C) o_i B for i < j,
and the unit law [1] o_1 A = A o_i [1] = A.

verify_laws sweeps each axiom exhaustively over all poset matrices up to a
given order (grouped by ascending total order so a reported counterexample
is minimal), or over seeded random samples drawn from the same pools.  Boxed
kinds have partial domains; triples whose intermediate composition is
undefined are skipped and counted.  Before any pool is built, an order past
the order cap is refused, as by every command, and so is a random run of
more than LAW_CASE_BUDGET cases.

The law layer works on int row codes (see core) from end to end: the pools
are the levels of enumeration's one walk (_tree), taken as code tuples once
the order cap is checked, and a kind's rule is looked up once.  The walk
carries each matrix's ideals, grown from its parent's, and the law layer
lists ideals itself only to build a random witness (_Drawn.codes).  PM(1),
..., PM(N-1) are listed, and PM(N) is streamed, parent by parent over
PM(N-1), as matrices_by_parent walks it, so no more than PM(N-1) is held.
Each level comes ascending in its rows read as bit strings, column 1 first
(_tree), which within one order is the witness order _enc compares, so
no pool is sorted.
All that the rules read of a matrix is two bit masks: its minimal and
maximal elements under minmax, and for a boxed kind the positions whose
lower-left block has the constant a21 and those whose unit case holds;
square, min and max read nothing but the order.  The masks of a child
D + I, one order up, follow from D's masks and the ideal I alone, by the
kind's extension rule, which _reader chooses once per kind; so the walk
that lists the levels gives every matrix its masks without reading its
rows, and a child of PM(N) is built only to be kept.  _row turns the
masks into the signature of every position, whether the matrix is an
antichain, and every unit verdict.  An
associativity case (A, i, B, j, C) is decided without composing anything,
by the rule proved below.  _outer reads the signatures of two positions,
(A, i) and (B, j) (nested) or (A, i) and (A, j) (parallel): None when the
case is undefined, which never depends on C, else whether (A, i, B, j)
breaks.  A case fails iff it breaks and the law is parallel or C is not an
antichain.  A unit case (A, i) is decided by the unit rule at the end;
under it every unit case of a mask kind holds.  Random mode and the
exhaustive sweep compose nothing; both sides are composed (_case) only for
the check_* functions and the reported witness.

The exhaustive sweep makes each matrix's masks once and visits no case.
Per order, _tables counts the matrices by their masks, keeping the least
of each (under square, min and max one masks per order, counted by
_sizes), and turns that into one table (_table): per signature of
(A, i) (nested, which is also that of (B, j)) or pair of signatures of
(A, i, j) (parallel), the count and the least member, in witness order;
the order's unit tally, with its least failing (A, i); and the least
matrix that is not an antichain.  Per order pair (n, m), _groups pairs the
tables of n and m (nested), or scales the table of n by |P_m| (parallel:
the parallel rule reads no B, so the least B stands for them all), and
decides each signature group by _outer.  The C that fail a breaking
(A, i, B, j) are all of them (parallel) or those that are not antichains
(nested), the same for every (A, i, B, j); of order k the least is the
level's first, or the least non-antichain (none for k = 1).  The sweep
runs by ascending total order n+m+k and stops at the end of the first
total with a failure, and the unit law at the end of the first order with
one.  The least failing case of a breaking group is its least (A, i) and
least (B, j) with the least failing C, since the witness order compares A,
B and C before i and j; the least of a total is the least of these.  The
work is one step of the extension rule (_reader) per matrix of PM(1), ...,
PM(N), however many cases they make, and none under square, min and max.

Random mode lists no pool either.  Each law draws its trials from its own
generator (seed + t) as pool indices into PM(1), ..., PM(N) listed in turn,
each draw one getrandbits rejection loop (_draw), and the draws read only
the pool sizes (_sizes, from one walk to PM(N-2) and matrix_count's
closed form) and the order of each drawn matrix.  A law that the rules
decide without a matrix reads none (_reads): the unit law of a mask kind,
the nested law of square, min and max, and the parallel law of a mask
kind, which draws only to count its skips.  The other laws keep
their draws and mark each drawn index that they read; the walk that gives
the exhaustive sweep its masks (_pools) then gives the marked matrices
theirs (_Drawn), each distinct masks turned once into a row (_row), and
each case is decided from the rows of its matrices.  Only the least failing
case is kept, by the witness order on pool indices (_rank).  So random mode
holds PM(N-1) and a few bytes per pool index and per trial, however large
PM(N) is.

Notation.  By the formulas beside compose._RULES, X o_i Y (X of order x, Y
of order y) keeps X's rows above i; gives Y's row q the row U_q | y_q << (i-1);
and gives X's row s > i the row (x_s & low) | V_s << (i-1) | (x_s >> i) << (i-1+y),
with low = 2^(i-1) - 1.  U_q is X's row prefix at i (ROW), the same only when
q is maximal in Y (ROW_AT_MAX), or a constant.  V_s is `on` where X's entry
(s, i) is 1 and `off` where it is 0, with (on, off) = (all of Y, 0) for COL,
(minimal mask of Y, 0) for COL_AT_MIN, and (c, c) for a constant c.  A, B and C have orders n, m and k; AB = A o_i B, and so on.
Two facts about BC = B o_j C, for an element q != j of B:
  (max) under ROW_AT_MAX, q is maximal in BC iff it is maximal in B.  If
        q > j, only B's rows below q hold q, with their bits kept.  If q < j,
        B's rows keep bit q, and a row of C holds it only through its U-fill,
        which copies b_j's bit q into the rows of C's maximal elements; C has
        one, so some row of C holds q iff b_j does.
  (min) under COL_AT_MIN, q is minimal in BC iff it is minimal in B.  If
        q < j, its row is b_q.  If q > j, its row keeps b_q's bits other
        than j, and holds V_q, which is C's (nonempty) minimal mask iff b_q
        has entry j, else 0.

Nested block lemma.  Let p = i+j-1, L = AB o_p C and R = A o_i BC.  L is
defined iff AB is and AB's lower-left block at p is constant; R iff BC is
and A's block at i is, which AB being defined already ensures.  If both are
defined, they agree outside two blocks:
  (N1) C's rows x A's first i-1 columns.  It can differ only under
       ROW_AT_MAX, and only if u = a_i & low is nonzero.  Row r of C holds u
       in L iff r is maximal in C and AB's row p has a nonzero prefix there
       (that prefix is u or 0), and in R iff element j-1+r is maximal in BC.
  (N2) A's rows s > i x C's columns.  L holds the outer V-fill over C, on or
       off by AB's entry at column p of that row; R holds C's columns of the
       V-fill over BC (that fill shifted right by j-1), on or off by A's
       entry (s, i).
Proof, row by row of the result.  A's rows above i are a_s in both.  B's
row q < j is AB's row U_q | b_q << (i-1) in L (it lies above p), and
U'_q | b_q << (i-1) in R, since BC keeps b_q; both U copy a_i's prefix by
the same fill, and under ROW_AT_MAX on q maximal in B and in BC, which
agree by (max).  C's row r: L's is U^L_r | c_r << (p-1), where U^L_r fills
from AB's row p = U_j | b_j << (i-1); R's is U'_{j-1+r} | (U^BC_r | c_r << (j-1)) << (i-1),
where U^BC_r fills from b_j.  C's columns agree.  B's first j-1 columns hold
b_j's prefix under the same fill and gate (r maximal in C) in both.  A's
first i-1 columns hold AB's U_j under the outer fill in L and U'_{j-1+r} in
R: for ROW both are u, for a constant both the constant, and ROW_AT_MAX is
(N1).  B's row q > j: AB's row U_q | b_q << (i-1) lies below p, so L keeps
its bits left of p, puts the V-fill over C (on or off by b_q's entry j) at
p, and moves the rest right by k-1; BC does the same to b_q at j, and R
puts U'_{q+k-1} left of it.  U_q = U'_{q+k-1} by (max).  A's row s > i:
AB's row (a_s & low) | V_s << (i-1) | (a_s >> i) << (i-1+m) lies below p;
L keeps a_s & low and V_s's first j-1 bits, puts the outer V-fill over C
at p, then V_s's bits above j and a_s >> i.  R's row is
(a_s & low) | V'_s << (i-1) | (a_s >> i) << (i+m+k-2), V'_s over BC, on
or off by a_s's entry i, as V_s is.  Outside C's columns V'_s is V_s with
C's columns put in at j: for COL both are full or 0, for a constant both
are the constant, and for COL_AT_MIN the minimal mask of BC on B's elements
other than j is B's by (min).  C's columns are (N2).

Parallel block lemma.  Let i < j, q = j+m-1, L = AB o_q C and
R = AC o_i B.  L is defined iff AB is and AB's lower-left block at q is
constant; R iff AC is and AC's block at i is.  If both are defined, they
agree outside one block:
  (P) C's rows x B's columns.  Row r of C holds the bits of B's columns of
      U^L_r, the outer U-fill from AB's row q, in L; and in R, the V-fill
      over B, on or off by AC's entry (j-1+r, i).
Proof, row by row.  A's rows above i are a_s in both.  B's row: AB's row
U_q | b_q << (i-1) lies above q, and AC keeps a_i (i < j), so R fills it
alike.  A's row s with i < s < j: AB's row lies above q, and AC keeps a_s,
so R gives it the same row as AB.  C's row r: L's is U^L_r | c_r << (q-1).
AC's row j-1+r = U^AC_r | c_r << (j-1) lies below i, so R's row is that
row's bits below i, then the V-fill over B, then the rest moved right by
m-1.  C's columns agree.  AB's row q is A's row j with V_j at i, so its
bits at A's columns other than i are a_j's; U^L_r and U^AC_r fill from
them by the same fill and gate, so A's columns agree.  B's columns are
(P).  A's row s > j: AB's row (a_s & low) | V_s << (i-1) | (a_s >> i) << (i-1+m)
lies below q; L adds the V-fill over C, on or off by its bit at q, which is
a_s's entry j.  AC's row adds the same V-fill at j, and R then adds the
V-fill over B, on or off by a_s's entry i, as V_s is.  The two rows are
equal bit for bit.

Two more facts about BC, for C's element r (BC's element j-1+r):
  (max C) under ROW_AT_MAX, r is maximal in BC iff r is maximal in C and
        j is maximal in B or r is outside C's on row.  Column j-1+r of BC
        is held off the diagonal by C's rows r' whose c_r' holds r (some
        does iff r is not maximal in C), by no row of B above j, and by B's
        row q > j through V_q: C's on row where b_q has entry j (some q > j
        has iff j is not maximal in B), else off = 0, as the V-fill of max
        and minmax, the kinds with ROW_AT_MAX, is COL or COL_AT_MIN.
  (min C) under COL_AT_MIN, r is minimal in BC iff r is minimal in C and
        j is minimal in B or the U-fill is ROW_AT_MAX and r is not maximal
        in C.  BC's row j-1+r is U^BC_r | c_r << (j-1), and U^BC_r is b_j's
        prefix, which is 0 iff j is minimal in B, in every row of C (ROW,
        min) or only in those of C's maximal elements (ROW_AT_MAX, minmax).


Nested rule.  A kind without a precondition defines every case.  A boxed
kind, with constant fills u and v, needs A's lower-left block at i constant
(for AB and R) and B's at j (for BC).  L then needs AB's at p: below p are
B's rows q > j, which hold u over A's first i-1 columns and then b_q's first
j-1 bits (B's block), and A's rows s > i, which hold a_s & low (A's block)
and then the first j-1 bits of V_s, the constant v.  So L needs u = a21
unless j = m or i = 1, and v = a21 unless i = n or j = 1.
A defined case fails iff the kind is minmax, C is not an antichain, and
  (a) A's row prefix u = a_i & low at i is nonzero and j is not maximal in
      B, or
  (b) A has a 1 in column i below row i and j is not minimal in B.
(A, i, B, j) breaks iff (a) or (b) holds under minmax.  C is not an
antichain iff some element of C is maximal and not minimal, iff some
element is minimal and not maximal: given x < y, take a maximal element
above y, and a minimal one below x.
(N1) can differ only under ROW_AT_MAX, with u != 0.  L holds u in C's row r
iff r is maximal in C and AB's row p, U_j | b_j << (i-1), has prefix u,
that is iff j is maximal in B.  R holds it iff j-1+r is maximal in BC.  If
j is maximal in B, the two agree by (max C).  If not, L holds 0 in every
row of C and R holds u in row r iff r is maximal in C and outside C's on
row: never under COL (max), whose on row is full, and under COL_AT_MIN
(minmax), whose on row is C's minimal mask, iff r is maximal and not
minimal in C.  That is (a).
(N2): take A's row s > i and x its entry i.  L holds there the row over C
picked by y, AB's entry at p, which is bit j of V_s, the row over B picked
by x; R holds the row over BC picked by x, on C's columns.  For x = 0 both
hold an off row, 0 or the constant.  For x = 1, both hold the constant
under a constant fill, and under COL both on rows are full.  Under
COL_AT_MIN, R holds BC's minimal mask on C's columns.  If j is minimal in
B, y = 1 and L holds C's minimal mask, the same by (min C).  If not, y = 0
and L holds 0, while R holds, by (min C), the elements of C minimal and not
maximal under ROW_AT_MAX (minmax), and none under ROW (min).  That is (b).

Parallel rule.  A boxed kind needs A's lower-left blocks at i and at j (for
AB and AC) constant.  L then needs AB's at q: below q are A's rows s > j,
which hold A's entries left of j (A's block at j) and V_s, the constant v,
over B's columns, so v = a21 unless j = n.  R needs AC's at i: below i are
A's rows (A's block at i) and C's rows, which hold the constant u over A's
first i-1 columns, so u = a21 unless i = 1.
A defined case fails iff the kind is boxed with u != v, whatever B and C
are, so (A, i, B, j) breaks iff u != v.  (P): in L, row r of C holds the B columns of the outer U-fill from
AB's row q, which is A's row j with V_j at i: B's on row if A's entry
(j, i) is 1, else its off row.  In R it holds B's on or off row by AC's
entry (j-1+r, i), bit i of U^AC_r, the U-fill from A's row j.  Under ROW
both read A's entry (j, i).  Under ROW_AT_MAX they do where r is maximal in
C, and elsewhere L's fill is 0 and R's entry is 0, picking the off row, 0
under COL and COL_AT_MIN.  Under the constant u, L holds u on all of B's
columns and R the row picked by u, which under the constant v is v on all
of them: they differ, on every row of C, iff u != v.

Signatures.  Both rules read of (A, i) and (B, j), or of (A, i) and
(A, j), only the signature of each position (_row): None where the
lower-left block lacks the constant, so the case is undefined; for a
boxed kind (p > 1, p < n); under minmax
whether X's row prefix at p and its column p below p are nonzero, that is
whether p is not minimal and not maximal in X (row p holds the elements
below p, and column p those above); and () for the other mask kinds,
which break nothing.  With sa and sb the two
signatures, let u_in = sa[0] and sb[1], v_in = sa[1] and sb[0] (nested)
or u_in = sa[0], v_in = sb[1] (parallel).  For a boxed kind these say
where a constant fill lands in an outer lower-left block (i > 1 and
j < m, j > 1 and i < n; i > 1, j < n), so a case is undefined iff the
constant landing there differs from a21, and else breaks iff the law is
parallel and u != v.  Under minmax nested, u_in is (a) and v_in is (b):
A's row prefix at i is nonzero and j is not maximal in B, or A's column i
below i is nonzero and j is not minimal in B.  So a minmax case breaks iff
it is nested and u_in or v_in.

A finer rule could read more of the case, but nothing more changes a
verdict:
  - whether elements of C stay maximal or minimal in BC where j is maximal
    or minimal in B: (a) needs j not maximal, and (b) under COL_AT_MIN j
    not minimal;
  - C's minimal elements under COL: (N2) never breaks there, as B's on row
    is full and so y = x;
  - A's column i under a constant V-fill: (N2) holds the constant on both
    sides;
  - A's entry (j, i) under ROW or ROW_AT_MAX (parallel): no mask kind fails
    the parallel law;
  - whether C is an antichain (parallel): under a constant U-fill the rows
    of C's maximal and other elements compare alike.

Unit rule.  [1] o_1 A = A always: [1] has no rows above or below 1 and
its lower-left block is empty, so the case is defined, and with i = 1 the
U-fill has no columns, so A's row q becomes 0 | a_q << 0.  A o_i [1] is
defined iff A's lower-left block at i has the kind's constant a21 (always,
for a mask kind), and is then A iff
  (U) a constant U-fill u equals A's row prefix at i: a_i & low is low if
      u = 1, else 0; and
  (V) a constant V-fill v equals A's entry (s, i) for every row s > i.
With X = A and Y = [1], y = 1, and Y's one element is both maximal and
minimal, so Y's minimal mask is full = 1.  Y's row becomes
U_1 | 1 << (i-1), where U_1 is a_i & low under ROW and ROW_AT_MAX, and
low or 0 under a constant u; a_i's bit i-1 is its diagonal 1, and it has no bits above, so
this is a_i iff U_1 = a_i & low, which is (U).  A's row s > i becomes
(a_s & low) | V_s << (i-1) | (a_s >> i) << i, which is a_s iff V_s is a_s's
bit i-1.  Under COL and COL_AT_MIN, V_s is 1 = full exactly where that bit
is 1, and under a constant v it is v, which is (V).  A mask kind has no
constant fill, so its unit law always holds.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, compress, count
from struct import Struct

from .compose import (
    COL_AT_MIN,
    ROW_AT_MAX,
    _compose,
    _rule,
    kind_name,
    parse_kind,
)
from .core import PosetMatrix, Record, UNIT
from .enumeration import DEFAULT_ORDER_CAP, _check_order, _enc, _ideals, _sizes, _tree
from .errors import (
    IndexOutOfRange,
    RequiresDistinctIndices,
    ResourceLimit,
)

NESTED = "nested"
PARALLEL = "parallel"
UNIT_LAW = "unit"
LAWS = (NESTED, PARALLEL, UNIT_LAW)

# Most random-mode cases one verify_laws call may run (3 * trials), 10**6
# trials per law: a limit on the count, and so on the memory, as random
# mode keeps 20 bytes per trial of each law that reads a matrix (_CASE);
# not an estimate of the time.
LAW_CASE_BUDGET = 3 * 10**6

# One drawn case (a, b, c, i, j) as five 4-byte ints
_CASE = Struct("5i")


class Witness(Record):
    """A failing instance with both evaluated sides, re-checkable as is."""

    __slots__ = ("a", "b", "c", "i", "j", "left", "right")
    a: PosetMatrix
    b: PosetMatrix | None
    c: PosetMatrix | None
    i: int
    j: int | None
    left: PosetMatrix
    right: PosetMatrix


class LawReport(Record):
    __slots__ = ("law", "kind", "verdict", "cases_checked", "cases_skipped", "witness")
    law: str
    kind: str
    verdict: str  # "pass" | "fail"
    cases_checked: int
    cases_skipped: int
    witness: Witness | None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "law": self.law,
            "op": self.kind,
            "verdict": self.verdict,
            "cases_checked": self.cases_checked,
            "cases_skipped": self.cases_skipped,
            "witness": None,
        }
        if self.witness is not None:
            w = self.witness
            out["witness"] = {
                "a": list(w.a.bit_rows()),
                "b": list(w.b.bit_rows()) if w.b is not None else None,
                "c": list(w.c.bit_rows()) if w.c is not None else None,
                "i": w.i,
                "j": w.j,
                "left": list(w.left.bit_rows()),
                "right": list(w.right.bit_rows()),
            }
        return out


def _case(rule, law, a, b, c, i, j):
    """(holds, left, right) for one case of law on the row codes a, b, c:
    the inner composites, then the outer ones.  An undefined composition
    raises PreconditionViolated."""
    if law == UNIT_LAW:  # [1] o_1 A = A = A o_i [1]
        left = _compose(rule, UNIT.codes, 1, a)
        right = _compose(rule, a, i, UNIT.codes)
        return left == right == a, left, right
    ab = _compose(rule, a, i, b)
    if law == NESTED:  # (A o_i B) o_{i+j-1} C = A o_i (B o_j C)
        bc = _compose(rule, b, j, c)
        left, right = _compose(rule, ab, i + j - 1, c), _compose(rule, a, i, bc)
    else:  # (A o_i B) o_{j+m-1} C = (A o_j C) o_i B for i < j
        ac = _compose(rule, a, j, c)
        left, right = _compose(rule, ab, j + len(b) - 1, c), _compose(rule, ac, i, b)
    return left == right, left, right


def _reader(rule):
    """The kind's extension rule, chosen once: extend(masks, ideals) gives,
    for a matrix D of order n with masks (n, m1, m2) and a list of ideals I
    of D, the masks (n + 1, m1', m2') of each child D + I (new last row
    I | 1 << n), from D's masks and I alone, without building the child.
    The masks are all that the rules read of a matrix.  Under minmax, m1
    and m2 are the masks of its minimal and maximal elements.  For a boxed
    kind, m1 holds the positions p whose lower-left block has the constant
    a21, and m2 those whose unit case holds (bit p - 1 each).  Under
    square, min and max the rules read nothing of a matrix, whose masks
    are (n, 0, 0), and the rule is None.

    The rule, with top = 1 << n and full = top - 1:
      - minmax: mins' = mins | top if I is empty, else mins, and
        maxs' = maxs & ~I | top.  D's rows are the child's first n, so an
        element of D is minimal in both or in neither; the new element is
        minimal iff I is empty, and maximal, as nothing lies above it; an
        element of D stays maximal iff I misses it.
      - a boxed kind (u, a21, v), with A, U and V the rows full or 0 of the
        constants a21, u and v: m1' keeps m1's bits 0..f, f the lowest set
        bit of I ^ A (all of them if I = A), and adds top; m2' is
        m2 & m1' & ~(I ^ V), plus top if I = U.  The child's block at an
        old position p is D's block and the new row's first p - 1 bits, so
        it is constant iff D's is and I agrees with A below bit p - 1, iff
        p - 1 <= f.  The new position has no block.  The unit case at p
        reads the block, row p's prefix, which is D's, and the entries
        (s, p) below p, one more of which, bit p - 1 of I, must be v.  At
        the new position it reads only the new row's prefix, I, against U.
    Every leading block of a poset matrix is one, and its next row's strict
    part an ideal of it, so folding the rule along a matrix's rows from the
    empty matrix's (0, 0, 0) gives its masks (_pools walks the levels so)."""
    u_fill, v_fill, a21 = rule
    if a21 is None:
        if (u_fill, v_fill) != (ROW_AT_MAX, COL_AT_MIN):
            return None

        def extend(masks, ideals):
            n, mins, maxs = masks
            top = 1 << n
            return [(n + 1, mins if s else mins | top, maxs & ~s | top) for s in ideals]

        return extend

    def extend(masks, ideals):
        n, m1, m2 = masks
        top = 1 << n
        a, u, v = -a21 & (top - 1), -u_fill & (top - 1), -v_fill & (top - 1)
        # f ^ (f - 1) holds the bits 0..f of f = I ^ A, and all bits if f = 0
        return [
            (n + 1, k1 := m1 & ((f := s ^ a) ^ (f - 1)) | top, m2 & k1 & ~(s ^ v) | (s == u) << n)
            for s in ideals
        ]

    return extend


def _masks(extend, keys, lists) -> list:
    """The masks of the matrices one level up, by the extension rule extend
    (_reader), from keys, the masks of a level's matrices, and lists, their
    ideal lists (_tree).  The level above lists the children of this one
    parent by parent, each over its ideals in order, so its masks are the
    parents' extended in turn.  Equal masks are one tuple."""
    same = {}
    return [
        same.setdefault(key, key)
        for masks, ideals in zip(keys, lists)
        for key in extend(masks, ideals)
    ]


def _pools(extend, max_order) -> tuple:
    """What both modes walk, by the extension rule extend (_reader), from
    one walk (_tree): the levels PM(0), ..., PM(N-1), the masks of each of
    their matrices (_masks of the level below, the empty matrix's being
    (0, 0, 0)), and PM(N) streamed parent by parent over PM(N-1):
    (parent, masks, ideals) for each parent in turn, whose children
    parent + (s | 1 << (N-1),) for s in ideals get their masks from
    extend(masks, ideals) without being built.  Each parent's ideals are
    grown from its own parent's as the stream reaches it, so no more than
    PM(N-1), and the ideal lists of PM(N-2), are held."""
    levels, keys = [], [[(0, 0, 0)]]
    for level, lists in _tree(max_order - 1):
        levels.append(level)
        if len(levels) < max_order:
            keys.append(_masks(extend, keys[-1], lists))
    return levels, keys, zip(levels[-1], keys[-1], lists)


def _row(rule, masks) -> tuple:
    """(sigs, antichain, units) of a matrix with these masks (_reader): the
    signature of each position, all that the associativity rule reads of
    (A, i), (B, j) or (A, j); whether it is an antichain, None where the
    rule reads no C; and whether each unit case holds.

    A signature is None when the lower-left block at p lacks the kind's
    constant; else, for a boxed kind, (p > 1, p < n), where a constant fill
    can land in an outer lower-left block; under minmax, whether X's row
    prefix at p and X's column p below p are nonzero, that is whether p is
    not minimal and not maximal in X; else ().  A unit verdict is None
    where X o_p [1] is undefined (the unit rule)."""
    u_fill, v_fill, a21 = rule
    n, m1, m2 = masks
    if a21 is not None:
        sigs = tuple([(k > 0, k < n - 1) if m1 >> k & 1 else None for k in range(n)])
        return sigs, None, tuple([m2 >> k & 1 == 1 if m1 >> k & 1 else None for k in range(n)])
    if (u_fill, v_fill) == (ROW_AT_MAX, COL_AT_MIN):
        sigs = tuple([(not m1 >> k & 1, not m2 >> k & 1) for k in range(n)])
        return sigs, m1 == (1 << n) - 1, (True,) * n
    return ((),) * n, None, (True,) * n


def _outer(rule, law, sa, sb):
    """The outer half of the associativity case (A, i, B, j, C), the same
    for every C, from sa, the signature of (A, i), and sb, that of (B, j)
    (nested) or (A, j) (parallel): None when the case is undefined, else
    whether it breaks, that is whether it fails for every C (parallel) or
    for every C that is not an antichain (nested).  See the module
    docstring for the proofs."""
    if sa is None or sb is None:
        return None
    if not sa:
        return False
    u_fill, v_fill, a21 = rule
    nested = law == NESTED
    u_in, v_in = (sa[0] and sb[1], sa[1] and sb[0]) if nested else (sa[0], sb[1])
    if a21 is None:
        return nested and (u_in or v_in)
    if u_in and u_fill != a21 or v_in and v_fill != a21:
        return None
    return not nested and u_fill != v_fill


def check_nested(kind, a, b, c, i, j):
    """Evaluate both sides of nested associativity; return (equal, left, right)."""
    if not 1 <= i <= a.n:
        raise IndexOutOfRange(f"i={i} outside [1,{a.n}]")
    if not 1 <= j <= b.n:
        raise IndexOutOfRange(f"j={j} outside [1,{b.n}]")
    holds, left, right = _case(_rule(kind), NESTED, a.codes, b.codes, c.codes, i, j)
    return holds, PosetMatrix._wrap(left), PosetMatrix._wrap(right)


def check_parallel(kind, a, b, c, i, j):
    """Evaluate both sides of parallel associativity; return (equal, left, right)."""
    if not (1 <= i <= a.n and 1 <= j <= a.n):
        raise IndexOutOfRange(f"(i,j)=({i},{j}) outside [1,{a.n}]")
    if i >= j:
        raise RequiresDistinctIndices(f"need i < j, got i={i}, j={j}")
    holds, left, right = _case(_rule(kind), PARALLEL, a.codes, b.codes, c.codes, i, j)
    return holds, PosetMatrix._wrap(left), PosetMatrix._wrap(right)


def check_unit(kind, a, i) -> bool:
    """True iff [1] o_1 A = A and A o_i [1] = A under kind."""
    if not 1 <= i <= a.n:
        raise IndexOutOfRange(f"i={i} outside [1,{a.n}]")
    return _case(_rule(kind), UNIT_LAW, a.codes, None, None, i, None)[0]


def _case_key(case):
    """Order of failing cases (a, b, c, i, j) on row codes: the ;-joined bit
    rows of A, B and C, then i, then j."""
    a, b, c, i, j = case
    return (_enc(a), _enc(b), _enc(c), i, j if j is not None else 0)


class _Tally:
    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.failures = []


def _tables(rule, max_order) -> dict:
    """The table (_table) of each order n = 1, ..., N, keyed by n, from
    each order's matrices counted by their masks, keeping the least of
    each masks, in witness order (see _tree).

    Under square, min and max the rules read nothing (_reader): each order
    is one row, of |PM(n)| matrices (_sizes), and its least is the
    antichain, with no walk of PM(N-1).  Every level's first matrix is its
    first parent's child over the empty ideal, first in every ideal list
    (_grow), and the first of PM(0) is the empty matrix, so by induction
    each level's first is the antichain.  Else the levels and their masks come from _pools, and
    a child of PM(N) is built only when it is the first of its masks."""
    extend = _reader(rule)
    if extend is None:
        return {
            n: _table(rule, {(n, 0, 0): [size, tuple([1 << q for q in range(n)])]})
            for n, size in enumerate(_sizes(max_order), 1)
        }
    levels, keys, last = _pools(extend, max_order)
    tables = {}
    for n in range(1, max_order):
        rows = {}
        for x, masks in zip(levels[n], keys[n]):
            rows.setdefault(masks, [0, x])[0] += 1
        tables[n] = _table(rule, rows)
    rows, top = {}, 1 << (max_order - 1)
    for parent, masks, ideals in last:
        for s, key in zip(ideals, extend(masks, ideals)):
            row = rows.get(key)
            if row is None:  # the child is the first of its masks
                rows[key] = row = [0, parent + (s | top,)]
            row[0] += 1
    tables[max_order] = _table(rule, rows)
    return tables


def _table(rule, rows) -> dict:
    """One order's table from rows, {masks: [count, least]} in witness
    order of the least, so the first member met of anything below is the
    least; each masks' _row is made once.  Per law: for NESTED, per
    signature of an (A, i), which is also that of a (B, j), and for
    PARALLEL, per pair of signatures of (A, i) and (A, j), i < j, [count,
    least member], the member (X, p) or (A, i, j); for UNIT_LAW, the
    _Tally of the order's unit cases, with its least failing (A, i) if
    any.  Then the level's "size" and "least" matrix, and "not antichain",
    the least matrix that the rule reads as no antichain, or None."""
    nested, parallel, unit, not_antichain = {}, {}, _Tally(), None
    for masks, (count, x) in rows.items():
        sigs, antichain, units = _row(rule, masks)
        if antichain is False and not_antichain is None:
            not_antichain = x
        for i, s in enumerate(sigs, 1):
            nested.setdefault(s, [0, (x, i)])[0] += count
            for j, t in enumerate(sigs[i:], i + 1):
                parallel.setdefault((s, t), [0, (x, i, j)])[0] += count
        undefined = units.count(None)
        unit.skipped += count * undefined
        unit.checked += count * (len(units) - undefined)
        if False in units and not unit.failures:
            unit.failures.append((x, None, None, units.index(False) + 1, None))
    return {
        NESTED: nested,
        PARALLEL: parallel,
        UNIT_LAW: unit,
        "size": sum([count for count, _ in rows.values()]),
        "least": next(iter(rows.values()))[1],
        "not antichain": not_antichain,
    }


def _groups(rule, law, tables, n, m) -> tuple:
    """The outer half of the associativity cases with A, B of orders n, m,
    which is the same for every C: (undefined, defined, breaking), with
    the least (A, B, i, j) of each breaking group, see _outer.

    tables holds the _tables of each order.  Nested, each pair of
    signatures of (A, i) and (B, j) is a group: it counts the product of
    their counts, and its least case pairs their least members, as the
    witness order compares A and B before i and j.  The parallel law reads
    no B, so there each signature of (A, i, j) is a group that counts once
    per B, and its least case takes the least B."""
    if law == NESTED:
        groups = [
            ((sa, sb), ca * cb, (a, b, i, j))
            for sa, (ca, (a, i)) in tables[n][law].items()
            for sb, (cb, (b, j)) in tables[m][law].items()
        ]
    else:
        size, b = tables[m]["size"], tables[m]["least"]
        groups = [
            (sig, count * size, (a, b, i, j))
            for sig, (count, (a, i, j)) in tables[n][law].items()
        ]
    verdicts = [(_outer(rule, law, *sig), count, case) for sig, count, case in groups]
    undefined = sum(count for breaks, count, _ in verdicts if breaks is None)
    defined = sum(count for breaks, count, _ in verdicts if breaks is not None)
    return undefined, defined, [case for breaks, _, case in verdicts if breaks]


def _sweep(rule, law, tables) -> _Tally:
    """Every case of an associativity law over the orders of tables (their
    _tables), by ascending total order, up to the end of the first total
    order with a failing case.

    Each (n, m) is grouped once (_groups), and counts its cases per C of
    order k; each breaking group is recorded as one failing case, its least,
    with the least C of order k that fails it, which is all the witness
    needs: any C (parallel), or one the rule reads as no antichain
    (nested)."""
    groups = {(n, m): _groups(rule, law, tables, n, m) for n in tables for m in tables}
    tally = _Tally()
    for total in range(3, 3 * max(tables) + 1):
        for (n, m), (undefined, defined, breaking) in groups.items():
            table = tables.get(total - n - m)
            if table:
                tally.skipped += undefined * table["size"]
                tally.checked += defined * table["size"]
                c = table["least"] if law == PARALLEL else table["not antichain"]
                if c is not None:
                    tally.failures += [(a, b, c, i, j) for a, b, i, j in breaking]
        if tally.failures:
            break
    return tally


def _exhaustive(rule, max_order) -> list:
    """One _Tally per law of LAWS, over every case that PM(1), ..., PM(N)
    make, from each order's _tables; the unit law stops at the end of the
    first order with a failing case."""
    tables = _tables(rule, max_order)
    tallies = [_sweep(rule, law, tables) for law in (NESTED, PARALLEL)]
    unit = _Tally()
    for table in tables.values():
        unit.checked += table[UNIT_LAW].checked
        unit.skipped += table[UNIT_LAW].skipped
        unit.failures = table[UNIT_LAW].failures
        if unit.failures:
            break
    return tallies + [unit]


def _reads(rule, law) -> tuple:
    """Whether random mode reads A, B and C in a case of law, by the rules
    above.  A boxed kind's rule reads the signatures of A (parallel), of A
    and B (nested, which never breaks there, so C is never read), or A's
    unit verdicts; minmax nested reads the signatures of A and B and
    whether C is an antichain.  Nothing else reads a matrix: a mask kind
    holds every unit case and breaks no parallel case, and square, min and
    max break no nested case."""
    u_fill, v_fill, a21 = rule
    if a21 is not None:
        return True, law == NESTED, False
    return (law == NESTED and (u_fill, v_fill) == (ROW_AT_MAX, COL_AT_MIN),) * 3


def _draw(law, reads, starts, trials, seed, need):
    """One law's random trials, drawn from the pool sizes alone: (skipped,
    cases), cases the pool indices and positions a, b, c, i, j of each trial
    not skipped, packed in turn (_CASE; b, c and j are 0 for the unit law),
    kept only when the law reads a matrix (reads, from _reads), whose
    indices are then marked 1 in need.

    The pools are PM(1), ..., PM(N) listed in turn, and starts holds the
    index of each one's first matrix and then their total, so index g has
    order bisect_right(starts, g).  The trials draw as random mode always
    has, from rng = random.Random(seed) and that list, flat:
    A = rng.choice(flat); for the unit law i = rng.randint(1, n_A); else B
    and C by choice, then nested i = randint(1, n_A) and j = randint(1, n_B),
    or parallel, skipped if n_A < 2, i < j = sorted(rng.sample(range(1,
    n_A + 1), 2)).  On CPython 3.10 to 3.13, random.py makes these calls:
      - choice(seq) is seq[self._randbelow(len(seq))], and randrange(n) is
        _randbelow(n) for n > 0, so the index of A is _randbelow(len(flat));
      - randint(1, n) is randrange(1, n + 1), which is 1 + _randbelow(n);
      - sample(range(1, n + 1), 2) takes its list path for n <= 21 (orders
        stop at the cap 8): it copies the range into pool, takes
        x = _randbelow(n) and pool[x] = 1 + x, moves pool[n - 1] = n into
        slot x, then takes y = _randbelow(n - 1) and pool[y]; that is
        (1 + x, n if y == x else 1 + y);
      - Random's _randbelow(n) is _randbelow_with_getrandbits: with
        k = n.bit_length(), it takes r = getrandbits(k) until r < n and
        returns that r.
    So every draw is one _randbelow(n) with n > 0, and each loop
    `while (r := getrandbits(k)) >= n` here is that call inlined: it makes
    the same getrandbits(k) calls and keeps the same r.  The loops run in
    the order of the calls above, so a seed draws the same cases as
    before, and a matrix's order is all that is read of it while
    drawing."""
    getrandbits, total = random.Random(seed).getrandbits, starts[-1]
    width, pack = total.bit_length(), _CASE.pack
    cases = bytearray() if any(reads) else None
    read_a, read_b, read_c = reads
    unit, nested = law == UNIT_LAW, law == NESTED
    skipped = 0
    for _ in range(trials):
        while (a := getrandbits(width)) >= total:
            pass
        n = bisect_right(starts, a)
        k = n.bit_length()
        if unit:
            b = c = j = 0
            while (i := getrandbits(k)) >= n:
                pass
            i += 1
        else:
            while (b := getrandbits(width)) >= total:
                pass
            while (c := getrandbits(width)) >= total:
                pass
            if nested:
                m = bisect_right(starts, b)
                while (i := getrandbits(k)) >= n:
                    pass
                while (j := getrandbits(m.bit_length())) >= m:
                    pass
                i, j = i + 1, j + 1
            elif n < 2:
                skipped += 1
                continue
            else:
                while (x := getrandbits(k)) >= n:
                    pass
                while (y := getrandbits((n - 1).bit_length())) >= n - 1:
                    pass
                i, j = 1 + x, n if y == x else 1 + y
                if i > j:
                    i, j = j, i
        if cases is not None:
            cases += pack(a, b, c, i, j)
            need[a] |= read_a
            need[b] |= read_b
            need[c] |= read_c
    return skipped, cases


class _Drawn:
    """The rows (_row) of the matrices marked in need, by pool index, and
    the row codes of any index.

    The levels and their masks come from _pools, by the kind's extension
    rule (_reader, chosen once); of PM(N), only the marked children's
    masks are made, but every parent's ideal list is grown, to find where
    its children start (firsts).  Each distinct masks key is turned into
    one row: table[g] is the place of index g's row in rows.  codes lists
    the ideals of the one parent it reads (_ideals)."""

    def __init__(self, rule, max_order, starts, need):
        ids, extend = {}, _reader(rule)
        self.starts, self.top = starts, 1 << (max_order - 1)
        self.levels, keys, last = _pools(extend, max_order)
        # the index of each parent's first child, and each index's row
        self.firsts = memoryview(bytearray(4 * len(self.levels[-1]))).cast("I")
        self.table = table = memoryview(bytearray(4 * starts[-1])).cast("I")

        def read(start, marks, masks):
            """Gives each marked index from start its row; masks are the
            masks of the marked matrices, in turn."""
            for g, key in zip(compress(count(start), marks), masks):
                table[g] = ids.setdefault(key, len(ids))

        for level, start in zip(keys[1:], starts):
            marks = need[start : start + len(level)]
            read(start, marks, compress(level, marks))
        start = starts[-2]
        for p, (_, masks, ideals) in enumerate(last):
            self.firsts[p] = start
            marks = need[start : start + len(ideals)]
            if 1 in marks:
                read(start, marks, extend(masks, list(compress(ideals, marks))))
            start += len(ideals)
        self.rows = [_row(rule, masks) for masks in ids]

    def codes(self, g) -> tuple:
        n = bisect_right(self.starts, g)
        if n < len(self.levels):
            return self.levels[n][g - self.starts[n - 1]]
        p = bisect_right(self.firsts, g) - 1
        parent = self.levels[-1][p]
        return parent + (_ideals(parent)[g - self.firsts[p]] | self.top,)


def _rank(starts, g) -> tuple:
    """The witness order (_case_key) on pool indices: PM(1), then PM(N),
    PM(N-1), ..., PM(2), each in its own order.  Within an order the key
    _enc ascends along the level (_tree).  Across orders, every matrix's
    first row is 1 and then zeros: the one matrix of order 1 has the key
    "1", a prefix of every other key, and for 2 <= n < m a matrix of order
    n has ";" where one of order m has "0", at place n of the key, and
    "0" < ";"."""
    n = bisect_right(starts, g)
    return n > 1, -n, g


def _decide(rule, law, trials, skipped, cases, drawn) -> _Tally:
    """One law's tally from its draws (_draw).  A law that reads no matrix
    holds every case it does not skip.  Else each case is decided from the
    rows of its matrices, and only the least failing case is kept, by
    _rank; its matrices are then built."""
    tally = _Tally()
    tally.skipped = skipped
    if cases is None:
        tally.checked = trials - skipped
        return tally
    least = None
    rows, table, starts = drawn.rows, drawn.table, drawn.starts
    for a, b, c, i, j in _CASE.iter_unpack(cases):
        if law == UNIT_LAW:
            holds = rows[table[a]][2][i - 1]
        else:
            sb = rows[table[b if law == NESTED else a]][0][j - 1]
            breaks = _outer(rule, law, rows[table[a]][0][i - 1], sb)
            holds = None if breaks is None else not breaks or law == NESTED and rows[table[c]][1]
        if holds is None:
            tally.skipped += 1
            continue
        tally.checked += 1
        if not holds:
            rank = _rank(starts, a)
            if least is None or rank <= least[0][0]:  # else A alone ranks it above
                key = rank, _rank(starts, b), _rank(starts, c), i, j
                if least is None or key < least[0]:
                    least = key, (a, b, c, i, j)
    if least is not None:
        a, b, c, i, j = least[1]
        b, c = (None, None) if law == UNIT_LAW else (drawn.codes(b), drawn.codes(c))
        tally.failures.append((drawn.codes(a), b, c, i, j or None))
    return tally


def random_tallies(rule, max_order, trials, seed) -> list:
    """One _Tally per law of LAWS over seeded random cases, each law from
    its own generator (seed + t): drawn from the pool sizes (_draw), then
    decided from the drawn matrices that the rule reads (_Drawn)."""
    starts = [0, *accumulate(_sizes(max_order))]
    reads = [_reads(rule, law) for law in LAWS]
    need = bytearray(starts[-1]) if any(map(any, reads)) else None
    draws = [  # a parallel law that reads nothing still draws, to count its skips
        _draw(law, r, starts, trials, seed + t, need) if any(r) or law == PARALLEL else (0, None)
        for t, (law, r) in enumerate(zip(LAWS, reads))
    ]
    drawn = _Drawn(rule, max_order, starts, need) if need else None
    return [_decide(rule, law, trials, *d, drawn) for law, d in zip(LAWS, draws)]


def _report(kind, rule, law, tally) -> LawReport:
    """The law's report; only the least failing case is composed in full."""
    witness = None
    if tally.failures:
        a, b, c, i, j = case = min(tally.failures, key=_case_key)
        _, left, right = _case(rule, law, *case)
        wrap = PosetMatrix._wrap
        b, c = (None if x is None else wrap(x) for x in (b, c))
        witness = Witness(wrap(a), b, c, i, j, wrap(left), wrap(right))
    return LawReport(
        law=law,
        kind=kind_name(kind),
        verdict="fail" if witness else "pass",
        cases_checked=tally.checked,
        cases_skipped=tally.skipped,
        witness=witness,
    )


def verify_laws(kind, max_order, trials=None, seed=0):
    """One LawReport per axiom; exhaustive when trials is None, else random.

    Exhaustive mode enumerates triples by ascending total order and stops a
    law's scan at the end of the first total-order group containing a
    counterexample, so the reported witness is minimal (smallest n+m+k,
    ties broken lexicographically on the matrix encodings).  It lists
    PM(1), ..., PM(N-1) and streams PM(N) from them, parent by parent, so
    the order cap alone bounds it.  Identical seeds give identical reports.
    The order cap and then the case budget of random mode (LAW_CASE_BUDGET,
    3 * trials) are checked before the kind is looked up and before any
    pool is built.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_order(max_order, DEFAULT_ORDER_CAP)
    if trials is not None and 3 * trials > LAW_CASE_BUDGET:
        raise ResourceLimit(
            f"{trials} trials exceed the case budget {LAW_CASE_BUDGET} ({3 * trials} cases)"
        )
    rule = _rule(kind)
    if trials is None:
        tallies = _exhaustive(rule, max_order)
    else:
        tallies = random_tallies(rule, max_order, trials, seed)
    return [_report(kind, rule, law, tally) for law, tally in zip(LAWS, tallies)]


def reverify(report: LawReport) -> bool:
    """Re-evaluate a failed report's witness; True iff the inequality reproduces."""
    if report.witness is None:
        return False
    kind = parse_kind(report.kind)
    w = report.witness
    if report.law == UNIT_LAW:
        return not check_unit(kind, w.a, w.i)
    check = check_nested if report.law == NESTED else check_parallel
    equal, left, right = check(kind, w.a, w.b, w.c, w.i, w.j)
    return (not equal) and left == w.left and right == w.right
