"""Operad-axiom checking for the partial compositions.

Three axioms: nested associativity (A o_i B) o_{i+j-1} C = A o_i (B o_j C),
parallel associativity (A o_i B) o_{j+m-1} C = (A o_j C) o_i B for i < j,
and the unit law [1] o_1 A = A o_i [1] = A.

verify_laws sweeps each axiom exhaustively over all poset matrices up to a
given order (grouped by ascending total order so a reported counterexample
is minimal), or over seeded random samples from the same pools.  Boxed
kinds have partial domains; triples whose intermediate composition is
undefined are skipped and counted.  Before any pool is built the cases are
counted (_check_budget), and a sweep of more than LAW_CASE_BUDGET cases is
refused.

The law layer works on int row codes (see core) from end to end: the pools
are the levels of enumeration's walk, taken as code tuples once the order
cap is checked, and a kind's rule is looked up once.  An associativity case
is decided from the inner composites A o_i B and B o_j C (nested) or
A o_j C (parallel), by looking only at the entries where its two sides can
differ: the blocks of the two lemmas below.  What is looked at there is
split into two bitmasks, and the case fails iff probe & reads != 0.
  Probe (_nested_probe, _parallel_probe).  Read of A, i, B and j alone,
        the same for every C: the comparisons whose sides must be equal
        (nested) or the pairs that break the case (parallel).
  Reads (_nested_reads, _parallel_reads).  Read of the _view of C (its
        extremal masks and V-fill rows) and of X o_j C, with X = B
        (nested) or A (parallel), given only j (and, parallel, i): the
        comparisons that come out unequal, or the pairs that occur.
Random mode (_holds) composes the inner composites per case.  Both sides
are composed in full (_case) only for the check_* functions, the unit law
and the reported witness.

The exhaustive sweep decides each class of cases with the same probe and
the same reads once.  A case (A, i, B, j, C) is defined iff AB is defined
and meets its outer precondition, and X o_j C is defined (and, parallel,
meets the precondition at i).
  Outer groups (_groups).  Per order pair (n, m), the outer precondition
        and the probe are worked out once per (A, i, B, j), not once per
        order of C, and the defined cases are grouped by (X, j, probe),
        parallel also by i.
  Inner classes (_row).  Per group key and order k, the C of equal reads
        form a class.
The cases of a (group, class) share probe and reads, so they share the
verdict: _scan decides each (group, class) once and counts it for every
member and every C of the class.  Each composition X o_j Y is made once per
sweep (_composites), for both laws, as A o_i B and as X o_j C alike.  The
sweep still runs by ascending total order n+m+k and stops at the end of the
first total with a failure, so it counts the same cases.  A failing
(group, class) is kept as its least case: the group's least member
(A, B, i, j) with the class's least C, both in witness order.  The least
failing case of a total is the least of these, since the witness order
compares A, B and C before i and j, so the witness is the same too.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .compose import (
    COL,
    COL_AT_MIN,
    ROW_AT_MAX,
    _compose,
    _lower_left_ok,
    _rule,
    kind_name,
    parse_kind,
)
from .core import PosetMatrix, UNIT, _maximal_mask, _minimal_mask
from .enumeration import DEFAULT_ORDER_CAP, _check_order, _levels, matrix_count
from .errors import (
    IndexOutOfRange,
    PreconditionViolated,
    RequiresDistinctIndices,
    ResourceLimit,
)

NESTED = "nested"
PARALLEL = "parallel"
UNIT_LAW = "unit"
LAWS = (NESTED, PARALLEL, UNIT_LAW)

# Most law cases one verify_laws call may run.  Every kind at order 4 is
# 2,387,486 cases (a few seconds); order 5 alone is about 2.2e9 (hours).
LAW_CASE_BUDGET = 10**8


@dataclass(frozen=True)
class Witness:
    """A failing instance with both evaluated sides, re-checkable as is."""

    a: PosetMatrix
    b: Optional[PosetMatrix]
    c: Optional[PosetMatrix]
    i: int
    j: Optional[int]
    left: PosetMatrix
    right: PosetMatrix


@dataclass(frozen=True)
class LawReport:
    law: str
    kind: str
    verdict: str  # "pass" | "fail"
    cases_checked: int
    cases_skipped: int
    witness: Optional[Witness]

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


def _defined(fn, *args):
    """fn(*args), or None when a composition it makes is undefined."""
    try:
        return fn(*args)
    except PreconditionViolated:
        return None


def _view(rule, codes) -> tuple:
    """What the block lemmas read of a guest or an inner composite under
    rule: (codes, the all-ones mask of its order, its maximal mask, read
    only under ROW_AT_MAX, and the on and off rows of the V-fill over it)."""
    u_fill, v_fill, _ = rule
    full = (1 << len(codes)) - 1
    if v_fill == COL_AT_MIN:
        on, off = _minimal_mask(codes), 0
    elif v_fill == COL:
        on, off = full, 0
    else:
        on = off = full if v_fill else 0
    return codes, full, _maximal_mask(codes) if u_fill == ROW_AT_MAX else 0, on, off


def _composite_view(rule, x, j, c):
    """The _view of X o_j C, or None when that composition is undefined."""
    xc = _defined(_compose, rule, x, j, c)
    return None if xc is None else _view(rule, xc)


def _nested_probe(rule, a, ab, i, j) -> int:
    """The comparisons of _nested_reads whose sides must be equal, read of
    A and AB = A o_i B, the same for every C.  (N1), when live, needs C's
    maximal mask (bit 0) if AB's row i+j-1 has a nonzero prefix, else 0
    (bit 1).  (N2) needs, for each pair (x, y) = (A's entry (s, i), AB's
    entry at column i+j-1 of that row) over A's rows s > i, the V-fill row
    over C picked by y to equal the one over BC picked by x (bit 1 + 2x + y).
    The off rows agree on C's columns (both 0, or both the constant), so
    the pair (0, 0) needs nothing."""
    k, p = i - 1, i + j - 1
    low = (1 << k) - 1
    probe = 0
    if rule[0] == ROW_AT_MAX and a[k] & low:
        probe = 1 if ab[p - 1] & low else 2
    below = len(ab) - len(a)  # A's row s is AB's row s + m - 1
    for s in range(i, len(a)):
        pair = ((a[s] >> k) & 1) << 1 | (ab[s + below] >> (p - 1)) & 1
        if pair:
            probe |= 2 << pair
    return probe


def _nested_reads(cv, bcv, shift) -> int:
    """The comparisons of _nested_probe that come out unequal on the views
    of C and B o_j C, with shift = j-1 taking BC's masks to C's columns:
    bit 0 C's maximal mask against BC's, bit 1 0 against BC's, and bit
    1 + 2x + y the V-fill row over C picked by y (off, on) against the one
    over BC picked by x."""
    _, full, maxs, on, off = cv
    _, _, bc_maxs, bc_on, bc_off = bcv
    bc_maxs = (bc_maxs >> shift) & full
    bc_on, bc_off = (bc_on >> shift) & full, (bc_off >> shift) & full
    return (
        (maxs != bc_maxs)
        | (bc_maxs != 0) << 1
        | (on != bc_off) << 2
        | (off != bc_on) << 3
        | (on != bc_on) << 4
    )


def _parallel_probe(rule, bv, ab, i, j) -> int:
    """The pairs (whether C's row r is maximal, A o_j C's entry (j-1+r, i))
    on which (P) breaks, as bits 2 * maximal + entry, read of B and
    AB = A o_i B, the same for every C.  In L, row r holds the B columns of
    the outer U-fill from AB's row j+m-1, and under ROW_AT_MAX only if r is
    maximal; in R, the on or off row over B, by the entry."""
    b, full, _, on, off = bv
    if rule[0] in (0, 1):
        row = full if rule[0] else 0
    else:
        row = (ab[j + len(b) - 2] >> (i - 1)) & full
    lefts = (0 if rule[0] == ROW_AT_MAX else row, row)
    rights = (off, on)
    return sum(1 << (2 * x + e) for x in (0, 1) for e in (0, 1) if lefts[x] != rights[e])


def _parallel_reads(cv, ac, k, top) -> int:
    """The pairs (whether C's row r is maximal, A o_j C's entry (j-1+r, i))
    that occur over C's rows r, as bits 2 * maximal + entry, with k = i-1
    and top = j-1."""
    c, _, maxs, _, _ = cv
    reads = 0
    for r in range(len(c)):
        reads |= 1 << (((maxs >> r) & 1) << 1 | (ac[top + r] >> k) & 1)
    return reads


def _holds(rule, law, a, b, c, i, j):
    """Whether one associativity case holds, that is probe & reads == 0;
    None when a composition it needs is undefined."""
    a21 = rule[2]
    ab = _defined(_compose, rule, a, i, b)
    if ab is None:
        return None
    xv = _composite_view(rule, b if law == NESTED else a, j, c)
    if xv is None:
        return None
    if law == NESTED:
        if not _lower_left_ok(ab, i + j - 1, a21):
            return None
        probe, reads = _nested_probe(rule, a, ab, i, j), _nested_reads(_view(rule, c), xv, j - 1)
    else:
        if not (_lower_left_ok(ab, j + len(b) - 1, a21) and _lower_left_ok(xv[0], i, a21)):
            return None
        probe = _parallel_probe(rule, _view(rule, b), ab, i, j)
        reads = _parallel_reads(_view(rule, c), xv[0], i - 1, j - 1)
    return not probe & reads


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


def _enc(codes) -> str:
    return "" if codes is None else ";".join(PosetMatrix._wrap(codes).bit_rows())


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

    def add(self, a, b, c, i, j, holds) -> None:
        """Count one case on row codes: whether it holds, None when undefined."""
        if holds is None:
            self.skipped += 1
            return
        self.checked += 1
        if not holds:
            self.failures.append((a, b, c, i, j))


def _composites(rule, x, j, ys, cache) -> list:
    """The _view of x o_j y for each view in ys (the matrices y of one order,
    in order), or None where that composition is undefined.  Made the first
    time (x, j, order) comes up and kept in cache: A o_i B and X o_j C are
    the same compositions, so both laws and both roles share them."""
    where = (x, j, len(ys[0][0]))
    views = cache.get(where)
    if views is None:
        if _lower_left_ok(x, j, rule[2]):
            views = [_composite_view(rule, x, j, yv[0]) for yv in ys]
        else:  # x's lower-left block at j rules out every y
            views = [None] * len(ys)
        cache[where] = views
    return views


def _groups(rule, law, views, n, m, composites) -> tuple:
    """The outer half of the associativity cases with A, B of orders n, m,
    which is the same for every C: (undefined, groups).

    A o_i B is taken from composites, and the outer precondition checked,
    once per (A, i, B, j); undefined counts those whose outer side is
    undefined.  groups maps the key of the rest, (B, j, probe) nested and
    (A, j, i, probe) parallel, to [size, least member (A, B, i, j)].  views
    lists each order in witness order, so the first member met is the least."""
    nested = law == NESTED
    a21 = rule[2]
    undefined = 0
    groups = {}
    for a, *_ in views[n]:
        for i in range(1, n + 1 if nested else n):
            js = range(1, m + 1) if nested else range(i + 1, n + 1)
            for bv, abv in zip(views[m], _composites(rule, a, i, views[m], composites)):
                if abv is None:
                    undefined += len(js)
                    continue
                b, ab = bv[0], abv[0]
                for j in js:
                    if not _lower_left_ok(ab, i + j - 1 if nested else j + m - 1, a21):
                        undefined += 1
                        continue
                    if nested:
                        key = (b, j, _nested_probe(rule, a, ab, i, j))
                    else:
                        key = (a, j, i, _parallel_probe(rule, bv, ab, i, j))
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [1, (a, b, i, j)]
                    else:
                        group[0] += 1
    return undefined, groups


def _row(rule, law, key, cs, composites) -> tuple:
    """The inner row of a group key (see _groups) over the views cs of the C
    of one order: (how many of its cases are defined, one pair (reads, codes
    of its least C) per class of C).  A class is the C with the same
    _nested_reads or _parallel_reads."""
    nested = law == NESTED
    x, j = key[0], key[1]
    defined, classes = 0, {}
    for cv, xv in zip(cs, _composites(rule, x, j, cs, composites)):
        if xv is None:
            continue
        if nested:
            reads = _nested_reads(cv, xv, j - 1)
        else:
            i, xc = key[2], xv[0]
            if not _lower_left_ok(xc, i, rule[2]):
                continue
            reads = _parallel_reads(cv, xc, i - 1, j - 1)
        defined += 1
        classes.setdefault(reads, cv[0])
    return defined, list(classes.items())


def _scan(rule, law, outer, cs, tally, rows, composites) -> None:
    """Every associativity case with A, B from outer (see _groups) and C
    from the views cs, all of one order k, in witness order.

    Each inner row (see _row) is built the first time a group needs it and
    kept in rows.  A group decides each class of its row once, by
    probe & reads, and counts its cases size times; a failing class is
    recorded as one case, the group's least member with the class's least
    C, which is all the witness needs."""
    undefined, groups = outer
    k = len(cs[0][0])
    checked, skipped = 0, undefined * len(cs)
    for key, (size, least) in groups.items():
        where = key[:-1] + (k,)
        row = rows.get(where)
        if row is None:
            row = rows[where] = _row(rule, law, key, cs, composites)
        defined, classes = row
        checked += defined * size
        skipped += (len(cs) - defined) * size
        probe = key[-1]
        for reads, c in classes:
            if probe & reads:
                a, b, i, j = least
                tally.failures.append((a, b, c, i, j))
    tally.checked += checked
    tally.skipped += skipped


def _sweep(rule, law, views, composites) -> _Tally:
    """Every case of an associativity law, by ascending total order, up to
    the end of the first total order with a failing case."""
    orders = sorted(views)
    tally = _Tally()
    outer, rows = {}, {}
    for total in range(3, 3 * orders[-1] + 1):
        for n in orders:
            for m in orders:
                k = total - n - m
                if k not in views:
                    continue
                if (n, m) not in outer:
                    outer[n, m] = _groups(rule, law, views, n, m, composites)
                _scan(rule, law, outer[n, m], views[k], tally, rows, composites)
        if tally.failures:
            break
    return tally


def _witness_views(rule, pools) -> dict:
    """The _view of every matrix of the pools, each order in witness order,
    so that the first case a sweep meets is the least."""
    return {n: sorted([_view(rule, c) for c in pools[n]], key=lambda v: _enc(v[0])) for n in pools}


def _exhaustive(rule, pools) -> list:
    """One _Tally per law of LAWS, over every case the pools make."""
    views = _witness_views(rule, pools)
    composites = {}
    tallies = [_sweep(rule, law, views, composites) for law in (NESTED, PARALLEL)]
    unit = _Tally()
    for n in sorted(pools):
        for a in pools[n]:
            for i in range(1, n + 1):
                case = _defined(_case, rule, UNIT_LAW, a, None, None, i, None)
                unit.add(a, None, None, i, None, case and case[0])
        if unit.failures:
            break
    return tallies + [unit]


def _random(rule, law, pools, trials, seed) -> _Tally:
    rng = random.Random(seed)
    flat = [m for n in sorted(pools) for m in pools[n]]
    tally = _Tally()
    for _ in range(trials):
        a = rng.choice(flat)
        if law == UNIT_LAW:
            i = rng.randint(1, len(a))
            case = _defined(_case, rule, law, a, None, None, i, None)
            tally.add(a, None, None, i, None, case and case[0])
            continue
        b = rng.choice(flat)
        c = rng.choice(flat)
        if law == NESTED:
            i, j = rng.randint(1, len(a)), rng.randint(1, len(b))
        elif len(a) < 2:
            tally.skipped += 1
            continue
        else:
            i, j = sorted(rng.sample(range(1, len(a) + 1), 2))
        tally.add(a, b, c, i, j, _holds(rule, law, a, b, c, i, j))
    return tally


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


def _check_budget(max_order, trials) -> None:
    """Refuse a sweep of more than LAW_CASE_BUDGET cases, counted before
    any pool is built.

    Random mode runs 3 * trials cases.  The exhaustive sweep over the
    pools P_1, ..., P_N runs, with S = sum |P_n|, sum n|P_n| * sum m|P_m| * S
    nested cases, sum C(n,2)|P_n| * S^2 parallel ones and sum n|P_n| unit
    ones.  |P_n| comes from matrix_count in ascending n, and the count
    stops at the first order over the budget."""
    if trials is not None:
        if 3 * trials > LAW_CASE_BUDGET:
            raise ResourceLimit(
                f"{trials} trials exceed the case budget {LAW_CASE_BUDGET} ({3 * trials} cases)"
            )
        return
    size = spots = pairs = 0
    for n in range(1, max_order + 1):
        count = matrix_count(n)
        size += count
        spots += n * count
        pairs += n * (n - 1) // 2 * count
        cases = spots * spots * size + pairs * size * size + spots
        if cases > LAW_CASE_BUDGET:
            raise ResourceLimit(
                f"laws up to order {max_order} exceed the case budget {LAW_CASE_BUDGET} "
                f"({cases} cases up to order {n})"
            )


def verify_laws(kind, max_order, trials=None, seed=0):
    """One LawReport per axiom; exhaustive when trials is None, else random.

    Exhaustive mode enumerates triples by ascending total order and stops a
    law's scan at the end of the first total-order group containing a
    counterexample, so the reported witness is minimal (smallest n+m+k,
    ties broken lexicographically on the matrix encodings).  Identical
    seeds give identical reports.  The order cap and then the case budget
    are checked before the kind is looked up and before any pool is built.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_order(max_order, DEFAULT_ORDER_CAP)
    _check_budget(max_order, trials)
    rule = _rule(kind)
    pools = dict(enumerate(_levels(max_order), 1))
    if trials is None:
        tallies = _exhaustive(rule, pools)
    else:
        tallies = [_random(rule, law, pools, trials, seed + t) for t, law in enumerate(LAWS)]
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
