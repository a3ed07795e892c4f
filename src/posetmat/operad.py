"""Operad-axiom checking for the partial compositions.

Three axioms: nested associativity (A o_i B) o_{i+j-1} C = A o_i (B o_j C),
parallel associativity (A o_i B) o_{j+m-1} C = (A o_j C) o_i B for i < j,
and the unit law [1] o_1 A = A o_i [1] = A.

verify_laws sweeps each axiom exhaustively over all poset matrices up to a
given order (grouped by ascending total order so a reported counterexample
is minimal), or over seeded random samples from the same pools.  Boxed
kinds have partial domains; triples whose intermediate composition is
undefined are skipped and counted.

The law layer works on int row codes (see core) from end to end: the pools
are the levels of enumeration's walk, taken as code tuples once the order
cap is checked; a kind's rule is looked up once, and _case evaluates one
case by compose._compose, comparing the two sides as code tuples.  The
check_* functions, random mode and the unit sweep call _case; the exhaustive
associativity sweep (_scan) shares each inner composite across cases and
hands it to the same _nested and _parallel.  Matrices are built only for a
failing witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .compose import _compose, _rule, kind_name, parse_kind
from .core import PosetMatrix, UNIT
from .enumeration import DEFAULT_ORDER_CAP, _check_order, _levels
from .errors import IndexOutOfRange, PreconditionViolated, RequiresDistinctIndices

NESTED = "nested"
PARALLEL = "parallel"
UNIT_LAW = "unit"
LAWS = (NESTED, PARALLEL, UNIT_LAW)


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


def _nested(rule, a, b, c, i, j, ab, bc):
    """(A o_i B) o_{i+j-1} C = A o_i (B o_j C), given ab = A o_i B and bc = B o_j C."""
    left, right = _compose(rule, ab, i + j - 1, c), _compose(rule, a, i, bc)
    return left == right, left, right


def _parallel(rule, a, b, c, i, j, ab, ac):
    """(A o_i B) o_{j+m-1} C = (A o_j C) o_i B for i < j, given ab = A o_i B and ac = A o_j C."""
    left, right = _compose(rule, ab, j + len(b) - 1, c), _compose(rule, ac, i, b)
    return left == right, left, right


def _case(rule, law, a, b, c, i, j):
    """(holds, left, right) for one case of law on the row codes a, b, c:
    the inner composites, then the outer ones.  An undefined composition
    raises PreconditionViolated."""
    if law == UNIT_LAW:  # [1] o_1 A = A = A o_i [1]
        left = _compose(rule, UNIT.codes, 1, a)
        right = _compose(rule, a, i, UNIT.codes)
        return left == right == a, left, right
    ab = _compose(rule, a, i, b)
    if law == NESTED:
        return _nested(rule, a, b, c, i, j, ab, _compose(rule, b, j, c))
    return _parallel(rule, a, b, c, i, j, ab, _compose(rule, a, j, c))


def _defined(fn, *args):
    """fn(*args), or None when a composition it makes is undefined."""
    try:
        return fn(*args)
    except PreconditionViolated:
        return None


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


def _enc(m) -> str:
    return "" if m is None else ";".join(m.bit_rows())


def _witness_key(w: Witness):
    return (_enc(w.a), _enc(w.b), _enc(w.c), w.i, w.j if w.j is not None else 0)


class _Tally:
    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.failures = []

    def add(self, a, b, c, i, j, case) -> None:
        """Count one case on row codes: its (holds, left, right), None when undefined."""
        if case is None:
            self.skipped += 1
            return
        self.checked += 1
        holds, left, right = case
        if not holds:
            wrap = PosetMatrix._wrap
            b, c = (None if x is None else wrap(x) for x in (b, c))
            self.failures.append(Witness(wrap(a), b, c, i, j, wrap(left), wrap(right)))


def _scan(rule, law, pools, n, m, k, tally, inner) -> None:
    """Every associativity case with A, B, C of orders n, m, k.

    A o_i B is composed once per (A, i, B); the other inner composite,
    X o_j C with X = B (nested) or A (parallel), is composed for every C
    at once, the first time (X, j) comes up, and kept in inner.
    """
    nested = law == NESTED
    evaluate = _nested if nested else _parallel
    Bs, Cs = pools[m], pools[k]
    for a in pools[n]:
        for i in range(1, n + 1 if nested else n):
            js = range(1, m + 1) if nested else range(i + 1, n + 1)
            for b in Bs:
                ab = _defined(_compose, rule, a, i, b)
                if ab is None:
                    tally.skipped += len(js) * len(Cs)
                    continue
                x = b if nested else a
                for j in js:
                    key = (x, j, k)
                    row = inner.get(key)
                    if row is None:
                        row = inner[key] = [_defined(_compose, rule, x, j, c) for c in Cs]
                    for c, xc in zip(Cs, row):
                        case = None if xc is None else _defined(
                            evaluate, rule, a, b, c, i, j, ab, xc
                        )
                        tally.add(a, b, c, i, j, case)


def _exhaustive(rule, law, pools) -> _Tally:
    orders = sorted(pools)
    tally = _Tally()
    if law == UNIT_LAW:
        for n in orders:
            for a in pools[n]:
                for i in range(1, n + 1):
                    case = _defined(_case, rule, law, a, None, None, i, None)
                    tally.add(a, None, None, i, None, case)
            if tally.failures:
                break
    else:
        top = orders[-1]
        inner = {}
        for total in range(3, 3 * top + 1):
            for n in orders:
                for m in orders:
                    k = total - n - m
                    if k not in pools:
                        continue
                    _scan(rule, law, pools, n, m, k, tally, inner)
            if tally.failures:
                break
    return tally


def _random(rule, law, pools, trials, seed) -> _Tally:
    rng = random.Random(seed)
    flat = [m for n in sorted(pools) for m in pools[n]]
    tally = _Tally()
    for _ in range(trials):
        a = rng.choice(flat)
        b = c = j = None
        if law == UNIT_LAW:
            i = rng.randint(1, len(a))
        else:
            b = rng.choice(flat)
            c = rng.choice(flat)
            if law == NESTED:
                i, j = rng.randint(1, len(a)), rng.randint(1, len(b))
            elif len(a) < 2:
                tally.skipped += 1
                continue
            else:
                i, j = sorted(rng.sample(range(1, len(a) + 1), 2))
        tally.add(a, b, c, i, j, _defined(_case, rule, law, a, b, c, i, j))
    return tally


def _report(kind, law, tally) -> LawReport:
    witness = min(tally.failures, key=_witness_key) if tally.failures else None
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
    ties broken lexicographically on the matrix encodings).  Identical
    seeds give identical reports.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_order(max_order, DEFAULT_ORDER_CAP)
    pools = dict(enumerate(_levels(max_order), 1))
    rule = _rule(kind)
    if trials is None:
        tallies = [_exhaustive(rule, law, pools) for law in LAWS]
    else:
        tallies = [_random(rule, law, pools, trials, seed + t) for t, law in enumerate(LAWS)]
    return [_report(kind, law, tally) for law, tally in zip(LAWS, tallies)]


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
