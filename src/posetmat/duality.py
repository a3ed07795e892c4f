"""Flip-transpose duality: turning the Hasse diagram upside down.

The dual of A is E A^T E with E the backward identity, i.e. entry (i, j) of
the dual is A(n+1-j, n+1-i).  It is an involution, swaps minimal and
maximal elements, and interacts with the compositions by
(B square_i C)* = B* square_{n-i+1} C* and (B min_i C)* = B* max_{n-i+1} C*.
"""

from __future__ import annotations

from itertools import combinations, repeat
from math import comb

from .compose import SQUARE, compose
from .core import PosetMatrix, Record, _gather, _members, index_set
from .enumeration import generate_all, matrix_count
from .errors import OrderMismatch, ResourceLimit
from .structure import _components

# Most index sets one semi_equidual search may test.  Each is tested on row
# codes, so a search within the budget ends in well under a second.
SEMI_EQUIDUAL_BUDGET = 2**16
# Most compositions one self_dual_closure_counterexamples sweep may make:
# up to order 5 it makes 802,197 (several seconds), up to order 6
# 161,716,365.
SELF_DUAL_CLOSURE_BUDGET = 10**6


def _dual_codes(codes) -> tuple:
    """Row codes of the flip-transpose: with rows written from column n down and
    joined, the stride s[t::n] read as a number has bit n-r where a(r, n-t) = 1:
    row t+1 of the dual."""
    n = len(codes)
    s = "".join(map(format, codes, repeat(f"0{n}b")))
    return tuple([int(s[t::n], 2) for t in range(n)])


def dual(a: PosetMatrix) -> PosetMatrix:
    """Flip-transpose; entry (i,j) becomes a(n+1-j, n+1-i)."""
    return PosetMatrix._wrap(_dual_codes(a.codes))


def is_self_dual(a: PosetMatrix) -> bool:
    """dual(a) == a: the rows of _dual_codes, compared in order up to the first that differs."""
    codes, n = a.codes, a.width
    s = "".join(map(format, codes, repeat(f"0{n}b")))
    return all(int(s[t::n], 2) == x for t, x in enumerate(codes))


def dual_index_set(alpha, n: int) -> tuple:
    """{n-i+1 : i in alpha}, ascending: alpha is sorted, then checked by
    index_set, so it must hold distinct integers in [1, n]."""
    return tuple([n + 1 - i for i in reversed(index_set(sorted(alpha), n))])


class SemiEquidualWitness(Record):
    """Index set on which the two matrices carry mutually dual disconnected
    blocks while agreeing everywhere outside the block region."""

    __slots__ = ("alpha", "block_a", "block_b")
    alpha: tuple
    block_a: PosetMatrix
    block_b: PosetMatrix


def semi_equidual(a: PosetMatrix, b: PosetMatrix):
    """Smallest (then lexicographically first) witness, or None.

    The relation is symmetric: a witness for (a, b) is one for (b, a).  The
    index sets the search can test are counted first, and a search over
    more than SEMI_EQUIDUAL_BUDGET of them is refused with ResourceLimit.
    """
    if a.n != b.n:
        raise OrderMismatch(f"orders {a.n} and {b.n} differ")
    n = a.n
    # A witness holds both ends of every differing entry; adding them to the
    # sets of the others keeps the lexicographic order of the sets of one size.
    need = 0
    for p, (x, y) in enumerate(zip(a.codes, b.codes)):
        if x != y:
            need |= x ^ y | 1 << p
    required, others = _members(need), _members((1 << n) - 1 & ~need)
    sizes = range(max(2, len(required)), n + 1)
    sets = sum(comb(len(others), size - len(required)) for size in sizes)
    if sets > SEMI_EQUIDUAL_BUDGET:
        raise ResourceLimit(
            f"semi-equidual search over {sets} index sets exceeds the budget {SEMI_EQUIDUAL_BUDGET}"
        )
    for size in sizes:
        for extra in combinations(others, size - len(required)):
            combo = tuple(sorted(required + extra))
            idx = [q - 1 for q in combo]
            block_a = _gather(a.codes, idx, idx)
            if len(_components(block_a)) == 1:
                continue
            block_b = _gather(b.codes, idx, idx)
            if _dual_codes(block_a) == block_b:
                wrap = PosetMatrix._wrap
                return SemiEquidualWitness(combo, wrap(block_a), wrap(block_b))
    return None


def self_dual_closure_counterexamples(max_order: int) -> list:
    """Sweep 'A square_i B self-dual iff A and B self-dual' over all pairs.

    The biconditional is false in both directions; this returns every
    disagreeing (a, i, b, composite) with the direction that broke, so the
    failures are reported as findings rather than crashing a sweep.

    Every disagreement lies off the centre position (2i != a.n + 1).  At the
    centre, (A square_i B)* = A* square_i B* puts the dual at the same
    position, so self-dual factors give a self-dual composite; and since
    square composition at a fixed position and fixed orders is injective,
    a self-dual composite forces A = A* and B = B*.

    The sweep makes |pool| * sum of n * |PM(n)| compositions.  They are
    counted first, by matrix_count, and a sweep of more than
    SELF_DUAL_CLOSURE_BUDGET is refused with ResourceLimit before any pool
    is built.
    """
    size = positions = 0
    for n in range(1, max_order + 1):
        count = matrix_count(n)
        size, positions = size + count, positions + n * count
        if size * positions > SELF_DUAL_CLOSURE_BUDGET:
            raise ResourceLimit(
                f"self-dual sweep up to order {max_order} exceeds the composition budget "
                f"{SELF_DUAL_CLOSURE_BUDGET}"
            )
    found = []
    pool = [m for n in range(1, max_order + 1) for m in generate_all(n)]
    for a in pool:
        sd_a = is_self_dual(a)
        for b in pool:
            both = sd_a and is_self_dual(b)
            for i in range(1, a.n + 1):
                comp = compose(SQUARE, a, i, b)
                if is_self_dual(comp) != both:
                    direction = "composite self-dual, factors not" if not both else (
                        "factors self-dual, composite not"
                    )
                    found.append((a, i, b, comp, direction))
    return found
