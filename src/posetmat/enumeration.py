"""Generation and canonicalization of poset matrices.

Every enumeration here rests on one step, _children: the largest label is
maximal, so a matrix of order k+1 is one of order k with a new last row
whose strict part is a down-set (an ideal) of it.  The step lists those
ideals directly: elements are decided in label order, "exclude" before
"include", and j may be included only when its strict down-set (below j by
natural labelling) is chosen.  They come out in ascending row order, so
_levels(n), which walks the step from the empty matrix and yields PM(1),
..., PM(n) as lists of row-code tuples, gives each level in lexicographic
order with no sorting.  generate_all(n) and matrices_by_parent(n)
(below) wrap the same per-parent listing of the last step, and neither
keeps a cache; verify_laws takes its pools from the walk as codes.

Nothing of order n has to exist to be counted or listed.  matrix_count(n)
walks to PM(n-1) and sums the ideal counts of each parent, and splits
them into connected and disconnected children by the components of the
parent (proved in its docstring).  matrices_by_parent(n) yields the
children of one parent at a time, in the same order as generate_all(n).

Two matrices are permutation equivalent (same unlabelled poset) iff one is
Q^T A Q for a permutation Q keeping the result lower triangular; those Q
are precisely the linear extensions of the order.  canonical_form takes the
lexicographically least relabelling, found by a DFS over linear extensions
with two exact prunings: only candidates of least row code branch, and
interchangeable candidates (same row code, same up-set among the elements
still to be placed) branch once.

classes(n) never visits PM(n).  It applies the same step to class
representatives only: every class of order k is canon(D + I) for a class
D of order k-1 and an ideal I of canon(D), and labelled counts pass from
parent to child by a transfer identity proved in its docstring.  At order
7 that is 6,377 canonical_form calls, where PM(7) holds 96,428 matrices.
"""

from __future__ import annotations

from .core import UNIT, PosetMatrix, Record, relabel  # noqa: F401  (relabel: re-exported)
from .errors import ResourceLimit
from .structure import _components, classify_connectivity

DEFAULT_ORDER_CAP = 8


def _check_order(n: int, order_cap: int) -> None:
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > order_cap:
        raise ResourceLimit(f"order {n} above the cap {order_cap}")


def _ideals(codes: tuple, within: int = -1) -> list:
    """Bitmasks of the ideals of codes inside the down-closed mask within
    (every element by default), in ascending row order.

    Elements are decided in label order, "exclude" before "include"; j may
    be included only when it lies in within and its strict down-set is
    chosen."""
    ideals = [0]
    for j, code in enumerate(codes):
        if within >> j & 1:
            bit = 1 << j
            step = []
            for s in ideals:
                step.append(s)
                if code & ~s == bit:  # j's strict down-set is chosen
                    step.append(s | bit)
            ideals = step
    return ideals


def _children(codes: tuple) -> list:
    """Row codes of every matrix one order up whose leading block is codes:
    a new last row over each ideal, in ascending row order."""
    top = 1 << len(codes)
    return [codes + (s | top,) for s in _ideals(codes)]


def _levels(n: int):
    """Yield PM(1), ..., PM(n), each a lexicographically sorted list of row-code tuples."""
    level = [()]
    for _ in range(n):
        level = [child for codes in level for child in _children(codes)]
        yield level


def _parents(n: int) -> list:
    """PM(n-1) as row-code tuples; PM(0) is the empty matrix alone."""
    level = [()]
    for level in _levels(n - 1):
        pass
    return level


def _check_filter(which: str) -> None:
    if which not in ("all", "connected", "disconnected"):
        raise ValueError(f"unknown filter {which!r}")


def generate_all(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> tuple:
    """All poset matrices of order n, lexicographically sorted; nothing is cached.

    The last step wraps each child as it is made; wrapping PM(8)'s finished
    code list afterwards made the collector's full passes 1.5 times as long."""
    _check_order(n, order_cap)
    wrap = PosetMatrix._wrap
    return tuple([wrap(c) for group in _groups(n, "all") for c in group])


def matrix_count(n: int, which: str = "all") -> int:
    """Number of poset matrices of order n, all or only the connected or
    disconnected ones, counted from PM(n-1) without building any of order n.

    Every matrix of order n is M + I, one new maximal element over an ideal
    I of a unique M in PM(n-1) (see classes), so |PM(n)| is the sum of
    #ideals(M) over PM(n-1).  For each M,

        #ideals(M) = prod over components c of M of #ideals(c),
        #{I : M + I connected} = prod over components c of (#ideals(c) - 1).

    Proof.  (1) M + I is connected iff I meets every component of M.  Its
    comparability graph is that of M with the new element joined to
    exactly the elements of I.  So the new element merges the components
    of M that meet I into one, and every component of M that misses I
    stays a component of M + I.  (2) No relation of M joins two
    components, so a set I is closed downward in M iff I & c is closed
    downward in each component c.  I -> (I & c) over the components is
    then a bijection from the ideals of M onto the tuples of ideals of the
    components, and I meets c iff I & c is not empty.  Counting the tuples
    gives the first product; by (1), counting those with no empty entry
    gives the second.  At n = 1, M is empty, both products are empty, and
    the single point is connected.  The disconnected count is the
    difference.
    """
    _check_filter(which)
    _check_order(n, DEFAULT_ORDER_CAP)
    total = connected = 0
    for codes in _parents(n):
        every = joined = 1
        for comp in _components(codes):
            k = len(_ideals(codes, comp))
            every *= k
            joined *= k - 1
        total += every
        connected += joined
    if which == "all":
        return total
    return connected if which == "connected" else total - connected


def _groups(n: int, which: str):
    """Yield the row codes of the poset matrices of order n that pass the
    filter which, as one list per parent in PM(n-1), in the order of
    generate_all(n).

    A child keeps the filter by the component test proved in matrix_count:
    it is connected iff its new row meets every component of its parent."""
    want = which == "connected"
    for codes in _parents(n):
        children = _children(codes)
        if which != "all":
            comps = _components(codes)
            children = [c for c in children if all(c[-1] & comp for comp in comps) == want]
        yield children


def matrices_by_parent(n: int, which: str = "all"):
    """Yield the poset matrices of order n, all or only the connected or
    disconnected ones, as one list per parent in PM(n-1).

    The lists concatenate to generate_all(n), filtered, in the same order
    (see _groups), and no more than one parent's children exist at a time.
    As a generator, it checks its arguments when first advanced."""
    _check_filter(which)
    _check_order(n, DEFAULT_ORDER_CAP)
    wrap = PosetMatrix._wrap
    for group in _groups(n, which):
        yield [wrap(c) for c in group]


def _strict_downsets(a: PosetMatrix) -> list:
    """Bitmask of the elements strictly below each element, all 0-based."""
    return [code & ~(1 << i) for i, code in enumerate(a.codes)]


def linear_extensions(a: PosetMatrix):
    """Yield all linear extensions as tuples of 1-based elements."""
    n = a.n
    below = _strict_downsets(a)

    order = []

    def rec(used):
        if len(order) == n:
            yield tuple(x + 1 for x in order)
            return
        for x in range(n):
            if not (used >> x) & 1 and not (below[x] & ~used):
                order.append(x)
                yield from rec(used | (1 << x))
                order.pop()

    yield from rec(0)


def canonical_form(a: PosetMatrix) -> PosetMatrix:
    """Lexicographically least member of a's permutation-equivalence class.

    The members are the relabellings along the linear extensions of a, which
    a DFS places one element per position.  The row at position p is kept as
    an int code of the relabelled row, column 1 the most significant bit, so
    codes at one position compare as rows do; each unplaced element's code
    gains one bit as each element is placed.  Two prunings keep the search
    exact:

    1. Only candidates of minimum code branch.  All completions below a node
       share its prefix, and any candidate can come next, so the least of
       them has at position p the smallest code among the candidates.  A
       node whose prefix, with that code, exceeds the best leaf found so far
       is cut.
    2. Interchangeable candidates branch once.  Candidates x and y with the
       same code and the same up-set among the unplaced elements are both
       minimal there, so neither is below the other, and no placed element
       is above an unplaced one.  Swapping x and y is then an automorphism
       of everything still to be placed that keeps every relation to the
       prefix, so the two subtrees give the same rows.
    """
    n = a.n
    below = _strict_downsets(a)
    above = [0] * n  # strict up-set bitmask per element
    for y in range(n):
        for x in range(y):
            if (below[y] >> x) & 1:
                above[x] |= 1 << y

    best = []  # row codes of the least relabelling found so far
    prefix = []

    def rec(free, codes):  # free: bitmask of the unplaced; codes: their row codes
        nonlocal best
        cands = [x for x in codes if not below[x] & free]
        low = min([codes[x] for x in cands])
        prefix.append(low)
        if not best or prefix <= best[: len(prefix)]:
            if len(codes) == 1:
                best = prefix[:]
            else:
                branched = set()  # up-sets among the unplaced already branched on
                for x in cands:
                    up = above[x] & free
                    if codes[x] == low and up not in branched:
                        branched.add(up)
                        rec(
                            free & ~(1 << x),
                            {
                                y: (c << 1) | ((below[y] >> x) & 1)
                                for y, c in codes.items()
                                if y != x
                            },
                        )
        prefix.pop()

    rec((1 << n) - 1, dict.fromkeys(range(n), 0))
    # best[p] lists columns 1..p from its most significant bit down
    return PosetMatrix._wrap(
        tuple(int("1" + f"{code:0{p}b}"[::-1], 2) if p else 1 for p, code in enumerate(best))
    )


class IsoClass(Record):
    """One permutation-equivalence class of poset matrices."""

    __slots__ = ("canonical", "labeled_count", "connected")
    canonical: PosetMatrix
    labeled_count: int
    connected: bool


def classes(n: int, which: str = "all", order_cap: int = DEFAULT_ORDER_CAP) -> tuple:
    """Equivalence classes at order n, sorted by canonical form.

    which filters to "connected" or "disconnected"; labelled counts over all
    classes sum to the number of matrices of order n.

    The catalogue is built by one-point extension, one order at a time,
    from the single class of order 1 with labelled count 1.  Each class D
    of order k-1 contributes, for every ideal I of canon(D), the child
    canon(canon(D) + I): canon(D) with a new last row whose strict part is
    I.  Equal children are merged, and

        labeled_count(C) = sum over D of labeled_count(D)
                           * #{ideals I of canon(D) : canon(canon(D) + I) = C}.

    Proof.  In a matrix X of order k, element k is maximal, since natural
    labelling puts nothing above the largest label.  So X is uniquely
    M + I: M, its leading principal block, is a poset matrix of order k-1,
    and I, the strict part of its last row, is an ideal of M; every such
    pair gives a matrix of order k.  Hence labeled_count(C) counts the pairs
    (M, I) with M + I in C.  Let M lie in class D.  Then M relabels
    canon(D) by a bijection p that keeps the order; p maps the ideals of
    canon(D) one-to-one onto those of M, and p, with k fixed, relabels
    canon(D) + I onto M + p(I).  So every M in D has the same number of
    ideals leading into C as canon(D) has, and D contributes that number
    labeled_count(D) times.

    Every level keeps all its classes, since a connected poset can grow
    from a disconnected one; the filter applies only to the last level.
    """
    _check_filter(which)
    _check_order(n, order_cap)
    wrap = PosetMatrix._wrap
    counts = {UNIT: 1}
    for _ in range(1, n):
        grown = {}
        for parent, weight in counts.items():
            for codes in _children(parent.codes):
                child = canonical_form(wrap(codes))
                grown[child] = grown.get(child, 0) + weight
        counts = grown
    out = []
    for canon in sorted(counts, key=lambda m: m.bit_rows()):
        connected = classify_connectivity(canon).connected
        if which == "connected" and not connected:
            continue
        if which == "disconnected" and connected:
            continue
        out.append(IsoClass(canon, counts[canon], connected))
    return tuple(out)
