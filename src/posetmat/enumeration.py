"""Generation and canonicalization of poset matrices.

Every enumeration here rests on one step: the largest label is maximal,
so a matrix of order k+1 is one of order k with a new last row whose
strict part is a down-set (an ideal) of it.  _grow writes the step once,
on ideal lists in ascending row order: the ideals of D + J are D's, each
followed by itself plus the new element when it contains J.  Every list
comes from it along a walk, grown from the parent's, never listed again.
One level walk, _tree(n), takes the step from the empty matrix and
carries each matrix's ideal list, so it lists each level with no sorting
in ascending order of its rows read as bit strings, column 1 first
(proved at _tree), and holds the ideal lists of at most two levels.
matrices_by_parent(n) (below) takes the last step from PM(n-1) one parent
at a time, growing each parent's list as it goes, and generate_all(n)
joins its lists; neither keeps a cache.  verify_laws and random mode take
their pools, the lists included, from the same walk (operad._pools).
_sizes gives |PM(1)|, ..., |PM(n)| from one walk to PM(n-3), taking the
step three times by counting: it packs each list of PM(n-3) into 16-bit
lanes of one integer, one lane per subset, and counts its children's
ideals and nested ideal pairs by shifts and masks (_pairs), listing no
matrix of order n-2 or above.  matrix_count(n) reads it and gets the
connected counts from the totals by the exponential formula (a poset
matrix is a set of connected ones).
The class walk (_orderly) carries each canonical matrix's list, grown
from its parent's.  _ideals, _grow folded over a matrix's rows, serves
only the one parent that operad's _Drawn reads back.

Two matrices are permutation equivalent (same unlabelled poset) iff one is
Q^T A Q for a permutation Q keeping the result lower triangular; those Q
are precisely the linear extensions of the order.  One search walks them
from a matrix's own rows: _frame reads the matrix into a search frame
(each element's strict down-set and up-set, and its weighted row), and
_walk searches the frame.  canonical_form takes the least relabelling it
finds, and the class walk uses the search as a canonicity test, keeping
the children of the classes of order n-1 that are their own canonical
form (orderly generation).  A child's frame is its parent's plus one row
(_grown).  The walk never visits PM(n), and it reads a child's
connectivity from its parent's components before the search.  Its last
level is written once, in _last_level, which yields each class with its
parent, the parent's ideal list and |Aut|: classes(n) adds the labelled
counts from them, and canonical_forms(n), the listing that enumerate
--classes prints, takes only each class's canonical matrix and
connectivity.

Before its walk, a child C = D + I of a canonical D of order k is dropped
when one of two certificates names a smaller relabelling of C
(_unrefuted; proved at classes):
  twin swap: x < y have the same strict down-set and up-set in D, x is in
    I and y is not.  Swapping them keeps D and moves column x of the last
    row to the later column y, so the last row falls.
  earlier placement: max(I) < p <= k, and I, read from column 1, is below
    D's strict row p.  Placing the new element at p keeps rows 1..p-1 and
    makes row p I.
"""

from __future__ import annotations

from math import comb
from operator import index

from .core import PosetMatrix, Record, validate
from .errors import ResourceLimit
from .structure import _components

DEFAULT_ORDER_CAP = 8
# Most search nodes (calls of _walk's rec) one search may visit.  No
# canonicity test of classes(9) visits more than 1,237, nor canonical_form
# over PM(<=7) more than 105; a sparse poset whose tied candidates share a
# code but not an up-set can need millions.
SEARCH_BUDGET = 10**5


def _check_order(n: int, order_cap: int) -> None:
    """An order that is not an integer (2.5, "3") raises TypeError."""
    if index(n) < 1:
        raise ValueError("order must be at least 1")
    if n > order_cap:
        raise ResourceLimit(f"order {n} above the cap {order_cap}")


def _grow(ideals: list, down: int, bit: int) -> list:
    """The ideals of D + J in ascending row order, from ideals, D's in that
    order: each of D's ideals T, followed by T plus the new element bit
    exactly when T contains down, the bit mask of J.

    The new element is maximal with strict down-set J, so the ideals of
    D + J are D's ideals T and, for each T containing J, T plus it.  Its
    column is the last, so read as a bit string, column 1 first, T plus it
    comes right after T and before the next of D's ideals, which differs
    from T in an earlier column."""
    grown = []
    for t in ideals:
        grown.append(t)
        if t & down == down:
            grown.append(t | bit)
    return grown


def _ideals(codes: tuple) -> list:
    """Bitmasks of the ideals of the matrix with row codes codes, in
    ascending row order: _grow folded over its rows from the empty
    matrix's one ideal."""
    ideals = [0]
    for j, code in enumerate(codes):
        bit = 1 << j
        ideals = _grow(ideals, code ^ bit, bit)
    return ideals


def _tree(n: int):
    """Yield (level, lists) for PM(0), ..., PM(n): level the matrices of
    that order as row-code tuples, and lists the ideal list of each in
    turn, grown from its parent's (_grow).  lists is a list below PM(n);
    for PM(n) it is an iterator that grows one list at a time as it is
    read.

    PM(0) is the empty matrix, whose one ideal is empty, and each level
    after it lists the children D + S of the level below, parent by parent,
    each over its ideals S in order.  A level's lists go once the next
    level's are grown, so the walk holds at most two levels' lists.

    Each level ascends in its rows read as bit strings, column 1 first.
    That is the order of the matrices' rows and, within one order, of the
    witness key _enc below; it is not the order of the code tuples, whose
    column 1 is the least significant bit.  Proof, by induction: a
    parent's ideal list ascends (_grow), so its children come in ascending
    last row, and parents keep their order under the new 0 column."""
    level, lists = [()], [[0]]
    for k in range(n):
        yield level, lists
        bit = 1 << k
        level, lists = (
            [codes + (s | bit,) for codes, ideals in zip(level, lists) for s in ideals],
            (_grow(ideals, s, bit) for ideals in lists for s in ideals),
        )
        if k < n - 1:
            lists = list(lists)
    yield level, lists


def _enc(codes) -> str:
    """The ;-joined bit rows of a matrix given by row codes, "" for None:
    the law sweep's witness key, ascending along each level of _tree."""
    return "" if codes is None else ";".join(PosetMatrix._wrap(codes).bit_rows())


def _check_filter(which: str) -> None:
    if which not in ("all", "connected", "disconnected"):
        raise ValueError(f"unknown filter {which!r}")


def generate_all(n: int) -> tuple:
    """All poset matrices of order n, ascending in their rows read as bit
    strings, column 1 first (see _tree); nothing is cached.

    The lists of matrices_by_parent(n), joined: each child is wrapped as it
    is made, since wrapping PM(8)'s finished code list afterwards made the
    collector's full passes 1.5 times as long."""
    return tuple([m for group in matrices_by_parent(n) for m in group])


def matrix_count(n: int, which: str = "all") -> int:
    """Number of poset matrices of order n, all or only the connected or
    disconnected ones, from |PM(1)|, ..., |PM(n)| (_sizes), counted from
    PM(n-3) without listing any matrix of order n-2 or above.

    Every matrix of order n is M + I, one new maximal element over an ideal
    I of a unique M in PM(n-1) (see classes), and M is D + J for a unique D
    in PM(n-2).  For each D, with k_D the number of its ideals and P_D the
    number of nested pairs J <= S among them,

        #{D + J + I} = k_D^2 + P_D.

    Proof.  (1) M + I is connected iff I meets every component of M: the
    new element joins exactly the elements of I, so it merges the
    components of M that meet I, and every other one stays a component.
    (2) No relation of M joins two components, so I -> (I & c) over the
    components is a bijection from the ideals of M onto the tuples of
    ideals of the components, and I meets c iff I & c is not empty.  So M
    has #ideals(M) = prod #ideals(c) children, and by (1) prod
    (#ideals(c) - 1) connected ones, over M's components c.
    (3) The ideals of M = D + J are the ideals S of D, and S plus the new
    element for each S containing J, so #ideals(D + J) = k_D + #{S >= J},
    over D's whole ideal list.  Summed over the k_D ideals J of D, the
    first terms give k_D^2 and the second P_D, the count above.  At n = 2,
    D is empty, its one ideal is the empty set, and the count is 2.
    (4) With a_m = |PM(m)|, a_0 = 1, and c_m the connected ones,

        a_m = sum_{k=1..m} C(m-1, k-1) c_k a_{m-k},

    which gives c_m from c_1, ..., c_{m-1}.  Proof: the component holding
    element 1 has some k-1 of the other m-1 labels.  Relabelled in order,
    it and the rest stay naturally labelled, a connected matrix of order k
    and any matrix of order m-k, and any two such matrices placed on those
    labels give back a naturally labelled union, whose component holding
    element 1 is the first.  The disconnected count is the difference.
    """
    _check_filter(which)
    _check_order(n, DEFAULT_ORDER_CAP)
    totals = [1, *_sizes(n)]
    if which == "all":
        return totals[n]
    connected = [0]
    for m in range(1, n + 1):
        split = sum([comb(m - 1, k - 1) * connected[k] * totals[m - k] for k in range(1, m)])
        connected.append(totals[m] - split)
    return connected[n] if which == "connected" else totals[n] - connected[n]


def _pairs(x: int, low: list) -> tuple:
    """(k, P) of a matrix of order m = len(low) from x, its ideals packed
    in lanes: k its number of ideals and P its number of nested pairs
    J <= S of ideals.

    Lane S of x, the 16 bits from bit 16 S, holds 1 if the subset S of the
    matrix's elements (as a bit mask) is an ideal, else 0; low[i] has all
    16 bits set in the lanes of the subsets without element i.  As
    2^16 = 1 (mod 2^16 - 1), a number taken mod 2^16 - 1 is the sum of its
    lanes while that sum stays below 2^16 - 1, so k = x mod 2^16 - 1.  The
    subset sum z adds each lane S without i to lane S + i, for i = 0, ...,
    m-1, after which lane T of z counts the ideals inside T.  Keeping the
    lanes of the ideals T and summing gives P.  No lane of z passes 2^m and
    P <= 3^m, the pairs of subsets, so both stay exact up to m = 10."""
    z = x
    for i, mask in enumerate(low):
        z += (z & mask) << (16 << i)
    return x % 0xFFFF, (z & x * 0xFFFF) % 0xFFFF


def _sizes(n: int) -> list:
    """|PM(1)|, ..., |PM(n)| from one walk to PM(n-3) (_tree): its levels'
    lengths, then |PM(n-2)|, the sum of #ideals(E) over E in PM(n-3),
    |PM(n-1)|, the sum of #ideals(D) over the children D = E + J, and
    |PM(n)|, the sum of #ideals(D)^2 + P_D by matrix_count's count.

    The children are never listed: each E's ideals are packed in lanes
    (_pairs), and D's follow from them by the step of _grow.  With m = n-2,
    the ideals of D are E's, in the lanes below 2^(m-1), and each ideal S
    of E that contains J plus the new element m, in lane S + 2^(m-1).  So
    x_D = x_E | (x_E & sup[J]) << 16 2^(m-1), with sup[J] the full lanes
    at the supersets of J among the subsets of E's m-1 elements."""
    if n < 3:
        return [1, 2][:n]
    m = n - 2
    # 16-bit lanes, one per subset of D's m elements: exact while every
    # lane sum stays below 2^16 - 1, so up to m = 10, order n = 12, above
    # the cap 8 (see _pairs)
    half = 1 << m - 1
    sup = [sum([0xFFFF << 16 * s for s in range(half) if s & j == j]) for j in range(half)]
    low = [sum([0xFFFF << 16 * s for s in range(2 * half) if not s >> i & 1]) for i in range(m)]
    sizes, grand, parents, total = [], 0, 0, 0
    for level, lists in _tree(n - 3):
        sizes.append(len(level))
    for ideals in lists:
        x = sum([1 << 16 * s for s in ideals])
        grand += len(ideals)
        for j in ideals:
            k, nested = _pairs(x | (x & sup[j]) << 16 * half, low)
            parents += k
            total += k * k + nested
    return [*sizes[1:], grand, parents, total]


def matrices_by_parent(n: int, which: str = "all"):
    """Yield the poset matrices of order n, all or only the connected or
    disconnected ones, as one list per parent in PM(n-1), in the order of
    generate_all(n), with one list at a time.  Each parent's ideals are
    grown from its own parent's, one parent at a time (_tree).  A child is
    connected iff its new row meets every component of its parent (proved
    in matrix_count).  As a generator, it checks its arguments when first
    advanced."""
    _check_filter(which)
    _check_order(n, DEFAULT_ORDER_CAP)
    want, wrap, top = which == "connected", PosetMatrix._wrap, 1 << (n - 1)
    for level, lists in _tree(n - 1):
        pass  # the walk's last level, PM(n-1), and its lists as they grow
    for codes, ideals in zip(level, lists):
        children = [codes + (s | top,) for s in ideals]
        if which != "all":
            comps = _components(codes)
            children = [c for c in children if all(c[-1] & comp for comp in comps) == want]
        yield [wrap(c) for c in children]


def linear_extensions(a: PosetMatrix):
    """Yield all linear extensions as tuples of 1-based elements."""
    below = [code & ~(1 << i) for i, code in enumerate(a.codes)]

    def rec(used, order):
        if len(order) == len(below):
            yield order
        for x, down in enumerate(below):
            if not used >> x & 1 and not down & ~used:
                yield from rec(used | 1 << x, order + (x + 1,))

    return rec(0, ())


def _grown(frame: tuple, ideal: int) -> tuple:
    """The search frame of D + I from D's frame and I's bit mask.

    A frame is (below, above, rows) for a matrix of order k: each element's
    strict down-set and strict up-set as bit masks, and its strict row in
    _walk's weights, column q weighing 1 << (k-q).  above has one more
    entry, 0, the up-set of _walk's phantom element.  The new element k+1
    is maximal, so it is below nothing and takes that entry, its down-set is
    I, each x in I gains it above, and one more column doubles every old
    row's weights."""
    below, above, rows = frame
    top, row, rest = 1 << len(below), 0, ideal
    above = above[:]
    while rest:
        bit = rest & -rest
        rest ^= bit
        x = bit.bit_length() - 1
        above[x] |= top
        row |= top >> x
    above.append(0)
    return below + [ideal], above, [r << 1 for r in rows] + [row]


def _frame(codes: tuple) -> tuple:
    """The search frame (see _grown) of the matrix with row codes codes."""
    frame = ([], [0], [])
    for y, code in enumerate(codes):
        frame = _grown(frame, code ^ 1 << y)
    return frame


def _walk(frame: tuple, test: bool) -> tuple:
    """(|Aut|, rows) of the least relabelling of the matrix whose search
    frame is frame (see _grown); with test, |Aut| is 0 once the matrix is
    shown not to be least.

    A DFS places the elements along the linear extensions.  Rows are codes
    in fixed weights, position q weighing 1 << (n-1-q), so placing x adds
    to the codes of x's unplaced up-set alone.  best starts as the frame's
    own rows; a prefix above it is cut, and one below it fails the test or
    else replaces the rest of best.  (1) Only candidates of least code
    branch: all leaves below a node share its prefix.  (2) Candidates with
    the same code and up-set among the unplaced have the same down-set,
    all placed, so swapping them keeps every relation: they branch once,
    and each leaf equal to best adds the product of its path's group
    sizes.  The sum counts the extensions relabelling the matrix onto best,
    |Aut|.  A search past SEARCH_BUDGET nodes is refused with ResourceLimit.
    """
    below, above, rows = frame
    n = len(below)
    big, aut, nodes, best = 1 << n, 0, 0, rows[:]  # aut is -1 once the test fails

    def rec(p, free, cands, mult, cur, x):
        # place x at position p, then each lone group after it
        nonlocal aut, nodes
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise ResourceLimit(f"search of order {n} exceeds the node budget {SEARCH_BUDGET}")
        while True:
            free ^= 1 << x
            cands ^= 1 << x
            p += 1
            weight = big >> p
            ups = above[x] & free
            while ups:
                bit = ups & -ups
                ups ^= bit
                y = bit.bit_length() - 1
                cur[y] |= weight
                if not below[y] & free:
                    cands |= bit
            if p == n:
                aut += mult
                return
            low, rest = big, cands
            while rest:
                bit = rest & -rest
                rest ^= bit
                y = bit.bit_length() - 1
                code = cur[y]
                if code < low:
                    low, tied = code, [y]
                elif code == low:
                    tied.append(y)
            if low != best[p]:
                if low > best[p]:
                    return
                if test:
                    aut = -1
                    return
                best[p] = low
                best[p + 1 :] = [big] * (n - 1 - p)
                aut = 0
            if len(tied) > 1:
                groups = {}
                for y in tied:
                    groups.setdefault(above[y] & free, []).append(y)
                if len(groups) > 1:
                    for group in groups.values():
                        rec(p, free, cands, mult * len(group), cur[:], group[0])
                        if aut < 0:
                            return
                    return
                mult *= len(tied)
            x = tied[0]

    # start from a phantom element n, placed at position -1 above nothing
    minimal = sum(1 << x for x in range(n) if not below[x])
    rec(-1, (2 << n) - 1, minimal | big, 1, [0] * n, n)
    return max(aut, 0), best


def canonical_form(a: PosetMatrix) -> PosetMatrix:
    """Lexicographically least member of a's permutation-equivalence class.

    A matrix that is not a PosetMatrix is validated first, as the walk
    reads its rows as a poset's."""
    a = a if isinstance(a, PosetMatrix) else validate(a)
    n, best = a.n, _walk(_frame(a.codes), False)[1]  # column 1 is best[p]'s top bit
    return PosetMatrix._wrap(
        tuple([int(f"{code:0{n}b}"[::-1], 2) | 1 << p for p, code in enumerate(best)])
    )


def _placements(codes: tuple, ideals: list) -> list:
    """(S, f(S) * h(S)) for each ideal S of codes, from ideals, the list of
    them in ascending row order: f(S) ways to place S first, one element
    at a time, and h(S) ways to place the rest after it."""
    bits = [1 << x for x in range(len(codes))]
    first, rest = {}, {}
    for s in ideals:  # S minus a maximal element comes before S
        first[s] = sum([first.get(s ^ b, 0) for b in bits if s & b]) or 1
    for s in reversed(ideals):
        rest[s] = sum([rest.get(s | b, 0) for b in bits if not s & b]) or 1
    return [(s, first[s] * rest[s]) for s in ideals]


def _unrefuted(frame: tuple, ideals: list) -> list:
    """The ideals I among ideals, of D with search frame frame, for which
    neither certificate in classes shows D + I not canonical."""
    below, above, rows = frame
    k, twins, seen = len(below), {}, {}
    for y in range(k):  # consecutive twins x < y, kept by y - x
        x = seen.get(key := (below[y], above[y]))
        if x is not None:
            twins[y - x] = twins.get(y - x, 0) | 1 << x
        seen[key] = y
    # bound[t]: the strict code of the greatest of rows t+1, ..., k
    bound, top, code = [0] * (k + 1), -1, 0
    for p in range(k - 1, -1, -1):
        if rows[p] > top:
            top, code = rows[p], below[p]
        bound[p] = code
    twins = list(twins.items())
    out = []
    for s in ideals:
        b = bound[s.bit_length()]
        low = (s ^ b) & -(s ^ b)  # first column where I and that row differ
        if b & low:
            continue
        for d, xs in twins:
            if s & xs & ~(s >> d):  # some x in I whose twin x + d is not
                break
        else:
            out.append(s)
    return out


def _orderly(d: tuple, frame: tuple, ideals: list, k: int):
    """Yield (codes, frame, ideals) for each canonical matrix k orders above
    the canonical d whose leading block is d, with its search frame and
    its ideal list, in sorted order (see classes); frame and ideals are
    d's own.

    Depth first: a level of classes lists each parent's children in turn,
    parents in the order of the level below, so by induction it is the
    depth-first order of the classes at that depth."""
    if not k:
        yield d, frame, ideals
        return
    top = 1 << len(d)
    for s in _unrefuted(frame, ideals):
        child = _grown(frame, s)
        if _walk(child, True)[0]:
            yield from _orderly(d + (s | top,), child, _grow(ideals, s, top), k - 1)


def _last_level(n: int, which: str, order_cap: int):
    """Yield (d, ideals, s, aut, connected) for each class of order n that
    which keeps, in sorted order: the canonical d + I of classes, with d of
    order n-1, ideals d's ideal list, s the bit mask of I, aut |Aut(d + I)|
    from _walk's test, and connected whether d + I is connected.  The
    children of one parent come together.  As a generator, it checks the
    filter and then the order when first advanced, before any walk."""
    _check_filter(which)
    _check_order(n, order_cap)
    for d, frame, ideals in _orderly((), _frame(()), [0], n - 1):
        comps = _components(d)
        for s in _unrefuted(frame, ideals):
            connected = all(s & c for c in comps)
            if which == "all" or connected == (which == "connected"):
                aut = _walk(_grown(frame, s), True)[0]
                if aut:
                    yield d, ideals, s, aut, connected


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

    By orderly generation (R. C. Read, "Every one a winner", 1978; B. D.
    McKay, "Isomorph-free exhaustive generation", 1998), the canonical
    forms of order k are the children D + I of those of order k-1 that
    pass _walk's test.  Proof: element k of a matrix X of order k is
    maximal, so X is uniquely D + I, with D its leading block and I, the
    strict part of its last row, an ideal of D.  Let X be canonical.  Any
    linear extension of D, then k, is one of X and gives X the leading
    block it gives D; rows compare from row 1, so D is canonical too.
    Each class is thus met once, and in sorted order: parents come sorted
    and their children in ascending last row.  Every level keeps all
    classes, as a connected poset can grow from a disconnected one.

    Before its search, C = D + I (D of order k) is dropped when one of two
    certificates shows a smaller relabelling of C (_unrefuted):
    (1) Twin swap.  Let x < y be twins of D, with the same strict down-set
    and up-set, x in I and y not.  Swapping x and y keeps every relation of
    D, so it relabels C as D + (x y)I: rows 1..k are unchanged, and the
    last row is smaller, as column x comes before column y.  If some such
    pair exists, one exists among twins consecutive in label order, so
    only those pairs are kept.
    (2) Earlier placement.  Let t = max(I), 0 if I is empty, and t < p <= k.
    The order 1..p-1, k+1, p..k is a linear extension of C, since I lies in
    1..t and k+1 is maximal.  It gives C's rows 1..p-1 and, as row p, I and
    the diagonal, so C is not least if I, read from column 1, is below D's
    strict row p.  One compare decides all p at once, against the greatest
    of D's rows t+1..k, kept per parent.
    Each kept matrix carries its search frame and its ideal list, and a
    child's frame is its parent's plus one row (_grown), its list grown
    from its parent's (_grow), so the certificates cost O(k) per parent
    and a few bit operations per child.  _orderly walks the classes depth
    first and holds only the frames and lists along one path.

    labeled_count(C) = e(C) / |Aut(C)|: C's class holds its relabellings
    along its e(C) linear extensions, two equal iff the extensions differ
    by an automorphism.  For C = D + I, a linear extension of C places the
    new element right after an ideal S of D that contains I, so e(C) sums
    f(S) h(S) from _placements over those S.  The last level of the walk
    (_last_level, shared with canonical_forms) yields each class with D,
    D's ideal list and |Aut(C)|, and D's children come together, so
    _placements runs once per D that has a class among its children.

    C = D + I is connected iff I meets every component of D (proved at
    matrix_count), so each parent's components are found once, and a
    child that which filters out is never searched.
    """
    out, parent = [], None
    for d, ideals, s, aut, connected in _last_level(n, which, order_cap):
        if d is not parent:  # the children of one parent come together
            parent, weights = d, _placements(d, ideals)
        count = sum([w for t, w in weights if t & s == s]) // aut
        out.append(IsoClass(PosetMatrix._wrap(d + (s | 1 << len(d),)), count, connected))
    return tuple(out)


def canonical_forms(n: int, which: str = "all") -> list:
    """(canonical, connected) for each class of order n, all or only the
    connected or disconnected ones, in the order of classes(n, which):
    the same walk, with no labelled count."""
    wrap = PosetMatrix._wrap
    return [
        (wrap(d + (s | 1 << len(d),)), connected)
        for d, _, s, _, connected in _last_level(n, which, DEFAULT_ORDER_CAP)
    ]
