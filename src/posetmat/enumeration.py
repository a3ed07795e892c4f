"""Generation and canonicalization of poset matrices.

generate_all(n) backtracks row by row: a new bottom row is admissible
exactly when the set of 1-columns is down-closed in the order built so far,
which is incremental transitivity.  Output is in row-major lexicographic
order.

Two matrices are permutation equivalent (same unlabelled poset) iff one is
Q^T A Q for a permutation Q keeping the result lower triangular; those Q
are precisely the linear extensions of the order.  canonical_form takes the
lexicographically least relabelling, found by a DFS over linear extensions
with prefix pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import PosetMatrix
from .errors import ResourceLimit

DEFAULT_ORDER_CAP = 8


@lru_cache(maxsize=None)
def generate_all(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> tuple:
    """All poset matrices of order n, lexicographically sorted."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > order_cap:
        raise ResourceLimit(f"order {n} above the cap {order_cap}")
    results = []
    rows = []
    downsets = []  # bitmask per row: reflexive down-set

    def extend(i):  # i = 0-based index of the row being chosen
        if i == n:
            results.append(PosetMatrix._wrap(tuple(rows)))
            return
        width = i
        # Ascending masks with column 1 as the most significant bit give
        # lexicographic row order.
        for mask in range(1 << width):
            chosen = 0
            for j in range(width):
                if (mask >> (width - 1 - j)) & 1:
                    chosen |= 1 << j
            # Transitivity: every chosen column's down-set must be chosen too.
            rest, ok = chosen, True
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if downsets[j] & ~chosen:
                    ok = False
                    break
            if not ok:
                continue
            row = (
                tuple((chosen >> j) & 1 for j in range(width))
                + (1,)
                + (0,) * (n - i - 1)
            )
            rows.append(row)
            downsets.append(chosen | (1 << i))
            extend(i + 1)
            rows.pop()
            downsets.pop()

    extend(0)
    return tuple(results)


def linear_extensions(a: PosetMatrix):
    """Yield all linear extensions as tuples of 1-based elements."""
    n = a.n
    below = [0] * n  # strict down-set bitmask per element
    for i in range(n):
        for j in range(i):
            if a.rows[i][j]:
                below[i] |= 1 << j

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


def relabel(a: PosetMatrix, order) -> PosetMatrix:
    """Relabel by a linear extension listing (element at position p gets label p)."""
    idx = [x - 1 for x in order]
    n = a.n
    rows = tuple(tuple(a.rows[idx[p]][idx[q]] for q in range(n)) for p in range(n))
    return PosetMatrix._wrap(rows)


def canonical_form(a: PosetMatrix) -> PosetMatrix:
    """Lexicographically least member of a's permutation-equivalence class."""
    n = a.n
    below = [0] * n
    for i in range(n):
        for j in range(i):
            if a.rows[i][j]:
                below[i] |= 1 << j

    best = None  # list of row tuples of the best complete relabelling so far
    order = []

    def row_for(x):
        p = len(order)
        return tuple(a.rows[x][y] for y in order) + (1,) + (0,) * (n - p - 1)

    def rec(used, prefix):
        nonlocal best
        p = len(order)
        if p == n:
            if best is None or prefix < best:
                best = list(prefix)
            return
        candidates = sorted(
            (x for x in range(n) if not (used >> x) & 1 and not (below[x] & ~used)),
            key=row_for,
        )
        for x in candidates:
            row = row_for(x)
            if best is not None:
                nxt = prefix + [row]
                if nxt > best[: p + 1]:
                    break  # candidates ascend, nothing better follows
            order.append(x)
            rec(used | (1 << x), prefix + [row])
            order.pop()

    rec(0, [])
    return PosetMatrix._wrap(tuple(best))


@dataclass(frozen=True)
class IsoClass:
    """One permutation-equivalence class of poset matrices."""

    canonical: PosetMatrix
    labeled_count: int
    connected: bool


def classes(n: int, which: str = "all", order_cap: int = DEFAULT_ORDER_CAP) -> tuple:
    """Equivalence classes at order n, sorted by canonical form.

    which filters to "connected" or "disconnected"; labelled counts over all
    classes sum to the number of matrices of order n.
    """
    from .structure import classify_connectivity

    if which not in ("all", "connected", "disconnected"):
        raise ValueError(f"unknown filter {which!r}")
    counts = {}
    for m in generate_all(n, order_cap):
        canon = canonical_form(m)
        counts[canon] = counts.get(canon, 0) + 1
    out = []
    for canon in sorted(counts, key=lambda m: m.rows):
        connected = classify_connectivity(canon).connected
        if which == "connected" and not connected:
            continue
        if which == "disconnected" and connected:
            continue
        out.append(IsoClass(canon, counts[canon], connected))
    return tuple(out)
