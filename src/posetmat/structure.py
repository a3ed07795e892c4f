"""Connectivity, insertion invariance, disconnected decomposition, factorization.

A poset matrix is disconnected when some proper nonempty index set has all
zero cross entries against its complement; equivalently its comparability
graph is disconnected, which is what classify_connectivity computes.
"""

from __future__ import annotations

from .compose import SQUARE, _compose, _host, _rule, compose
from .core import (
    ENTRY_BUDGET,
    BinaryMatrix,
    PosetMatrix,
    Record,
    _check_poset,
    _members,
    index_set,
    principal_subposet,
)
from .errors import PreconditionViolated, ResourceLimit, ValidationError


class ConnectivityClass(Record):
    __slots__ = ("connected", "witness")
    connected: bool
    witness: tuple | None  # an isolated component when disconnected

    @property
    def kind(self) -> str:
        return "connected" if self.connected else "disconnected"


def _components(codes: tuple) -> list:
    """Bitmasks of the connected components of the comparability graph.

    Each row joins its element to everything below it, so one pass over
    the rows merges every component that a row meets.  A merged component
    goes to the end, so the list is not sorted."""
    comps = []
    for row in codes:
        apart = []
        for comp in comps:
            if comp & row:
                row |= comp
            else:
                apart.append(comp)
        apart.append(row)
        comps = apart
    return comps


def components(a: PosetMatrix) -> tuple:
    """Connected components of the comparability graph, as sorted index
    tuples, in the order of their lowest elements."""
    return tuple(map(_members, sorted(_components(a.codes), key=lambda comp: comp & -comp)))


def classify_connectivity(a: PosetMatrix) -> ConnectivityClass:
    """Connected/disconnected, with a smallest (then lex-least) component as witness.

    Components are disjoint, so two of one size compare by their least
    element: the witness is the least by (size, lowest bit), and only its
    members are listed."""
    comps = _components(a.codes)
    if len(comps) == 1:
        return ConnectivityClass(True, None)
    return ConnectivityClass(False, _members(min(comps, key=lambda c: (c.bit_count(), c & -c))))


def is_totally_connected(a: PosetMatrix) -> bool:
    """Every entry on or below the diagonal is 1 (the chain matrix)."""
    return all(x == (2 << i) - 1 for i, x in enumerate(a.codes))


def is_totally_disconnected(a: PosetMatrix) -> bool:
    """Identity matrix (the antichain)."""
    return all(x == 1 << i for i, x in enumerate(a.codes))


def equal_columns(d: BinaryMatrix) -> bool:
    """All columns pairwise equal; vacuously true with at most one column."""
    return all(x in (0, (1 << d.width) - 1) for x in d.codes)


def equal_rows(d: BinaryMatrix) -> bool:
    """All rows pairwise equal; vacuously true with at most one row."""
    return all(x == d.codes[0] for x in d.codes)


def _range(a: PosetMatrix, alpha) -> tuple:
    """alpha as a tuple of indices: PreconditionViolated unless it is a
    nonempty contiguous range, then IndexOutOfRange unless it lies in [1, n]."""
    alpha = tuple(alpha)
    if not alpha or any(alpha[t + 1] != alpha[t] + 1 for t in range(len(alpha) - 1)):
        raise PreconditionViolated(f"alpha {alpha} is not a contiguous range")
    return index_set(alpha, a.n)


def insertion_invariance_class(a: PosetMatrix, alpha, b: PosetMatrix) -> bool:
    """True iff square insertion at every position of alpha gives one matrix.

    alpha must be a contiguous range over which a's principal block is
    totally connected (with b totally connected) or totally disconnected
    (with b totally disconnected).
    """
    alpha = _range(a, alpha)
    block = principal_subposet(a, alpha)
    if not (
        (is_totally_connected(block) and is_totally_connected(b))
        or (is_totally_disconnected(block) and is_totally_disconnected(b))
    ):
        raise PreconditionViolated(
            "a[alpha] and b must both be totally connected or both totally disconnected"
        )
    first = compose(SQUARE, a, alpha[0], b)
    return all(compose(SQUARE, a, i, b) == first for i in alpha[1:])


def dpm_check(a: PosetMatrix, b: PosetMatrix) -> bool:
    """Do 'every square insertion of b into a is disconnected' and
    'a is disconnected' agree for this pair?"""
    all_disconnected = all(
        not classify_connectivity(compose(SQUARE, a, i, b)).connected
        for i in range(1, a.n + 1)
    )
    a_disconnected = not classify_connectivity(a).connected
    return all_disconnected == a_disconnected


def decompose_disconnected(c: PosetMatrix):
    """Split a disconnected matrix into (G, H): G is the block on the
    component containing index 1, H the block on the rest.  None when
    connected."""
    comps = components(c)
    if len(comps) == 1:
        return None
    first = comps[0]  # components come in the order of their lowest elements
    rest = tuple(i for i in range(1, c.n + 1) if i not in first)
    return principal_subposet(c, first), principal_subposet(c, rest)


class Factorization(Record):
    """a composed with b at position i under kind reproduces the source exactly."""

    __slots__ = ("a", "i", "b", "kind")
    a: PosetMatrix
    i: int
    b: PosetMatrix
    kind: object

    def recompose(self) -> PosetMatrix:
        return compose(self.kind, self.a, self.i, self.b)


def factor(c: PosetMatrix, kind) -> tuple:
    """Ways of writing c as an insertion under kind with both factors of
    order at least 2; every emitted factorization recomposes exactly.

    Every block position and size is tried.  B is c's principal block
    there; the one candidate host A is read from c by the kind's fill rules
    run backwards (compose._host), and kept when it recomposes to c and is
    a poset matrix.  Under the four mask kinds the host is determined by c,
    so the search is complete.  Under a boxed kind it is not: the constant
    fills overwrite A's row prefix and column suffix at i, and only the host
    holding the fill constants there is returned.  An unknown kind raises
    ValueError.

    Before the search, the entries that the factorizations could hold are
    counted: split (i, m) gives factors of orders big-m+1 and m, at
    big-m+1 positions i.  Every split of a chain factors, so the count is
    exact there; above ENTRY_BUDGET, factor raises ResourceLimit.
    """
    rule = _rule(kind)
    cc, big = c.codes, c.n
    entries = sum([(big - m + 1) * ((big - m + 1) ** 2 + m * m) for m in range(2, big)])
    if entries > ENTRY_BUDGET:
        raise ResourceLimit(
            f"factor order {big} exceeds the entry budget {ENTRY_BUDGET} ({entries} entries)"
        )
    out = []
    for m in range(2, big):  # factor orders big-m+1 and m are both >= 2
        full = (1 << m) - 1
        for i in range(1, big - m + 2):
            bc = tuple([(x >> (i - 1)) & full for x in cc[i - 1 : i - 1 + m]])
            ac = _host(rule, cc, i, bc)
            try:
                if _compose(rule, ac, i, bc) != cc:
                    continue
                _check_poset(ac)
            except (PreconditionViolated, ValidationError):
                continue
            a, b = PosetMatrix._wrap(ac), PosetMatrix._wrap(bc)
            out.append(Factorization(a=a, i=i, b=b, kind=kind))
    return tuple(out)
