"""Binary Pascal matrices as poset matrices.

Entry (i, j) is binomial(i-1, j-1) mod 2, built row by row by Pascal's
rule mod 2 (see pascal_matrix): n big-int steps, not n^2 bit tests.  By
Lucas' criterion that binomial is odd exactly when the bits of j-1 sit
inside the bits of i-1, so the matrix is the order "j-1 is a bit subset of
i-1", which is why it is a poset matrix; at order 2^k the associated poset
is the k-dimensional Boolean lattice.  Every such matrix splits as P_2
inserted with its own first row and column deleted.
"""

from __future__ import annotations

from .core import ENTRY_BUDGET, PosetMatrix, principal_subposet
from .compose import SQUARE, compose
from .errors import ResourceLimit


def pascal_matrix(n: int) -> PosetMatrix:
    """Order-n binary Pascal matrix (parity of the binomial triangle).

    Row i+1 follows from row i by binomial(i, j) = binomial(i-1, j) +
    binomial(i-1, j-1): mod 2 that is row i XOR row i moved one column to
    the right, starting from row 1 = (1, 0, ..., 0)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n * n > ENTRY_BUDGET:
        raise ResourceLimit(
            f"pascal order {n} exceeds the entry budget {ENTRY_BUDGET} ({n * n} entries)"
        )
    codes = [1]
    for _ in range(n - 1):
        codes.append(codes[-1] ^ (codes[-1] << 1))
    return PosetMatrix._wrap(tuple(codes))


def pascal_decomposition_check(n: int) -> bool:
    """Does deleting row/column 1 and re-inserting under P_2 rebuild P_n?"""
    if n < 2:
        raise ValueError("needs order at least 2")
    p_n = pascal_matrix(n)
    trimmed = principal_subposet(p_n, range(2, n + 1))
    return compose(SQUARE, pascal_matrix(2), 2, trimmed) == p_n
