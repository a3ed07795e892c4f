"""Binary Pascal matrices as poset matrices.

Entry (i, j) is binomial(i-1, j-1) mod 2, computed by Lucas' criterion:
the binomial is odd exactly when the bits of j-1 sit inside the bits of
i-1.  At order 2^k the associated poset is the k-dimensional Boolean
lattice.  Every such matrix splits as P_2 inserted with its own first
row and column deleted.
"""

from __future__ import annotations

from .core import PosetMatrix, principal_subposet
from .compose import SQUARE, compose


def pascal_matrix(n: int) -> PosetMatrix:
    """Order-n binary Pascal matrix (parity of the binomial triangle)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return PosetMatrix._wrap(
        tuple(sum(1 << j for j in range(i + 1) if (j & i) == j) for i in range(n))
    )


def pascal_decomposition_check(n: int) -> bool:
    """Does deleting row/column 1 and re-inserting under P_2 rebuild P_n?"""
    if n < 2:
        raise ValueError("needs order at least 2")
    p_n = pascal_matrix(n)
    trimmed = principal_subposet(p_n, range(2, n + 1))
    return compose(SQUARE, pascal_matrix(2), 2, trimmed) == p_n
