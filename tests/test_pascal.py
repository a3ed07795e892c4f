import pytest

from posetmat import (
    is_self_dual,
    maximal_elements,
    minimal_elements,
    pascal_decomposition_check,
    pascal_matrix,
    validate,
)
from posetmat.core import BinaryMatrix

from helpers import pm


class TestPascalMatrix:
    def test_order_four(self):
        assert pascal_matrix(4) == pm("1000;1100;1010;1111")

    def test_order_one_and_two(self):
        assert pascal_matrix(1) == pm("1")
        assert pascal_matrix(2) == pm("10;11")

    def test_entries_match_binomials(self):
        from math import comb

        p = pascal_matrix(8)
        for i in range(1, 9):
            for j in range(1, 9):
                assert p.entry(i, j) == comb(i - 1, j - 1) % 2

    def test_rows_match_lucas_criterion_up_to_300(self):
        # binomial(i, j) is odd iff the bits of j sit inside those of i
        lucas = [sum(1 << j for j in range(i + 1) if j & i == j) for i in range(300)]
        for n in range(1, 301):
            assert pascal_matrix(n).codes == tuple(lucas[:n])

    def test_validates_up_to_64(self):
        for n in range(1, 65):
            validate(BinaryMatrix(pascal_matrix(n).rows))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            pascal_matrix(0)


class TestDecomposition:
    def test_holds_up_to_32(self):
        assert all(pascal_decomposition_check(n) for n in range(2, 33))

    def test_order_two_unit_case(self):
        assert pascal_decomposition_check(2)

    def test_needs_order_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            pascal_decomposition_check(1)

    def test_order_sixteen(self):
        assert pascal_decomposition_check(16)


class TestBooleanLatticeShape:
    POWERS = (2, 4, 8, 16, 32)

    def test_self_dual_at_powers_of_two(self):
        for n in self.POWERS:
            assert is_self_dual(pascal_matrix(n))

    def test_unique_bottom_and_top(self):
        for n in self.POWERS:
            p = pascal_matrix(n)
            assert minimal_elements(p) == (1,)
            assert maximal_elements(p) == (n,)

    def test_rank_sizes_are_binomials(self):
        from math import comb

        for k, n in ((1, 2), (2, 4), (3, 8), (4, 16), (5, 32)):
            p = pascal_matrix(n)
            down_sizes = [sum(p.rows[i]) for i in range(n)]
            # element i sits at height popcount(i-1); its down-set has 2^height members
            for i, size in enumerate(down_sizes):
                assert size == 1 << bin(i).count("1")
            for r in range(k + 1):
                assert down_sizes.count(1 << r) == comb(k, r)
