import random
from itertools import permutations

import pytest

from posetmat import (
    BinaryMatrix,
    PosetMatrix,
    block_decompose,
    cover_relation,
    maximal_elements,
    minimal_elements,
    principal_subposet,
    submatrix,
    validate,
)
from posetmat.compose import insert
from posetmat.core import _extremal, _members, closure_of_covers, index_set, relabel
from posetmat.enumeration import generate_all, linear_extensions
from posetmat.errors import (
    IndexOutOfRange,
    NotLowerTriangular,
    PosetMatError,
    NotReflexive,
    TransitivityViolation,
    ValidationError,
)

from helpers import (
    MINMAX_EXAMPLE,
    chain,
    covers_by_definition,
    is_poset_matrix,
    pm,
    random_poset_matrix,
)


def all_upto(n_max):
    for n in range(1, n_max + 1):
        yield from generate_all(n)


class TestValidate:
    def test_worked_example_is_valid(self):
        assert validate(BinaryMatrix.from_bits("1000;1100;0010;1011")) == MINMAX_EXAMPLE

    def test_identity_is_valid(self):
        validate(BinaryMatrix.from_bits("10000;01000;00100;00010;00001"))

    def test_transitivity_violation_names_the_triple(self):
        with pytest.raises(TransitivityViolation) as err:
            validate(BinaryMatrix.from_bits("100;110;011"))
        assert (err.value.i, err.value.j, err.value.k) == (3, 2, 1)

    def test_missing_diagonal(self):
        with pytest.raises(NotReflexive) as err:
            validate(BinaryMatrix.from_bits("10;10"))
        assert err.value.i == 2

    def test_upper_entry(self):
        with pytest.raises(NotLowerTriangular) as err:
            validate(BinaryMatrix.from_bits("11;11"))
        assert (err.value.i, err.value.j) == (1, 2)

    def test_transitivity_matches_three_index_scan_exhaustive(self):
        # every unit lower-triangular grid of order <= 5, valid or not: validate
        # reports exactly the first (i, j, k) of the naive row-major scan
        from itertools import product

        for n in range(1, 6):
            slots = [(i, j) for i in range(n) for j in range(i)]
            for bits in product((0, 1), repeat=len(slots)):
                rows = [[int(p == q) for q in range(n)] for p in range(n)]
                for (i, j), bit in zip(slots, bits):
                    rows[i][j] = bit
                first = next(
                    (
                        (i + 1, j + 1, k + 1)
                        for i in range(n)
                        for j in range(n)
                        for k in range(n)
                        if rows[i][j] and rows[j][k] and not rows[i][k]
                    ),
                    None,
                )
                if first is None:
                    assert validate(rows).rows == tuple(map(tuple, rows))
                else:
                    with pytest.raises(TransitivityViolation) as err:
                        validate(rows)
                    assert (err.value.i, err.value.j, err.value.k) == first

    def test_first_violation_in_scan_order(self):
        # Both (2,2) diagonal and (1,3) upper fail; row-major hits (1,3) first.
        with pytest.raises(NotLowerTriangular) as err:
            validate(BinaryMatrix.from_bits("101;100;001"))
        assert (err.value.i, err.value.j) == (1, 3)

    def test_round_trip_for_every_matrix(self):
        for a in all_upto(5):
            n = a.n
            rows = a.rows
            assert rows == tuple(
                tuple(a.entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1)
            )
            assert a.bit_rows() == tuple("".join(map(str, r)) for r in rows)
            assert validate(BinaryMatrix(rows)) == a

    def test_order_zero_rejected(self):
        for empty in ([], BinaryMatrix([]), BinaryMatrix.zeros(0, 0)):
            with pytest.raises(ValidationError, match="order must be positive"):
                validate(empty)
        with pytest.raises(ValidationError):
            PosetMatrix([])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            PosetMatrix([[1, 0], [1, 1], [1, 1]])

    def test_is_poset_matrix_answers_false_for_any_non_matrix(self):
        for bad in (None, 5, "abc", [[1], [1, 1]], [[2]], [[float("inf")]], []):
            assert is_poset_matrix(bad) is False, bad
        assert is_poset_matrix([[1, 0], [1, 1]]) is True


class TestBlockDecompose:
    def test_worked_example_position_two(self):
        bv = block_decompose(pm("1000;1100;1010;1111"), 2)
        assert bv.a11 == pm("1")
        assert bv.row == (1,)
        assert bv.col == (0, 1)
        assert bv.a21.rows == ((1,), (1,))
        assert bv.a22 == pm("10;11")

    def test_boundary_position_one(self):
        a = pm("1000;1100;1010;1111")
        bv = block_decompose(a, 1)
        assert bv.a11.n == 0 and bv.row == () and bv.a21.height == 3
        assert bv.a21.width == 0
        assert bv.col == (1, 1, 1)
        assert bv.a22 == principal_subposet(a, (2, 3, 4))

    def test_identity_has_zero_off_blocks(self):
        bv = block_decompose(pm("100;010;001"), 2)
        assert bv.row == (0,) and bv.col == (0,)
        assert not any(any(r) for r in bv.a21.rows)

    def test_reassemble_round_trip(self):
        for a in all_upto(5):
            for i in range(1, a.n + 1):
                assert block_decompose(a, i).reassemble() == a

    def test_position_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            block_decompose(pm("10;11"), 3)


class TestRepresentation:
    def test_equality_and_hash_depend_on_shape(self):
        # the same row codes under different shapes are different matrices
        same_codes = [
            BinaryMatrix.zeros(2, 1),
            BinaryMatrix.zeros(2, 3),
            BinaryMatrix.zeros(0, 1),
            BinaryMatrix.zeros(0, 3),
            BinaryMatrix.zeros(3, 0),
        ]
        assert len(set(same_codes)) == len(same_codes)
        assert BinaryMatrix.zeros(2, 3) == BinaryMatrix([[0, 0, 0], [0, 0, 0]])
        assert hash(BinaryMatrix.zeros(2, 3)) == hash(BinaryMatrix([[0, 0, 0], [0, 0, 0]]))

    def test_empty_blocks_keep_their_shape(self):
        a = pm("1000;1100;1010;1111")
        first, last = block_decompose(a, 1), block_decompose(a, 4)
        assert (first.a21.height, first.a21.width) == (3, 0)
        assert (last.a21.height, last.a21.width) == (0, 3)
        assert first.a21 == BinaryMatrix.zeros(3, 0) != last.a21
        assert last.a21 == BinaryMatrix.zeros(0, 3) != BinaryMatrix.zeros(0, 0)
        assert first.a11 == last.a22 == PosetMatrix._wrap(())
        assert first.a11 != BinaryMatrix.zeros(0, 1)
        b = pm("10;11")
        at_one = insert(a, 1, b, BinaryMatrix.zeros(2, 0), BinaryMatrix.zeros(3, 2))
        at_end = insert(a, 4, b, BinaryMatrix.zeros(2, 3), BinaryMatrix.zeros(0, 2))
        assert (at_one.height, at_one.width) == (at_end.height, at_end.width) == (5, 5)
        assert at_one.bit_rows() == ("10000", "11000", "00100", "00010", "00111")
        assert at_end.bit_rows() == ("10000", "11000", "10100", "00010", "00011")

    def test_fields_cannot_be_assigned(self):
        m = BinaryMatrix.zeros(2, 3)
        for name in ("codes", "width", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, 1)
        assert (m.codes, m.width) == ((0, 0), 3)

    def test_order_of_a_grid_needs_a_square(self):
        assert BinaryMatrix.zeros(3, 3).n == 3
        with pytest.raises(ValueError, match="2x3, not square"):
            BinaryMatrix.zeros(2, 3).n

    def test_entry_out_of_range(self):
        a = pm("10;11")
        assert a.entry(2, 1) == 1
        for i, j in ((0, 1), (3, 1), (1, 0), (1, 3)):
            with pytest.raises(IndexOutOfRange):
                a.entry(i, j)

    def test_binary_and_poset_matrices_with_equal_entries_are_equal(self):
        for a in all_upto(4):
            grid = BinaryMatrix(a.rows)
            assert type(grid) is BinaryMatrix and type(a) is PosetMatrix
            assert grid == a and a == grid
            assert hash(grid) == hash(a)
            assert len({grid, a}) == 1


class TestSubmatrix:
    A = pm("1000;1100;1010;1111")

    def test_rows_34_cols_12(self):
        assert submatrix(self.A, (3, 4), (1, 2)).rows == ((1, 0), (1, 1))

    def test_full_selection_is_identity(self):
        n = self.A.n
        assert submatrix(self.A, range(1, n + 1), range(1, n + 1)) == self.A

    def test_single_row(self):
        assert submatrix(self.A, (4,), (1, 2, 3)).rows == ((1, 1, 1),)

    def test_index_set_must_increase(self):
        with pytest.raises(IndexOutOfRange):
            index_set((2, 1), 4)
        with pytest.raises(IndexOutOfRange):
            index_set((0,), 4)

    @pytest.mark.parametrize("alpha", [(1.5, 3.2), "12", (1, 2.0)])
    def test_indices_must_be_integers(self, alpha):
        # int() would read the first two as (1, 3) and (1, 2)
        with pytest.raises(TypeError):
            principal_subposet(self.A, alpha)
        with pytest.raises(TypeError):
            submatrix(self.A, alpha, (1,))


class TestPrincipalSubposet:
    def test_worked_example(self):
        assert principal_subposet(pm("1000;1100;1010;1011"), (2, 3, 4)) == pm(
            "100;010;011"
        )

    def test_full_range(self):
        a = pm("100;110;111")
        assert principal_subposet(a, (1, 2, 3)) == a

    def test_singleton(self):
        assert principal_subposet(pm("100;110;111"), (2,)) == pm("1")

    def test_empty_index_set_refused(self):
        with pytest.raises(IndexOutOfRange, match="empty index set"):
            principal_subposet(pm("100;110;111"), ())

    def test_always_valid_exhaustive(self):
        from itertools import combinations

        for a in all_upto(6):
            n = a.n
            for size in range(1, n + 1):
                for alpha in combinations(range(1, n + 1), size):
                    validate(BinaryMatrix(principal_subposet(a, alpha).rows))


class TestMinMaxElements:
    def test_worked_example(self):
        assert minimal_elements(MINMAX_EXAMPLE) == (1, 3)
        assert maximal_elements(MINMAX_EXAMPLE) == (2, 4)

    def test_antichain(self):
        a = pm("1000;0100;0010;0001")
        assert minimal_elements(a) == (1, 2, 3, 4)
        assert maximal_elements(a) == (1, 2, 3, 4)

    def test_chain(self):
        assert minimal_elements(chain(3)) == (1,)
        assert maximal_elements(chain(3)) == (3,)

    def test_matches_brute_force(self):
        for a in all_upto(6):
            n, rows = a.n, a.rows
            mins = tuple(
                i
                for i in range(1, n + 1)
                if not any(rows[i - 1][j - 1] for j in range(1, n + 1) if j != i)
            )
            maxs = tuple(
                i
                for i in range(1, n + 1)
                if not any(rows[j - 1][i - 1] for j in range(1, n + 1) if j != i)
            )
            assert minimal_elements(a) == mins
            assert maximal_elements(a) == maxs

    def test_extremal_matches_the_per_element_definition(self):
        # element q is minimal iff its row holds no bit but q, and maximal
        # iff no other row holds bit q: over PM(<=6) and random matrices of
        # orders 8-40, cached and uncached alike
        rng = random.Random(30)
        drawn = [random_poset_matrix(rng, rng.randint(8, 40)) for _ in range(200)]
        for a in [*all_upto(6), *drawn]:
            codes, n = a.codes, a.n
            mins = sum(1 << q for q in range(n) if not codes[q] & ~(1 << q))
            maxs = sum(
                1 << q for q in range(n) if not any(codes[r] >> q & 1 for r in range(n) if r != q)
            )
            assert _extremal(codes) == _extremal.__wrapped__(codes) == (n, mins, maxs), codes

    def test_members_lists_the_set_bits_ascending(self):
        for mask in range(1 << 10):
            assert _members(mask) == tuple(q + 1 for q in range(10) if mask >> q & 1)


class TestCoverRelation:
    def test_worked_example(self):
        assert cover_relation(MINMAX_EXAMPLE) == ((1, 2), (1, 4), (3, 4))

    def test_antichain_has_no_covers(self):
        assert cover_relation(pm("100;010;001")) == ()

    def test_chain_covers(self):
        assert cover_relation(chain(3)) == ((1, 2), (2, 3))

    def test_closure_of_covers_recovers_matrix(self):
        for a in all_upto(6):
            assert closure_of_covers(a.n, cover_relation(a)) == a
        # the pairs may come in any order
        assert closure_of_covers(4, [(3, 4), (2, 3), (1, 2)]) == chain(4)

    def test_matches_the_definition(self):
        # the cover walk against "j above i, nothing strictly between", on
        # every matrix of order up to 6 and on random order-40 matrices
        for a in all_upto(6):
            assert cover_relation(a) == covers_by_definition(a)
        rng = random.Random(40)
        for density in (0.05, 0.1, 0.2, 0.35):
            for _ in range(4):
                a = random_poset_matrix(rng, 40, density)
                covers = cover_relation(a)
                assert covers == covers_by_definition(a)
                assert closure_of_covers(40, covers) == a

    def test_a_grid_is_validated_first(self):
        # the walk drops each cover's down-set, so it needs a unit diagonal
        assert cover_relation(BinaryMatrix(MINMAX_EXAMPLE.rows)) == cover_relation(MINMAX_EXAMPLE)
        with pytest.raises(NotReflexive):
            cover_relation(BinaryMatrix(((1, 0), (1, 0))))
        with pytest.raises(NotLowerTriangular):
            cover_relation(BinaryMatrix(((1, 1), (0, 1))))

    @pytest.mark.parametrize("pair", [(0, 1), (1, 5), (1, 1), (2, 1), (-1, 2)])
    def test_closure_of_covers_refuses_pairs_outside_the_order(self, pair):
        with pytest.raises(IndexOutOfRange, match=r"1 <= i < j <= 4"):
            closure_of_covers(4, [(1, 2), pair])


class TestRelabel:
    def test_refuses_what_is_not_a_linear_extension(self):
        with pytest.raises(NotLowerTriangular):
            relabel(chain(2), [2, 1])
        for order in ([1, 1], [0], [1], [1, 2, 3], [0, 1], [2, 3]):
            with pytest.raises(IndexOutOfRange):
                relabel(chain(2), order)

    def test_accepts_exactly_the_linear_extensions(self):
        # a permutation of 1..n gives a poset matrix iff it is a linear
        # extension; every other one is a typed error, never a bad matrix
        for a in all_upto(4):
            extensions = set(linear_extensions(a))
            for order in permutations(range(1, a.n + 1)):
                if order in extensions:
                    b = relabel(a, order)
                    assert validate(BinaryMatrix(b.rows)) == b
                    assert all(
                        b.entry(p, q) == a.entry(order[p - 1], order[q - 1])
                        for p in range(1, a.n + 1)
                        for q in range(1, a.n + 1)
                    )
                else:
                    with pytest.raises(PosetMatError):
                        relabel(a, order)
