import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmat import (
    ALL_BOXED,
    ALL_KINDS,
    MASK_KINDS,
    MAX,
    MIN,
    MINMAX,
    SQUARE,
    UNIT,
    BinaryMatrix,
    Boxed,
    compose,
    insert,
    kind_name,
    max_mask,
    min_mask,
    parse_kind,
    principal_subposet,
    validate,
)
from posetmat.core import block_decompose
from posetmat.enumeration import generate_all
from posetmat.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotReflexive,
    PreconditionViolated,
)

from helpers import (
    EX_A,
    EX_B,
    EX_MAX,
    EX_MIN,
    EX_MINMAX,
    EX_SQUARE,
    antichain,
    built_from_atoms,
    chain,
    pm,
    random_poset_matrix,
)


def pairs_upto(n_max):
    pool = [m for n in range(1, n_max + 1) for m in generate_all(n)]
    for a in pool:
        for b in pool:
            for i in range(1, a.n + 1):
                yield a, i, b


class TestInsert:
    def test_zero_masks_give_block_diagonal(self):
        a = pm("100;010;001")
        b = chain(2)
        u = BinaryMatrix.zeros(2, 1)
        v = BinaryMatrix.zeros(1, 2)
        assert insert(a, 2, b, u, v) == BinaryMatrix.from_bits("1000;0100;0110;0001")

    def test_unit_host_returns_guest(self):
        b = pm("100;110;101")
        out = insert(UNIT, 1, b, BinaryMatrix.zeros(3, 0), BinaryMatrix.zeros(0, 3))
        assert out == b

    def test_unit_guest_with_matching_masks_returns_host(self):
        a = EX_A
        bv = block_decompose(a, 2)
        u = BinaryMatrix((bv.row,))
        v = BinaryMatrix(tuple((c,) for c in bv.col))
        assert insert(a, 2, UNIT, u, v) == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            insert(EX_A, 2, EX_B, BinaryMatrix.zeros(3, 2), BinaryMatrix.zeros(2, 3))
        with pytest.raises(DimensionMismatch, match="V is 2x2, expected 2x3"):
            insert(EX_A, 2, EX_B, BinaryMatrix.zeros(3, 1), BinaryMatrix.zeros(2, 2))

    def test_position_out_of_range(self):
        for i in (0, 5):
            with pytest.raises(IndexOutOfRange):
                insert(EX_A, i, EX_B, BinaryMatrix.zeros(3, 1), BinaryMatrix.zeros(2, 3))


class TestGoldenComposites:
    def test_square(self):
        assert compose(SQUARE, EX_A, 2, EX_B) == EX_SQUARE

    def test_min(self):
        assert compose(MIN, EX_A, 2, EX_B) == EX_MIN

    def test_max(self):
        assert compose(MAX, EX_A, 2, EX_B) == EX_MAX

    def test_minmax(self):
        assert compose(MINMAX, EX_A, 2, EX_B) == EX_MINMAX

    def test_square_chain_construction(self):
        assert compose(SQUARE, chain(2), 1, chain(2)) == chain(3)

    def test_max_catalog_construction(self):
        assert compose(MAX, pm("100;110;101"), 2, chain(2)) == pm(
            "1000;0100;1110;1001"
        )

    def test_position_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            compose(SQUARE, EX_A, 5, EX_B)


class TestMasks:
    def test_min_mask_worked_example(self):
        mask = min_mask(EX_A, 2, EX_B)
        assert mask.rows == ((0, 0, 0), (1, 0, 0))

    def test_min_mask_antichain_replicates_fully(self):
        mask = min_mask(EX_A, 2, antichain(3))
        assert mask.rows == ((0, 0, 0), (1, 1, 1))

    def test_min_mask_zero_column_suffix(self):
        mask = min_mask(pm("100;110;111"), 3, EX_B)
        assert mask.height == 0

    def test_max_mask_worked_example(self):
        mask = max_mask(EX_A, 2, EX_B)
        assert mask.rows == ((0,), (1,), (1,))

    def test_max_mask_chain_marks_only_top(self):
        mask = max_mask(EX_A, 2, chain(3))
        assert mask.rows == ((0,), (0,), (1,))

    def test_max_mask_zero_row_prefix(self):
        mask = max_mask(pm("100;010;111"), 2, EX_B)
        assert mask.rows == ((0,), (0,), (0,))


class TestUnitLaws:
    def test_unit_both_sides_for_mask_kinds(self):
        for kind in MASK_KINDS:
            for n in range(1, 5):
                for a in generate_all(n):
                    assert compose(kind, UNIT, 1, a) == a
                    for i in range(1, n + 1):
                        assert compose(kind, a, i, UNIT) == a

    def test_antichain_guest_merges_kinds(self):
        b = antichain(3)
        for a in generate_all(3):
            for i in range(1, 4):
                sq = compose(SQUARE, a, i, b)
                assert compose(MIN, a, i, b) == sq
                assert compose(MAX, a, i, b) == sq
                assert compose(MINMAX, a, i, b) == sq


def test_a_grid_is_validated_first():
    # the rule reads a poset's rows, and would wrap "10;00" unchecked
    grid = BinaryMatrix.from_bits("10;11")
    assert compose(SQUARE, grid, 1, UNIT) == chain(2)
    assert compose(SQUARE, UNIT, 1, grid) == chain(2)
    bad = BinaryMatrix.from_bits("10;00")
    for a, b in [(bad, UNIT), (UNIT, bad), (bad, chain(2))]:
        with pytest.raises(NotReflexive):
            compose(SQUARE, a, 1, b)


class TestBoxed:
    def test_all_zero_kind_gives_block_diagonal(self):
        out = compose(Boxed(0, 0, 0), pm("100;010;001"), 2, chain(2))
        assert out == pm("1000;0100;0110;0001")

    def test_matching_pattern_222_chain(self):
        assert compose(Boxed(1, 1, 1), chain(2), 1, chain(2)) == chain(3)

    def test_forbidden_triple_unrepresentable(self):
        with pytest.raises(ValueError):
            Boxed(1, 0, 1)

    def test_a21_precondition_enforced(self):
        # Lower-left block of EX_A at position 2 is all ones.
        with pytest.raises(PreconditionViolated):
            compose(Boxed(0, 0, 0), EX_A, 2, EX_B)
        compose(Boxed(0, 1, 0), EX_A, 2, EX_B)

    @pytest.mark.parametrize(
        "rows, a21, entry",
        [
            # wrong entries (4,2), (5,1) and (5,2): row-major order names
            # (4,2), column-major order would name (5,1)
            ("10000;01000;00100;01010;11001", 0, "1 at (4,2)"),
            ("10000;01000;00100;10010;00001", 1, "0 at (4,2)"),
        ],
    )
    def test_precondition_names_the_first_wrong_entry(self, rows, a21, entry):
        kinds = [kind for kind in ALL_BOXED if kind.a21 == a21]
        assert len(kinds) in (3, 4)
        for kind in kinds:
            with pytest.raises(PreconditionViolated) as err:
                compose(kind, pm(rows), 3, UNIT)
            assert str(err.value) == (
                f"lower-left block of A at position 3 has entry {entry}, expected constant {a21}"
            )

    def test_precondition_message_matches_a_row_major_scan(self):
        for n in range(1, 6):
            for a in generate_all(n):
                for i in range(1, n + 1):
                    for a21 in (0, 1):
                        wrong = [
                            (s, q)
                            for s in range(i + 1, n + 1)
                            for q in range(1, i)
                            if a.entry(s, q) != a21
                        ]
                        try:
                            compose(Boxed(0, a21, 0), a, i, UNIT)
                        except PreconditionViolated as e:
                            s, q = wrong[0]
                            assert str(e) == (
                                f"lower-left block of A at position {i} has entry "
                                f"{1 - a21} at ({s},{q}), expected constant {a21}"
                            )
                        else:
                            assert not wrong

    def test_boundary_positions_allow_all_kinds(self):
        a = pm("100;110;111")
        for kind in ALL_BOXED:
            validate(BinaryMatrix(compose(kind, a, 1, EX_B).rows))
            validate(BinaryMatrix(compose(kind, a, a.n, EX_B).rows))

    def test_agrees_with_square_when_pattern_matches(self):
        for a, i, b in pairs_upto(4):
            bv = block_decompose(a, i)
            flat = {x for r in bv.a21.rows for x in r}
            for kind in ALL_BOXED:
                if flat - {kind.a21}:
                    continue
                if set(bv.row) - {kind.u} or set(bv.col) - {kind.v}:
                    continue
                assert compose(kind, a, i, b) == compose(SQUARE, a, i, b)

    def test_kind_names_round_trip(self):
        for kind in ALL_KINDS:
            assert parse_kind(kind_name(kind)) is kind  # the shared kind, not a new one
        with pytest.raises(ValueError, match=r"fill triple \(1,0,1\) is not one of"):
            parse_kind("boxed:101")


# |G_K(n)| for n = 1..7, the matrices kind K builds from PM(1) and PM(2)
# (helpers.built_from_atoms).  square, min and max give the large Schroder
# numbers (https://oeis.org/A006318), boxed:111, boxed:010 and boxed:000 the
# Fibonacci numbers (https://oeis.org/A000045); the other two rows are
# pinned without a published source.
BUILT_SIZES = {
    SQUARE: (1, 2, 6, 22, 90, 394, 1806),
    MIN: (1, 2, 6, 22, 90, 394, 1806),
    MAX: (1, 2, 6, 22, 90, 394, 1806),
    MINMAX: (1, 2, 5, 15, 54, 230, 1133),
    Boxed(1, 1, 1): (1, 2, 3, 5, 8, 13, 21),
    Boxed(0, 1, 0): (1, 2, 3, 5, 8, 13, 21),
    Boxed(0, 0, 0): (1, 2, 3, 5, 8, 13, 21),
    Boxed(1, 1, 0): (1, 2, 4, 12, 40, 144, 552),
    Boxed(1, 0, 0): (1, 2, 4, 12, 40, 144, 552),
    Boxed(0, 1, 1): (1, 2, 4, 12, 40, 144, 552),
    Boxed(0, 0, 1): (1, 2, 4, 12, 40, 144, 552),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_what_each_kind_builds_from_the_atoms(kind):
    built = built_from_atoms(kind, 7)
    assert tuple(len(level) for level in built) == BUILT_SIZES[kind]
    for level in built:
        for codes in level:
            validate(BinaryMatrix._of(codes, len(codes)))


class TestClosureProperties:
    def test_every_composite_is_valid_exhaustive(self):
        for a, i, b in pairs_upto(4):
            for kind in ALL_KINDS:
                try:
                    out = compose(kind, a, i, b)
                except PreconditionViolated:
                    continue
                assert out.n == a.n + b.n - 1
                validate(BinaryMatrix(out.rows))

    def test_guest_block_is_recoverable(self):
        for a, i, b in pairs_upto(4):
            for kind in ALL_KINDS:
                try:
                    out = compose(kind, a, i, b)
                except PreconditionViolated:
                    continue
                assert principal_subposet(out, range(i, i + b.n)) == b

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_composites_validate(self, seed):
        rng = random.Random(seed)
        a = random_poset_matrix(rng, rng.randint(1, 7))
        b = random_poset_matrix(rng, rng.randint(1, 7))
        i = rng.randint(1, a.n)
        for kind in MASK_KINDS:
            out = compose(kind, a, i, b)
            assert out.n == a.n + b.n - 1
            validate(BinaryMatrix(out.rows))


def _minimal(b):
    return {p for p in range(1, b.n + 1) if all(b.entry(p, q) == 0 for q in range(1, p))}


def _maximal(b):
    return {
        q
        for q in range(1, b.n + 1)
        if all(b.entry(p, q) == 0 for p in range(q + 1, b.n + 1))
    }


# kind -> (U-fill, V-fill, constant required of A's lower-left block or None),
# written from the definitions: "row" is A's row prefix at i in every row of
# B, "max" that prefix only in the rows of B's maximal elements, "col" A's
# column suffix at i in every column of B, "min" that suffix only in the
# columns of B's minimal elements, and 0/1 a constant fill.
DEFINITION = {
    "square": ("row", "col", None),
    "min": ("row", "min", None),
    "max": ("max", "col", None),
    "minmax": ("max", "min", None),
    **{k: (k.u, k.v, k.a21) for k in ALL_BOXED},
}


def composite_by_definition(kind, a, i, b):
    """Entry-wise A o_i B from the (U-fill, V-fill, precondition) definition."""
    if not 1 <= i <= a.n:
        raise IndexOutOfRange
    u_fill, v_fill, a21 = DEFINITION[kind]
    n, m = a.n, b.n
    if a21 is not None and any(
        a.entry(s, q) != a21 for s in range(i + 1, n + 1) for q in range(1, i)
    ):
        raise PreconditionViolated
    mins, maxs = _minimal(b), _maximal(b)

    def u(p, q):  # row p of B, column q < i of A
        if u_fill == "row" or (u_fill == "max" and p in maxs):
            return a.entry(i, q)
        return 0 if u_fill == "max" else u_fill

    def v(s, q):  # row s > i of A, column q of B
        if v_fill == "col" or (v_fill == "min" and q in mins):
            return a.entry(s, i)
        return 0 if v_fill == "min" else v_fill

    def entry(p, q):  # 1-based entry of the order n+m-1 composite
        in_b = lambda x: i <= x < i + m
        host = lambda x: x if x < i else x - m + 1
        if in_b(p) and in_b(q):
            return b.entry(p - i + 1, q - i + 1)
        if in_b(p):
            return u(p - i + 1, q) if q < i else 0
        if in_b(q):
            return v(host(p), q - i + 1) if p >= i + m else 0
        return a.entry(host(p), host(q))

    size = n + m - 1
    return tuple(
        tuple(entry(p, q) for q in range(1, size + 1)) for p in range(1, size + 1)
    )


class TestDefinition:
    def test_every_kind_matches_its_fill_definition_exhaustive(self):
        hosts = [m for n in range(1, 5) for m in generate_all(n)]
        guests = [m for n in range(1, 4) for m in generate_all(n)]
        cases = 0
        for kind in ALL_KINDS:
            for a in hosts:
                for b in guests:
                    for i in range(0, a.n + 2):  # both ends one past the range
                        try:
                            want = composite_by_definition(kind, a, i, b)
                        except (IndexOutOfRange, PreconditionViolated) as e:
                            with pytest.raises(type(e)):
                                compose(kind, a, i, b)
                        else:
                            assert compose(kind, a, i, b).rows == want
                        cases += 1
        assert cases == 31_460

    def test_unknown_or_unhashable_kind_is_a_value_error(self):
        for kind in ("cube", "boxed:010", ("square",), ["square"], {}, None):
            with pytest.raises(ValueError):
                compose(kind, EX_A, 2, EX_B)
        with pytest.raises(ValueError):  # checked before the position
            compose("cube", EX_A, 9, EX_B)
