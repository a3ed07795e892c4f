import random
import tracemalloc

import pytest

from posetmat import (
    MAX,
    MIN,
    MINMAX,
    SQUARE,
    Boxed,
    compose,
    dual,
    dual_index_set,
    is_self_dual,
    maximal_elements,
    minimal_elements,
    principal_subposet,
    semi_equidual,
    validate,
    verify_laws,
)
from posetmat.compose import ALL_KINDS, kind_name
from posetmat.duality import SELF_DUAL_CLOSURE_BUDGET, self_dual_closure_counterexamples
from posetmat.enumeration import generate_all
from posetmat.errors import (
    IndexOutOfRange,
    OrderMismatch,
    PreconditionViolated,
    ResourceLimit,
    ValidationError,
)
from posetmat.pascal import pascal_matrix

from helpers import (
    antichain,
    chain,
    dual_by_formula,
    pm,
    random_poset_matrix,
    semi_equidual_by_definition,
)


def all_upto(n_max):
    for n in range(1, n_max + 1):
        yield from generate_all(n)


class TestDual:
    def test_worked_pair(self):
        assert dual(pm("1000;1100;1010;1011")) == pm("1000;1100;0010;1111")

    def test_antichain_fixed(self):
        a = pm("100;010;001")
        assert dual(a) == a

    def test_chain_fixed(self):
        assert dual(chain(4)) == chain(4)

    def test_involution_exhaustive(self):
        for a in all_upto(5):
            assert dual(dual(a)) == a

    def test_min_max_swap_under_duality(self):
        for a in all_upto(5):
            assert minimal_elements(dual(a)) == dual_index_set(
                maximal_elements(a), a.n
            )


class TestSelfDual:
    def test_chain(self):
        assert is_self_dual(chain(5))

    def test_dual_and_self_duality_by_the_entry_formula(self):
        # d(i, j) = a(n+1-j, n+1-i) on every matrix of order up to 6 and on
        # random order-40 matrices; is_self_dual stops at the first row that
        # differs, so it is checked against the whole comparison
        rng = random.Random(42)
        pool = [*all_upto(6), chain(40), antichain(40)]
        pool += [random_poset_matrix(rng, 40, d) for d in (0.05, 0.1, 0.2, 0.35) for _ in range(3)]
        self_dual = 0
        for a in pool:
            d = dual(a)
            assert d.rows == dual_by_formula(a)
            assert is_self_dual(a) == (d == a)
            self_dual += d == a
        assert self_dual > 100  # both answers are exercised

    def test_chains_and_pascal_matrices_are_self_dual(self):
        for n in (2, 4, 8, 16, 32, 64):
            assert is_self_dual(chain(n))
            assert is_self_dual(pascal_matrix(n))
            assert dual(pascal_matrix(n)) == pascal_matrix(n)

    def test_vee_is_not(self):
        assert not is_self_dual(pm("100;110;101"))
        assert dual(pm("100;110;101")) == pm("100;010;111")

    def test_diamond_is(self):
        assert is_self_dual(pm("1000;1100;1010;1111"))


class TestDualIndexSet:
    def test_basic(self):
        assert dual_index_set((1, 2), 4) == (3, 4)

    def test_full_range(self):
        assert dual_index_set(range(1, 5), 4) == (1, 2, 3, 4)

    def test_singleton(self):
        assert dual_index_set((2,), 5) == (4,)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            dual_index_set((6,), 5)

    def test_unsorted_input_is_sorted_first(self):
        assert dual_index_set((3, 1), 4) == (2, 4)

    def test_repeated_index_refused(self):
        with pytest.raises(IndexOutOfRange, match="not strictly increasing"):
            dual_index_set((1, 1), 3)

    def test_non_integer_refused(self):
        with pytest.raises(TypeError):
            dual_index_set((1.5, 2), 3)


class TestDualityTheorems:
    def test_principal_block_commutes_with_dual(self):
        from itertools import combinations

        for a in all_upto(5):
            n = a.n
            for size in range(1, n + 1):
                for alpha in combinations(range(1, n + 1), size):
                    assert principal_subposet(dual(a), dual_index_set(alpha, n)) == dual(
                        principal_subposet(a, alpha)
                    )

    def test_dual_of_square_composition(self):
        for b in all_upto(4):
            for c in all_upto(4):
                for i in range(1, b.n + 1):
                    assert dual(compose(SQUARE, b, i, c)) == compose(SQUARE,
                        dual(b), b.n - i + 1, dual(c)
                    )

    def test_dual_swaps_min_and_max_compositions(self):
        for b in all_upto(4):
            for c in all_upto(4):
                for i in range(1, b.n + 1):
                    assert dual(compose(MIN, b, i, c)) == compose(MAX,
                        dual(b), b.n - i + 1, dual(c)
                    )
                    assert compose(MAX, b, b.n - i + 1, c) == dual(
                        compose(MIN, dual(b), i, dual(c))
                    )

    def test_worked_dual_composition_pair(self):
        left = compose(SQUARE, pm("100;110;101"), 3, chain(2))
        right = compose(SQUARE, pm("100;010;111"), 1, chain(2))
        assert left == pm("1000;1100;1010;1011")
        assert right == pm("1000;1100;0010;1111")
        assert dual(left) == right


def dual_kind(kind):
    """K*: the two fills of K swapped and each dualised, a21 kept.  Dualising
    turns rows into columns and maximal elements into minimal ones, so a
    copied row prefix (at B's maximal elements) becomes a copied column
    suffix (at B's minimal elements), and a constant u becomes a constant v."""
    if isinstance(kind, Boxed):
        return Boxed(kind.v, kind.a21, kind.u)
    return {SQUARE: SQUARE, MIN: MAX, MAX: MIN, MINMAX: MINMAX}[kind]


DUAL_PAIRS = [k for k in ALL_KINDS if kind_name(k) < kind_name(dual_kind(k))]


def _composite(kind, a, i, b):
    try:
        return compose(kind, a, i, b)
    except PreconditionViolated:
        return None


class TestDualityOfKinds:
    def test_the_dual_pairs(self):
        # min and max, boxed:110 and boxed:011, boxed:100 and boxed:001;
        # the other five kinds are their own duals
        assert all(dual_kind(dual_kind(k)) == k for k in ALL_KINDS)
        pairs = {kind_name(k): kind_name(dual_kind(k)) for k in DUAL_PAIRS}
        assert pairs == {"max": "min", "boxed:011": "boxed:110", "boxed:001": "boxed:100"}

    def test_dual_of_every_composition_of_every_kind(self):
        # dual(A o_i^K B) = dual(A) o_{n+1-i}^{K*} dual(B), with one side
        # undefined exactly when the other is
        defined = 0
        for kind in ALL_KINDS:
            star = dual_kind(kind)
            for a in all_upto(4):
                for b in all_upto(3):
                    for i in range(1, a.n + 1):
                        left = _composite(kind, a, i, b)
                        right = _composite(star, dual(a), a.n + 1 - i, dual(b))
                        assert (None if left is None else dual(left)) == right, (kind_name(kind), a, i, b)
                        defined += left is not None
        assert defined == 16_280

    @pytest.mark.parametrize("kind", DUAL_PAIRS, ids=kind_name)
    def test_dual_kinds_report_the_same_verdicts_and_counts(self, kind):
        # duality keeps each case's total order and maps K's cases onto
        # K*'s; the witnesses may differ, as the witness order is not
        # invariant under duality
        for n in range(1, 7):
            reports = [verify_laws(k, n) for k in (kind, dual_kind(kind))]
            first, second = (
                [(r.law, r.verdict, r.cases_checked, r.cases_skipped) for r in rs] for rs in reports
            )
            assert first == second, (kind_name(kind), n)


class TestSelfDualClosureReport:
    """A composite can be self-dual without self-dual factors and vice
    versa, so the tempting biconditional fails in both directions; the
    sweep reports every disagreement instead of asserting.

    Every disagreement lies off the centre position (2i != n + 1 for A of
    order n): at the centre the dual composite A* square_i B* sits at the
    same position, and square composition there is injective, so the
    composite is self-dual exactly when both factors are."""

    def test_known_disagreements_are_found(self):
        found = self_dual_closure_counterexamples(4)
        assert found, "expected disagreements with the closure biconditional"
        keyed = {
            (a.rows, i, b.rows): direction for a, i, b, comp, direction in found
        }
        # composite self-dual, one factor not:
        assert (
            chain(2).rows,
            1,
            pm("100;110;101").rows,
        ) in keyed
        # both factors self-dual, composite not:
        assert (
            pm("1000;1100;1010;1111").rows,
            2,
            chain(2).rows,
        ) in keyed

    def test_reported_items_reverify(self):
        for a, i, b, comp, direction in self_dual_closure_counterexamples(3):
            assert compose(SQUARE, a, i, b) == comp
            both = is_self_dual(a) and is_self_dual(b)
            assert is_self_dual(comp) != both

    @pytest.mark.parametrize("max_order", [6, 8, 9])
    def test_composition_budget_refused_before_any_pool_is_built(self, max_order):
        # |pool| * sum n|PM(n)| compositions: 407 * 1,971 up to order 5,
        # 5,231 * 30,915 up to order 6; PM(<=6) alone takes about 0.8 MB
        assert 407 * 1_971 <= SELF_DUAL_CLOSURE_BUDGET < 5_231 * 30_915
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="budget"):
                self_dual_closure_counterexamples(max_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18


class TestSemiEquidual:
    def test_worked_four_by_four(self):
        a = pm("1000;1100;1110;1001")
        b = pm("1000;1100;1010;1011")
        w = semi_equidual(a, b)
        assert w.alpha == (2, 3, 4)
        assert w.block_b == dual(w.block_a)

    def test_worked_five_by_five(self):
        c = pm("10000;01000;01100;11110;11111")
        d = pm("10000;11000;00100;11110;11111")
        assert semi_equidual(c, d).alpha == (1, 2, 3)

    def test_identity_pair_smallest_witness(self):
        a = pm("1000;0100;0010;0001")
        assert semi_equidual(a, a).alpha == (1, 2)

    def test_symmetric(self):
        a = pm("1000;1100;1110;1001")
        b = pm("1000;1100;1010;1011")
        assert semi_equidual(b, a).alpha == semi_equidual(a, b).alpha

    def test_none_when_no_disconnected_block(self):
        assert semi_equidual(chain(3), chain(3)) is None

    def test_matches_the_definition_on_every_pair_up_to_order_four(self):
        found = 0
        for n in range(1, 5):
            pool = generate_all(n)
            for a in pool:
                for b in pool:
                    w = semi_equidual(a, b)
                    got = w and (w.alpha, w.block_a.rows, w.block_b.rows)
                    assert got == semi_equidual_by_definition(a, b), (a, b)
                    found += w is not None
        assert found == 96  # pairs with a witness, so the comparison is not all None

    def test_matches_the_definition_on_planted_pairs(self):
        # b is a with a principal block replaced by its dual, which plants a
        # witness when the block is disconnected; at orders 6 to 9 the search
        # returns the definition's least witness
        rng = random.Random(44)
        planted = 0
        for n in (6, 7, 8, 9) * 20:
            a = random_poset_matrix(rng, n, rng.choice((0.05, 0.1, 0.2)))
            alpha = sorted(rng.sample(range(1, n + 1), rng.randint(3, 5)))
            flipped = dual_by_formula(principal_subposet(a, alpha))
            grid = [list(r) for r in a.rows]
            for p, r in enumerate(alpha):
                for q, c in enumerate(alpha):
                    grid[r - 1][c - 1] = flipped[p][q]
            try:
                b = validate(grid)
            except ValidationError:
                continue
            w = semi_equidual(a, b)
            got = w and (w.alpha, w.block_a.rows, w.block_b.rows)
            assert got == semi_equidual_by_definition(a, b), (a, b)
            planted += w is not None and b != a
        assert planted >= 20

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            semi_equidual(chain(2), chain(3))
