import random
import re
import sys

import pytest

from posetmat import (
    SQUARE,
    Boxed,
    classify_connectivity,
    compose,
    decompose_disconnected,
    dpm_check,
    equal_columns,
    equal_rows,
    factor,
    insertion_invariance_class,
    is_totally_connected,
    is_totally_disconnected,
    submatrix,
    validate,
)
from posetmat import structure
from posetmat.compose import ALL_KINDS
from posetmat.core import ENTRY_BUDGET, UNIT, BinaryMatrix, block_decompose
from posetmat.enumeration import generate_all
from posetmat.errors import (
    IndexOutOfRange,
    NotReflexive,
    PreconditionViolated,
    ResourceLimit,
)
from posetmat.structure import components

from helpers import (
    antichain,
    case3_literal_condition,
    case3_literal_discrepancies,
    chain,
    component_contiguous_form,
    components_by_search,
    direct_sum,
    insertion_invariance_condition,
    invariance_scan,
    pm,
    random_poset_matrix,
    sweep_insertion_invariance,
    sweep_semi_equidual,
    witness_by_definition,
)

DISCONNECT_KINDS = (Boxed(0, 1, 0), Boxed(0, 0, 0), Boxed(0, 0, 1), Boxed(1, 0, 0))


def all_upto(n_max, start=1):
    for n in range(start, n_max + 1):
        yield from generate_all(n)


class TestConnectivity:
    def test_chain_connected(self):
        assert classify_connectivity(chain(3)).connected

    def test_catalog_disconnected_item(self):
        cls = classify_connectivity(pm("100;110;001"))
        assert not cls.connected
        assert cls.witness == (3,)

    def test_antichain(self):
        assert not classify_connectivity(antichain(2)).connected
        assert classify_connectivity(UNIT).connected

    def test_matches_brute_force_subset_search(self):
        from itertools import combinations

        for a in all_upto(6):
            n, rows = a.n, a.rows
            isolated = False
            for size in range(1, n):
                for alpha in combinations(range(1, n + 1), size):
                    inside = set(alpha)
                    if all(
                        not rows[max(i, k) - 1][min(i, k) - 1]
                        for k in alpha
                        for i in range(1, n + 1)
                        if i not in inside
                    ):
                        isolated = True
                        break
                if isolated:
                    break
            assert classify_connectivity(a).connected == (not isolated)

    def test_witness_is_isolated(self):
        for a in all_upto(5):
            cls = classify_connectivity(a)
            if cls.connected:
                continue
            inside = set(cls.witness)
            assert 0 < len(inside) < a.n
            for k in inside:
                for i in range(1, a.n + 1):
                    if i not in inside:
                        assert a.rows[max(i, k) - 1][min(i, k) - 1] == 0


def disjoint_union(rng, sizes):
    """A random matrix whose components have the given sizes, their labels
    interleaved at random: each member after the first of a part lies above
    one or more earlier members of that part, so the part is connected."""
    n = sum(sizes)
    labels = rng.sample(range(n), n)
    codes = [1 << q for q in range(n)]
    start = 0
    for size in sizes:
        part = sorted(labels[start : start + size])
        start += size
        for t in range(1, size):
            for q in rng.sample(part[:t], rng.randint(1, t)):
                codes[part[t]] |= codes[q]
    return validate(BinaryMatrix._of(tuple(codes), n))


# component sizes of order-40 matrices, the smallest size held by two or more
TIED_SIZES = [(1, 1, 38), (2, 2, 2, 34), (3, 3, 5, 29), (5, 9, 5, 5, 16), (4,) * 10, (1,) * 40, (20, 20)]


class TestConnectivityWitness:
    def test_least_smallest_component_exhaustive(self):
        for a in all_upto(6):
            assert classify_connectivity(a).witness == witness_by_definition(a)

    @pytest.mark.parametrize("sizes", TIED_SIZES)
    def test_ties_of_size_go_to_the_least_element(self, sizes):
        # several components share the smallest size, with interleaved labels
        rng = random.Random(sum(sizes) * len(sizes))
        for _ in range(5):
            a = disjoint_union(rng, sizes)
            comps = components_by_search(a)
            assert sorted(map(len, comps)) == sorted(sizes)
            witness = classify_connectivity(a).witness
            assert witness == witness_by_definition(a)
            assert [len(c) for c in comps].count(len(witness)) >= 2


class TestTotallyConnectedDisconnected:
    def test_chain_matrix(self):
        assert is_totally_connected(chain(4))
        assert not is_totally_connected(antichain(2))
        assert not is_totally_connected(pm("100;110;101"))

    def test_identity_matrix(self):
        assert is_totally_disconnected(antichain(4))
        assert is_totally_disconnected(UNIT)
        assert not is_totally_disconnected(chain(2))


class TestEqualRowsColumns:
    def test_worked_example_block(self):
        d = submatrix(pm("1000;1100;1110;1101"), (3, 4), (1, 2))
        assert d.rows == ((1, 1), (1, 1))
        assert equal_columns(d) and equal_rows(d)

    def test_mixed_block(self):
        d = BinaryMatrix.from_bits("11;10")
        assert not equal_columns(d) and not equal_rows(d)

    def test_single_column_vacuous(self):
        assert equal_columns(BinaryMatrix.from_bits("1;0"))


class TestInsertionInvariance:
    A1 = pm("1000;1100;1110;1101")

    def test_worked_example_prefix_range(self):
        assert insertion_invariance_class(self.A1, (1, 2), chain(2))
        c = compose(SQUARE, self.A1, 1, chain(2))
        assert c == pm("10000;11000;11100;11110;11101")
        assert c == compose(SQUARE, self.A1, 2, chain(2))

    def test_worked_example_longer_prefix_fails(self):
        assert not insertion_invariance_class(self.A1, (1, 2, 3), chain(2))

    def test_worked_example_antichain_top(self):
        a = pm("1000;0100;0010;1111")
        assert insertion_invariance_class(a, (1, 2, 3), antichain(2))
        assert compose(SQUARE, a, 1, antichain(2)) == pm(
            "10000;01000;00100;00010;11111"
        )

    def test_second_worked_example(self):
        a = pm("1000;1100;0010;1111")
        assert insertion_invariance_class(a, (1, 2), chain(2))
        assert compose(SQUARE, a, 1, chain(2)) == pm("10000;11000;11100;00010;11111")

    def test_suffix_worked_example(self):
        a = pm("1000;1100;1010;1011")
        assert insertion_invariance_class(a, (3, 4), chain(2))
        assert compose(SQUARE, a, 3, chain(2)) == pm("10000;11000;10100;10110;10111")

    def test_disconnected_suffix_worked_example(self):
        a = pm("1000;1100;1110;1101")
        assert insertion_invariance_class(a, (3, 4), antichain(2))
        assert compose(SQUARE, a, 3, antichain(2)) == pm(
            "10000;11000;11100;11010;11001"
        )

    def test_non_contiguous_range_rejected(self):
        with pytest.raises(PreconditionViolated):
            insertion_invariance_class(self.A1, (1, 3), chain(2))

    @pytest.mark.parametrize(
        "alpha, error",
        [
            ((), PreconditionViolated),
            ((1, 3), PreconditionViolated),
            ((2, 1), PreconditionViolated),
            ((1, 2, 3, 4), IndexOutOfRange),
            ((0, 1, 2, 3), IndexOutOfRange),
        ],
    )
    def test_every_alpha_predicate_checks_the_range_alike(self, alpha, error):
        messages = set()
        for check in (
            lambda a, alpha: insertion_invariance_class(a, alpha, antichain(2)),
            insertion_invariance_condition,
            case3_literal_condition,
        ):
            with pytest.raises(error) as err:
                check(antichain(3), alpha)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_mismatched_pairing_rejected(self):
        with pytest.raises(PreconditionViolated):
            insertion_invariance_class(self.A1, (1, 2), antichain(2))

    def test_scan_finds_maximal_ranges(self):
        assert invariance_scan(self.A1, chain(2)) == ((1, 2),)
        assert invariance_scan(pm("1000;0100;0010;1111"), antichain(2)) == ((1, 2, 3),)


class TestInvarianceSweeps:
    def test_flat_condition_guarantees_identical_insertions(self):
        assert sweep_insertion_invariance(max_n=5, max_m=3) == []

    def test_literal_interior_condition_is_weaker(self):
        discrepancies = case3_literal_discrepancies(generate_all(4), chain(2))
        assert (pm("1000;0100;1110;1111"), (2, 3)) in discrepancies
        for a, alpha in discrepancies:
            assert case3_literal_condition(a, alpha)
            assert not insertion_invariance_condition(a, alpha)
        # the literal condition speaks of interior ranges alone
        for alpha in ((1, 2), (3, 4), (2,)):
            assert not case3_literal_condition(antichain(4), alpha)

    def test_semi_equidual_at_block_ends(self):
        assert sweep_semi_equidual(max_n=5, max_m=3) == []

    def test_semi_equidual_worked_example_suffix(self):
        a = pm("1000;1100;1010;1001")
        left = compose(SQUARE, a, 2, chain(2))
        right = compose(SQUARE, a, 4, chain(2))
        assert left == pm("10000;11000;11100;10010;10001")
        assert right == pm("10000;11000;10100;10010;10011")
        from posetmat import semi_equidual

        assert semi_equidual(left, right).alpha == (2, 3, 4, 5)

    def test_semi_equidual_worked_example_prefix(self):
        a = pm("1000;0100;1110;1111")
        left = compose(SQUARE, a, 1, chain(2))
        right = compose(SQUARE, a, 2, chain(2))
        assert left == pm("10000;11000;00100;11110;11111")
        assert right == pm("10000;01000;01100;11110;11111")
        from posetmat import semi_equidual

        assert semi_equidual(left, right) is not None


class TestDpm:
    def test_disconnected_host_spreads(self):
        assert dpm_check(antichain(2), chain(3))

    def test_chain_host(self):
        assert dpm_check(chain(2), chain(3))

    def test_agreement_for_hosts_of_order_at_least_two(self):
        for a in all_upto(4, start=2):
            for b in all_upto(4):
                assert dpm_check(a, b)

    def test_unit_host_is_the_degenerate_exception(self):
        # [1] o_1 B = B, so a disconnected guest makes the two sides disagree.
        assert not dpm_check(UNIT, antichain(2))
        assert dpm_check(UNIT, chain(2))


class TestDecompose:
    def test_catalog_item(self):
        g, h = decompose_disconnected(pm("100;110;001"))
        assert g == chain(2) and h == UNIT

    def test_identity_first_component_rule(self):
        g, h = decompose_disconnected(antichain(3))
        assert g == UNIT and h == antichain(2)

    def test_connected_gives_none(self):
        assert decompose_disconnected(chain(3)) is None

    def test_components_and_direct_sum(self):
        c = pm("1000;0100;1010;0101")
        assert components(c) == ((1, 3), (2, 4))
        assert component_contiguous_form(c) == direct_sum(chain(2), chain(2))

    def test_components_match_the_search_oracle(self):
        # the one-pass merge gives the search's tuples in the same order
        for a in all_upto(6):
            assert components(a) == components_by_search(a)
        rng = random.Random(8)
        for n in range(8, 41):
            for density in (0.02, 0.05, 0.1, 0.4):
                a = random_poset_matrix(rng, n, density)
                assert components(a) == components_by_search(a)
        assert components(antichain(40)) == tuple((q,) for q in range(1, 41))


class TestFactor:
    def test_chain_three_both_splits(self):
        found = factor(chain(3), "square")
        assert {(f.a, f.i, f.b) for f in found} == {
            (chain(2), 1, chain(2)),
            (chain(2), 2, chain(2)),
        }

    def test_worked_example(self):
        c = pm("1000;0100;0110;1111")
        found = factor(c, "square")
        assert (pm("100;010;111"), 2, chain(2)) in {(f.a, f.i, f.b) for f in found}
        for f in found:
            assert f.recompose() == c

    def test_a_grid_is_validated_first(self):
        # the hosts are read from a poset's rows: "10;00" would give ()
        grid = BinaryMatrix.from_bits("100;110;111")
        assert factor(grid, "square") == factor(chain(3), "square")
        with pytest.raises(NotReflexive):
            factor(BinaryMatrix.from_bits("10;00"), "square")
        with pytest.raises(NotReflexive):
            factor(BinaryMatrix.from_bits("100;110;110"), "square")

    def test_every_factorization_recomposes(self):
        for c in all_upto(5, start=3):
            for kind in ALL_KINDS:
                for f in factor(c, kind):
                    assert f.recompose() == c
                    assert f.a.n >= 2 and f.b.n >= 2
                    assert f.a.n + f.b.n - 1 == c.n
                    if isinstance(kind, Boxed):
                        # the documented host choice: the fill constants
                        # stand in row i's prefix and column i's suffix
                        view = block_decompose(f.a, f.i)
                        assert set(view.row) <= {kind.u}, (kind, f)
                        assert set(view.col) <= {kind.v}, (kind, f)

    def test_unknown_kind_rejected_at_every_order(self):
        for c in (UNIT, chain(2), antichain(2), chain(3)):
            for kind in ("bogus", None, 1, ["square"]):
                with pytest.raises(ValueError, match="unknown composition kind"):
                    factor(c, kind)

    def test_complete_for_mask_kinds(self):
        # The host is uniquely recoverable under the four mask kinds, so
        # every composition must be rediscovered verbatim.
        for a in all_upto(4, start=2):
            for b in all_upto(3, start=2):
                for i in range(1, a.n + 1):
                    for kind in ("square", "min", "max", "minmax"):
                        c = compose(kind, a, i, b)
                        assert (a, i, b) in {
                            (f.a, f.i, f.b) for f in factor(c, kind)
                        }, (kind, a, i, b)

    def test_max_masked_row_prefix_is_recovered(self):
        # Element 1 of the guest below is not maximal, so the composite's
        # own row at the insertion point hides the host prefix.
        from helpers import EX_A, EX_B

        for kind in ("max", "minmax"):
            c = compose(kind, EX_A, 2, EX_B)
            assert (EX_A, 2, EX_B) in {(f.a, f.i, f.b) for f in factor(c, kind)}

    def test_small_orders_yield_nothing(self):
        assert factor(chain(2), "square") == ()

    def test_host_reads_no_extremal_mask(self, monkeypatch):
        # a copied U-fill is read at B's last row, whose element is maximal,
        # so factoring under square reads no extremal mask of any B
        module = sys.modules["posetmat.compose"]  # posetmat.compose is the function
        calls, extremal = [], module._extremal

        def spy(codes):
            calls.append(codes)
            return extremal(codes)

        monkeypatch.setattr(module, "_extremal", spy)
        found = [f for c in generate_all(5) for f in factor(c, "square")]
        assert found and calls == []

    @staticmethod
    def _entries(n):
        # what factor counts before its search: factors of orders n-m+1
        # and m at each of n-m+1 positions, for every m
        return sum((n - m + 1) * ((n - m + 1) ** 2 + m * m) for m in range(2, n))

    def test_the_entry_count_is_exact_for_a_chain(self):
        for n in range(1, 18):
            found = factor(chain(n), "square")
            assert sum(f.a.n ** 2 + f.b.n ** 2 for f in found) == self._entries(n)

    def test_oversized_input_is_refused_before_the_search(self, monkeypatch):
        # every split of a chain factors: at order 200 the factorizations
        # would hold 5.3 * 10**8 entries.  The refusal comes before any host
        # is read; order 131, under the budget, starts the search.
        class Searched(Exception):
            pass

        def host(*args):
            raise Searched

        monkeypatch.setattr(structure, "_host", host)
        assert self._entries(131) <= ENTRY_BUDGET < self._entries(132)
        with pytest.raises(Searched):
            factor(chain(131), "square")
        for n in (132, 200):
            entries = self._entries(n)
            message = f"factor order {n} exceeds the entry budget {ENTRY_BUDGET} ({entries} entries)"
            with pytest.raises(ResourceLimit, match=re.escape(message)):
                factor(chain(n), "square")

    def test_disconnected_matrices_factor_through_fill_kinds(self):
        # Up to relabelling: each disconnected matrix, written with its
        # components contiguous, splits under one of the four all-zero-mask
        # kinds.
        for c in all_upto(5, start=3):
            if classify_connectivity(c).connected:
                continue
            block_form = component_contiguous_form(c)
            assert any(factor(block_form, kind) for kind in DISCONNECT_KINDS), c

    def test_interleaved_components_need_the_relabelling(self):
        c = pm("1000;0100;1010;0101")
        assert not classify_connectivity(c).connected
        assert all(not factor(c, kind) for kind in DISCONNECT_KINDS)
        assert any(
            factor(component_contiguous_form(c), kind) for kind in DISCONNECT_KINDS
        )
