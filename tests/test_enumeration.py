import random
import tracemalloc
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmat import (
    MINMAX,
    canonical_form,
    classes,
    classify_connectivity,
    generate_all,
    validate,
    verify_laws,
)
from posetmat import enumeration, operad
from posetmat.compose import compose
from posetmat.core import BinaryMatrix, PosetMatrix, closure_of_covers, relabel
from posetmat.enumeration import (
    _enc,
    _frame,
    _grown,
    _ideals,
    _pairs,
    _sizes,
    _tree,
    _unrefuted,
    _walk,
    canonical_forms,
    linear_extensions,
    matrices_by_parent,
    matrix_count,
)
from posetmat.errors import (
    NotLowerTriangular,
    NotReflexive,
    ResourceLimit,
    TransitivityViolation,
)

from helpers import (
    CONNECTED_3,
    CONNECTED_4,
    DISCONNECTED_3,
    DISCONNECTED_4,
    antichain,
    brute_force_classes,
    chain,
    conjugate,
    ideals_by_definition,
    labelled_counts_by_transfer,
    matrix_count_by_parent,
    pm,
    random_poset_matrix,
)

# Published counts, indexed by order n:
#   A006455  naturally labelled posets on n points (= poset matrices of
#            order n): https://oeis.org/A006455
#   A000112  posets on n unlabelled points (= permutation-equivalence
#            classes): https://oeis.org/A000112
#   A000608  connected posets on n unlabelled points:
#            https://oeis.org/A000608


def brute_force_all(n):
    """Independent oracle: filter every unit lower-triangular candidate by
    the naive three-index transitivity scan."""
    slots = [(i, j) for i in range(n) for j in range(i)]
    out = []
    for bits in product((0, 1), repeat=len(slots)):
        rows = [[1 if p == q else 0 for q in range(n)] for p in range(n)]
        for (i, j), bit in zip(slots, bits):
            rows[i][j] = bit
        ok = all(
            not (rows[i][j] and rows[j][k]) or rows[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
        if ok:
            out.append(PosetMatrix(rows))
    return sorted(out, key=lambda m: m.rows)


class TestGenerateAll:
    def test_counts_low_orders(self):
        assert [len(generate_all(n)) for n in range(1, 6)] == [1, 2, 7, 40, 357]

    def test_matches_brute_force_oracle(self):
        for n in (1, 2, 3, 4, 5):
            assert list(generate_all(n)) == brute_force_all(n)

    def test_published_counts_a006455(self):
        assert len(generate_all(6)) == 4824
        assert len(generate_all(7)) == 96428

    def test_output_is_lex_sorted(self):
        for n in (3, 4, 5, 6, 7):
            rows = [m.rows for m in generate_all(n)]
            assert rows == sorted(rows)
        # so each level of the walk is in the law sweep's witness order,
        # which is not the order of the code tuples from order 3 on
        for n, (level, _) in enumerate(islice(_tree(7), 1, None), 1):
            assert level == sorted(level, key=_enc), n
            assert (level == sorted(level)) == (n < 3), n

    def test_order_two(self):
        assert generate_all(2) == (pm("10;01"), pm("10;11"))

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            generate_all(9)


def filtered(n):
    """generate_all(n), whole and cut down by classify_connectivity: the
    materialised listings that matrix_count and matrices_by_parent must
    agree with."""
    everything = list(generate_all(n))
    connected = [classify_connectivity(m).connected for m in everything]
    return {
        "all": everything,
        "connected": [m for m, c in zip(everything, connected) if c],
        "disconnected": [m for m, c in zip(everything, connected) if not c],
    }


class TestCountAndListWithoutTheLevel:
    def test_count_matches_filtered_generate_all(self):
        for n in range(1, 8):
            for which, listing in filtered(n).items():
                assert matrix_count(n, which) == len(listing), (n, which)

    def test_published_counts_order_eight(self):
        # A006455, and the labelled sum of classes(8, "connected")
        assert matrix_count(8) == 2800472
        assert matrix_count(8, "connected") == 2020256
        assert matrix_count(8, "disconnected") == 780216

    def test_closed_form_matches_count_one_order_down(self):
        for n in range(1, 8):
            for which in ("all", "connected", "disconnected"):
                assert matrix_count(n, which) == matrix_count_by_parent(n, which), (n, which)

    @pytest.mark.parametrize("which", ["all", "connected", "disconnected"])
    def test_count_of_order_eight_holds_no_level(self, which):
        # holding PM(7), as a count one order down must, takes about
        # 10 MiB; PM(6) and one component's ideals stay far below 1 MiB
        tracemalloc.start()
        try:
            matrix_count(8, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_listing_per_parent_concatenates_to_filtered_generate_all(self):
        for n in range(1, 7):
            parents = len(generate_all(n - 1)) if n > 1 else 1
            for which, listing in filtered(n).items():
                groups = list(matrices_by_parent(n, which))
                assert len(groups) == parents
                assert [m for g in groups for m in g] == listing, (n, which)

    def test_each_matrix_grows_the_ideals_that_ideals_lists(self):
        # every matrix of PM(1..7), a child of PM(0..6), gets from the walk
        # the list that _ideals makes for it, in the same order, and so
        # does the empty matrix; PM(7)'s lists grow as they are read
        for n, (level, lists) in enumerate(_tree(7)):
            assert isinstance(lists, list) == (n < 7)
            lists = list(lists)
            assert len(lists) == len(level) == (matrix_count(n) if n else 1), n
            for codes, ideals in zip(level, lists):
                assert ideals == _ideals(codes), codes

    def test_ideals_are_the_down_closed_subsets(self):
        # _ideals, the step (_grow) folded over a matrix's rows, against the
        # definition for every matrix of PM(<=6), order included; the walks
        # grow their lists by the same step
        for level, _ in _tree(6):
            for codes in level:
                assert _ideals(codes) == ideals_by_definition(codes), codes

    def test_no_walk_lists_ideals_afresh(self, monkeypatch):
        # the class walk, the counts, the sizes and the listings grow every
        # ideal list from the parent's and never call _ideals; their answers
        # are the published counts (A000112, A000608, A006455), and each
        # filter's labelled class counts sum to its matrix count
        def refuse(codes):
            raise AssertionError(f"the ideals of {codes} were listed afresh")

        monkeypatch.setattr(enumeration, "_ideals", refuse)
        published = {
            "all": [1, 2, 5, 16, 63, 318, 2045],
            "connected": [1, 1, 3, 10, 44, 238, 1650],
        }
        published["disconnected"] = [a - c for a, c in zip(*published.values())]
        for which, counts in published.items():
            for n, count in enumerate(counts, 1):
                cls = classes(n, which)
                assert len(cls) == count, (n, which)
                assert sum(c.labeled_count for c in cls) == matrix_count(n, which), (n, which)
        eight = {"all": 2800472, "connected": 2020256, "disconnected": 780216}
        assert {which: matrix_count(8, which) for which in eight} == eight
        assert _sizes(8) == [1, 2, 7, 40, 357, 4824, 96428, 2800472]
        *_, (level, _) = _tree(6)
        assert generate_all(6) == tuple(map(PosetMatrix._wrap, level))

    def test_orders_that_are_not_integers_raise(self, monkeypatch):
        # a float order passes the comparisons with 1 and the cap, and the
        # class walk would then descend without end; it is refused before
        # any walk starts.  True is the order 1.
        def refuse(*args):
            raise AssertionError("a walk started")

        calls = (
            classes,
            matrix_count,
            lambda n: list(matrices_by_parent(n)),
            generate_all,
            lambda n: verify_laws(MINMAX, n),
        )
        assert classes(True) == classes(1)
        for module, name in [(enumeration, "_tree"), (enumeration, "_orderly"), (operad, "_tree")]:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(operad, "_sizes", refuse)
        for call in calls:
            with pytest.raises(TypeError):
                call(2.5)

    def test_lane_count_of_each_matrix(self):
        # _pairs reads a matrix's (k, P), its number of ideals and of nested
        # ideal pairs J <= S, from one 16-bit lane per subset; checked
        # against pairs of ideals by definition over PM(<=6), the orders of
        # the children _sizes counts up to the cap
        for m, (level, _) in enumerate(_tree(6)):
            low = [sum(0xFFFF << 16 * s for s in range(1 << m) if not s >> i & 1) for i in range(m)]
            for codes in level:
                ideals = ideals_by_definition(codes)
                x = sum([1 << 16 * s for s in ideals])
                pairs = sum([1 for s in ideals for j in ideals if j & s == j])
                assert _pairs(x, low) == (len(ideals), pairs), codes
        # the order-6 antichain (low is order 6's): every subset is an
        # ideal, and its 3^6 pairs are the largest lane sum at the cap
        assert _pairs(sum([1 << 16 * s for s in range(64)]), low) == (64, 3**6)

    def test_sizes_walk_to_three_orders_below(self, monkeypatch):
        # _sizes(n) walks to PM(n-3) and splits no matrix into components
        walked, tree = [], enumeration._tree

        def spy(n):
            walked.append(n)
            return tree(n)

        def refuse(codes):
            raise AssertionError(f"{codes} was split into components")

        monkeypatch.setattr(enumeration, "_tree", spy)
        monkeypatch.setattr(enumeration, "_components", refuse)
        for n in range(1, 9):
            _sizes(n)
        assert walked == [0, 1, 2, 3, 4, 5]

    def test_pool_sizes_are_the_counts(self):
        # one walk to PM(N-3) gives |PM(1)|, ..., |PM(N)|; matrix_count reads
        # _sizes, so the counts are the level lengths of one walk to PM(7),
        # and at order 8 A006455
        sizes = [len(level) for level, _ in islice(_tree(7), 1, None)] + [2800472]
        for top in range(1, 9):
            assert _sizes(top) == sizes[:top], top

    def test_generate_all_is_the_last_level_of_the_walk(self):
        # generate_all joins the lists of matrices_by_parent, so the test
        # above compares it with itself for "all"; the walk is independent
        for n in range(1, 8):
            *_, (level, _) = _tree(n)
            assert generate_all(n) == tuple(map(PosetMatrix._wrap, level)), n

    def test_order_and_filter_errors(self):
        for make in (matrix_count, lambda *a: list(matrices_by_parent(*a))):
            with pytest.raises(ValueError, match="at least 1"):
                make(0)
            with pytest.raises(ResourceLimit, match="order 9 above the cap 8"):
                make(9)
            with pytest.raises(ValueError, match="unknown filter"):
                make(3, "odd")


class TestCanonicalForm:
    def brute_canonical(self, a):
        """The least Q^T A Q over all n! permutations that keep A lower
        triangular, on row bits: a row is an int with column 1 as its most
        significant bit, so rows compare as their bit strings do.  sigma
        puts its q-th element at position q; the result stays lower
        triangular iff each element comes after everything below it."""
        n, codes = a.n, a.codes
        best = None
        for sigma in permutations(range(n)):
            weight = [0] * n
            for q, y in enumerate(sigma):
                weight[y] = 1 << (n - 1 - q)
            rows, placed = [], 0
            for x in sigma:
                placed |= 1 << x
                if codes[x] & ~placed:
                    break
                rows.append(sum([w for y, w in enumerate(weight) if codes[x] >> y & 1]))
            else:
                if best is None or rows < best:
                    best = rows
        return PosetMatrix.from_bits([format(row, f"0{n}b") for row in best])

    def test_matches_permutation_oracle(self):
        for n in (1, 2, 3, 4, 5):
            for a in generate_all(n):
                assert canonical_form(a) == self.brute_canonical(a)

    def test_a_grid_is_validated_first(self):
        # the walk reads a poset's rows, and would take "10;00" for "10;01"
        assert canonical_form(BinaryMatrix.from_bits("10;11")) == PosetMatrix.from_bits("10;11")
        assert canonical_form(BinaryMatrix.from_bits("100;010;011")) == canonical_form(
            PosetMatrix.from_bits("100;010;011")
        )
        with pytest.raises(NotReflexive):
            canonical_form(BinaryMatrix.from_bits("10;00"))
        with pytest.raises(NotLowerTriangular):
            canonical_form(BinaryMatrix.from_bits("11;01"))
        with pytest.raises(TransitivityViolation):
            canonical_form(BinaryMatrix.from_bits("100;110;011"))

    @staticmethod
    def relabellings(codes):
        """The rows of A relabelled along each of its linear extensions, by
        brute force on down-set masks: an extension grows by any unplaced
        element whose down-set is placed, and that element's new row is
        gathered from the places of its down-set, as an int with column 1
        as its most significant bit, so rows compare as their bit strings
        do."""
        n = len(codes)
        place = [0] * n

        def grow(placed, rows):
            if placed == (1 << n) - 1:
                yield rows
                return
            bit = 1 << (n - 1 - len(rows))
            for y, x in enumerate(codes):
                if not placed >> y & 1 and x & ~placed == 1 << y:
                    place[y] = bit
                    row = sum([place[z] for z in range(n) if x >> z & 1])
                    yield from grow(placed | 1 << y, rows + (row,))

        return grow(0, ())

    def test_matches_linear_extension_definition_order_six(self):
        for a in generate_all(6):
            n = a.n
            rows = min(self.relabellings(a.codes))
            least = tuple(tuple(row >> (n - 1 - q) & 1 for q in range(n)) for row in rows)
            assert canonical_form(a).rows == least

    def test_idempotent(self):
        for n in (1, 2, 3, 4):
            for a in generate_all(n):
                assert canonical_form(canonical_form(a)) == canonical_form(a)

    def test_identity_and_chain(self):
        assert canonical_form(pm("100;010;001")) == pm("100;010;001")
        assert canonical_form(pm("100;110;111")) == chain(3)

    def test_two_chain_plus_point_labellings_agree(self):
        labellings = [pm("100;110;001"), pm("100;010;101"), pm("100;010;011")]
        canon = {canonical_form(a) for a in labellings}
        assert canon == {pm("100;010;011")}

    def test_vee_and_wedge_are_different_classes(self):
        assert canonical_form(pm("100;110;101")) != canonical_form(pm("100;010;111"))
        assert canonical_form(pm("100;110;101")) == pm("100;110;101")

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_valid_conjugation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        a = rng.choice(generate_all(n))
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        rows = conjugate(a, sigma)
        try:
            b = validate(BinaryMatrix(rows))
        except Exception:
            return  # not a natural relabelling; nothing to compare
        assert canonical_form(b) == canonical_form(a)

    def test_linear_extension_relabellings_stay_in_class(self):
        for a in generate_all(4):
            canon = canonical_form(a)
            for order in linear_extensions(a):
                assert canonical_form(relabel(a, order)) == canon


# Posets with several candidates of one row code, where the search must
# branch on exactly the interchangeable ones: a labelling of each and its
# canonical form, worked out by hand.
HARD_CASES = {
    "antichain6": (antichain(6), antichain(6)),
    "two_3_chains": (
        closure_of_covers(6, [(1, 3), (3, 5), (2, 4), (4, 6)]),
        pm("100000;010000;011000;011100;100010;100011"),
    ),
    # Minimal 1, 2, 3; maximal 4, 5, 6, each above all minimal ones but one.
    "crown3": (
        closure_of_covers(6, [(2, 4), (3, 4), (1, 5), (3, 5), (1, 6), (2, 6)]),
        pm("100000;010000;001000;011100;101010;110001"),
    ),
    "chain3_plus_antichain3": (
        closure_of_covers(6, [(1, 2), (2, 4)]),
        pm("100000;010000;001000;000100;000110;000111"),
    ),
    "vee": (pm("100;110;101"), pm("100;110;101")),
    "wedge": (pm("100;010;111"), pm("100;010;111")),
}


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_canonical_form_hard_cases(name):
    a, expected = HARD_CASES[name]
    assert expected.rows == min(relabel(a, o).rows for o in linear_extensions(a))
    for order in linear_extensions(a):
        assert canonical_form(relabel(a, order)) == expected


def test_canonical_form_search_is_bounded_by_nodes(monkeypatch):
    # sparse order-20 draws: the first two need 60,209 and 3,020 search
    # nodes, the third more than 10**6, so it is refused by the node count
    rng = random.Random(5)
    first, second, third = [random_poset_matrix(rng, 20, 0.05) for _ in range(3)]
    for a in (first, second):
        assert canonical_form(a).rows <= a.rows
    with pytest.raises(ResourceLimit, match="node budget"):
        canonical_form(third)
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 60_208)
    with pytest.raises(ResourceLimit, match="node budget 60208"):
        canonical_form(first)
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 60_209)
    canonical_form(first)


class TestClasses:
    def test_order_three_catalog(self):
        cls = classes(3)
        assert len(cls) == 5
        assert sum(1 for c in cls if c.connected) == 3
        assert sum(c.labeled_count for c in cls) == 7
        reps = {c.canonical for c in cls}
        assert {canonical_form(m) for m in CONNECTED_3 + DISCONNECTED_3} == reps

    def test_order_four_catalog(self):
        cls = classes(4)
        assert len(cls) == 16
        assert sum(1 for c in cls if c.connected) == 10
        assert sum(c.labeled_count for c in cls) == 40
        listed = CONNECTED_4 + DISCONNECTED_4
        assert len({canonical_form(m) for m in listed}) == 16
        assert {canonical_form(m) for m in listed} == {c.canonical for c in cls}
        by_canon = {c.canonical: c.connected for c in cls}
        for m in CONNECTED_4:
            assert by_canon[canonical_form(m)]
        for m in DISCONNECTED_4:
            assert not by_canon[canonical_form(m)]

    def test_order_five_count(self):
        assert len(classes(5)) == 63

    def test_published_counts_a000112_a000608(self):
        cls = classes(6)
        assert len(cls) == 318
        assert sum(1 for c in cls if c.connected) == 238
        assert sum(c.labeled_count for c in cls) == 4824

    def test_published_counts_order_seven(self):
        cls = classes(7)
        assert len(cls) == 2045
        assert sum(1 for c in cls if c.connected) == 1650
        assert sum(c.labeled_count for c in cls) == 96428

    def test_published_counts_order_eight(self):
        cls = classes(8)
        assert len(cls) == 16999
        assert sum(1 for c in cls if c.connected) == 14512
        assert sum(c.labeled_count for c in cls) == 2800472

    def test_matches_brute_force_definition(self):
        for n in range(1, 7):
            for which in ("all", "connected", "disconnected"):
                got = classes(n, which)
                assert got == brute_force_classes(n, which)
                assert all(c.canonical.n == n for c in got)

    def test_order_errors(self):
        with pytest.raises(ValueError, match="at least 1"):
            classes(0)
        with pytest.raises(ResourceLimit):
            classes(9)
        with pytest.raises(ResourceLimit):
            classes(4, order_cap=3)
        assert len(classes(3, order_cap=3)) == 5

    def test_filters(self):
        assert len(classes(4, "connected")) == 10
        assert len(classes(4, "disconnected")) == 6
        with pytest.raises(ValueError):
            classes(3, "odd")

    @pytest.mark.parametrize("which", ["all", "connected", "disconnected"])
    def test_canonical_forms_are_those_of_classes(self, which):
        for n in range(1, 8):
            got = canonical_forms(n, which)
            assert got == [(c.canonical, c.connected) for c in classes(n, which)]

    def test_canonical_forms_check_their_arguments_first(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a walk started")

        monkeypatch.setattr(enumeration, "_orderly", refuse)
        with pytest.raises(ValueError, match="unknown filter"):
            canonical_forms(9, "odd")
        with pytest.raises(ResourceLimit):
            canonical_forms(9)
        with pytest.raises(ValueError, match="at least 1"):
            canonical_forms(0)
        with pytest.raises(TypeError):
            canonical_forms(2.5)

    @pytest.fixture
    def walked(self, monkeypatch):
        """Row codes of each matrix whose frame classes hands to _walk."""
        walked, walk = [], enumeration._walk

        def spy(frame, test):
            walked.append(tuple([b | 1 << y for y, b in enumerate(frame[0])]))
            return walk(frame, test)

        monkeypatch.setattr(enumeration, "_walk", spy)
        return walked

    @pytest.mark.parametrize("which", ["connected", "disconnected"])
    def test_a_filter_searches_only_the_children_it_keeps(self, walked, which):
        # a child's connectivity is read from its parent's components before
        # the canonicity test, so no child that the filter drops is searched
        classes(6, which)
        kinds = {classify_connectivity(PosetMatrix._wrap(c)).kind for c in walked if len(c) == 6}
        assert kinds == {which}

    @pytest.mark.parametrize(
        "n, which, searches",
        [(6, "all", 433), (6, "connected", 341), (6, "disconnected", 183), (7, "all", 2671)],
    )
    def test_the_certificates_leave_few_searches(self, walked, n, which, searches):
        # without the certificates classes(6) searched 939 children and
        # classes(7) 6,378; the 2,450 classes of orders 1 to 7 are the floor
        classes(n, which)
        assert len(walked) == searches

    def test_frames_by_definition(self):
        # below[y] and above[x] are strict down- and up-sets, above ends in
        # the phantom's 0, and rows[y] weighs column x + 1 as 1 << (n-1-x);
        # a child's frame is its parent's grown by the child's last row
        for n in range(1, 7):
            for a in generate_all(n):
                c = a.codes
                below = [c[y] ^ 1 << y for y in range(n)]
                above = [sum(1 << y for y in range(n) if below[y] >> x & 1) for x in range(n)]
                rows = [sum(1 << n - 1 - x for x in range(n) if below[y] >> x & 1) for y in range(n)]
                assert _frame(c) == (below, above + [0], rows), a
                assert _grown(_frame(c[:-1]), below[-1]) == _frame(c), a

    def test_certificates_by_definition(self):
        def bit_string(code, k):  # column 1 first
            return "".join("1" if code >> x & 1 else "0" for x in range(k))

        # for every canonical D of order <= 6 and ideal I of D, D + I
        # survives _unrefuted iff no twin swap and no earlier placement
        # applies; each that applies names a smaller relabelling of D + I,
        # so the search refuses the child too
        for k in range(1, 7):
            for cls in classes(k):
                d = cls.canonical.codes
                ideals = _ideals(d)
                kept = set(_unrefuted(_frame(d), ideals))
                down = [{x for x in range(k) if x != y and d[y] >> x & 1} for y in range(k)]
                up = [{y for y in range(k) if y != x and d[y] >> x & 1} for x in range(k)]
                for s in ideals:
                    c = PosetMatrix._wrap(d + (s | 1 << k,))
                    smaller = []
                    for x in range(k):
                        for y in range(x + 1, k):
                            twins = down[x] == down[y] and up[x] == up[y]
                            if twins and s >> x & 1 and not s >> y & 1:
                                order = list(range(1, k + 2))
                                order[x], order[y] = y + 1, x + 1
                                smaller.append(order)
                    for p in range(s.bit_length() + 1, k + 1):
                        if bit_string(s, k) < bit_string(d[p - 1] ^ 1 << p - 1, k):
                            smaller.append([*range(1, p), k + 1, *range(p, k + 1)])
                    assert (s in kept) == (not smaller), c
                    for order in smaller:
                        assert relabel(c, order).rows < c.rows, (c, order)
                    accepted = _walk(_frame(c.codes), True)[0] > 0
                    assert not (smaller and accepted), c
                    assert s in kept or not accepted, c

    def test_composition_closure_across_catalogs(self):
        targets = {
            (n, m): {c.canonical for c in classes(n + m - 1)}
            for n in (1, 2, 3)
            for m in (1, 2, 3)
        }
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for ca in classes(n):
                    for cb in classes(m):
                        for kind in ("square", "min", "max", "minmax"):
                            for i in range(1, n + 1):
                                out = compose(kind, ca.canonical, i, cb.canonical)
                                assert canonical_form(out) in targets[(n, m)]


def extension_count(a):
    """e(a): linear extensions of a, by a DP over its down-sets."""
    n = a.n
    below = [code & ~(1 << i) for i, code in enumerate(a.codes)]
    ways = {0: 1}  # down-set -> number of ways to place it first
    for _ in range(n):
        grown = {}
        for used, w in ways.items():
            for x in range(n):
                if not (used >> x) & 1 and not below[x] & ~used:
                    grown[used | 1 << x] = grown.get(used | 1 << x, 0) + w
        ways = grown
    return ways[(1 << n) - 1]


def automorphism_count(a):
    """|Aut(a)|: the linear extensions o with relabel(a, o) == a, placed one
    position at a time and cut at the first row that differs.  Position p
    takes x exactly when the strict down-set of x is the image of that of p
    under the positions already placed."""
    n = a.n
    below = [code & ~(1 << i) for i, code in enumerate(a.codes)]

    def rec(p, used, order):
        if p == n:
            return 1
        image = 0
        for q in range(p):
            if (below[p] >> q) & 1:
                image |= 1 << order[q]
        return sum(
            rec(p + 1, used | 1 << x, order + [x])
            for x in range(n)
            if not (used >> x) & 1 and below[x] == image
        )

    return rec(0, 0, [])


class TestLabelledCountOracle:
    """labeled_count(C) = e(C) / |Aut(C)|: each class C holds e(C) labelled
    relabellings of canon(C), one per linear extension, and two extensions
    give the same matrix iff they differ by an automorphism.  classes()
    computes that identity, so its counts are also checked against the
    transfer identity, and its canonicity test and automorphism counts
    against canonical_form and the definition."""

    def test_transfer_identity(self):
        for n in range(1, 8):
            got = {c.canonical: c.labeled_count for c in classes(n)}
            assert got == labelled_counts_by_transfer(n), n

    def test_canonicity_test_and_automorphism_count(self):
        # _walk's test accepts exactly the canonical forms and counts
        # their automorphisms; from any labelling it finds the least rows
        # and the automorphisms of the class
        for n in range(1, 7):
            for a in generate_all(n):
                canon = canonical_form(a)
                aut = _walk(_frame(a.codes), True)[0]
                if canon == a:
                    assert aut == automorphism_count(a), a
                else:
                    assert aut == 0, a
                if n < 6:
                    assert _walk(_frame(a.codes), False)[0] == automorphism_count(canon), a

    def test_automorphism_count_is_the_relabelling_definition(self):
        for n in range(1, 6):
            for c in classes(n):
                a = c.canonical
                literal = sum(1 for o in linear_extensions(a) if relabel(a, o) == a)
                assert automorphism_count(a) == literal

    def test_extensions_over_automorphisms(self):
        for n in range(1, 8):
            for c in classes(n):
                e, aut = extension_count(c.canonical), automorphism_count(c.canonical)
                assert e == c.labeled_count * aut, c.canonical
