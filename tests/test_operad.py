import random
import tracemalloc
from bisect import bisect_right
from itertools import accumulate, islice, product

import pytest

from posetmat import MINMAX, SQUARE, UNIT, check_nested, check_parallel, check_unit
from posetmat import enumeration, operad
from posetmat.compose import (
    ALL_BOXED,
    ALL_KINDS,
    MASK_KINDS,
    OPERAD_KINDS,
    _rule,
    kind_name,
    parse_kind,
)
from posetmat.core import _extremal
from posetmat.enumeration import (
    DEFAULT_ORDER_CAP,
    _ideals,
    _tree,
    generate_all,
    matrix_count,
)
from posetmat.errors import (
    IndexOutOfRange,
    RequiresDistinctIndices,
    ResourceLimit,
)
from posetmat.operad import (
    LAW_CASE_BUDGET,
    LAWS,
    NESTED,
    PARALLEL,
    UNIT_LAW,
    _case,
    _exhaustive,
    _case_key,
    _groups,
    _outer,
    _pools,
    _reader,
    _row,
    _sweep,
    _tables,
    reverify,
    verify_laws,
)

from helpers import (
    EX_A,
    EX_B,
    EX_C,
    NESTED_LEFT,
    NESTED_RIGHT,
    _defined,
    chain,
    holds_by_signatures,
    is_antichain,
    pm,
    pools_by_ideals,
    random_cases,
    random_laws_by_composing,
    scan_masks,
    signature_at,
    unit_at,
)


class TestCheckNested:
    def test_minmax_counterexample_reproduces_both_sides(self):
        equal, left, right = check_nested(MINMAX, EX_A, EX_B, EX_C, 2, 3)
        assert not equal
        assert left == NESTED_LEFT
        assert right == NESTED_RIGHT
        # the sides disagree exactly at entry (7, 4)
        assert left.entry(7, 4) == 0 and right.entry(7, 4) == 1

    def test_square_same_triple_is_associative(self):
        equal, left, right = check_nested(SQUARE, EX_A, EX_B, EX_C, 2, 3)
        assert equal and left == right

    def test_trivial_units(self):
        for kind in OPERAD_KINDS + (MINMAX,):
            assert check_nested(kind, UNIT, UNIT, UNIT, 1, 1)[0]

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            check_nested(SQUARE, EX_A, EX_B, EX_C, 5, 1)
        with pytest.raises(IndexOutOfRange):
            check_nested(SQUARE, EX_A, EX_B, EX_C, 1, 4)


class TestCheckParallel:
    def test_square_disjoint_insertions_commute(self):
        equal, left, right = check_parallel(
            SQUARE, chain(3), chain(2), chain(2), 1, 3
        )
        assert equal
        assert left == chain(5)

    def test_rejects_non_increasing_pair(self):
        with pytest.raises(RequiresDistinctIndices):
            check_parallel(SQUARE, EX_A, EX_B, EX_C, 3, 3)

    def test_order_one_host_has_no_pairs(self):
        with pytest.raises(RequiresDistinctIndices):
            check_parallel(SQUARE, UNIT, EX_B, EX_C, 1, 1)

    def test_index_bounds(self):
        for i, j in ((0, 2), (1, 5), (-1, 2)):
            with pytest.raises(IndexOutOfRange):
                check_parallel(SQUARE, EX_A, EX_B, EX_C, i, j)

    def test_min_exhaustive_small(self):
        pool = [m for n in (1, 2, 3) for m in generate_all(n)]
        for a in pool:
            for b in pool:
                for c in pool:
                    for i in range(1, a.n):
                        for j in range(i + 1, a.n + 1):
                            assert check_parallel("min", a, b, c, i, j)[0]


class TestCheckUnit:
    def test_square_exhaustive(self):
        for n in range(1, 5):
            for a in generate_all(n):
                for i in range(1, n + 1):
                    assert check_unit(SQUARE, a, i)

    def test_minmax_holds(self):
        for n in range(1, 5):
            for a in generate_all(n):
                for i in range(1, n + 1):
                    assert check_unit(MINMAX, a, i)

    def test_trivial(self):
        assert check_unit(SQUARE, UNIT, 1)

    def test_index_bounds(self):
        for i in (0, 2):
            with pytest.raises(IndexOutOfRange):
                check_unit(SQUARE, UNIT, i)


class TestVerifyLaws:
    def test_square_order_three_all_pass(self):
        reports = verify_laws(SQUARE, 3)
        assert [r.law for r in reports] == list(LAWS)
        assert all(r.verdict == "pass" for r in reports)
        assert all(r.witness is None for r in reports)
        # a passing report has no witness to reproduce
        assert not any(reverify(r) for r in reports)

    def test_minmax_nested_fails_with_minimal_witness(self):
        reports = verify_laws(MINMAX, 2)
        nested = next(r for r in reports if r.law == "nested")
        assert nested.verdict == "fail"
        w = nested.witness
        # smallest failure: three 2-chains at i=1, j=2
        assert (w.a, w.b, w.c, w.i, w.j) == (chain(2), chain(2), chain(2), 1, 2)
        assert reverify(nested)

    def test_order_one_everything_passes(self):
        for kind in OPERAD_KINDS + (MINMAX,) + ALL_BOXED:
            assert all(r.verdict == "pass" for r in verify_laws(kind, 1))

    def test_random_mode_is_deterministic(self):
        one = verify_laws(SQUARE, 4, trials=300, seed=7)
        two = verify_laws(SQUARE, 4, trials=300, seed=7)
        assert one == two
        assert all(r.cases_checked + r.cases_skipped == 300 for r in one)

    def test_random_mode_needs_a_trial(self):
        for trials in (0, -5):
            with pytest.raises(ValueError):
                verify_laws(SQUARE, 3, trials=trials)

    def test_order_cap_refused_before_any_pool_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit):
                verify_laws(SQUARE, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    @pytest.mark.parametrize(
        "max_order, trials",
        [(8, 10**6 + 1), (3, 10**10), (3, LAW_CASE_BUDGET // 3 + 1)],
    )
    def test_case_budget_refused_before_any_pool_is_built(self, max_order, trials):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="budget"):
                verify_laws(SQUARE, max_order, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_budget_takes_the_largest_exhaustive_order_and_trials(self, monkeypatch):
        # the order cap 8 alone bounds the exhaustive sweep, and random mode
        # takes 10**6 trials per law and no more; the sweeps themselves are
        # stubbed, so what is tested is only what gets past the checks
        runs = []
        monkeypatch.setattr(operad, "_exhaustive", lambda rule, levels: runs.append(None) or [])
        monkeypatch.setattr(operad, "random_tallies", lambda *args: runs.append(args[2]) or [])
        assert LAW_CASE_BUDGET == 3 * 10**6
        verify_laws(SQUARE, DEFAULT_ORDER_CAP)
        verify_laws(SQUARE, DEFAULT_ORDER_CAP, trials=10**6)
        assert runs == [None, 10**6]
        with pytest.raises(ResourceLimit, match="above the cap 8"):
            verify_laws(SQUARE, DEFAULT_ORDER_CAP + 1)
        with pytest.raises(ResourceLimit, match="1000001 trials exceed the case budget 3000000"):
            verify_laws(SQUARE, DEFAULT_ORDER_CAP, trials=10**6 + 1)
        assert len(runs) == 2

    def test_argument_errors_in_order(self):
        # order, then trials, then the cap, then the case budget, then the kind
        with pytest.raises(ValueError, match="max_order"):
            verify_laws("bogus", 0, trials=0)
        with pytest.raises(ValueError, match="trials"):
            verify_laws("bogus", 9, trials=0)
        with pytest.raises(ResourceLimit, match="cap"):
            verify_laws("bogus", 9)
        with pytest.raises(ResourceLimit, match="budget"):
            verify_laws("bogus", 8, trials=10**6 + 1)
        with pytest.raises(ValueError, match="unknown"):
            verify_laws("bogus", 2)

    def test_operad_kinds_pass_random_trials(self):
        for kind in OPERAD_KINDS:
            reports = verify_laws(kind, 5, trials=2000, seed=11)
            assert all(r.verdict == "pass" for r in reports)

    def test_json_shape(self):
        reports = verify_laws(MINMAX, 2)
        blob = [r.to_json() for r in reports]
        nested = next(b for b in blob if b["law"] == "nested")
        assert nested["verdict"] == "fail"
        assert nested["witness"]["i"] == 1 and nested["witness"]["j"] == 2


# verify_laws(kind, 4) for every kind, recorded before the exhaustive sweep
# grouped its cases: per law (verdict, checked, skipped, witness A, B, C, i, j)
PASS_4 = (("pass", 1_729_800, 0, None), ("pass", 657_500, 0, None), ("pass", 186, 0, None))
PARALLEL_2 = ("fail", 2, 0, ("10;01", "1", "1", 1, 2))
ORDER_FOUR = {
    "square": PASS_4,
    "min": PASS_4,
    "max": PASS_4,
    "minmax": (
        ("fail", 792, 0, ("10;11", "10;11", "10;11", 1, 2)),
        ("pass", 657_500, 0, None),
        ("pass", 186, 0, None),
    ),
    "boxed:111": (
        ("pass", 858_050, 871_750, None),
        ("pass", 302_500, 355_000, None),
        ("fail", 5, 0, ("10;01", None, None, 1, None)),
    ),
    "boxed:110": (
        ("pass", 530_000, 1_199_800, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 2, None)),
    ),
    "boxed:100": (
        ("pass", 475_000, 1_254_800, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 2, None)),
    ),
    "boxed:011": (
        ("pass", 530_000, 1_199_800, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 1, None)),
    ),
    "boxed:010": (
        ("pass", 253_150, 1_476_650, None),
        ("pass", 122_500, 535_000, None),
        ("fail", 5, 0, ("10;11", None, None, 1, None)),
    ),
    "boxed:001": (
        ("pass", 475_000, 1_254_800, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 1, None)),
    ),
    "boxed:000": (
        ("pass", 720_000, 1_009_800, None),
        ("pass", 240_000, 417_500, None),
        ("fail", 5, 0, ("10;11", None, None, 1, None)),
    ),
}


@pytest.mark.parametrize("name", ORDER_FOUR)
def test_order_four_reports_are_pinned(name):
    # a law that passes sweeps every case, so checked + skipped is the closed
    # form: nested sum n|P_n| * sum m|P_m| * S, parallel sum C(n,2)|P_n| * S^2
    # and unit sum n|P_n|, with S = sum |P_n| over n <= 4
    sizes = {n: matrix_count(n) for n in range(1, 5)}
    size = sum(sizes.values())
    spots = sum(n * p for n, p in sizes.items())
    pairs = sum(n * (n - 1) // 2 * p for n, p in sizes.items())
    totals = {NESTED: spots * spots * size, PARALLEL: pairs * size * size, "unit": spots}
    assert totals == {NESTED: 1_729_800, PARALLEL: 657_500, "unit": 186}
    reports = verify_laws(parse_kind(name), 4)
    assert [r.law for r in reports] == list(LAWS)
    for report, (verdict, checked, skipped, witness) in zip(reports, ORDER_FOUR[name]):
        w = report.witness
        got = w and tuple(x and ";".join(x.bit_rows()) for x in (w.a, w.b, w.c)) + (w.i, w.j)
        assert (report.verdict, report.cases_checked, report.cases_skipped, got) == (
            verdict,
            checked,
            skipped,
            witness,
        ), report.law
        if report.passed:
            assert checked + skipped == totals[report.law]
        else:
            assert reverify(report)


def _small_cases():
    """Every nested and parallel case over PM(<=3), as (law, a, b, c, i, j)."""
    pool = [c for level, _ in islice(_tree(3), 1, None) for c in level]
    for a, b, c in product(pool, repeat=3):
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                yield NESTED, a, b, c, i, j
            for j in range(i + 1, len(a) + 1):
                yield PARALLEL, a, b, c, i, j


def _random_cases(count=1000, seed=14):
    """count seeded random nested cases and as many parallel ones, each of
    A, B and C drawn from PM(5) or PM(6)."""
    rng = random.Random(seed)
    levels = [level for level, _ in _tree(6)][5:]
    for _ in range(count):
        a, b, c = (rng.choice(rng.choice(levels)) for _ in range(3))
        yield NESTED, a, b, c, rng.randint(1, len(a)), rng.randint(1, len(b))
        i, j = sorted(rng.sample(range(1, len(a) + 1), 2))
        yield PARALLEL, a, b, c, i, j


def _mixed_cases(count=1000, seed=15):
    """count seeded random nested cases and as many parallel ones, each of
    A, B and C drawn from PM(n) for an n drawn from 1..6 (a parallel A
    from 2..6), so C and B of order 1 and i or j at either end all occur."""
    rng = random.Random(seed)
    levels = [level for level, _ in _tree(6)][1:]
    for _ in range(count):
        a, b, c = (rng.choice(rng.choice(levels)) for _ in range(3))
        yield NESTED, a, b, c, rng.randint(1, len(a)), rng.randint(1, len(b))
        a = rng.choice(rng.choice(levels[1:]))
        i, j = sorted(rng.sample(range(1, len(a) + 1), 2))
        yield PARALLEL, a, b, c, i, j


def _all_cases():
    return (*_small_cases(), *_random_cases(), *_mixed_cases())


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_block_verdict_matches_both_sides_case_by_case(kind):
    # every nested and parallel case over PM(<=3), 2,000 random ones at
    # orders 5-6 and 2,000 of mixed orders 1-6: the same verdict as
    # composing both sides in full, and skipped exactly when _case is
    rule = _rule(kind)
    for law, a, b, c, i, j in _all_cases():
        case = _defined(_case, rule, law, a, b, c, i, j)
        want = None if case is None else case[0]
        assert holds_by_signatures(rule, law, a, b, c, i, j) is want, (law, a, b, c, i, j)


def _branch(kind, law, a, b, c, i, j):
    """The branch of the rule that decides one case, worked out from the
    definitions, with _outer of the two signatures checked against it: None
    where _outer says the case is undefined; under minmax nested, whether
    (a) and (b) hold and whether C is an antichain; under a boxed kind
    parallel, whether u != v; else the law alone."""
    rule = _rule(kind)
    sb = signature_at(rule, b if law == NESTED else a, j)
    breaks = _outer(rule, law, signature_at(rule, a, i), sb)
    if breaks is None:
        return law, None
    if law == NESTED and kind == MINMAX:
        k, top = i - 1, (1 << len(c)) - 1
        prefix = a[k] & ((1 << k) - 1) != 0
        below = any(x >> k & 1 for x in a[i:])
        _, mins, maxs = _extremal(b)
        j_max, j_min = maxs >> (j - 1) & 1, mins >> (j - 1) & 1
        rule_a, rule_b = prefix and not j_max, below and not j_min
        assert breaks == (rule_a or rule_b), (a, b, i, j)
        return law, rule_a, rule_b, _extremal(c)[1] & _extremal(c)[2] == top
    if law == PARALLEL and kind in ALL_BOXED:
        assert breaks == (kind.u != kind.v), (kind, a, i, j)
        return law, kind.u != kind.v
    assert not breaks, (kind, law, a, b, i, j)
    return (law,)


def test_every_branch_of_the_rule_occurs():
    # over the cases of the test above and all 11 kinds, every branch of the
    # rule occurs: undefined cases of each law; under minmax nested, each of
    # (a) and (b) alone, both and neither, each with C an antichain and not;
    # boxed parallel with u != v and with u == v; the other defined cases.
    # So that test passing says something about each branch.
    seen = set()
    for kind in ALL_KINDS:
        for case in _all_cases():
            seen.add(_branch(kind, *case))
    minmax = {(NESTED, x, y, z) for x, y, z in product((False, True), repeat=3)}
    assert seen == minmax | {
        (NESTED, None),
        (PARALLEL, None),
        (NESTED,),
        (PARALLEL,),
        (PARALLEL, False),
        (PARALLEL, True),
    }


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_grouped_sweep_matches_case_by_case(kind):
    # each (n, m, k) over PM(<=3) grouped alone, without the stop rule: the
    # same checked and skipped counts as deciding every case with
    # holds_by_signatures, and the same least failing case, though the
    # signature groups keep only their least breaking (A, B, i, j), each to
    # be paired with the least C that fails it; each of those is itself a
    # failing case
    rule = _rule(kind)
    pools = {n: level for n, (level, _) in enumerate(_tree(3)) if n}
    tables = _tables(rule, 3)
    for law in (NESTED, PARALLEL):
        for n, m, k in product(pools, repeat=3):
            undefined, defined, breaking = _groups(rule, law, tables, n, m)
            failing = [c for c in pools[k] if law == PARALLEL or not is_antichain(c)]
            cases = [(a, b, failing[0], i, j) for a, b, i, j in breaking] if failing else []
            assert all(holds_by_signatures(rule, law, *case) is False for case in cases), (law, n, m, k)
            verdicts = {}  # a local tally: every case's verdict, None when undefined
            for a, b, c in product(pools[n], pools[m], pools[k]):
                for i in range(1, n + 1):
                    for j in range(1, m + 1) if law == NESTED else range(i + 1, n + 1):
                        verdicts[a, b, c, i, j] = holds_by_signatures(rule, law, a, b, c, i, j)
            skipped = sum(holds is None for holds in verdicts.values())
            failures = [case for case, holds in verdicts.items() if holds is False]
            counts = undefined * len(pools[k]), defined * len(pools[k])
            assert counts == (skipped, len(verdicts) - skipped), (law, n, m, k)
            least = min(cases, key=_case_key, default=None)
            assert least == min(failures, key=_case_key, default=None), (law, n, m, k)
    if kind == MINMAX:  # the one kind whose rule reads C: its least C that is no antichain
        for k, pool in pools.items():
            assert tables[k]["not antichain"] == next((c for c in pool if not is_antichain(c)), None)


def _pinned(report):
    """(verdict, checked, skipped, witness A, B, C, i, j) of one report."""
    w = report.witness
    got = w and tuple(x and ";".join(x.bit_rows()) for x in (w.a, w.b, w.c)) + (w.i, w.j)
    return report.verdict, report.cases_checked, report.cases_skipped, got


def test_minmax_order_five_exhaustive_past_the_budget():
    # minmax at order 5 through verify_laws: the one kind whose verdict
    # reads C.  A passing law counts the closed forms of _closed_forms.
    reports = verify_laws(MINMAX, 5)
    assert [_pinned(r) for r in reports] == [
        ("fail", 792, 0, ("10;11", "10;11", "10;11", 1, 2)),
        ("pass", 634_932_617, 0, None),
        ("pass", 1_971, 0, None),
    ]
    assert reverify(reports[0])


# verify_laws(kind, 5) for every kind, recorded from the sweep that walked
# each (A, i, B, j): per law (verdict, checked, skipped, witness A, B, C, i, j)
PASS_5 = (("pass", 1_581_130_287, 0, None), ("pass", 634_932_617, 0, None), ("pass", 1_971, 0, None))
ORDER_FIVE = {
    "square": PASS_5,
    "min": PASS_5,
    "max": PASS_5,
    "minmax": (
        ("fail", 792, 0, ("10;11", "10;11", "10;11", 1, 2)),
        ("pass", 634_932_617, 0, None),
        ("pass", 1_971, 0, None),
    ),
    "boxed:111": (
        ("pass", 452_142_812, 1_128_987_475, None),
        ("pass", 162_336_020, 472_596_597, None),
        ("fail", 5, 0, ("10;01", None, None, 1, None)),
    ),
    "boxed:110": (
        ("pass", 281_768_949, 1_299_361_338, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 2, None)),
    ),
    "boxed:100": (
        ("pass", 247_976_553, 1_333_153_734, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 2, None)),
    ),
    "boxed:011": (
        ("pass", 281_768_949, 1_299_361_338, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 1, None)),
    ),
    "boxed:010": (
        ("pass", 135_034_053, 1_446_096_234, None),
        ("pass", 67_253_494, 567_679_123, None),
        ("fail", 5, 0, ("10;11", None, None, 1, None)),
    ),
    "boxed:001": (
        ("pass", 247_976_553, 1_333_153_734, None),
        PARALLEL_2,
        ("fail", 5, 0, ("10;01", None, None, 1, None)),
    ),
    "boxed:000": (
        ("pass", 368_865_728, 1_212_264_559, None),
        ("pass", 121_420_717, 513_511_900, None),
        ("fail", 5, 0, ("10;11", None, None, 1, None)),
    ),
}


@pytest.mark.parametrize("name", ORDER_FIVE)
def test_order_five_reports_are_pinned(name):
    reports = verify_laws(parse_kind(name), 5)
    assert [r.law for r in reports] == list(LAWS)
    assert [_pinned(r) for r in reports] == list(ORDER_FIVE[name])
    for report in reports:
        if report.passed:
            assert report.cases_checked + report.cases_skipped == _closed_forms(5)[report.law]
        else:
            assert reverify(report)


def _closed_forms(top):
    """The number of cases of each law over PM(<=top): nested
    sum n|P_n| * sum m|P_m| * S, parallel sum C(n,2)|P_n| * S^2 and unit
    sum n|P_n|, with S = sum |P_n|."""
    sizes = {n: matrix_count(n) for n in range(1, top + 1)}
    size = sum(sizes.values())
    spots = sum(n * p for n, p in sizes.items())
    pairs = sum(n * (n - 1) // 2 * p for n, p in sizes.items())
    return {NESTED: spots * spots * size, PARALLEL: pairs * size * size, UNIT_LAW: spots}


@pytest.mark.parametrize("kind", OPERAD_KINDS)
def test_order_six_counts_are_the_closed_forms(kind):
    # the three operads pass every case up to order 6, counted by the
    # closed forms from matrix_count, not from the sweep
    totals = _closed_forms(6)
    assert totals == {NESTED: 4_999_461_423_975, PARALLEL: 2_084_896_564_673, UNIT_LAW: 30_915}
    reports = verify_laws(kind, 6)
    assert [(r.law, r.verdict, r.cases_checked, r.cases_skipped, r.witness) for r in reports] == [
        (law, "pass", totals[law], 0, None) for law in LAWS
    ]


def test_order_eight_counts_are_the_closed_forms():
    # the order cap is the only bound of the exhaustive sweep: square at
    # order 8, PM(8) streamed parent by parent, passes every case
    totals = _closed_forms(8)
    reports = verify_laws(SQUARE, 8)
    assert [(r.law, r.verdict, r.cases_checked, r.cases_skipped, r.witness) for r in reports] == [
        (law, "pass", totals[law], 0, None) for law in LAWS
    ]


def test_exhaustive_sweep_holds_no_more_than_the_level_below():
    # order 7: PM(7) is streamed, so only PM(1..6) (about 0.5 MiB) and one
    # row per masks key are held; listing PM(7) alone would take about 10 MiB
    tracemalloc.start()
    try:
        verify_laws(MINMAX, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize(
    "name, checked, skipped",
    [("boxed:010", 67_253_494, 567_679_123), ("boxed:111", 162_336_020, 472_596_597)],
)
def test_parallel_sweep_order_five_is_pinned(name, checked, skipped):
    # the parallel sweep over PM(<=5), which counts each signature of
    # (A, i, j) once per B: both kinds pass, so checked + skipped is the
    # closed form sum C(n,2)|P_n| * S^2
    rule = _rule(parse_kind(name))
    tally = _sweep(rule, PARALLEL, _tables(rule, 5))
    assert (tally.checked, tally.skipped, tally.failures) == (checked, skipped, [])
    assert checked + skipped == _closed_forms(5)[PARALLEL] == 634_932_617


def test_unit_rule_matches_both_sides():
    # every (kind, A, i) over PM(<=5): unit_at gives the verdict of composing
    # both sides, and None exactly where that is undefined.  Undefined
    # cases, each constant fill alone wrong, both wrong, neither, and the
    # mask kinds, whose unit law always holds, all occur.
    pool = [a for level, _ in islice(_tree(5), 1, None) for a in level]
    seen, count = set(), 0
    for kind in ALL_KINDS:
        rule = _rule(kind)
        for a in pool:
            for i in range(1, len(a) + 1):
                case = _defined(_case, rule, UNIT_LAW, a, None, None, i, None)
                got = unit_at(rule, a, i)
                assert got is (None if case is None else case[0]), (kind_name(kind), a, i)
                count += 1
                if kind in MASK_KINDS:
                    seen.add(("mask", got))
                elif got is None:
                    seen.add(("undefined",))
                else:
                    k = i - 1
                    low = (1 << k) - 1
                    u_wrong = a[k] & low != (low if kind.u else 0)
                    v_wrong = any(x >> k & 1 != kind.v for x in a[i:])
                    seen.add(("boxed", u_wrong, v_wrong))
    assert count == 11 * 1_971
    boxed = {("boxed", *wrong) for wrong in product((False, True), repeat=2)}
    assert seen == {("mask", True), ("undefined",)} | boxed


class TestBoxedKindsMeasured:
    """The seven constant-fill insertions have partial domains; their axiom
    status is recorded, not asserted.  Closure is a theorem and is asserted;
    the one-sided unit identity [1] o_1 A = A is asserted; the measured
    verdicts for the rest are pinned so behaviour changes are visible."""

    def test_left_unit_always_holds(self):
        for kind in ALL_BOXED:
            from posetmat.compose import compose

            for n in range(1, 5):
                for a in generate_all(n):
                    assert compose(kind, UNIT, 1, a) == a

    def test_right_unit_fails_and_is_reported_not_hidden(self):
        # Replacing row/column i with constant fills need not reproduce A.
        from posetmat.compose import Boxed, compose

        a = pm("100;010;111")
        assert compose(Boxed(0, 1, 0), a, 2, UNIT) == pm("100;010;101") != a
        reports = verify_laws(Boxed(0, 1, 0), 3)
        unit = next(r for r in reports if r.law == "unit")
        assert unit.verdict == "fail"
        assert reverify(unit)

    def test_skips_are_counted(self):
        reports = verify_laws(ALL_BOXED[0], 3)
        assert any(r.cases_skipped > 0 for r in reports)

    def test_measured_statuses_reverify(self):
        for kind in ALL_BOXED:
            for report in verify_laws(kind, 2):
                if report.verdict == "fail":
                    assert reverify(report)


def _walked(rule, top):
    """(matrix, masks) over PM(1..top), the masks as the law layer makes
    them: by the extension rule (_reader) in one walk of the levels
    (_pools), or (n, 0, 0) where the rule reads nothing."""
    extend = _reader(rule)
    if extend is None:
        levels = [level for level, _ in _tree(top)]
        keys = [[(len(x), 0, 0) for x in level] for level in levels]
    else:
        levels, keys, _ = _pools(extend, top + 1)
    return [pair for level, masks in zip(levels[1:], keys[1:]) for pair in zip(level, masks)]


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k not in OPERAD_KINDS], ids=kind_name)
def test_pools_are_those_of_each_parents_ideals(kind):
    # _pools grows each matrix's ideals from its parent's in one walk; for
    # N = 1..6 it gives the levels, the masks and the stream of PM(N) that
    # listing every parent's ideals with _ideals gives.  Square, min and
    # max have no extension rule and walk no pool.
    extend = _reader(_rule(kind))
    for top in range(1, 7):
        levels, keys, last = _pools(extend, top)
        assert (levels, keys, list(last)) == pools_by_ideals(extend, top), top


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_signatures_of_a_matrix_are_those_of_its_positions(kind):
    # _row of a matrix's masks, which the walk of the levels makes by the
    # extension rule, gives the signature of each position read alone
    # (signature_at) over PM(<=6), and, under minmax, the one kind whose
    # rule reads C, whether it is an antichain (None for the other kinds)
    rule = _rule(kind)
    for a, masks in _walked(rule, 6):
        sigs, antichain, _ = _row(rule, masks)
        assert sigs == tuple(signature_at(rule, a, p) for p in range(1, len(a) + 1)), a
        assert antichain is (is_antichain(a) if kind == MINMAX else None), a


@pytest.mark.parametrize("kind", MASK_KINDS)
def test_mask_unit_sweep_is_the_closed_form(kind):
    # a mask kind's exhaustive unit tally, counted without visiting a case,
    # is what deciding every (A, i) of PM(<=5) with unit_at gives
    rule = _rule(kind)
    pools = {n: level for n, (level, _) in enumerate(_tree(5)) if n}
    unit = _exhaustive(rule, 5)[2]
    verdicts = [unit_at(rule, a, i) for n in pools for a in pools[n] for i in range(1, n + 1)]
    assert verdicts == [True] * 1_971
    assert (unit.checked, unit.skipped, unit.failures) == (1_971, 0, [])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_units_of_a_matrix_are_those_of_its_positions(kind):
    # _row of a matrix's masks, which the walk of the levels makes by the
    # extension rule, gives the unit verdict of each position read alone
    # (unit_at) over PM(<=6)
    rule = _rule(kind)
    for a, masks in _walked(rule, 6):
        units = _row(rule, masks)[2]
        assert units == tuple(unit_at(rule, a, p) for p in range(1, len(a) + 1)), a


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_extension_rule_gives_the_masks_of_each_child(kind):
    # every child D + I in PM(1..6), D in PM(0..5): the masks that the
    # extension rule (_reader) gives from D's masks and I alone are those
    # read from the built child in one pass over its rows (scan_masks:
    # core._extremal under minmax, the bottom-up scan for a boxed kind),
    # and _row of them gives each position's signature_at and unit_at.
    # Under square, min and max the rule is None: every masks is (n, 0, 0).
    rule = _rule(kind)
    extend = _reader(rule)
    assert (extend is None) == (kind in OPERAD_KINDS)
    children = 0
    for level, _ in _tree(5):
        for d in level:
            ideals = _ideals(d)
            built = [d + (s | 1 << len(d),) for s in ideals]
            if extend is None:
                got = [(len(d) + 1, 0, 0)] * len(ideals)
            else:
                got = extend(scan_masks(rule, d), ideals)
            assert got == [scan_masks(rule, x) for x in built], d
            for x, masks in zip(built, got):
                sigs, _, units = _row(rule, masks)
                assert sigs == tuple(signature_at(rule, x, p) for p in range(1, len(x) + 1)), x
                assert units == tuple(unit_at(rule, x, p) for p in range(1, len(x) + 1)), x
            children += len(ideals)
    assert children == 5_231 == sum(map(matrix_count, range(1, 7)))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
def test_each_matrix_is_read_once(monkeypatch, kind):
    # _reader gives the one reader of a matrix for the law rules, the
    # extension rule: a matrix's masks are made once, from its parent's
    # masks and its ideal, each parent's ideals read once from the walk
    # (_tree), which grows them, and never listed by _ideals.  Exhaustive
    # mode makes the masks of the 407 matrices of PM(1..5), each some
    # parent's child, over the 51 distinct parents of PM(0..4), so none
    # twice; random mode makes those of PM(1..5) and at most those of each
    # marked index of PM(6).  Square, min and max read nothing: neither
    # mode makes a masks or reads an ideal for the law rules.
    made, parents, listed, marked = [], [], [], []
    reader, drawn, ideals, tree = operad._reader, operad._Drawn, operad._ideals, operad._tree

    def counted(rule):
        extend = reader(rule)
        if extend is None:
            return None

        def count(masks, children):
            made.extend([masks[0] + 1] * len(children))  # the order of each child
            return extend(masks, children)

        return count

    def listing(codes):
        listed.append(codes)
        return ideals(codes)

    def read(level, lists):
        for codes, grown in zip(level, lists):
            parents.append(codes)
            yield grown

    def walk(n):
        for level, lists in tree(n):
            yield level, read(level, lists)

    def mark(rule, max_order, starts, need):
        marked.append(need.count(1))
        return drawn(rule, max_order, starts, need)

    monkeypatch.setattr(operad, "_reader", counted)
    monkeypatch.setattr(operad, "_ideals", listing)
    monkeypatch.setattr(operad, "_tree", walk)
    monkeypatch.setattr(operad, "_Drawn", mark)
    verify_laws(kind, 5)
    assert listed == []
    if kind in OPERAD_KINDS:
        assert made == parents == []
    else:
        assert len(made) == 407 == sum(map(matrix_count, range(1, 6)))
        assert len(parents) == len(set(parents)) == 51 == 1 + sum(map(matrix_count, range(1, 5)))
    made.clear()
    verify_laws(kind, 6, trials=500, seed=2)
    if kind in OPERAD_KINDS:
        assert made == marked == []
    else:
        top = made.count(6)
        assert len(made) - top == 407 and 0 < top <= marked[0], (len(made), top, marked)


def test_random_mode_matches_the_composing_oracle():
    # every kind, orders 1-5, three seeds and three trial counts: the same
    # JSON reports as drawing from the list of PM(1..N) with choice,
    # randint and sample and composing both sides of every case.
    # The draws do not depend on the kind, and fewer trials draw a prefix.
    for n in range(1, 6):
        for seed in (0, 1, -3):
            cases = random_cases(n, 500, seed)
            for trials in (1, 7, 500):
                prefix = {law: drawn[:trials] for law, drawn in cases.items()}
                for kind in ALL_KINDS:
                    got = [r.to_json() for r in verify_laws(kind, n, trials=trials, seed=seed)]
                    want = [r.to_json() for r in random_laws_by_composing(kind, prefix)]
                    assert got == want, (kind_name(kind), n, seed, trials)


def _index_draws(law, starts, trials, seed):
    """(skipped, cases) of one law's trials drawn as random_cases draws
    them, with choice, randint and sample, but on the pool indices
    range(total), so no matrix is listed; b, c and j are 0 for the unit
    law."""
    rng = random.Random(seed)
    pool, skipped, cases = range(starts[-1]), 0, []
    for _ in range(trials):
        a = rng.choice(pool)
        n = bisect_right(starts, a)
        if law == UNIT_LAW:
            cases.append((a, 0, 0, rng.randint(1, n), 0))
            continue
        b, c = rng.choice(pool), rng.choice(pool)
        if law == NESTED:
            cases.append((a, b, c, rng.randint(1, n), rng.randint(1, bisect_right(starts, b))))
        elif n < 2:
            skipped += 1
        else:
            cases.append((a, b, c, *sorted(rng.sample(range(1, n + 1), 2))))
    return skipped, cases


@pytest.mark.parametrize("law", LAWS)
def test_draws_are_those_of_choice_randint_and_sample(law):
    # _draw takes random.py's _randbelow inlined on getrandbits: over
    # orders 1-8, four seeds and three trial counts, it draws the cases and
    # skips of choice, randint and sample on the index ranges, marks the
    # indices of every case it keeps, and keeps no case where it reads none
    for top in range(1, DEFAULT_ORDER_CAP + 1):
        starts = [0, *accumulate(matrix_count(n) for n in range(1, top + 1))]
        for seed in (0, 1, -3, 2**31 - 1):
            for trials in (1, 7, 1000):
                skipped, cases = _index_draws(law, starts, trials, seed)
                need = bytearray(starts[-1])
                got = operad._draw(law, (True, True, True), starts, trials, seed, need)
                assert (got[0], list(operad._CASE.iter_unpack(got[1]))) == (skipped, cases)
                marks = {g for a, b, c, _, _ in cases for g in (a, b, c)}
                assert need.count(1) == len(marks) and all(need[g] for g in marks)
                none = bytearray(starts[-1])
                got = operad._draw(law, (False,) * 3, starts, trials, seed, none)
                assert got == (skipped, None) and none.count(0) == len(none)


@pytest.mark.parametrize("kind", OPERAD_KINDS)
def test_random_operad_trials_build_no_pool(monkeypatch, kind):
    # square, min and max read no matrix: random mode walks no pool, and
    # the one walk it makes, for the pool sizes (_sizes), builds no matrix
    # of order N-1 or N
    def refuse(*args):
        raise AssertionError("random mode built a pool")

    built = []
    tree = enumeration._tree

    def spy(n):
        built.append(n)
        return tree(n)

    monkeypatch.setattr(operad, "_tree", refuse)
    monkeypatch.setattr(operad, "_ideals", refuse)
    monkeypatch.setattr(enumeration, "_tree", spy)
    reports = verify_laws(kind, 8, trials=1000, seed=5)
    assert [(r.verdict, r.cases_checked + r.cases_skipped) for r in reports] == [("pass", 1000)] * 3
    assert built and max(built) <= 6


@pytest.mark.parametrize("name", ["minmax", "boxed:110"])
def test_random_mode_holds_only_what_it_draws(name):
    # order 7: PM(7) is walked parent by parent and only the drawn matrices
    # are read; listing PM(1..7) alone would take about 10 MiB
    tracemalloc.start()
    try:
        verify_laws(parse_kind(name), 7, trials=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_rank_is_the_witness_order_on_pool_indices():
    # over PM(1..5) listed in turn: ordering the indices by _rank orders
    # the matrices by the witness key, and _Drawn gives each index's codes
    levels = [level for level, _ in _tree(5)][1:]
    flat = [codes for level in levels for codes in level]
    starts = [0, *accumulate(len(level) for level in levels)]
    by_rank = sorted(range(len(flat)), key=lambda g: operad._rank(starts, g))
    assert [flat[g] for g in by_rank] == sorted(flat, key=lambda x: _case_key((x, x, x, 1, 1)))
    drawn = operad._Drawn(_rule(MINMAX), 5, starts, bytearray(len(flat)))
    assert [drawn.codes(g) for g in range(len(flat))] == flat
