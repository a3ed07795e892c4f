"""Acceptance checks: one test per exit criterion, each printing a PASS/FAIL
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

The self-duality closure biconditional (criterion 5e) holds when the
insertion position is the centre of an odd-order A and is false in both
directions off the centre; see
TestCriterion5Duality.test_criterion_5e_self_dual_biconditional_as_stated for
the proof and the two smallest counterexamples, and
duality.self_dual_closure_counterexamples for the full off-centre sweep.
"""

import json
import time

from posetmat import (
    MAX,
    MIN,
    MINMAX,
    SQUARE,
    check_nested,
    classes,
    dual,
    dual_index_set,
    factor,
    generate_all,
    is_self_dual,
    maximal_elements,
    minimal_elements,
    pascal_decomposition_check,
    pascal_matrix,
    principal_subposet,
    semi_equidual,
    validate,
)
from posetmat.cli import run, to_pm_text
from posetmat.compose import ALL_KINDS, OPERAD_KINDS, compose
from posetmat.core import BinaryMatrix
from posetmat.duality import self_dual_closure_counterexamples
from posetmat.enumeration import canonical_form
from posetmat.errors import PreconditionViolated
from posetmat.operad import verify_laws

from helpers import (
    CONNECTED_3,
    CONNECTED_4,
    DISCONNECTED_3,
    DISCONNECTED_4,
    EX_A,
    EX_B,
    EX_C,
    EX_MAX,
    EX_MIN,
    EX_MINMAX,
    EX_SQUARE,
    NESTED_LEFT,
    NESTED_RIGHT,
    antichain,
    chain,
    pm,
    sweep_insertion_invariance,
    sweep_semi_equidual,
)


def report(cid, ok, detail=""):
    line = f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


def all_upto(n_max, start=1):
    for n in range(start, n_max + 1):
        yield from generate_all(n)


GOLDEN_TEXT = {
    "square": "6\n100000\n110000\n111000\n110100\n100010\n111111\n",
    "min": "6\n100000\n110000\n111000\n110100\n100010\n110011\n",
    "max": "6\n100000\n010000\n111000\n110100\n100010\n111111\n",
    "minmax": "6\n100000\n010000\n111000\n110100\n100010\n110011\n",
}


class TestCriterion1GoldenCompositions:
    def test_criterion_1(self):
        t0 = time.perf_counter()
        results = {
            "square": compose(SQUARE, EX_A, 2, EX_B),
            "min": compose(MIN, EX_A, 2, EX_B),
            "max": compose(MAX, EX_A, 2, EX_B),
            "minmax": compose(MINMAX, EX_A, 2, EX_B),
        }
        golden = {"square": EX_SQUARE, "min": EX_MIN, "max": EX_MAX, "minmax": EX_MINMAX}
        exact = all(results[k] == golden[k] for k in golden)
        bytes_exact = all(to_pm_text(results[k]) == GOLDEN_TEXT[k] for k in golden)
        elapsed = time.perf_counter() - t0
        ok = exact and bytes_exact and elapsed < 1.0
        assert report("criterion-1 golden compositions", ok, f"{elapsed:.3f}s")


class TestCriterion2Catalogs:
    def test_criterion_2(self):
        t0 = time.perf_counter()
        counts = [len(generate_all(n)) for n in range(1, 6)]
        cls3, cls4 = classes(3), classes(4)
        ok = counts == [1, 2, 7, 40, 357]
        ok &= len(cls3) == 5 and sum(c.connected for c in cls3) == 3
        ok &= len(cls4) == 16 and sum(c.connected for c in cls4) == 10
        # every displayed matrix is generated, and they land in distinct classes
        listed3 = CONNECTED_3 + DISCONNECTED_3
        listed4 = CONNECTED_4 + DISCONNECTED_4
        ok &= all(m in generate_all(3) for m in listed3)
        ok &= all(m in generate_all(4) for m in listed4)
        ok &= len({canonical_form(m) for m in listed3}) == 5
        ok &= len({canonical_form(m) for m in listed4}) == 16
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 10.0
        assert report(
            "criterion-2 catalog counts",
            ok,
            f"counts={counts}, split3=3/2, split4=10/6, {elapsed:.2f}s",
        )


class TestCriterion3OperadLaws:
    def test_criterion_3(self):
        t0 = time.perf_counter()
        ok = True
        for kind in OPERAD_KINDS:
            exhaustive = verify_laws(kind, 3)
            ok &= all(r.verdict == "pass" for r in exhaustive)
            sampled = verify_laws(kind, 6, trials=10_000, seed=20240601)
            ok &= all(r.verdict == "pass" for r in sampled)
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 60.0
        assert report(
            "criterion-3 operad laws for square/min/max",
            ok,
            f"exhaustive to order 3 + 10k random triples to order 6, {elapsed:.1f}s",
        )


class TestCriterion4NonOperadWitness:
    def test_criterion_4_cli_finds_failure(self, capsys):
        t0 = time.perf_counter()
        exit_code = run(["laws", "--op", "minmax", "--max-n", "4", "--json"])
        reports = json.loads(capsys.readouterr().out)
        nested = next(r for r in reports if r["law"] == "nested")
        elapsed = time.perf_counter() - t0
        ok = exit_code == 1 and nested["verdict"] == "fail"
        ok &= nested["witness"] is not None
        with capsys.disabled():
            assert report(
                "criterion-4a minmax nested-associativity failure via CLI",
                ok,
                f"exit={exit_code}, {elapsed:.1f}s",
            )

    def test_criterion_4_exact_triple(self):
        equal, left, right = check_nested(MINMAX, EX_A, EX_B, EX_C, 2, 3)
        ok = not equal and left == NESTED_LEFT and right == NESTED_RIGHT
        assert report("criterion-4b displayed 7x7 pair reproduced", ok)


class TestCriterion5Duality:
    def test_criterion_5a_involution(self):
        ok = all(dual(dual(a)) == a for a in all_upto(4))
        assert report("criterion-5a dual is an involution (orders <= 4)", ok)

    def test_criterion_5b_principal_block_identity(self):
        from itertools import combinations

        ok = True
        for a in all_upto(4):
            n = a.n
            for size in range(1, n + 1):
                for alpha in combinations(range(1, n + 1), size):
                    ok &= principal_subposet(dual(a), dual_index_set(alpha, n)) == dual(
                        principal_subposet(a, alpha)
                    )
        assert report("criterion-5b dual of principal blocks (orders <= 4)", ok)

    def test_criterion_5c_dual_of_square(self):
        t0 = time.perf_counter()
        ok = True
        for b in all_upto(4):
            for c in all_upto(4):
                for i in range(1, b.n + 1):
                    ok &= dual(compose(SQUARE, b, i, c)) == compose(SQUARE,
                        dual(b), b.n - i + 1, dual(c)
                    )
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 30.0
        assert report("criterion-5c dual of square composition", ok, f"{elapsed:.1f}s")

    def test_criterion_5d_dual_swaps_min_max(self):
        t0 = time.perf_counter()
        ok = True
        for b in all_upto(4):
            for c in all_upto(4):
                for i in range(1, b.n + 1):
                    ok &= dual(compose(MIN, b, i, c)) == compose(MAX,
                        dual(b), b.n - i + 1, dual(c)
                    )
                    ok &= compose(MAX, b, b.n - i + 1, c) == dual(
                        compose(MIN, dual(b), i, dual(c))
                    )
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 30.0
        assert report("criterion-5d dual swaps min/max compositions", ok, f"{elapsed:.1f}s")

    def test_criterion_5e_self_dual_biconditional_as_stated(self):
        """A square_i B is self-dual iff A and B are, when i is A's centre.

        For A of odd order n and 2i = n+1, the duality identity
        (A square_i B)* = A* square_{n-i+1} B* puts the dual composite at
        the same position i.
          <=  if A = A* and B = B*, the composite equals its dual (5c).
          =>  square composition at a fixed position and fixed orders is
              injective (B is the principal block at i..i+m-1, A is the
              quotient collapsing it), so A square_i B = A* square_i B*
              forces A = A* and B = B*.
        Off the centre the biconditional is false in both directions; the
        smallest counterexamples have order 3 and order 4:
          (10;01) square_1 (10;11) = (100;110;001) is not self-dual although
          both factors are, and
          (10;01) square_1 (100;010;011) = (1000;0100;0110;0001) is
          self-dual although the second factor is not.
        """
        t0 = time.perf_counter()
        odd_a = [a for n in (1, 3, 5) for a in generate_all(n)]
        pool_b = [(b, is_self_dual(b)) for b in all_upto(4)]
        centred = 0
        centred_failures = []
        for a in odd_a:
            i = (a.n + 1) // 2
            sd_a = is_self_dual(a)
            for b, sd_b in pool_b:
                centred += 1
                if is_self_dual(compose(SQUARE, a, i, b)) != (sd_a and sd_b):
                    centred_failures.append((a.bit_rows(), i, b.bit_rows()))

        disagreements = self_dual_closure_counterexamples(4)
        keyed = {
            (a, i, b): (comp, direction) for a, i, b, comp, direction in disagreements
        }
        expected = {
            (pm("10;01"), 1, pm("10;11")): (
                pm("100;110;001"),
                "factors self-dual, composite not",
            ),
            (pm("10;01"), 1, pm("100;010;011")): (
                pm("1000;0100;0110;0001"),
                "composite self-dual, factors not",
            ),
        }
        refuted = all(keyed.get(case) == value for case, value in expected.items())
        off_centre = all(2 * i != a.n + 1 for a, i, _ in keyed)
        elapsed = time.perf_counter() - t0

        report(
            "criterion-5e self-dual closure biconditional at the centre",
            not centred_failures and refuted and off_centre,
            f"{centred} centred cases (odd A <= 5, B <= 4), "
            f"{len(disagreements)} off-centre disagreements at orders <= 4, "
            f"{elapsed:.1f}s",
        )
        assert not centred_failures, f"centred failures: {centred_failures[:2]}"
        assert refuted, "the two smallest off-centre counterexamples are missing"
        assert off_centre, "a reported disagreement sits at the centre position"

    def test_criterion_5f_worked_pair_byte_exact(self):
        left = compose(SQUARE, pm("100;110;101"), 3, EX_C)
        right = compose(SQUARE, pm("100;010;111"), 1, EX_C)
        ok = to_pm_text(left) == "4\n1000\n1100\n1010\n1011\n"
        ok &= to_pm_text(right) == "4\n1000\n1100\n0010\n1111\n"
        ok &= dual(left) == right
        assert report("criterion-5f worked dual pair byte-exact", ok)


class TestCriterion6StructureTheorems:
    def test_criterion_6a_worked_examples(self):
        a1 = pm("1000;1100;1110;1101")
        c1 = pm("10000;11000;11100;11110;11101")
        ok = compose(SQUARE, a1, 1, EX_C) == c1 == compose(SQUARE, a1, 2, EX_C)

        a2 = pm("1000;1100;0010;1111")
        c2 = pm("10000;11000;11100;00010;11111")
        ok &= compose(SQUARE, a2, 1, EX_C) == c2 == compose(SQUARE, a2, 2, EX_C)

        a3 = pm("1000;1100;1010;1011")
        c3 = pm("10000;11000;10100;10110;10111")
        ok &= compose(SQUARE, a3, 3, EX_C) == c3 == compose(SQUARE, a3, 4, EX_C)

        a4 = pm("1000;0100;0010;1111")
        c4 = pm("10000;01000;00100;00010;11111")
        ok &= (
            compose(SQUARE, a4, 1, antichain(2))
            == compose(SQUARE, a4, 2, antichain(2))
            == compose(SQUARE, a4, 3, antichain(2))
            == c4
        )

        a5 = pm("1000;1100;1110;1101")
        c5 = pm("10000;11000;11100;11010;11001")
        ok &= (
            compose(SQUARE, a5, 3, antichain(2))
            == c5
            == compose(SQUARE, a5, 4, antichain(2))
        )
        assert report("criterion-6a worked identical-insertion examples", ok)

    def test_criterion_6b_invariance_sweep(self):
        t0 = time.perf_counter()
        violations = sweep_insertion_invariance(max_n=5, max_m=3)
        elapsed = time.perf_counter() - t0
        assert report(
            "criterion-6b identical-insertion sweep (n<=5, m<=3)",
            not violations,
            f"0 violations, {elapsed:.1f}s",
        )

    def test_criterion_6c_semi_equidual_sweep(self):
        t0 = time.perf_counter()
        violations = sweep_semi_equidual(max_n=5, max_m=3)
        elapsed = time.perf_counter() - t0
        assert report(
            "criterion-6c semi-equidual sweep (n<=5, m<=3)",
            not violations,
            f"0 violations, {elapsed:.1f}s",
        )

    def test_criterion_6d_semi_equidual_worked_examples(self):
        a = pm("1000;1100;1010;1001")
        left = compose(SQUARE, a, 2, EX_C)
        right = compose(SQUARE, a, 4, EX_C)
        ok = left == pm("10000;11000;11100;10010;10001")
        ok &= right == pm("10000;11000;10100;10010;10011")
        ok &= semi_equidual(left, right) is not None

        b = pm("1000;0100;1110;1111")
        left2 = compose(SQUARE, b, 1, EX_C)
        right2 = compose(SQUARE, b, 2, EX_C)
        ok &= left2 == pm("10000;11000;00100;11110;11111")
        ok &= right2 == pm("10000;01000;01100;11110;11111")
        ok &= semi_equidual(left2, right2) is not None
        assert report("criterion-6d semi-equidual worked examples", ok)


class TestCriterion7Factorization:
    def test_criterion_7a_worked_example(self):
        c = pm("1000;0100;0110;1111")
        found = factor(c, "square")
        triples = {(f.a, f.i, f.b) for f in found}
        ok = (pm("100;010;111"), 2, EX_C) in triples
        ok &= all(f.recompose() == c for f in found)
        assert report("criterion-7a factorization of the worked 4x4", ok)

    def test_criterion_7b_recompose_identity(self):
        t0 = time.perf_counter()
        ok = True
        for c in all_upto(6, start=3):
            for f in factor(c, "square"):
                ok &= f.recompose() == c
        for c in all_upto(4, start=3):
            for kind in ALL_KINDS:
                for f in factor(c, kind):
                    ok &= f.recompose() == c
        elapsed = time.perf_counter() - t0
        assert report(
            "criterion-7b factor/recompose identity (orders <= 6)",
            ok,
            f"{elapsed:.1f}s",
        )


class TestCriterion8Pascal:
    def test_criterion_8(self):
        t0 = time.perf_counter()
        ok = all(pascal_decomposition_check(n) for n in range(2, 33))
        for n in range(1, 65):
            validate(BinaryMatrix(pascal_matrix(n).rows))
        for n in (2, 4, 8, 16, 32):
            p = pascal_matrix(n)
            ok &= is_self_dual(p)
            ok &= minimal_elements(p) == (1,)
            ok &= maximal_elements(p) == (n,)
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 5.0
        assert report("criterion-8 pascal matrices", ok, f"{elapsed:.2f}s")


class TestCriterion9PropertySuites:
    def test_criterion_9(self):
        """The per-module property suites are the rest of this pytest run;
        here a condensed core invariant from each module is re-checked."""
        t0 = time.perf_counter()
        ok = True
        # core: reassembly and cover closure
        from posetmat import block_decompose, cover_relation
        from posetmat.core import closure_of_covers

        for a in all_upto(4):
            for i in range(1, a.n + 1):
                ok &= block_decompose(a, i).reassemble() == a
            ok &= closure_of_covers(a.n, cover_relation(a)) == a
        # compose: closure and order arithmetic
        for a in all_upto(3):
            for b in all_upto(3):
                for i in range(1, a.n + 1):
                    for kind in ALL_KINDS:
                        try:
                            out = compose(kind, a, i, b)
                        except PreconditionViolated:
                            continue
                        ok &= out.n == a.n + b.n - 1
                        validate(BinaryMatrix(out.rows))
        # duality: involution; enumeration: canonical idempotence
        for a in all_upto(4):
            ok &= dual(dual(a)) == a
            ok &= canonical_form(canonical_form(a)) == canonical_form(a)
        elapsed = time.perf_counter() - t0
        assert report(
            "criterion-9 property-suite smoke (full suites = this pytest run)",
            ok,
            f"{elapsed:.1f}s",
        )
