"""Self-tests of the benchmark's reference and output checks.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no posetmat: each test hands a check a planted wrong output and
asserts that it is rejected, or checks the reference against the paper's
worked examples and the published counts.
"""

import json
import random
import unittest
from types import SimpleNamespace

import cli_workloads as cw
import reference as ref
import session

# The worked example of the paper and README: A of order 4, B of order 3,
# inserted at position 2 under each mask kind.
EX_A = ref.from_bits("1000;1100;1010;1111")
EX_B = ref.from_bits("100;110;101")
EX_COMPOSITES = {
    "square": "100000;110000;111000;110100;100010;111111",
    "min": "100000;110000;111000;110100;100010;110011",
    "max": "100000;010000;111000;110100;100010;111111",
    "minmax": "100000;010000;111000;110100;100010;110011",
}


def laws_output(kind, reports):
    """(exit code, stdout) of `laws --json` as the program would print them."""
    failing = any(r["verdict"] == "fail" for r in reports)
    return 1 if failing else 0, json.dumps(reports)


def sweep_reports(kind, order):
    expected = ref.sweep(kind, order)
    return [dict(law=law, op=kind, **expected[law]) for law in ("nested", "parallel", "unit")]


class ReferenceAgreesWithDefinitions(unittest.TestCase):
    def test_worked_example_compositions(self):
        for kind, bits in EX_COMPOSITES.items():
            self.assertEqual(ref.compose(kind, EX_A, 2, EX_B), ref.from_bits(bits), kind)

    def test_counts_match_oeis(self):
        for n in range(1, 6):
            self.assertEqual(len(ref.all_matrices(n)), ref.A006455[n])
        for n in range(1, 5):
            canon = {ref.canonical_form(m) for m in ref.all_matrices(n)}
            self.assertEqual(len(canon), ref.A000112[n])
            self.assertEqual(sum(ref.connectivity(m)[0] for m in canon), ref.A000608[n])

    def test_compositions_of_poset_matrices_are_poset_matrices(self):
        pool = ref.all_matrices(3)
        for kind in ref.ALL_KINDS:
            for a in pool:
                for b in pool:
                    for i in range(1, 4):
                        c = ref.try_compose(kind, a, i, b)
                        self.assertTrue(c is None or ref.is_poset_matrix(c), kind)

    def test_dual_and_closure(self):
        rng = random.Random(3)
        for _ in range(50):
            a = session.random_poset(rng, rng.randint(1, 12), rng.choice(session.DENSITIES))
            self.assertEqual(ref.dual(ref.dual(a)), a)
            self.assertEqual(ref.closure(len(a), ref.covers(a)), a)
            self.assertEqual(ref.minimal(ref.dual(a)), {len(a) - 1 - q for q in ref.maximal(a)})

    def test_operads_pass_and_minmax_fails_at_order_3(self):
        for kind in ref.OPERAD_KINDS:
            self.assertTrue(all(r["verdict"] == "pass" for r in ref.sweep(kind, 3).values()))
        self.assertEqual(ref.sweep("minmax", 3)["nested"]["verdict"], "fail")


class PlantedWrongOutputsAreRejected(unittest.TestCase):
    def test_min_result_where_max_was_asked(self):
        got = SimpleNamespace(rows=ref.compose("min", EX_A, 2, EX_B))
        self.assertIsNotNone(session.problem(got, ("compose", "max", EX_A, 2, EX_B)))
        right = SimpleNamespace(rows=ref.compose("max", EX_A, 2, EX_B))
        self.assertIsNone(session.problem(right, ("compose", "max", EX_A, 2, EX_B)))

    def test_non_transitive_composite(self):
        bad = ref.from_bits("100;110;011")  # 3 > 2 > 1 but not 3 > 1
        self.assertFalse(ref.is_transitive(bad))
        a, b = ref.from_bits("10;11"), ref.from_bits("1")
        got = SimpleNamespace(rows=bad)
        self.assertIsNotNone(session.problem(got, ("compose", "square", a, 1, b)))

    def test_witness_that_is_not_minimal(self):
        reports = sweep_reports("minmax", 3)
        self.assertEqual(cw.check_laws([cw.laws_commands(0)[3]], [laws_output("minmax", reports)]), [None])
        pools = {n: ref.all_matrices(n) for n in (1, 2, 3)}
        w = reports[0]["witness"]
        later = None  # a genuine nested failure of minmax that sorts after the minimal one
        for a in pools[3]:
            for b in pools[2]:
                for c in pools[2]:
                    for i in range(1, 4):
                        for j in range(1, 3):
                            left, right = ref.nested_sides("minmax", a, b, c, i, j)
                            if left != right:
                                later = ref.witness_dict(a, b, c, i, j, left, right)
        self.assertIsNotNone(later)
        self.assertNotEqual(later, w)
        self.assertIsNone(ref.witness_problem("nested", "minmax", later, 3))
        reports[0]["witness"] = later
        cmd = cw.laws_commands(0)[3]
        self.assertIsNotNone(cw.check_laws([cmd], [laws_output("minmax", reports)])[0])

    def test_random_witness_whose_sides_agree(self):
        a, b, c = ref.from_bits("10;11"), ref.from_bits("10;01"), ref.from_bits("1")
        left, right = ref.nested_sides("square", a, b, c, 1, 1)
        fake = ref.witness_dict(a, b, c, 1, 1, left, right)
        self.assertIsNotNone(ref.witness_problem("nested", "square", fake, 6))

    def test_exit_code_must_follow_the_verdicts(self):
        reports = sweep_reports("minmax", 3)
        cmd = cw.laws_commands(0)[3]
        self.assertIsNotNone(cw.check_laws([cmd], [(0, json.dumps(reports))])[0])

    def test_class_count_off_by_one(self):
        cmds = cw.classes_commands(0)
        header = "order 6: 317 classes (238 connected, 79 disconnected)"
        bad = (0, header + "\n[]\n")
        self.assertIsNotNone(cw.check_classes(cmds, [bad, bad, (0, "")])[0])
        count = f"order 7: {ref.A006455[7] - 1} matrices (all)\n"
        self.assertIsNotNone(cw.check_classes(cmds, [bad, bad, (0, count)])[2])
        count = f"order 7: {ref.A006455[7]} matrices (all)\n"
        self.assertIsNone(cw.check_classes(cmds, [bad, bad, (0, count)])[2])

    def test_wrong_error_type_and_accepted_invalid_matrix(self):
        err = type("NotLowerTriangular", (Exception,), {})()
        self.assertIsNotNone(session.problem(err, ("error", "transitive")))
        self.assertIsNone(session.problem(err, ("error", "triangular")))
        accepted = SimpleNamespace(rows=ref.from_bits("10;11"))
        self.assertIsNotNone(session.problem(accepted, ("error", "reflexive")))

    def test_factorization_missing_or_not_recomposing(self):
        fa, fb = ref.from_bits("10;11"), ref.from_bits("10;01")
        c = ref.compose("square", fa, 2, fb)
        planted = {"kind": "square", "a": fa, "i": 2, "b": fb, "c": c}
        fac = SimpleNamespace(a=SimpleNamespace(rows=fa), i=2, b=SimpleNamespace(rows=fb))
        self.assertIsNone(session.problem((fac,), ("factor", planted)))
        self.assertIsNotNone(session.problem((), ("factor", planted)))
        wrong = SimpleNamespace(a=SimpleNamespace(rows=fa), i=1, b=SimpleNamespace(rows=fb))
        self.assertIsNotNone(session.problem((fac, wrong), ("factor", planted)))

    def test_semi_equidual_witness_that_breaks_the_definition(self):
        s = ref.from_bits("100;110;001")
        t = ref.from_bits("100;010;011")  # the dual of s: s itself is a disconnected block
        self.assertEqual(ref.semi_equidual(s, t), (1, 2, 3))
        self.assertIsNone(session.problem(SimpleNamespace(alpha=(1, 2, 3)), ("semi", s, t)))
        self.assertIsNotNone(session.problem(SimpleNamespace(alpha=(2, 3)), ("semi", s, t)))
        self.assertIsNotNone(session.problem(None, ("semi", s, t)))


if __name__ == "__main__":
    unittest.main()
