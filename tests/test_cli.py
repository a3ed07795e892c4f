import argparse
import contextlib
import io
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmat import cli, enumeration
from posetmat.cli import (
    COMMANDS,
    build_parser,
    export_hasse,
    parse_matrix_file,
    parse_matrix_text,
    run,
    to_json_obj,
    to_pm_text,
)
from posetmat.compose import ALL_KINDS, kind_name
from posetmat.core import ENTRY_BUDGET, BinaryMatrix
from posetmat.enumeration import DEFAULT_ORDER_CAP, generate_all
from posetmat.operad import LAW_CASE_BUDGET
from posetmat.structure import classify_connectivity, factor
from posetmat.errors import ParseError

from helpers import (
    EX_SQUARE,
    MINMAX_EXAMPLE,
    chain,
    covers_by_definition,
    pm,
    random_poset_matrix,
    read_pm_by_spec,
)


# JSON nested deeper than the parser's recursion limit
DEEP_OBJECTS = '{"n":' * 100_000
DEEP_ROWS = '{"n": 1, "rows": ' + "[" * 5000 + "]" * 5000 + "}"


def write(tmp_path, name, text):
    path = tmp_path / name
    # a fresh file: on some file systems truncating a written one costs
    # tens of milliseconds, and the tests rewrite the same names
    path.unlink(missing_ok=True)
    path.write_text(text)
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "A": write(tmp_path, "A.pm", "4\n1000\n1100\n1010\n1111\n"),
        "B": write(tmp_path, "B.pm", "3\n100\n110\n101\n"),
        "chain3": write(tmp_path, "chain3.pm", "3\n100\n110\n111\n"),
        "bad": write(tmp_path, "bad.pm", "3\n100\n110\n011\n"),
        "hasse": write(tmp_path, "hasse.pm", "4\n1000\n1100\n0010\n1011\n"),
        "dir": tmp_path,
    }


class TestParsing:
    def test_pm_format(self):
        assert parse_matrix_text("3\n100\n110\n111\n") == chain(3)

    def test_trailing_newline_optional(self):
        assert parse_matrix_text("2\n10\n11") == chain(2)

    def test_row_too_short(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("2\n10\n1\n")
        assert (err.value.line, err.value.column) == (3, 2)
        assert "too short" in err.value.reason

    def test_row_too_long(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("2\n10\n111\n")
        assert (err.value.line, err.value.column) == (3, 3)

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("2\n10\n1x\n")
        assert (err.value.line, err.value.column) == (3, 2)

    def test_bad_order_line(self):
        for text, reason in (
            ("abc\n", "order is not an integer: 'abc'"),
            ("", "missing order line"),
            ("  \n10\n", "missing order line"),
            ("0\n", "order must be positive, got 0"),
            ("-2\n", "order must be positive, got -2"),
            # ASCII digits only, though int() reads the next three as 3, 3 and 10
            ("\u0663\n100\n110\n111\n", "order is not an integer: '\u0663'"),
            ("+3\n100\n110\n111\n", "order is not an integer: '+3'"),
            ("1_0\n", "order is not an integer: '1_0'"),
            ("\u00b3\n", "order is not an integer: '\u00b3'"),
            ("--3\n", "order is not an integer: '--3'"),
            ("-\n", "order is not an integer: '-'"),
        ):
            with pytest.raises(ParseError) as err:
                parse_matrix_text(text)
            assert (err.value.line, err.value.column, err.value.reason) == (1, 1, reason)

    def test_missing_row(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("3\n100\n110\n")
        assert err.value.line == 4

    def test_extra_line(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("2\n10\n11\n10\n")
        assert err.value.line == 4

    def test_json_form(self):
        assert parse_matrix_text('{"n": 2, "rows": ["10", "11"]}') == chain(2)

    def test_json_schema_error(self):
        for text in (
            '{"n": 2, "rows": ["10"]}',
            '{"n": true, "rows": ["1"]}',
            '{"n": 0, "rows": []}',
            "{\n",
            '{"n": 1}',
            '{"rows": ["1"]}',
            '{"n": 2, "rows": ["10", "1x"]}',
            '{"n": 2, "rows": ["10", 11]}',
            '{"n": 2, "rows": ["10", "110"]}',
            DEEP_OBJECTS,
            DEEP_ROWS,
        ):
            with pytest.raises(ParseError):
                parse_matrix_text(text)

    def test_round_trip_both_formats_exhaustive(self):
        for n in range(1, 7):
            for a in generate_all(n):
                grid = BinaryMatrix(a.rows)
                assert parse_matrix_text(to_pm_text(grid)) == grid
                assert parse_matrix_text(json.dumps(to_json_obj(grid))) == grid

    def test_parse_file(self, files):
        assert parse_matrix_file(files["chain3"]) == chain(3)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xef\xbb\xbf2\n10\n11\n", "line 1, column 1: order is not an integer: '\\ufeff2'"),
        ("2\n1\u00e9\n11\n".encode(), "line 2, column 2: invalid character '\u00e9'"),
        ("\u0663\n100\n110\n111\n".encode(), "line 1, column 1: order is not an integer: '\u0663'"),
    ],
    ids=["bom", "e-acute", "arabic-indic-three"],
)
def test_non_ascii_input_is_a_positioned_parse_error(tmp_path, monkeypatch, capsys, data, message):
    # the same bytes through a file and through "-" end in the same
    # positioned parse error, exit 2
    path = tmp_path / "matrix.pm"
    path.write_bytes(data)
    assert run(["check", str(path)]) == 2
    from_file = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run(["check", "-"]) == 2
    from_stdin = capsys.readouterr()
    assert from_file == from_stdin
    assert from_file.out == "" and from_file.err == f"parse error: {message}\n"


def _plant(rng, rows, fault):
    """The rows of a .pm text with one fault of the given kind planted."""
    n, r = len(rows), rng.randrange(len(rows))
    if fault == "missing row":
        if rng.random() < 0.5:
            del rows[r]
        else:
            rows[r] = rng.choice(("", "  "))
    elif fault == "short row":
        rows[r] = rows[r][: rng.randrange(n)]
    elif fault == "long row":
        rows[r] += "".join(rng.choice("01 ") for _ in range(rng.randint(1, 3))) + "1"
    elif fault == "short and bad":
        kept = rows[r][: rng.randrange(n - 1)] if n > 1 else ""  # n - 1 characters at most
        c = rng.randint(0, len(kept))
        rows[r] = kept[:c] + rng.choice("2x\u0663\udcff") + kept[c:]
    elif fault == "extra line":
        rows += [""] * rng.randint(0, 2) + [rng.choice(("0", "1", "x", rows[r]))]
    else:  # a non-bit character at a random column
        c = rng.randrange(n)
        rows[r] = rows[r][:c] + fault + rows[r][c + 1 :]
    return rows


# one planted fault per text: the non-bit characters are a digit, an inner
# space, an Arabic-Indic three and a lone surrogate (an undecodable byte)
PLANTED_FAULTS = [
    "missing row",
    "short row",
    "long row",
    "2",
    " ",
    "\u0663",
    "\udcff",
    "short and bad",
    "extra line",
]


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_reader_diagnostics_match_the_per_character_reader(fault):
    # the .pm reader checks a row with one C-level test and scans it only
    # when that fails; a per-character reader of the format names the same
    # line, column and message
    rng = random.Random(PLANTED_FAULTS.index(fault))
    for n in range(1, 41):
        for _ in range(3):
            rows = list(random_poset_matrix(rng, n, rng.choice((0.05, 0.2, 0.5))).bit_rows())
            text = f"{n}\n" + "\n".join(_plant(rng, rows, fault)) + "\n"
            with pytest.raises(ParseError) as want:
                read_pm_by_spec(text)
            with pytest.raises(ParseError) as got:
                parse_matrix_text(text)
            assert str(got.value) == str(want.value), repr(text)
            assert (got.value.line, got.value.column) == (want.value.line, want.value.column)


def test_reader_agrees_with_the_per_character_reader_on_valid_texts():
    rng = random.Random(45)
    for n in range(1, 41):
        a = random_poset_matrix(rng, n, rng.choice((0.05, 0.2, 0.5)))
        pad = rng.choice(("", " ", "\t", " \t "))
        text = f"{n}\n" + "".join(f"{pad}{row}{pad}\n" for row in a.bit_rows()) + "\n  \n"
        assert parse_matrix_text(text).codes == read_pm_by_spec(text) == a.codes


@pytest.mark.parametrize("row", ["1\u06630", "10", "1000", "1 0", "1\udcff0", "102", 101, None])
def test_bad_json_row_keeps_its_message(row):
    with pytest.raises(ParseError) as err:
        parse_matrix_text(json.dumps({"n": 3, "rows": ["100", row, "111"]}))
    assert str(err.value) == "line 1, column 1: row 2 is not an n-character bit string"


class TestHasseExport:
    def test_worked_example(self):
        dot = export_hasse(MINMAX_EXAMPLE)
        assert dot == (
            "digraph {\n"
            "  1;\n  2;\n  3;\n  4;\n"
            "  2 -> 1;\n  4 -> 1;\n  4 -> 3;\n"
            "}\n"
        )

    def test_antichain_isolated_nodes(self):
        dot = export_hasse(pm("100;010;001"))
        assert "->" not in dot
        assert dot.count(";") == 3

    def test_chain_path(self):
        dot = export_hasse(chain(3))
        assert "  2 -> 1;" in dot and "  3 -> 2;" in dot

    def test_byte_stable(self):
        assert export_hasse(EX_SQUARE) == export_hasse(EX_SQUARE)

    def test_edges_are_the_covers_by_definition(self, tmp_path, capsys):
        # the whole output of posetmat hasse, written from the cover definition
        rng = random.Random(46)
        pool = list(generate_all(4))
        pool += [random_poset_matrix(rng, 40, d) for d in (0.05, 0.1, 0.2, 0.35)]
        for a in pool:
            path = write(tmp_path, "a.pm", to_pm_text(a))
            assert run(["hasse", path]) == 0
            edges = sorted(covers_by_definition(a), key=lambda p: (p[1], p[0]))
            nodes = "".join(f"  {i};\n" for i in range(1, a.n + 1))
            want = "digraph {\n" + nodes + "".join(f"  {j} -> {i};\n" for i, j in edges) + "}\n"
            assert capsys.readouterr().out == want


class TestCommands:
    def test_check_valid(self, files, capsys):
        assert run(["check", files["chain3"]]) == 0
        assert capsys.readouterr().out.strip() == "valid poset matrix (connected)"

    def test_check_invalid_exit_one(self, files, capsys):
        assert run(["check", files["bad"]]) == 1
        assert "invalid poset matrix" in capsys.readouterr().out

    def test_check_parse_error_exit_two(self, tmp_path, capsys):
        for text, message in (
            ("2\n10\n1\n", "line 3, column 2: row too short"),
            ("", "line 1, column 1: missing order line"),
            ("0\n", "line 1, column 1: order must be positive, got 0"),
            ("{\n", "line 2, column 1: bad JSON: Expecting property name enclosed in double quotes"),
            ('{"n": 1}\n', 'line 1, column 1: JSON matrix needs keys "n" and "rows"'),
            ('{"n": 2, "rows": ["10", "1x"]}\n', "line 1, column 1: row 2 is not an n-character bit string"),
        ):
            assert run(["check", write(tmp_path, "in.pm", text)]) == 2
            assert capsys.readouterr() == ("", f"parse error: {message}\n")

    def test_order_zero_json_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "empty.json", '{"n": 0, "rows": []}')
        for command in ("check", "dual"):
            assert run([command, path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "parse error: line 1, column 1: order must be positive, got 0\n"

    def test_deep_json_exit_two(self, tmp_path, capsys):
        for command, text in (("check", DEEP_OBJECTS), ("dual", DEEP_ROWS)):
            assert run([command, write(tmp_path, "deep.json", text)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("parse error: ") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_check_json(self, files, capsys):
        assert run(["check", "--json", files["hasse"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"valid": True, "n": 4, "connectivity": "connected"}
        assert run(["check", "--json", files["bad"]]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data == {"valid": False, "reason": "a[3,2]=1 and a[2,1]=1 but a[3,1]=0"}

    def test_compose_square_golden(self, files, capsys):
        assert run(["compose", "--op", "square", "--i", "2", files["A"], files["B"]]) == 0
        assert capsys.readouterr().out == to_pm_text(EX_SQUARE)

    def test_compose_boxed(self, files, capsys):
        assert run(["compose", "--op", "boxed:010", "--i", "2", files["A"], files["B"]]) == 0
        out = parse_matrix_text(capsys.readouterr().out)
        assert out.height == 6

    def test_compose_precondition_names_the_first_wrong_entry(self, tmp_path, files, capsys):
        # column 1 below row 2 is 1, 0, 0: entries (4,1) and (5,1) break boxed:111
        a = write(tmp_path, "left.pm", "5\n10000\n01000\n10100\n00010\n00001\n")
        assert run(["compose", "--op", "boxed:111", "--i", "2", a, files["chain3"]]) == 1
        assert capsys.readouterr() == (
            "",
            "error: lower-left block of A at position 2 has entry 0 at (4,1), expected constant 1\n",
        )

    def test_compose_bad_op_exit_two(self, files, capsys):
        assert run(["compose", "--op", "nope", "--i", "1", files["A"], files["B"]]) == 2

    def test_compose_output_file(self, files, capsys):
        target = str(files["dir"] / "out.pm")
        assert run(
            ["compose", "--op", "min", "--i", "2", "-o", target, files["A"], files["B"]]
        ) == 0
        assert parse_matrix_file(target) == BinaryMatrix(
            pm("100000;110000;111000;110100;100010;110011").rows
        )

    def test_laws_minmax_exit_one_with_witness(self, capsys):
        assert run(["laws", "--op", "minmax", "--max-n", "2", "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        nested = next(r for r in reports if r["law"] == "nested")
        assert nested["verdict"] == "fail"
        assert nested["witness"]["a"] == ["10", "11"]

    def test_laws_square_pass(self, capsys):
        assert run(["laws", "--op", "square", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 3

    def test_laws_text_witness(self, capsys):
        texts = {
            "minmax": (
                "nested: fail  (cases=75, skipped=0)\n"
                "  witness: A=10;11 B=10;11 C=10;11 i=1 j=2\n"
                "  left : 1000;0100;1110;1001\n"
                "  right: 1000;0100;1110;1101\n"
                "parallel: pass  (cases=18, skipped=0)\n"
                "unit: pass  (cases=5, skipped=0)\n"
            ),
            "boxed:010": (
                "nested: pass  (cases=51, skipped=24)\n"
                "parallel: pass  (cases=18, skipped=0)\n"
                "unit: fail  (cases=5, skipped=0)\n"
                "  witness: A=10;11 i=1\n"
                "  left : 10;11\n"
                "  right: 10;01\n"
            ),
        }
        for op, text in texts.items():
            assert run(["laws", "--op", op, "--max-n", "2"]) == 1
            assert capsys.readouterr() == (text, "")

    def test_laws_random_seeded(self, capsys):
        assert run(["laws", "--op", "min", "--max-n", "3", "--random", "200"]) == 0

    def test_laws_random_needs_a_trial(self, capsys):
        for trials in ("0", "-5"):
            argv = ["laws", "--op", "square", "--max-n", "3", "--random", trials]
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error: ")

    def test_laws_over_the_case_budget_refused(self, capsys):
        for extra, budget in (
            (["--max-n", "9"], "above the cap 8"),
            (["--max-n", "3", "--random", "10000000000"], "case budget"),
        ):
            assert run(["laws", "--op", "square", *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and budget in captured.err

    def test_semiequidual_over_the_search_budget_refused(self, files, capsys):
        # an antichain against itself with a[2,1] = 1 has no witness: at order
        # 30 the search would test all 2^28 supersets of {1, 2}; at order 10
        # it tests 2^8 of them, and the antichain against itself 2^10 - 11 sets
        def antichain_pair(n):
            a = tuple(1 << r for r in range(n))
            b = (1, 3) + a[2:]
            return [
                write(files["dir"], f"{name}{n}.pm", to_pm_text(BinaryMatrix._of(codes, n)))
                for name, codes in (("a", a), ("b", b))
            ]

        a30, b30 = antichain_pair(30)
        tracemalloc.start()
        try:
            code = run(["semiequidual", a30, b30])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ") and "268435456 index sets" in captured.err
        assert captured.err.count("\n") == 1 and "budget" in captured.err
        assert peak < 5 << 20
        a10, b10 = antichain_pair(10)
        for argv, want in (([a10, b10], None), ([a10, a10], {"alpha": [1, 2]})):
            assert run(["semiequidual", *argv]) == 0
            assert json.loads(capsys.readouterr().out) == want

    def test_dual(self, files, capsys):
        src = write(files["dir"], "m.pm", to_pm_text(pm("1000;1100;1010;1011")))
        assert run(["dual", src]) == 0
        assert parse_matrix_text(capsys.readouterr().out) == pm("1000;1100;0010;1111")

    def test_selfdual(self, files, capsys):
        assert run(["selfdual", files["chain3"]]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert run(["selfdual", files["B"]]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_semiequidual(self, files, capsys):
        a = write(files["dir"], "se_a.pm", to_pm_text(pm("1000;1100;1110;1001")))
        b = write(files["dir"], "se_b.pm", to_pm_text(pm("1000;1100;1010;1011")))
        assert run(["semiequidual", a, b]) == 0
        assert json.loads(capsys.readouterr().out) == {"alpha": [2, 3, 4]}
        assert run(["semiequidual", files["chain3"], files["chain3"]]) == 0
        assert capsys.readouterr().out.strip() == "null"

    def test_json_flag_changes_nothing_where_output_is_json(self, files, capsys):
        for argv in (
            ["selfdual", files["chain3"]],
            ["semiequidual", files["chain3"], files["B"]],
            ["invariance", "--alpha", "1..2", files["chain3"], files["chain3"]],
        ):
            assert run(argv) == 0
            plain = capsys.readouterr().out
            assert run(argv[:1] + ["--json"] + argv[1:]) == 0
            assert capsys.readouterr().out == plain
            json.loads(plain)

    def test_classify(self, files, capsys):
        disc = write(files["dir"], "disc.pm", "3\n100\n110\n001\n")
        assert run(["classify", disc]) == 0
        assert capsys.readouterr().out.strip() == "disconnected (witness: 3)"
        assert run(["classify", files["chain3"]]) == 0
        assert capsys.readouterr().out.strip() == "connected"
        assert run(["classify", "--json", disc]) == 0
        assert capsys.readouterr().out == '{"connectivity": "disconnected", "witness": [3]}\n'
        assert run(["classify", "--json", files["chain3"]]) == 0
        assert capsys.readouterr().out == '{"connectivity": "connected"}\n'

    def test_factor(self, files, capsys):
        c = write(files["dir"], "c.pm", to_pm_text(pm("1000;0100;0110;1111")))
        assert run(["factor", "--op", "square", "--json", c]) == 0
        found = json.loads(capsys.readouterr().out)
        assert {"a": ["100", "010", "111"], "i": 2, "b": ["10", "11"], "op": "square"} in found
        two = write(files["dir"], "two.pm", "2\n10\n11\n")  # both factors need order 2
        assert run(["factor", two]) == 0
        assert capsys.readouterr().out == "no factorization\n"

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_name)
    def test_factor_json_is_written_one_factorization_at_a_time(
        self, monkeypatch, tmp_path, capsys, kind
    ):
        # over PM(<=4), none of whose matrices has more than a few
        # factorizations and some none: --json prints json.dumps of the list
        # of factorizations, in one chunk per factorization and one that
        # closes the list, so the whole text is never held at once
        chunks, emit = [], cli._emit

        def spy(parts, out_path):
            parts = list(parts)
            chunks.append(len(parts))
            emit(parts, out_path)

        monkeypatch.setattr(cli, "_emit", spy)
        name = kind_name(kind)
        for n in range(1, 5):
            for k, m in enumerate(generate_all(n)):
                path = write(tmp_path, f"m{n}-{k}.pm", to_pm_text(m))
                assert run(["factor", "--op", name, "--json", path]) == 0
                facs = factor(m, kind)
                want = [
                    {"a": list(f.a.bit_rows()), "i": f.i, "b": list(f.b.bit_rows()), "op": name}
                    for f in facs
                ]
                assert capsys.readouterr().out == json.dumps(want) + "\n", (name, m)
                assert chunks.pop() == len(facs) + 1
        assert chunks == []

    def test_invariance(self, files, capsys):
        a = write(files["dir"], "inv.pm", to_pm_text(pm("1000;1100;1110;1101")))
        b = write(files["dir"], "c2.pm", "2\n10\n11\n")
        assert run(["invariance", "--alpha", "1..2", a, b]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert run(["invariance", "--alpha", "1,2,3", a, b]) == 0
        assert capsys.readouterr().out.strip() == "false"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0..2", "index 0 outside [1,3]"),
            ("2..9", "index 4 outside [1,3]"),
            ("5..9", "index 5 outside [1,3]"),
            ("-5..2", "index -5 outside [1,3]"),
            ("1..1000000", "index 4 outside [1,3]"),
            ("1..1000000000000", "index 4 outside [1,3]"),
            ("3..1", "alpha () is not a contiguous range"),
        ],
    )
    def test_invariance_alpha_outside_the_order(self, files, capsys, spec, message):
        # a range stops one index past the order, so a huge bound builds nothing
        tracemalloc.start()
        try:
            code = run(["invariance", f"--alpha={spec}", files["chain3"], files["chain3"]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))
        assert peak < 5 << 20

    @pytest.mark.parametrize("spec", ["1,x", "..", "1..2..3"])
    def test_invariance_alpha_malformed(self, files, capsys, spec):
        code = run(["invariance", "--alpha", spec, files["chain3"], files["chain3"]])
        message = f"--alpha must be LO..HI or a comma-separated list of integers, got {spec!r}"
        assert (code, capsys.readouterr()) == (2, ("", f"usage error: {message}\n"))

    def test_enumerate_counts(self, capsys):
        assert run(["enumerate", "--n", "4"]) == 0
        assert "40 matrices" in capsys.readouterr().out
        assert run(["enumerate", "--n", "4", "--classes"]) == 0
        out = capsys.readouterr().out
        assert "16 classes" in out and "10 connected" in out

    def test_enumerate_filtered_to_file(self, files, capsys):
        target = str(files["dir"] / "conn3.pm")
        assert run(
            ["enumerate", "--n", "3", "--filter", "connected", "-o", target]
        ) == 0
        lines = open(target).read().strip().split("\n")
        blocks = [lines[p : p + 4] for p in range(0, len(lines), 4)]
        assert len(blocks) == 3
        assert all(b[0] == "3" for b in blocks)
        parsed = {parse_matrix_text("\n".join(b)) for b in blocks}
        assert parsed == {pm("100;110;111"), pm("100;010;111"), pm("100;110;101")}

    def test_enumerate_json_stream(self, capsys):
        assert run(["enumerate", "--n", "2", "--format", "json", "--print"]) == 0
        out = capsys.readouterr().out
        listing = json.loads(out.splitlines()[-1])
        assert listing == [
            {"n": 2, "rows": ["10", "01"]},
            {"n": 2, "rows": ["10", "11"]},
        ]

    def test_enumerate_prints_only_its_header(self, capsys):
        assert run(["enumerate", "--n", "5"]) == 0
        assert capsys.readouterr().out == "order 5: 357 matrices (all)\n"

    def test_enumerate_bodies_at_order_three(self, files, capsys):
        listings = {
            (): (
                "order 3: 7 matrices (all)\n",
                "100;010;001 100;010;011 100;010;101 100;010;111 "
                "100;110;001 100;110;101 100;110;111",
            ),
            ("--classes",): (
                "order 3: 5 classes (3 connected, 2 disconnected)\n",
                "100;010;001 100;010;011 100;010;111 100;110;101 100;110;111",
            ),
        }
        for extra, (header, listing) in listings.items():
            listing = listing.split()
            bodies = {
                "pm": "".join("3\n" + m.replace(";", "\n") + "\n" for m in listing),
                "json": json.dumps([{"n": 3, "rows": m.split(";")} for m in listing])
                + "\n",
            }
            for fmt, body in bodies.items():
                argv = ["enumerate", "--n", "3", *extra, "--format", fmt]
                assert run(argv + ["--print"]) == 0
                assert capsys.readouterr().out == header + body
                target = files["dir"] / f"out.{fmt}"
                assert run(argv + ["-o", str(target)]) == 0
                assert capsys.readouterr().out == header
                assert target.read_text() == body

    def test_enumerate_bodies_match_the_materialised_listing(self, files, capsys):
        # the streamed bodies against the whole level formatted at once
        for n in range(1, 6):
            for which in ("all", "connected", "disconnected"):
                listing = [
                    m
                    for m in generate_all(n)
                    if which == "all"
                    or classify_connectivity(m).connected == (which == "connected")
                ]
                header = f"order {n}: {len(listing)} matrices ({which})\n"
                bodies = {
                    "pm": "".join(to_pm_text(m) for m in listing),
                    "json": json.dumps([to_json_obj(m) for m in listing]) + "\n",
                }
                for fmt, body in bodies.items():
                    argv = ["enumerate", "--n", str(n), "--filter", which, "--format", fmt]
                    assert run(argv + ["--print"]) == 0
                    assert capsys.readouterr() == (header + body, "")
                    target = files["dir"] / f"out.{fmt}"
                    assert run(argv + ["-o", str(target)]) == 0
                    assert capsys.readouterr() == (header, "")
                    assert target.read_text() == body

    def test_enumerate_classes_computes_no_labelled_count(self, files, capsys, monkeypatch):
        # the listing prints no labelled count, so it places no ideal
        filters = ("all", "connected", "disconnected")
        listings = {which: enumeration.classes(6, which) for which in filters}

        def refuse(*args):
            raise AssertionError("labelled counts computed")

        monkeypatch.setattr(enumeration, "_placements", refuse)
        for which, cls in listings.items():
            n_conn = sum(1 for c in cls if c.connected)
            header = (
                f"order 6: {len(cls)} classes "
                f"({n_conn} connected, {len(cls) - n_conn} disconnected)\n"
            )
            bodies = {
                "pm": "".join(to_pm_text(c.canonical) for c in cls),
                "json": json.dumps([to_json_obj(c.canonical) for c in cls]) + "\n",
            }
            for fmt, body in bodies.items():
                argv = ["enumerate", "--n", "6", "--classes", "--filter", which, "--format", fmt]
                assert run(argv + ["--print"]) == 0
                assert capsys.readouterr() == (header + body, "")
                target = files["dir"] / f"classes.{fmt}"
                assert run(argv + ["-o", str(target)]) == 0
                assert capsys.readouterr() == (header, "")
                assert target.read_text() == body

    def test_enumerate_count_builds_no_level(self, capsys):
        # PM(7) alone, as generate_all builds it, takes tens of MiB
        tracemalloc.start()
        try:
            code = run(["enumerate", "--n", "7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr()) == (0, ("order 7: 96428 matrices (all)\n", ""))
        assert peak < 5 << 20

    def test_pascal(self, capsys):
        assert run(["pascal", "--n", "4"]) == 0
        assert parse_matrix_text(capsys.readouterr().out) == pm("1000;1100;1010;1111")

    def test_pascal_over_the_entry_budget_refused(self, capsys):
        tracemalloc.start()
        try:
            code = run(["pascal", "--n", "1000000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ") and "budget" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert peak < 5 << 20

    def test_pascal_order_2000_prints_every_row(self, capsys):
        # row i holds column j iff the bits of j-1 sit inside those of i-1
        # (Lucas); each row's code is the sum over the submasks of i-1
        n, rows = 2000, []
        for i in range(n):
            code, sub = 0, i
            while True:
                code |= 1 << sub
                if not sub:
                    break
                sub = (sub - 1) & i
            rows.append(format(code, f"0{n}b")[::-1] + "\n")
        assert run(["pascal", "--n", str(n)]) == 0
        assert capsys.readouterr().out == f"{n}\n" + "".join(rows)

    def test_hasse_command(self, files, capsys):
        assert run(["hasse", files["hasse"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph {") and "4 -> 3;" in out

    def test_missing_file_exit_two(self, capsys):
        assert run(["check", "/nonexistent/x.pm"]) == 2

    def test_directory_as_input_or_output_exit_two(self, files, capsys):
        d = str(files["dir"])
        for argv, prefix in (
            (["check", d], "cannot read file: "),
            (["dual", "-o", d, files["chain3"]], "cannot write file: "),
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(prefix)
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_unwritable_output_says_write(self, files, capsys):
        out = str(files["dir"] / "missing" / "out.pm")
        for argv in (
            ["compose", "--op", "square", "--i", "1", "-o", out, files["A"], files["B"]],
            ["dual", "-o", out, files["chain3"]],
            ["pascal", "--n", "4", "-o", out],
            ["enumerate", "--n", "3", "-o", out],
            ["hasse", "-o", out, files["hasse"]],
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err
            assert err.startswith("cannot write file: ") and out in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_json_flag_rejected_where_no_json_output(self, files, capsys):
        for argv in (["enumerate", "--n", "3", "--json"], ["hasse", "--json", files["hasse"]]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--json" in captured.err


BIG = 10**40
NON_POSITIVE = st.integers(-BIG, 0)


def _above(bound):
    return st.integers(bound + 1, BIG)


@pytest.fixture(scope="module")
def order_two(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrices") / "chain2.pm"
    path.write_text("2\n10\n11\n")
    return str(path)


def _argv(order_two, case):
    """The command line for one drawn (where, value); only values that are
    refused, or cheap, are drawn, so no run starts long work."""
    where, x = case
    m = order_two
    return {
        "laws --max-n": ["laws", "--op", "square", "--max-n", str(x)],
        "laws --random": ["laws", "--op", "square", "--max-n", "2", "--random", str(x)],
        "laws --seed": ["laws", "--op", "minmax", "--max-n", "2", "--random", "5", "--seed", str(x)],
        "enumerate --n": ["enumerate", "--n", str(x)],
        "pascal --n": ["pascal", "--n", str(x)],
        "compose --i": ["compose", "--op", "square", "--i", str(x), m, m],
        "invariance --alpha": ["invariance", f"--alpha={x}", m, m],
    }[where]


# laws refuses orders from 9 up by the order cap; an order-8 draw would run
# a whole sweep
ARGUMENTS = st.one_of(
    st.tuples(st.just("laws --max-n"), NON_POSITIVE | _above(DEFAULT_ORDER_CAP)),
    st.tuples(st.just("laws --random"), NON_POSITIVE | _above(LAW_CASE_BUDGET // 3)),
    st.tuples(st.just("laws --seed"), st.integers(-BIG, BIG)),
    st.tuples(st.just("enumerate --n"), NON_POSITIVE | _above(DEFAULT_ORDER_CAP)),
    st.tuples(st.just("pascal --n"), NON_POSITIVE | _above(int(ENTRY_BUDGET**0.5))),
    st.tuples(st.just("compose --i"), NON_POSITIVE | _above(2)),
    # a range over the order-2 matrix is refused where it starts outside
    # [1, 2] or runs past 2; a list, where an index is outside
    st.tuples(
        st.just("invariance --alpha"),
        st.builds("{}..{}".format, NON_POSITIVE | _above(2), st.integers(-BIG, BIG))
        | st.builds("{}..{}".format, st.integers(-BIG, BIG), _above(2))
        | st.builds("1,{}".format, NON_POSITIVE | _above(2)),
    ),
)


@settings(max_examples=300, deadline=2000)
@given(case=ARGUMENTS)
def test_any_integer_argument_ends_at_once(order_two, case):
    # huge and non-positive integers end in a refusal (exit 1 or 2) with one
    # line on stderr and nothing on stdout; a seed is always cheap here, and
    # the run ends with its verdict (exit 0 or 1).  The deadline says "at once".
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv(order_two, case))
    if case[0] == "laws --seed":
        assert code in (0, 1) and err.getvalue() == ""
        assert out.getvalue().startswith("nested: ")
    else:
        assert code in (1, 2), case
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith(("error: ", "usage error: ")), message
        assert message.count("\n") == 1 and "Traceback" not in message


# spellings that int() reads but the CLI refuses: the digits of other
# scripts (Arabic-Indic, fullwidth), a plus sign, underscores and spaces
INTEGER_SPELLINGS = ["\u0663", "\uff13", "+3", "1_0", " 3", "3 ", "3\n"]


def _integer_argvs(m):
    """(flag, argv with the value x) for each integer flag of the CLI."""
    return {
        "pascal --n": lambda x: ["pascal", "--n", x],
        "enumerate --n": lambda x: ["enumerate", "--n", x],
        "compose --i": lambda x: ["compose", "--op", "square", "--i", x, m, m],
        "laws --max-n": lambda x: ["laws", "--op", "square", "--max-n", x],
        "laws --random": lambda x: ["laws", "--op", "square", "--max-n", "2", "--random", x],
        "laws --seed": lambda x: ["laws", "--op", "square", "--max-n", "2", "--random", "3", "--seed", x],
    }


def test_integer_flags_are_all_read_by_the_strict_reader():
    # every flag that takes an integer names the one reader as its type
    types = {k.get("type") for name in COMMANDS for f, k in COMMANDS[name][2]}
    assert types == {None, cli._integer}
    assert [cli._integer(x) for x in ("0", "7", "-1", "0012")] == [0, 7, -1, 12]


@pytest.mark.parametrize("value", INTEGER_SPELLINGS)
@pytest.mark.parametrize("where", list(_integer_argvs("A")))
def test_integer_flags_refuse_other_spellings(order_two, where, value):
    # exit 2, nothing on stdout, and argparse's one error line after the
    # usage, which names the flag and the value as before
    code, out, err = _outcome(_integer_argvs(order_two)[where](value))
    flag = where.split()[1]
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n"), err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["\u0661..\u0662", "1..\uff12", "+1..2", "1_0..2", "1, 2", "1,+2"])
def test_alpha_refuses_other_integer_spellings(order_two, spec):
    code, out, err = _outcome(["invariance", "--alpha", spec, order_two, order_two])
    message = f"--alpha must be LO..HI or a comma-separated list of integers, got {spec!r}"
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_negative_seed_keeps_the_argparse_path():
    # a value that starts with "-" is never plain, and argparse reads it
    argv = ["laws", "--op", "minmax", "--max-n", "3", "--random", "5", "--seed", "-1"]
    assert cli._plain_args(argv) is None
    code, out, err = _outcome(argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "nested: pass  (cases=5, skipped=0)"


# per command: a valid argv, one missing a required argument and one with a
# value of the wrong type (or shape); "A" and "B" stand for matrix files
PARSER_CASES = {
    "check": (["A"], [], ["--json=1", "A"]),
    "compose": (
        ["--op", "square", "--i", "2", "A", "B"],
        ["--op", "square", "A", "B"],
        ["--op", "square", "--i", "x", "A", "B"],
    ),
    "laws": (
        ["--op", "square", "--max-n", "2"],
        ["--op", "square"],
        ["--op", "square", "--max-n", "x"],
    ),
    "dual": (["A"], [], ["--json=1", "A"]),
    "selfdual": (["A"], [], ["--json=1", "A"]),
    "semiequidual": (["A", "B"], ["A"], ["--json=1", "A", "B"]),
    "classify": (["A"], [], ["--json=1", "A"]),
    "factor": (["A"], [], ["--json=1", "A"]),
    "invariance": (
        ["--alpha", "1..2", "A", "B"],
        ["A", "B"],
        ["--json=1", "--alpha", "1", "A", "B"],
    ),
    "enumerate": (["--n", "3"], [], ["--n", "three"]),
    "pascal": (["--n", "3"], [], ["--n", "3.0"]),
    "hasse": (["A"], [], ["A", "-o"]),
}


def _parser_argvs():
    """(id, argv, what its stderr must hold or None) for each command's
    cases, then those of the top-level parser."""
    for name, (valid, missing, wrong) in PARSER_CASES.items():
        yield f"{name}-valid", [name, *valid], None
        yield f"{name}-help", [name, "--help"], None
        yield f"{name}-missing", [name, *missing], None
        yield f"{name}-wrong", [name, *wrong], None
        yield f"{name}-extra", [name, *valid, "--bogus"], None
    # the full parser names the subcommand action `command` in its messages
    yield "empty", [], "error: the following arguments are required: command\n"
    yield "help", ["-h"], None
    yield "misspelt", ["lawz"], "error: argument command: invalid choice: 'lawz'"


def _outcome(argv):
    """(exit code, stdout, stderr) of run(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_parser_cases_cover_every_command():
    assert list(PARSER_CASES) == list(COMMANDS)


@pytest.mark.parametrize(
    "case, argv, message", [pytest.param(*c, id=c[0]) for c in _parser_argvs()]
)
def test_run_answers_as_the_full_parser(files, monkeypatch, case, argv, message):
    # run reads a plain argv (each command's valid one) without building a
    # parser, and hands every other argv to the full parser; either way it
    # answers as the full parser does: the same exit code, stdout and
    # stderr, usage lines and error messages included
    paths = {"A": files["A"], "B": files["B"]}
    argv = [paths.get(x, x) for x in argv]
    builds = []

    def spy():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    got = _outcome(argv)
    assert len(builds) == (0 if case.endswith("-valid") else 1)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert got == _outcome(argv)
    if message is not None:
        assert message in got[2]


# what each command's flags take: values that pass, values that argparse
# reads another way or refuses, and stray tokens of every kind
_ODD = ["-1", "-", "", " 3", "3 ", "+3", "3_0", "\u0663", "\uff13", "x"]
_VALUES = {cli._integer: ["0", "2", "3"], str: ["square", "minmax", "1..2", "A"]}
_STRAYS = ["--", "-h", "-o", "--bogus", "-1", "-", "", "A", "B", "extra"]


def _pieces(name, odd):
    """A strategy for one piece of a command line after name: a flag and
    its value, or a positional.  With odd, also a flag spelt with "=" or
    abbreviated, a flag without its value, a value argparse reads another
    way or refuses, or a stray token."""
    pieces = [st.lists(st.sampled_from(_STRAYS), min_size=1, max_size=2)] if odd else []
    for flags, kwargs in COMMANDS[name][2]:
        if not flags[0].startswith("-"):
            pieces.append(st.sampled_from([["A"], ["B"], ["-"], [""]] if odd else [["A"]]))
            continue
        spelt = st.sampled_from(flags)
        if odd:
            spelt |= st.sampled_from([f[:k] for f in flags for k in range(2, len(f))] or flags)
        if kwargs.get("action") == "store_true":
            pieces.append(st.builds(lambda f: [f], spelt))
            if odd:
                pieces.append(st.builds(lambda f: [f + "=1"], spelt))
            continue
        value = st.sampled_from([*kwargs.get("choices", ()), *_VALUES[kwargs.get("type", str)]])
        if odd:
            value |= st.sampled_from(_ODD + ["odd"])
        pieces.append(st.builds(lambda f, v: [f, v], spelt, value))
        if odd:
            pieces.append(st.builds(lambda f, v: [f"{f}={v}"], spelt, value))
            pieces.append(st.builds(lambda f: [f], spelt))
    return st.one_of(pieces)


@st.composite
def _command_lines(draw):
    name = draw(st.sampled_from([*COMMANDS, "lawz", "-h", ""]))
    if name not in COMMANDS:
        return [name, *draw(st.lists(st.sampled_from(_STRAYS), max_size=2))]
    # a valid command line with some pieces removed and some added, shuffled
    valid = PARSER_CASES[name][0]
    pieces = [valid[k : k + 2] for k in range(0, len(valid), 2)]
    pieces = [piece for piece in pieces if draw(st.integers(0, 4))]
    pieces += draw(st.lists(_pieces(name, False), max_size=2))
    pieces += draw(st.lists(_pieces(name, True), max_size=1))
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


# one full parser for every example below, since parsing leaves a parser as
# it was (test_parsing_leaves_the_parser_unchanged)
_PARSER = build_parser()


@settings(max_examples=400, deadline=None)
@given(argv=_command_lines())
def test_plain_reader_agrees_with_the_full_parser(argv):
    # whenever the plain reader answers, argparse answers the same
    plain = cli._plain_args(argv)
    if plain is not None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                parsed = _PARSER.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv!r}: {err.getvalue()}")
        assert vars(plain) == vars(parsed)


# the command lines of the benchmark's workloads and of the CI smoke step
PLAIN_ARGVS = [
    *(["laws", "--op", kind_name(k), "--max-n", "3", "--json"] for k in ALL_KINDS),
    *(
        ["laws", "--op", kind, "--max-n", "6", "--random", "1000", "--seed", str(seed), "--json"]
        for kind in ("square", "min", "max", "minmax")
        for seed in (0, 1, 2**31 - 1)
    ),
    ["enumerate", "--n", "6", "--classes", "--format", "json", "--print"],
    ["enumerate", "--n", "6", "--classes", "--filter", "connected", "--format", "json", "--print"],
    ["enumerate", "--n", "7"],
    ["enumerate", "--n", "8"],
    ["enumerate", "--n", "8", "--filter", "connected"],
    ["enumerate", "--n", "8", "--filter", "disconnected"],
    ["enumerate", "--n", "8", "--classes"],
    ["check", "."],
    ["check", "deep.json"],
    ["laws", "--op", "minmax", "--max-n", "2"],
    ["laws", "--op", "boxed:110", "--max-n", "6", "--random", "1000", "--seed", "1"],
    ["laws", "--op", "minmax", "--max-n", "3"],
    ["pascal", "--n", "1000000000000"],
]


def _parser_state(obj, seen):
    """Everything argparse keeps in obj: a parser, argument group or action
    as the state of each of its attributes, lists, tuples and dicts item by
    item, each parser, group or action once (then by its place in seen),
    and any other value as itself."""
    if isinstance(obj, (argparse._ActionsContainer, argparse.Action)):
        if id(obj) in seen:
            return seen[id(obj)]
        seen[id(obj)] = len(seen)
        return type(obj), {k: _parser_state(v, seen) for k, v in vars(obj).items()}
    if isinstance(obj, (list, tuple)):
        return type(obj), [_parser_state(x, seen) for x in obj]
    if isinstance(obj, dict):
        return {k: _parser_state(v, seen) for k, v in obj.items()}
    return obj


def test_parsing_leaves_the_parser_unchanged():
    # every command line of PARSER_CASES (valid, missing an argument and
    # malformed), the benchmark's and CI's, and unknown commands: parsing
    # each, or refusing it, leaves the parser's whole state as it was
    parser = build_parser()
    before = _parser_state(parser, {})
    argvs = [[name, *argv] for name, cases in PARSER_CASES.items() for argv in cases]
    argvs += [*PLAIN_ARGVS, ["lawz"], ["-h"], []]
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pass
            assert _parser_state(parser, {}) == before, argv


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=" ".join)
def test_benchmark_and_ci_command_lines_are_plain(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(build_parser().parse_args(argv))
