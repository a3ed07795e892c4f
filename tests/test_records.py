"""The result types are immutable slotted records (core.Record): their
printed form, equality, hashing, construction and copying, and that the CLI
imports without the modules that dataclasses would pull in."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import posetmat
from posetmat import (
    BinaryMatrix,
    Boxed,
    block_decompose,
    classes,
    classify_connectivity,
    compose,
    factor,
    verify_laws,
)
from posetmat.core import BlockView, Record
from posetmat.duality import SemiEquidualWitness
from posetmat.enumeration import IsoClass
from posetmat.operad import LawReport, Witness
from posetmat.structure import ConnectivityClass, Factorization

from helpers import pm

# One record of each type, with its repr as the frozen dataclasses printed it.
REPRS = [
    (lambda: Boxed(1, 1, 0), "Boxed(u=1, a21=1, v=0)"),
    (
        lambda: block_decompose(pm("100;110;111"), 2),
        "BlockView(i=2, a11=PosetMatrix('1'), row=(1,), col=(1,), a21=BinaryMatrix('1'), "
        "a22=PosetMatrix('1'))",
    ),
    (
        lambda: SemiEquidualWitness((1, 2), pm("10;01"), pm("10;01")),
        "SemiEquidualWitness(alpha=(1, 2), block_a=PosetMatrix('10;01'), "
        "block_b=PosetMatrix('10;01'))",
    ),
    (
        lambda: classes(2)[1],
        "IsoClass(canonical=PosetMatrix('10;11'), labeled_count=1, connected=True)",
    ),
    (
        lambda: verify_laws("minmax", 2)[0].witness,
        "Witness(a=PosetMatrix('10;11'), b=PosetMatrix('10;11'), c=PosetMatrix('10;11'), "
        "i=1, j=2, left=PosetMatrix('1000;0100;1110;1001'), "
        "right=PosetMatrix('1000;0100;1110;1101'))",
    ),
    (
        lambda: verify_laws("square", 1)[2],
        "LawReport(law='unit', kind='square', verdict='pass', cases_checked=1, "
        "cases_skipped=0, witness=None)",
    ),
    (
        lambda: classify_connectivity(pm("10;01")),
        "ConnectivityClass(connected=False, witness=(1,))",
    ),
    (
        lambda: factor(pm("100;010;001"), Boxed(0, 0, 0))[0],
        "Factorization(a=PosetMatrix('10;01'), i=1, b=PosetMatrix('10;01'), "
        "kind=Boxed(u=0, a21=0, v=0))",
    ),
]
TYPES = [Boxed, BlockView, SemiEquidualWitness, IsoClass, Witness, LawReport,
         ConnectivityClass, Factorization]
IDS = [t.__name__ for t in TYPES]


def _values(rec):
    return tuple(getattr(rec, f) for f in type(rec).__slots__)


@pytest.mark.parametrize("make, text", REPRS, ids=IDS)
class TestEachRecord:
    def test_repr(self, make, text):
        assert repr(make()) == text

    def test_equal_and_hash_by_fields(self, make, text):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(_values(a))
        assert a != _values(a) and not a != b

    def test_fields_cannot_be_assigned_or_deleted(self, make, text):
        rec = make()
        field = type(rec).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert not hasattr(rec, "__dict__")

    @pytest.mark.parametrize(
        "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, make, text, clone):
        rec = make()
        back = clone(rec)
        assert type(back) is type(rec) and back == rec and repr(back) == text

    def test_positional_and_keyword_construction(self, make, text):
        rec = make()
        cls, values = type(rec), _values(rec)
        assert cls(*values) == rec
        assert cls(**dict(zip(cls.__slots__, values))) == rec
        assert cls(values[0], **dict(zip(cls.__slots__[1:], values[1:]))) == rec

    def test_missing_or_extra_field_is_a_type_error(self, make, text):
        rec = make()
        cls, values = type(rec), _values(rec)
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, bogus=1)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{cls.__slots__[0]: values[0]})


def test_every_result_type_is_a_record_annotated_field_by_field():
    for t in TYPES:
        assert issubclass(t, Record) and tuple(t.__annotations__) == t.__slots__, t


@pytest.mark.parametrize("m", [pm("100;110;101"), BinaryMatrix.from_bits("01;11;10")])
@pytest.mark.parametrize(
    "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_matrices_round_trip(m, clone):
    back = clone(m)
    assert type(back) is type(m) and back == m


def test_records_of_different_types_differ():
    a = SemiEquidualWitness(1, 2, 3)
    assert a != IsoClass(1, 2, 3) and a == SemiEquidualWitness(1, 2, 3)


def test_properties_read_the_fields():
    assert ConnectivityClass(False, (1,)).kind == "disconnected"
    assert LawReport("unit", "square", "pass", 1, 0, None).passed


class TestBoxed:
    def test_forbidden_pattern_message(self):
        with pytest.raises(ValueError, match=r"^fill triple \(1,0,1\) is not one of the seven "
                                             r"admissible patterns$"):
            Boxed(1, 0, 1)

    def test_keyword_construction_is_checked(self):
        assert Boxed(u=1, a21=1, v=0) == Boxed(1, 1, 0)
        with pytest.raises(ValueError):
            Boxed(u=1, a21=0, v=1)
        with pytest.raises(TypeError):
            Boxed(1, 1)

    def test_a_plain_tuple_is_not_a_kind(self):
        assert Boxed(1, 1, 1) != (1, 1, 1)
        a, b = pm("10;11"), pm("1")
        with pytest.raises(ValueError, match="unknown composition kind"):
            compose((1, 1, 1), a, 1, b)
        assert compose(Boxed(1, 1, 1), a, 1, b) == a


def _fresh(probe):
    """What a fresh `python -S` prints for probe, with this posetmat on its path."""
    src = Path(posetmat.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_cli_import_needs_no_dataclasses_inspect_or_typing():
    probe = (
        "import sys, posetmat.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    assert _fresh(probe) == ""


def test_plain_command_line_touches_no_argparse_parser():
    # A plain command line is read from the command table: no parser is
    # built, so argparse's messages never look up a translation (locale).
    probe = (
        "import argparse, sys; made = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = lambda *a, **k: made.append(1) or init(*a, **k); "
        "import posetmat.cli; "
        "code = posetmat.cli.run(['laws', '--op', 'square', '--max-n', '3', '--json']); "
        "print(code, 'locale' in sys.modules, len(made))"
    )
    assert _fresh(probe).splitlines()[-1] == "0 False 0"


def test_cli_import_leaves_no_object_to_the_older_generations():
    # The import froze what it made, so no collection a command triggers
    # traverses the program's modules, classes and functions.
    probe = "import gc, posetmat.cli; print(gc.get_freeze_count(), len(gc.get_objects(1)), len(gc.get_objects(2)))"
    frozen, older, oldest = map(int, _fresh(probe).split())
    assert frozen > 1000 and older == oldest == 0


def test_no_command_imports_a_module(tmp_path):
    # Every module a command needs comes with posetmat.cli, so no command
    # compiles or loads one inside cli.run: random and exhaustive laws,
    # the class listing and the commands on small files.
    a, b = tmp_path / "a.pm", tmp_path / "b.pm"
    a.write_text("4\n1000\n1100\n1010\n1111\n")
    b.write_text("3\n100\n110\n101\n")
    argvs = [
        ["laws", "--op", "minmax", "--max-n", "5", "--random", "100", "--seed", "1"],
        ["laws", "--op", "boxed:110", "--max-n", "3"],
        ["enumerate", "--n", "4", "--classes", "--format", "json", "--print"],
        ["factor", str(a)],
        ["compose", "--op", "square", "--i", "2", str(a), str(b)],
        ["hasse", str(a)],
        ["dual", str(a)],
        ["check", str(a)],
    ]
    probe = (
        "import contextlib, io, sys, posetmat.cli; before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [posetmat.cli.run(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(set(sys.modules) - before))"
    )
    assert _fresh(probe) == "[1, 1, 0, 0, 0, 0, 0, 0] []"
