"""Command-line interface and file formats.

Matrix text format (".pm"): first line the decimal order n, then n lines of
exactly n characters from {0,1}; trailing newline optional.  A JSON form
{"n": 3, "rows": ["100", "110", "111"]} is accepted and emitted
equivalently.  Exit codes: 0 success, 1 domain error (invalid matrix,
violated law), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import duality, enumeration, pascal, structure
from .compose import compose, kind_name, parse_kind
from .core import BinaryMatrix, PosetMatrix, cover_relation, validate
from .errors import ParseError, PosetMatError, ValidationError
from .operad import verify_laws

USAGE_EXIT = 2
DOMAIN_EXIT = 1


def _integer(text: str) -> int:
    """The integer written in ASCII digits after at most one minus sign, the
    one integer reader of the CLI and the .pm order line.  int() would also
    read "+3", " 3", "1_0" and the digits of other scripts; past int()'s
    digit limit this raises ValueError too."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# argparse names a flag's type by __name__ in its message "invalid int value"
_integer.__name__ = "int"


def parse_matrix_text(text: str) -> BinaryMatrix:
    """Parse the .pm format or its JSON form, with positioned diagnostics."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_matrix(text)
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, 1, "missing order line")
    order = lines[0].strip()
    try:
        n = _integer(order)
    except ValueError:
        raise ParseError(1, 1, f"order is not an integer: {order!r}")
    if n < 1:
        raise ParseError(1, 1, f"order must be positive, got {n}")
    rows = [line.strip() for line in lines[1 : n + 1]]
    for lineno, line in enumerate(rows, 2):
        if len(line) != n or line.strip("01"):  # one C-level test; the scan below finds the fault
            if not line:
                raise ParseError(lineno, 1, "missing row")
            if len(line) < n:
                raise ParseError(lineno, len(line) + 1, "row too short")
            if len(line) > n:
                raise ParseError(lineno, n + 1, "row too long")
            for c, ch in enumerate(line):
                if ch not in "01":
                    raise ParseError(lineno, c + 1, f"invalid character {ch!r}")
    if len(rows) < n:
        raise ParseError(len(rows) + 2, 1, "missing row")
    for lineno in range(n + 2, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise ParseError(lineno, 1, "unexpected extra line")
    return BinaryMatrix._of(tuple([int(line[::-1], 2) for line in rows]), n)


def _parse_json_matrix(text: str) -> BinaryMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.colno, f"bad JSON: {e.msg}")
    except RecursionError:
        raise ParseError(1, 1, "bad JSON: nested too deeply")
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise ParseError(1, 1, 'JSON matrix needs keys "n" and "rows"')
    n, rows = data["n"], data["rows"]
    if type(n) is not int:  # JSON true would pass as an int
        raise ParseError(1, 1, f'"n" must be an integer, got {json.dumps(n)}')
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(1, 1, f'"rows" must list exactly n={n} strings')
    if n < 1:
        raise ParseError(1, 1, f"order must be positive, got {n}")
    for r, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != n or row.strip("01"):
            raise ParseError(1, 1, f"row {r + 1} is not an n-character bit string")
    return BinaryMatrix._of(tuple([int(row[::-1], 2) for row in rows]), n)


def parse_matrix_file(path) -> BinaryMatrix:
    """Parse a matrix file, or stdin for "-".  A file is read as UTF-8 with
    undecodable bytes kept as lone surrogates, so that any byte outside the
    format, a BOM or an accented letter, is a positioned ParseError."""
    if path == "-":
        return parse_matrix_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_matrix_text(fh.read())


def to_pm_text(m) -> str:
    return "\n".join([str(m.height)] + list(m.bit_rows())) + "\n"


def to_json_obj(m) -> dict:
    return {"n": m.height, "rows": list(m.bit_rows())}


def export_hasse(a: PosetMatrix) -> str:
    """DOT digraph of the Hasse diagram: edge j -> i for each cover (i, j)."""
    lines = ["digraph {"]
    lines += [f"  {i};" for i in range(1, a.n + 1)]
    lines += [f"  {j} -> {i};" for i, j in sorted(cover_relation(a), key=lambda p: (p[1], p[0]))]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_poset(path) -> PosetMatrix:
    return validate(parse_matrix_file(path))


class _WriteError(Exception):
    """An -o file could not be written; carries the OSError's message."""


def _emit(chunks, out_path) -> None:
    """Write the strings of chunks, in order, to out_path or else to stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.writelines(chunks)
        except OSError as e:
            raise _WriteError(e) from e
    else:
        sys.stdout.writelines(chunks)


def _emit_matrix(m, args) -> None:
    text = json.dumps(to_json_obj(m)) + "\n" if args.json else to_pm_text(m)
    _emit((text,), args.output)


def cmd_check(args) -> int:
    try:
        a = _load_poset(args.matrix)
    except ValidationError as e:
        if args.json:
            print(json.dumps({"valid": False, "reason": str(e)}))
        else:
            print(f"invalid poset matrix: {e}")
        return DOMAIN_EXIT
    cls = structure.classify_connectivity(a)
    if args.json:
        print(json.dumps({"valid": True, "n": a.n, "connectivity": cls.kind}))
    else:
        print(f"valid poset matrix ({cls.kind})")
    return 0


def cmd_compose(args) -> int:
    kind = parse_kind(args.op)
    a = _load_poset(args.a)
    b = _load_poset(args.b)
    _emit_matrix(compose(kind, a, args.i, b), args)
    return 0


def cmd_laws(args) -> int:
    kind = parse_kind(args.op)
    reports = verify_laws(kind, args.max_n, trials=args.random, seed=args.seed)
    blobs = [r.to_json() for r in reports]
    if args.json:
        print(json.dumps(blobs))
    else:
        for r in blobs:
            print(
                f"{r['law']}: {r['verdict']}  "
                f"(cases={r['cases_checked']}, skipped={r['cases_skipped']})"
            )
            w = r["witness"]
            if w is not None:
                parts = [f"{x.upper()}={';'.join(w[x])}" for x in "abc" if w[x] is not None]
                parts += [f"{x}={w[x]}" for x in "ij" if w[x] is not None]
                print("  witness: " + " ".join(parts))
                print(f"  left : {';'.join(w['left'])}")
                print(f"  right: {';'.join(w['right'])}")
    return DOMAIN_EXIT if any(not r.passed for r in reports) else 0


def cmd_dual(args) -> int:
    _emit_matrix(duality.dual(_load_poset(args.matrix)), args)
    return 0


def cmd_selfdual(args) -> int:
    print(json.dumps(duality.is_self_dual(_load_poset(args.matrix))))
    return 0


def cmd_semiequidual(args) -> int:
    a = _load_poset(args.a)
    b = _load_poset(args.b)
    w = duality.semi_equidual(a, b)
    print(json.dumps(None if w is None else {"alpha": list(w.alpha)}))
    return 0


def cmd_classify(args) -> int:
    cls = structure.classify_connectivity(_load_poset(args.matrix))
    if args.json:
        out = {"connectivity": cls.kind}
        if cls.witness:
            out["witness"] = list(cls.witness)
        print(json.dumps(out))
    elif cls.connected:
        print("connected")
    else:
        print(f"disconnected (witness: {','.join(map(str, cls.witness))})")
    return 0


def cmd_factor(args) -> int:
    kind = parse_kind(args.op)
    facs = structure.factor(_load_poset(args.matrix), kind)
    if args.json:  # one chunk per factorization, as enumerate writes its listing
        name = kind_name(kind)

        def item(f):
            return {"a": list(f.a.bit_rows()), "i": f.i, "b": list(f.b.bit_rows()), "op": name}

        _emit(_json_listing(([f] for f in facs), item), None)
    else:
        if not facs:
            print("no factorization")
        for f in facs:
            print(f"A={';'.join(f.a.bit_rows())}  i={f.i}  B={';'.join(f.b.bit_rows())}")
    return 0


def _parse_alpha(spec: str, n: int) -> tuple:
    """LO..HI stops at its first index outside [1, n], which index_set refuses."""
    try:
        if ".." not in spec:
            return tuple(_integer(x) for x in spec.split(","))
        lo, hi = (_integer(x) for x in spec.split(".."))
    except ValueError:
        raise ValueError(
            f"--alpha must be LO..HI or a comma-separated list of integers, got {spec!r}"
        ) from None
    last = lo if not 1 <= lo <= n else n + 1
    return tuple(range(lo, min(hi, last) + 1))


def cmd_invariance(args) -> int:
    a = _load_poset(args.a)
    b = _load_poset(args.b)
    print(json.dumps(structure.insertion_invariance_class(a, _parse_alpha(args.alpha, a.n), b)))
    return 0


def _json_listing(groups, item):
    """json.dumps of item(x) for every member x of the groups, as one list,
    plus a newline, in one chunk per non-empty group."""
    sep = "["
    for group in groups:
        if group:
            yield sep + json.dumps([item(x) for x in group])[1:-1]
            sep = ", "
    yield "[]\n" if sep == "[" else "]\n"


def cmd_enumerate(args) -> int:
    if args.classes:
        forms = enumeration.canonical_forms(args.n, args.filter)
        n_conn = sum(1 for _, connected in forms if connected)
        header = (
            f"order {args.n}: {len(forms)} classes "
            f"({n_conn} connected, {len(forms) - n_conn} disconnected)"
        )
        groups = [[canonical for canonical, _ in forms]]
    else:
        count = enumeration.matrix_count(args.n, args.filter)
        header = f"order {args.n}: {count} matrices ({args.filter})"
        groups = enumeration.matrices_by_parent(args.n, args.filter)
    body = ()
    if args.output or args.print_matrices:
        if args.format == "json":
            body = _json_listing(groups, to_json_obj)
        else:
            body = ("".join(map(to_pm_text, group)) for group in groups)
    if args.output:  # written before the count line, which would claim success
        _emit(body, args.output)
    print(header)
    if not args.output:
        _emit(body, None)
    return 0


def cmd_pascal(args) -> int:
    _emit_matrix(pascal.pascal_matrix(args.n), args)
    return 0


def cmd_hasse(args) -> int:
    _emit((export_hasse(_load_poset(args.matrix)),), args.output)
    return 0


def _arg(*flags, **kwargs):
    return flags, kwargs


_OUTPUT = _arg("-o", "--output", default=None)
_JSON = _arg("--json", action="store_true", help="machine-readable output")

# name -> (handler, help, its arguments), --json first where a command takes it
COMMANDS = {
    "check": (cmd_check, "validate a matrix file and report connectivity", (_JSON, _arg("matrix"))),
    "compose": (
        cmd_compose,
        "compose two poset matrices",
        (
            _JSON,
            _arg("--op", required=True, help="square|min|max|minmax|boxed:UAV"),
            _arg("--i", type=_integer, required=True, help="insertion position (1-based)"),
            _OUTPUT,
            _arg("a"),
            _arg("b"),
        ),
    ),
    "laws": (
        cmd_laws,
        "check the operad axioms for a composition",
        (
            _JSON,
            _arg("--op", required=True),
            _arg("--max-n", type=_integer, required=True, dest="max_n"),
            _arg("--random", type=_integer, default=None, help="random trials per law"),
            _arg("--seed", type=_integer, default=0),
        ),
    ),
    "dual": (cmd_dual, "flip-transpose dual", (_JSON, _OUTPUT, _arg("matrix"))),
    "selfdual": (cmd_selfdual, "is the matrix its own dual?", (_JSON, _arg("matrix"))),
    "semiequidual": (
        cmd_semiequidual,
        "find a semi-equidual witness block",
        (_JSON, _arg("a"), _arg("b")),
    ),
    "classify": (cmd_classify, "connected or disconnected", (_JSON, _arg("matrix"))),
    "factor": (
        cmd_factor,
        "find all two-factor decompositions",
        (_JSON, _arg("--op", default="square"), _arg("matrix")),
    ),
    "invariance": (
        cmd_invariance,
        "are insertions over a range identical?",
        (
            _JSON,
            _arg("--alpha", required=True, help="range like 1..3 or list 1,2,3"),
            _arg("a"),
            _arg("b"),
        ),
    ),
    "enumerate": (
        cmd_enumerate,
        "generate all poset matrices of an order",
        (
            _arg("--n", type=_integer, required=True),
            _arg("--classes", action="store_true", help="one representative per class"),
            _arg("--filter", choices=["all", "connected", "disconnected"], default="all"),
            _arg("--format", choices=["pm", "json"], default="pm"),
            _arg("--print", dest="print_matrices", action="store_true"),
            _OUTPUT,
        ),
    ),
    "pascal": (
        cmd_pascal,
        "binary Pascal matrix",
        (_JSON, _arg("--n", type=_integer, required=True), _OUTPUT),
    ),
    "hasse": (cmd_hasse, "export the Hasse diagram as DOT", (_OUTPUT, _arg("matrix"))),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for what _plain_args leaves to argparse."""
    top = argparse.ArgumentParser(
        prog="posetmat",
        description="Poset matrices: compositions, operad laws, duality, "
        "structure, enumeration.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return top


def _plain_args(argv):
    """The namespace build_parser().parse_args(argv) returns, read from
    COMMANDS alone, when argv is plain: a command name, then that command's
    exact flags, each value flag followed by a value that does not start
    with "-" and passes its type and choices, every required flag, and
    exactly its positionals.  A flag given twice keeps its last value.
    Anything else (help, "--", "--op=x", abbreviations, negative numbers,
    "-" for stdin, every error) gives None, and argparse reads argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    name = argv[0]
    values = {"command": name, "fn": COMMANDS[name][0]}
    options, required, positionals = {}, set(), []
    for flags, kwargs in COMMANDS[name][2]:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        dest = kwargs.get("dest")
        if dest is None:  # as argparse names it: the first long flag
            dest = next((f for f in flags if f.startswith("--")), flags[0])
            dest = dest.lstrip("-").replace("-", "_")
        switch = kwargs.get("action") == "store_true"
        values[dest] = kwargs.get("default", False if switch else None)
        if kwargs.get("required"):
            required.add(dest)
        for flag in flags:
            options[flag] = (dest, switch, kwargs)
    given, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in options:
            return None
        dest, switch, kwargs = options[token]
        seen.add(dest)
        if switch:
            values[dest] = True
            continue
        token = next(tokens, None)
        if token is None or token.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if len(given) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, given))
    return argparse.Namespace(**values)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as e:
        print(f"cannot read file: {e}", file=sys.stderr)
        return USAGE_EXIT
    except _WriteError as e:
        print(f"cannot write file: {e}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except PosetMatError as e:
        print(f"error: {e}", file=sys.stderr)
        return DOMAIN_EXIT


def main() -> None:
    sys.exit(run())


# Every command is a process of its own, and what importing the program made
# (modules, classes, functions, tables) lives until that process exits.  Move
# it to the collector's permanent generation, so that no collection during the
# command traverses it again.  Reference counting still frees frozen objects;
# only a cycle among them would outlive its use.
gc.freeze()


if __name__ == "__main__":
    main()
