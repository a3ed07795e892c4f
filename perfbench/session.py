"""The `session` workload: one fresh interpreter makes a seeded stream of
library calls on random poset matrices, then reports per-call times.

usage: python3 perfbench/session.py --seed N --out PATH [--trace 0|1] [--check 0|1]

run.py starts it with src/ of the checkout on PYTHONPATH.
The inputs are built here from the seed with no help from posetmat.  Every
matrix enters through the library as text: `parse_matrix_text` (.pm or
JSON), then `validate`.  A share of the texts hold invalid matrices, whose
expected outcome is the typed ValidationError.  No input repeats.

Each call is timed on its own; a short digest of its outcome is kept so
that sessions can be compared with one another.  The yardstick of speed.py
is timed just before and just after the stream.  With --check 1 the
outcomes are also kept and, after the stream, compared with reference.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
from pathlib import Path
from time import perf_counter

import reference as ref
from cli_child import peak_rss_kib, status_kib
from speed import yardstick

# The sizes and the mix are the same for every seed; the seed draws the
# structure of each matrix and the insertion positions.  That keeps the
# work of a session nearly equal across seeds.
ITEMS = 264  # matrices A per session: every order 8..40 eight times
ORDERS_A = range(8, 41)
ORDERS_B = range(8, 17)
DENSITIES = (0.05, 0.1, 0.2, 0.35)  # chance that an element is put above an earlier one
INVALID_EVERY = 4  # one invalid matrix per this many items
FACTOR_EVERY = 12  # one planted factorization per this many items
FACTOR_ORDERS = (range(6, 13), range(3, 7))  # orders of the planted factors; their composite never repeats
# factor() returns one host per split, which is every host only for the
# mask kinds: a boxed insertion discards A's row prefix and column suffix
# at i, so boxed factorizations are not planted (see CHANGES.md).
FACTOR_KINDS = ref.MASK_KINDS
SEMI_EVERY = 2  # one semi-equidual pair per this many items
SEMI_ORDERS = range(6, 11)

ERROR_CLASS = {
    "reflexive": "NotReflexive",
    "triangular": "NotLowerTriangular",
    "transitive": "TransitivityViolation",
}


def random_poset(rng, n, p):
    """Each new element lies above each earlier one with probability p,
    and then above that one's whole down-set."""
    down = []
    for i in range(n):
        d = 1 << i
        for j in range(i):
            if rng.random() < p:
                d |= down[j]
        down.append(d)
    return tuple(tuple((down[i] >> j) & 1 for j in range(n)) for i in range(n))


def pm_text(m):
    return f"{len(m)}\n" + "\n".join(ref.to_bits(m)) + "\n"


def json_text(m):
    return json.dumps({"n": len(m), "rows": ref.to_bits(m)})


def break_matrix(rng, m):
    """A copy of m with exactly one kind of invariant broken, and that kind."""
    n = len(m)
    while True:
        grid = [list(r) for r in m]
        flaw = rng.choice(("reflexive", "triangular", "transitive"))
        if flaw == "reflexive":
            i = rng.randrange(n)
            grid[i][i] = 0
        elif flaw == "triangular":
            i = rng.randrange(n - 1)
            grid[i][rng.randrange(i + 1, n)] = 1
        else:
            i = rng.randrange(1, n)
            grid[i][rng.randrange(i)] ^= 1
        bad = tuple(tuple(r) for r in grid)
        if ref.violations(bad) == {flaw}:
            return bad, flaw


def boxed_positions(a, fill):
    """Positions of A whose lower-left block is constantly `fill`."""
    n = len(a)
    return [
        i
        for i in range(1, n + 1)
        if all(a[s][c] == fill for s in range(i, n) for c in range(i - 1))
    ]


def make_items(seed):
    """The seeded inputs: a list of dicts, one per A."""
    rng = random.Random(seed)
    seen = set()

    def fresh(n, p):
        while True:
            m = random_poset(rng, n, p)
            if m not in seen:
                seen.add(m)
                return m

    def cycle(values, t):
        return values[t % len(values)]

    items = []
    for t in range(ITEMS):
        p = cycle(DENSITIES, t)
        a, b = fresh(cycle(ORDERS_A, t), p), fresh(cycle(ORDERS_B, t), p)
        item = {"a": a, "b": b, "i": rng.randint(1, len(a))}
        item["boxed_i"] = {
            kind: rng.choice(boxed_positions(a, int(kind[7])))
            for kind in ref.BOXED_KINDS
        }
        if t % INVALID_EVERY == 1:
            item["invalid"] = break_matrix(rng, fresh(cycle(ORDERS_A, 7 * t), p))
        if t % FACTOR_EVERY == 0:
            k = t // FACTOR_EVERY
            kind = cycle(FACTOR_KINDS, k)
            while True:
                fa = random_poset(rng, cycle(FACTOR_ORDERS[0], k), p)
                fb = random_poset(rng, cycle(FACTOR_ORDERS[1], k), p)
                pos = rng.randint(1, len(fa))
                c = ref.compose(kind, fa, pos, fb)
                if c not in seen:
                    seen.add(c)
                    break
            item["factor"] = {"kind": kind, "a": fa, "i": pos, "b": fb, "c": c}
        if t % SEMI_EVERY == 0:
            s = fresh(cycle(SEMI_ORDERS, t // SEMI_EVERY), p)
            item["semi"] = (s, plant_semi_equidual(rng, s))
        items.append(item)
    return items


def plant_semi_equidual(rng, s):
    """A partner of s that differs from it only on a disconnected principal
    block, which it replaces by that block's dual; s itself if no tried
    block gives a valid partner."""
    n = len(s)
    for _ in range(20):
        alpha = sorted(rng.sample(range(1, n + 1), rng.randint(3, 5)))
        block = ref.principal(s, alpha)
        if ref.connectivity(block)[0]:
            continue
        flipped = ref.dual(block)
        grid = [list(r) for r in s]
        for p, r in enumerate(alpha):
            for q, c in enumerate(alpha):
                grid[r - 1][c - 1] = flipped[p][q]
        t = tuple(tuple(r) for r in grid)
        if t != s and ref.is_poset_matrix(t):
            return t
    return s


class Stream:
    """Makes the calls, times each one, and keeps each outcome with what
    the reference needs to check it."""

    def __init__(self, lib, keep):
        self.lib = lib
        self.keep = keep  # keep outcomes for checking, else only digests
        self.ops = []  # (call kind, seconds, digest of the outcome)
        self.kept = []  # (outcome, expectation) when keep is set

    def call(self, name, expect, fn, *args):
        start = perf_counter()
        try:
            outcome = fn(*args)
        except Exception as e:  # an unexpected error is an outcome to check, not a crash
            outcome = e
        took = perf_counter() - start
        self.ops.append((name, took, digest(outcome)))
        if self.keep:
            self.kept.append((outcome, expect))
        return outcome

    def load(self, m, as_json=False):
        """Parse and validate one matrix; returns the PosetMatrix."""
        lib = self.lib
        text = json_text(m) if as_json else pm_text(m)
        parsed = self.call("parse", ("rows", m), lib["parse_matrix_text"], text)
        return self.call("validate", ("rows", m), lib["validate"], parsed)

    def run(self, items):
        lib = self.lib
        for item in items:
            a_rows, b_rows = item["a"], item["b"]
            a = self.load(a_rows)
            b = self.load(b_rows, as_json=True)
            for kind in ref.ALL_KINDS:
                if kind in ref.MASK_KINDS:
                    name, i, op = f"compose:{kind}", item["i"], kind
                else:
                    name, i, op = "compose:boxed", item["boxed_i"][kind], lib["parse_kind"](kind)
                self.call(name, ("compose", kind, a_rows, i, b_rows), lib["compose"], op, a, i, b)
            self.call("dual", ("dual", a_rows), lib["dual"], a)
            self.call("is_self_dual", ("self_dual", a_rows), lib["is_self_dual"], a)
            self.call("classify_connectivity", ("connectivity", a_rows),
                      lib["classify_connectivity"], a)
            self.call("cover_relation", ("covers", a_rows), lib["cover_relation"], a)
            if "invalid" in item:
                bad, flaw = item["invalid"]
                parsed = self.call("parse", ("rows", bad), lib["parse_matrix_text"], pm_text(bad))
                self.call("validate", ("error", flaw), lib["validate"], parsed)
            if "factor" in item:
                f = item["factor"]
                c = self.load(f["c"])
                self.call("factor", ("factor", f), lib["factor"], c, lib["parse_kind"](f["kind"]))
            if "semi" in item:
                s, t = item["semi"]
                ps, pt = self.load(s), self.load(t, as_json=True)
                self.call("semi_equidual", ("semi", s, t), lib["semi_equidual"], ps, pt)


def digest(outcome):
    """A short stable digest of one outcome, to compare rounds."""
    if isinstance(outcome, BaseException):
        text = f"{type(outcome).__name__}:{outcome}"
    elif isinstance(outcome, tuple) and outcome and hasattr(outcome[0], "recompose"):
        text = repr([(f.a.rows, f.i, f.b.rows) for f in outcome])
    elif hasattr(outcome, "alpha"):
        text = repr(outcome.alpha)
    elif hasattr(outcome, "connected"):
        text = repr((outcome.connected, outcome.witness))
    else:
        text = repr(getattr(outcome, "rows", outcome))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def problem(outcome, expect):
    """None when one call's outcome is the expected one, else why not."""
    what = expect[0]
    if what == "error":
        want = ERROR_CLASS[expect[1]]
        if not isinstance(outcome, BaseException):
            return "an invalid matrix was accepted"
        got = type(outcome).__name__
        return None if got == want else f"raised {got}, expected {want}"
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    if what == "rows":
        return None if outcome.rows == expect[1] else "rows differ from the input"
    if what == "compose":
        _, kind, a, i, b = expect
        if outcome.rows != ref.compose(kind, a, i, b):
            return f"{kind} composite differs from the reference"
        return None if ref.is_poset_matrix(outcome.rows) else f"{kind} composite is not a poset matrix"
    a = expect[1]
    if what == "dual":
        return None if outcome.rows == ref.dual(a) else "dual differs from the entry formula"
    if what == "self_dual":
        return None if outcome == (ref.dual(a) == a) else "self-duality differs"
    if what == "connectivity":
        got = (outcome.connected, tuple(outcome.witness) if outcome.witness else None)
        return None if got == ref.connectivity(a) else "connectivity differs from union-find"
    if what == "covers":
        return covers_problem(a, outcome)
    if what == "factor":
        return factor_problem(expect[1], outcome)
    if what == "semi":
        return semi_problem(expect[1], expect[2], outcome)
    raise ValueError(f"unknown expectation {what!r}")


def covers_problem(a, got):
    got = sorted(tuple(p) for p in got)
    if got != ref.covers(a):
        return "cover relation differs from the definition"
    if ref.closure(len(a), got) != a:
        return "closure of the covers is not the input"
    return None


def factor_problem(f, got):
    """Every factorization recomposes to the input; the planted one is found."""
    kind, c = f["kind"], f["c"]
    for fac in got:
        if len(fac.a.rows) < 2 or len(fac.b.rows) < 2:
            return "a factor has order below 2"
        if ref.try_compose(kind, fac.a.rows, fac.i, fac.b.rows) != c:
            return "a factorization does not recompose to its input"
    if (f["a"], f["i"], f["b"]) not in {(x.a.rows, x.i, x.b.rows) for x in got}:
        return "the planted factorization is missing"
    return None


def semi_problem(s, t, got):
    """The witness is the least one and meets the definition."""
    want = ref.semi_equidual(s, t)
    alpha = tuple(got.alpha) if got is not None else None
    if alpha != want:
        return f"witness {alpha} differs from the least one {want}"
    if alpha is not None and not ref.is_semi_equidual_witness(s, t, alpha):
        return "witness does not meet the definition"
    return None


def library():
    """The public functions the stream calls, read from their modules
    after any trace wrappers are installed."""
    mods = {
        name: importlib.import_module(f"posetmat.{name}")
        for name in ("cli", "core", "compose", "structure", "duality")
    }
    return {
        "parse_matrix_text": mods["cli"].parse_matrix_text,
        "validate": mods["core"].validate,
        "cover_relation": mods["core"].cover_relation,
        "compose": mods["compose"].compose,
        "parse_kind": mods["compose"].parse_kind,
        "classify_connectivity": mods["structure"].classify_connectivity,
        "factor": mods["structure"].factor,
        "dual": mods["duality"].dual,
        "is_self_dual": mods["duality"].is_self_dual,
        "semi_equidual": mods["duality"].semi_equidual,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import posetmat

    items = make_items(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stream = Stream(library(), keep=bool(args.check))
    # Resident memory before the first call: the interpreter, posetmat and
    # the benchmark's own inputs, all of which the peak also counts.
    start_rss_kib = status_kib("VmRSS")
    before = yardstick()
    stream.run(items)
    after = yardstick()
    record = {
        "posetmat": posetmat.__file__,
        "yardstick_s": [before, after],
        "start_rss_kib": start_rss_kib,
        "peak_rss_kib": peak_rss_kib(),
        "ops": stream.ops,
    }
    if args.check:
        record["problems"] = [problem(outcome, expect) for outcome, expect in stream.kept]
    if tracer is not None:
        record["trace"] = tracer.dump()
    Path(args.out).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
