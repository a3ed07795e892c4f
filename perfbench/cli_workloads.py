"""The two CLI workloads, `laws` and `classes`: their command lists and
the checks of their outputs against reference.py.

Each command runs as `posetmat ARGS` in its own process.  check_* takes
the (exit code, stdout) of each command of one round, in command order,
and returns one problem string or None per command.
"""

from __future__ import annotations

import json
import random

import reference as ref

EXHAUSTIVE_ORDER = 3
RANDOM_ORDER = 6
RANDOM_KINDS = ("square", "min", "max", "minmax")
RANDOM_TRIALS = 1000


def laws_commands(seed):
    """Every kind exhaustively at order 3, then seeded random trials at
    order 6 for the three operads and minmax."""
    rng = random.Random(seed)
    cmds = [
        ["laws", "--op", kind, "--max-n", str(EXHAUSTIVE_ORDER), "--json"]
        for kind in ref.ALL_KINDS
    ]
    for kind in RANDOM_KINDS:
        cmds.append(
            ["laws", "--op", kind, "--max-n", str(RANDOM_ORDER), "--random",
             str(RANDOM_TRIALS), "--seed", str(rng.randrange(1 << 31)), "--json"]
        )
    return cmds


def _reports(kind, code, stdout):
    """The three law reports of one command, or a problem string."""
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code}, output is not JSON"
    if [r.get("law") for r in reports] != ["nested", "parallel", "unit"]:
        return "reports are not nested, parallel, unit"
    if any(r.get("op") != kind for r in reports):
        return f"a report is not for {kind}"
    failing = any(r["verdict"] == "fail" for r in reports)
    if code != (1 if failing else 0):
        return f"exit code {code} with {'a failing' if failing else 'no failing'} law"
    return reports


def check_laws(cmds, results):
    problems = []
    for argv, (code, stdout) in zip(cmds, results):
        kind = argv[argv.index("--op") + 1]
        reports = _reports(kind, code, stdout)
        if isinstance(reports, str):
            problems.append(reports)
        elif "--random" in argv:
            problems.append(_random_problem(kind, reports))
        else:
            problems.append(_sweep_problem(kind, reports))
    return problems


def _sweep_problem(kind, reports):
    expected = ref.sweep(kind, EXHAUSTIVE_ORDER)
    for r in reports:
        want = expected[r["law"]]
        for field in ("verdict", "cases_checked", "cases_skipped", "witness"):
            if r[field] != want[field]:
                return f"{kind} {r['law']}: {field} {r[field]!r} != reference {want[field]!r}"
    return None


def _random_problem(kind, reports):
    for r in reports:
        if r["cases_checked"] + r["cases_skipped"] != RANDOM_TRIALS:
            return f"{kind} {r['law']}: checked + skipped is not {RANDOM_TRIALS}"
        if kind in ref.OPERAD_KINDS and r["verdict"] != "pass":
            return f"{kind} {r['law']} fails, but {kind} is an operad"
        if (r["verdict"] == "fail") != (r["witness"] is not None):
            return f"{kind} {r['law']}: verdict and witness disagree"
        if r["witness"] is not None:
            why = ref.witness_problem(r["law"], kind, r["witness"], RANDOM_ORDER)
            if why:
                return f"{kind} {r['law']} witness: {why}"
    return None


CLASSES_ORDER = 6
COUNT_ORDER = 7


def classes_commands(seed):
    """The class catalogue at order 6, whole and connected, and the count of
    all matrices at order 7.  Nothing here depends on the seed."""
    show = ["--format", "json", "--print"]
    return [
        ["enumerate", "--n", str(CLASSES_ORDER), "--classes", *show],
        ["enumerate", "--n", str(CLASSES_ORDER), "--classes", "--filter", "connected", *show],
        ["enumerate", "--n", str(COUNT_ORDER)],
    ]


def _catalogue(code, stdout):
    """(header, representatives) of an enumerate --classes command."""
    if code != 0:
        return f"exit code {code}"
    header, _, body = stdout.partition("\n")
    try:
        reps = [ref.from_bits(m["rows"]) for m in json.loads(body)]
    except (json.JSONDecodeError, KeyError, TypeError):
        return "body is not a JSON list of matrices"
    return header, reps


def check_classes(cmds, results):
    n = CLASSES_ORDER
    total, connected = ref.A000112[n], ref.A000608[n]
    canon = {}

    def catalogue_problem(result, count, n_conn, only_connected):
        got = _catalogue(*result)
        if isinstance(got, str):
            return got, None
        header, reps = got
        want = f"order {n}: {count} classes ({n_conn} connected, {count - n_conn} disconnected)"
        if header != want:
            return f"header {header!r}, expected {want!r}", None
        if len(reps) != count or len(set(reps)) != count:
            return f"{len(reps)} representatives, {len(set(reps))} distinct, expected {count}", None
        for m in reps:
            if len(m) != n or not ref.is_poset_matrix(m):
                return f"representative {ref.encode(m)} is not an order-{n} poset matrix", None
            if m not in canon:
                canon[m] = ref.canonical_form(m)
            if canon[m] != m:
                return f"representative {ref.encode(m)} is not its own canonical form", None
            if only_connected and not ref.connectivity(m)[0]:
                return f"representative {ref.encode(m)} is disconnected", None
        return None, reps

    problems = []
    why, everything = catalogue_problem(results[0], total, connected, False)
    problems.append(why)
    why, conn = catalogue_problem(results[1], connected, connected, True)
    if why is None and everything is not None:
        if conn != [m for m in everything if ref.connectivity(m)[0]]:
            why = "the connected catalogue is not the connected part of the whole one"
    problems.append(why)
    code, stdout = results[2]
    want = f"order {COUNT_ORDER}: {ref.A006455[COUNT_ORDER]} matrices (all)"
    problems.append(None if (code, stdout.strip()) == (0, want) else f"got {stdout.strip()!r}, expected {want!r}")
    return problems
