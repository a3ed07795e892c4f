"""Shared fixtures: golden matrices and brute-force sweep drivers."""

import random
from functools import lru_cache
from itertools import combinations, product

from posetmat import SQUARE, UNIT, PosetMatrix, check_nested, check_parallel, check_unit, compose
from posetmat.compose import COL_AT_MIN, ROW_AT_MAX, _compose, _lower_left_wrong, _rule, kind_name
from posetmat.duality import semi_equidual
from posetmat.enumeration import IsoClass, _ideals, _tree, canonical_form, generate_all
from posetmat.core import _extremal, relabel, submatrix, validate
from posetmat.errors import ParseError, PreconditionViolated, ValidationError
from posetmat.operad import LawReport, Witness, _outer
from posetmat.structure import (
    _components,
    _range,
    classify_connectivity,
    components,
    equal_columns,
    equal_rows,
    insertion_invariance_class,
    is_totally_connected,
    is_totally_disconnected,
    principal_subposet,
)


def pm(bits: str) -> PosetMatrix:
    return PosetMatrix.from_bits(bits)


def chain(n: int) -> PosetMatrix:
    return PosetMatrix(
        tuple((1,) * (i + 1) + (0,) * (n - i - 1) for i in range(n))
    )


def antichain(n: int) -> PosetMatrix:
    return PosetMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    )


def random_poset_matrix(rng, n: int, density: float = 0.4) -> PosetMatrix:
    """Random member of PM(n): each new row is a random down-closed subset,
    the down-set of each earlier element joining it with chance density."""
    rows = []
    downsets = []
    for i in range(n):
        chosen = 0
        for j in range(i):
            if rng.random() < density:
                chosen |= downsets[j]  # adding j pulls in its whole down-set
        rows.append(
            tuple((chosen >> j) & 1 for j in range(i)) + (1,) + (0,) * (n - i - 1)
        )
        downsets.append(chosen | (1 << i))
    return PosetMatrix(rows)


def conjugate(a: PosetMatrix, sigma):
    """Q^T A Q as a row grid for an arbitrary permutation sigma (1-based listing)."""
    idx = [x - 1 for x in sigma]
    n = a.n
    return tuple(tuple(a.rows[idx[p]][idx[q]] for q in range(n)) for p in range(n))


# The order-4 / order-3 / order-2 triple used across the composition and
# associativity examples, with its four displayed composites at position 2.
EX_A = pm("1000;1100;1010;1111")
EX_B = pm("100;110;101")
EX_C = pm("10;11")
EX_SQUARE = pm("100000;110000;111000;110100;100010;111111")
EX_MIN = pm("100000;110000;111000;110100;100010;110011")
EX_MAX = pm("100000;010000;111000;110100;100010;111111")
EX_MINMAX = pm("100000;010000;111000;110100;100010;110011")

# The two unequal nested-composition results for the minmax kind at i=2, j=3.
NESTED_LEFT = pm("1000000;0100000;1110000;0001000;1101100;1000010;1100011")
NESTED_RIGHT = pm("1000000;0100000;1110000;0001000;1101100;1000010;1101011")

# Worked min/max example: minimal elements 1,3; maximal 2,4; covers 2-1, 4-1, 4-3.
MINMAX_EXAMPLE = pm("1000;1100;0010;1011")

# Catalog of order-3 classes: three connected, two disconnected.
CONNECTED_3 = [pm("100;110;111"), pm("100;010;111"), pm("100;110;101")]
DISCONNECTED_3 = [pm("100;010;001"), pm("100;110;001")]

# Catalog of order-4 classes: ten connected, six disconnected.
CONNECTED_4 = [
    pm("1000;1100;1110;1101"),
    pm("1000;0100;1110;1111"),
    pm("1000;1100;1110;1111"),
    pm("1000;1100;1010;1111"),
    pm("1000;0100;1110;1101"),
    pm("1000;1100;1010;1001"),
    pm("1000;0100;0010;1111"),
    pm("1000;1100;0010;1111"),
    pm("1000;1100;1110;1001"),
    pm("1000;0100;1110;1001"),
]
DISCONNECTED_4 = [
    pm("1000;1100;0010;0011"),
    pm("1000;0100;0010;0001"),
    pm("1000;0100;0010;0011"),
    pm("1000;1100;1110;0001"),
    pm("1000;0100;0010;0111"),
    pm("1000;0100;0110;0101"),
]


def brute_force_classes(n: int, which: str = "all") -> tuple:
    """The class catalogue by its definition: canonicalise every matrix of
    PM(n) and count the labelled matrices in each class."""
    counts = {}
    for m in generate_all(n):
        canon = canonical_form(m)
        counts[canon] = counts.get(canon, 0) + 1
    out = []
    for canon in sorted(counts, key=lambda m: m.bit_rows()):
        connected = classify_connectivity(canon).connected
        if which == "all" or connected == (which == "connected"):
            out.append(IsoClass(canon, counts[canon], connected))
    return tuple(out)


def built_from_atoms(kind, n_max: int) -> list:
    """[G_K(1), ..., G_K(n_max)] as sets of row-code tuples, forward from
    the atoms: G_K(1) = PM(1), G_K(2) = PM(2), and G_K(n) holds every
    defined A o_i^K B with A in G_K(a), B in G_K(b), a, b >= 2 and
    a + b - 1 = n."""
    rule = _rule(kind)
    built = [None, {m.codes for m in generate_all(1)}, {m.codes for m in generate_all(2)}]
    for n in range(3, n_max + 1):
        level = set()
        for a in range(2, n):
            guests = built[n + 1 - a]
            for ac in built[a]:
                for i in range(1, a + 1):
                    for bc in guests:
                        try:
                            level.add(_compose(rule, ac, i, bc))
                        except PreconditionViolated:
                            break  # the precondition reads A and i alone
        built.append(level)
    return built[1 : n_max + 1]


def labelled_counts_by_transfer(n: int) -> dict:
    """{canonical form: labelled count} of the classes of order n, by
    one-point extension and the transfer identity: each class D of order
    k-1 passes its labelled count to the class of canon(D) + I once per
    ideal I of canon(D), so

        labeled_count(C) = sum over D of labeled_count(D)
                           * #{ideals I of canon(D) : canon(canon(D) + I) = C}.

    Proof.  A matrix X of order k is uniquely M + I, M its leading block in
    PM(k-1) and I an ideal of M, so labeled_count(C) counts the pairs
    (M, I) with M + I in C.  Let M lie in class D.  M relabels canon(D) by
    an order-keeping bijection p, which maps the ideals of canon(D) onto
    those of M, and, with k fixed, relabels canon(D) + I onto M + p(I).  So
    every M in D has as many ideals leading into C as canon(D) has."""
    counts = {UNIT: 1}
    for _ in range(1, n):
        grown = {}
        for parent, weight in counts.items():
            top = 1 << parent.n
            for s in _ideals(parent.codes):
                child = canonical_form(PosetMatrix._wrap(parent.codes + (s | top,)))
                grown[child] = grown.get(child, 0) + weight
        counts = grown
    return counts


def pools_by_ideals(extend, max_order: int) -> tuple:
    """operad._pools(extend, max_order) with each parent's ideals listed
    by _ideals: the levels PM(0), ..., PM(N-1), each the children of the
    one below, parent by parent over its ideals; their masks by the
    extension rule extend, the empty matrix's being (0, 0, 0); and
    (parent, masks, ideals) for each parent of PM(N-1), as a list."""
    levels, keys = [[()]], [[(0, 0, 0)]]
    for _ in range(max_order - 1):
        level, masks = [], []
        for d, m in zip(levels[-1], keys[-1]):
            ideals = _ideals(d)
            level += [d + (s | 1 << len(d),) for s in ideals]
            masks += extend(m, ideals)
        levels.append(level)
        keys.append(masks)
    return levels, keys, [(p, m, _ideals(p)) for p, m in zip(levels[-1], keys[-1])]


@lru_cache(maxsize=None)
def ideals_by_definition(codes: tuple) -> list:
    """The ideals of the matrix with row codes codes, by definition: the
    down-closed subsets among all 2^n, as bit masks, sorted by their bit
    strings, column 1 first.  Cached: the count checks read each matrix
    once per filter."""
    n = len(codes)
    closed = [
        s
        for s in range(1 << n)
        if all(codes[x] & s == codes[x] for x in range(n) if s >> x & 1)
    ]
    return sorted(closed, key=lambda s: [s >> x & 1 for x in range(n)])


def matrix_count_by_parent(n: int, which: str = "all") -> int:
    """matrix_count(n, which) one order down: sum over M in PM(n-1) of
    #ideals(M) = prod #ideals(c), and of prod (#ideals(c) - 1) for the
    connected children, over M's components c (proved at matrix_count).
    The ideals of c are M's ideals inside c, by definition."""
    total = connected = 0
    for level, _ in _tree(n - 1):
        pass  # PM(n-1)
    for codes in level:
        ideals = ideals_by_definition(codes)
        every = joined = 1
        for comp in _components(codes):
            k = sum([1 for s in ideals if s & comp == s])
            every *= k
            joined *= k - 1
        total += every
        connected += joined
    if which == "all":
        return total
    return connected if which == "connected" else total - connected


def components_by_search(a: PosetMatrix) -> tuple:
    """Connected components as sorted 1-based index tuples, in the order of
    their lowest elements, by a depth-first search of the two-way
    neighbour lists of the comparability graph."""
    n = a.n
    nbr = [x ^ (1 << i) for i, x in enumerate(a.codes)]  # neighbours below
    for i, x in enumerate(nbr):
        while x:
            low = x & -x
            nbr[low.bit_length() - 1] |= 1 << i  # and above
            x ^= low
    seen = 0
    comps = []
    for s in range(n):
        if (seen >> s) & 1:
            continue
        comp = 1 << s
        frontier = [s]
        while frontier:
            x = frontier.pop()
            rest = nbr[x] & ~comp
            while rest:
                y = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                comp |= 1 << y
                frontier.append(y)
        seen |= comp
        comps.append(tuple(i + 1 for i in range(n) if (comp >> i) & 1))
    return tuple(comps)


def _defined(fn, *args):
    """fn(*args), or None when a composition it makes is undefined."""
    try:
        return fn(*args)
    except PreconditionViolated:
        return None


def _law_cases(law, pool):
    """(group, A, B, C, i, j) for every case of law over pool: the group is
    the total order n+m+k, or the order of A for the unit law."""
    for a in pool:
        if law == "unit":
            for i in range(1, a.n + 1):
                yield a.n, a, None, None, i, None
            continue
        for b, c in product(pool, pool):
            if law == "nested":
                pairs = product(range(1, a.n + 1), range(1, b.n + 1))
            else:
                pairs = combinations(range(1, a.n + 1), 2)
            for i, j in pairs:
                yield a.n + b.n + c.n, a, b, c, i, j


def _law_sides(kind, law, a, b, c, i, j):
    """(holds, left, right) of one case, every side built by compose."""
    if law == "unit":
        left, right = compose(kind, UNIT, 1, a), compose(kind, a, i, UNIT)
        return left == right == a, left, right
    ab = compose(kind, a, i, b)
    if law == "nested":
        left = compose(kind, ab, i + j - 1, c)
        right = compose(kind, a, i, compose(kind, b, j, c))
    else:
        left = compose(kind, ab, j + b.n - 1, c)
        right = compose(kind, compose(kind, a, j, c), i, b)
    return left == right, left, right


def signature_at(rule, x, p):
    """The signature of position p of X, read at p alone: what
    operad._row gives for every position from the matrix's _masks."""
    u_fill, v_fill, a21 = rule
    if a21 is not None:
        return None if _lower_left_wrong(x, p, a21) else (p > 1, p < len(x))
    if (u_fill, v_fill) != (ROW_AT_MAX, COL_AT_MIN):
        return ()
    k = p - 1
    return x[k] != 1 << k, any(y >> k & 1 for y in x[p:])


def scan_masks(rule, x):
    """The masks (n, m1, m2) of the order-n matrix with row codes x, read
    from its rows in one pass, as operad._reader's extension rule gives
    them from a parent's masks and an ideal.  Under minmax, the masks of
    x's minimal and maximal elements (core._extremal, uncached).  For a
    boxed kind the rows are read from the bottom up, keeping the columns in
    which some row below p differs from the constant a21 (bad) and from a
    constant V-fill (off): m1 holds the positions p whose lower-left block
    has a21 (bad has none of its first p - 1 columns), and m2 those whose
    unit case holds.  The constant c fills a row with the bits of -c, so a
    row y differs from it where y ^ -c has a 1.  Under square, min and max
    both masks are 0."""
    u_fill, v_fill, a21 = rule
    if a21 is None:
        if (u_fill, v_fill) == (ROW_AT_MAX, COL_AT_MIN):
            return _extremal.__wrapped__(x)
        return len(x), 0, 0
    u, a, v = -u_fill, -a21, -v_fill
    m1 = m2 = bad = off = 0
    for k in range(len(x) - 1, -1, -1):
        y, low = x[k], (1 << k) - 1
        if not bad & low:
            m1 |= 1 << k
            if not (y ^ u) & low and not off >> k & 1:
                m2 |= 1 << k
        bad |= y ^ a
        off |= y ^ v
    return len(x), m1, m2


def unit_at(rule, a, i):
    """Whether the unit case (A, i) holds, None when A o_i [1] is
    undefined, by the unit rule of the operad module read at i alone: what
    operad._row gives for every position from the matrix's _masks."""
    u_fill, v_fill, a21 = rule
    if a21 is None:
        return True
    if _lower_left_wrong(a, i, a21):
        return None
    k = i - 1
    low = (1 << k) - 1
    return a[k] & low == (low if u_fill else 0) and all(x >> k & 1 == v_fill for x in a[i:])


def is_antichain(c) -> bool:
    """Whether the matrix of row codes c is an antichain: each row holds
    its diagonal 1 alone."""
    return all(x == 1 << r for r, x in enumerate(c))


def holds_by_signatures(rule, law, a, b, c, i, j):
    """Whether one associativity case on row codes holds by the rule of the
    operad module, from the signatures of its two positions and whether C
    is an antichain; None when it is undefined."""
    sb = signature_at(rule, b if law == "nested" else a, j)
    breaks = _outer(rule, law, signature_at(rule, a, i), sb)
    if breaks is None:
        return None
    return not breaks or law == "nested" and is_antichain(c)


def _witness_order(w: Witness):
    enc = [";".join(m.bit_rows()) if m is not None else "" for m in (w.a, w.b, w.c)]
    return (*enc, w.i, w.j or 0)


def brute_force_laws(kind, max_order: int) -> list:
    """The three LawReports over PM(1..max_order) from the public compose
    alone.  A case whose composition is undefined is skipped.  Groups (see
    _law_cases) run in ascending order, and a law's sweep stops after the
    first group with a failure; the witness is that group's least failure
    by ;-joined bit rows of A, B and C, then i, then j."""
    pool = [m for n in range(1, max_order + 1) for m in generate_all(n)]
    reports = []
    for law in ("nested", "parallel", "unit"):
        groups = {}
        for group, *case in _law_cases(law, pool):
            groups.setdefault(group, []).append(case)
        checked = skipped = 0
        failures = []
        for group in sorted(groups):
            for a, b, c, i, j in groups[group]:
                try:
                    holds, left, right = _law_sides(kind, law, a, b, c, i, j)
                except PreconditionViolated:
                    skipped += 1
                    continue
                checked += 1
                if not holds:
                    failures.append(Witness(a, b, c, i, j, left, right))
            if failures:
                break
        witness = min(failures, key=_witness_order) if failures else None
        verdict = "fail" if failures else "pass"
        reports.append(LawReport(law, kind_name(kind), verdict, checked, skipped, witness))
    return reports


@lru_cache(maxsize=None)
def _composed_verdict(kind, law, a, b, c, i, j):
    """(holds, left, right) of one case, from check_nested, check_parallel
    or check_unit (the unit sides from compose), or None when a composition
    it makes is undefined."""
    if law == "unit":
        if _defined(check_unit, kind, a, i) is None:
            return None
        return _law_sides(kind, law, a, None, None, i, None)
    check = check_nested if law == "nested" else check_parallel
    return _defined(check, kind, a, b, c, i, j)


def random_cases(max_order: int, trials: int, seed: int) -> dict:
    """Per law, the seeded random cases (a, b, c, i, j) that random mode
    drew from the list flat of PM(1), ..., PM(max_order), None for a
    skipped one: per law a generator random.Random(seed + t);
    A = choice(flat); for the unit law i = randint(1, n_A); else B and C
    by choice, then nested i, j by randint, or parallel, skipped if n_A < 2,
    sorted(sample(range(1, n_A + 1), 2)).  The cases of fewer trials are a
    prefix of these."""
    flat = [m for n in range(1, max_order + 1) for m in generate_all(n)]
    cases = {}
    for t, law in enumerate(("nested", "parallel", "unit")):
        rng = random.Random(seed + t)
        cases[law] = drawn = []
        for _ in range(trials):
            a = rng.choice(flat)
            if law == "unit":
                drawn.append((a, None, None, rng.randint(1, a.n), None))
                continue
            b, c = rng.choice(flat), rng.choice(flat)
            if law == "nested":
                drawn.append((a, b, c, rng.randint(1, a.n), rng.randint(1, b.n)))
            elif a.n < 2:
                drawn.append(None)
            else:
                drawn.append((a, b, c, *sorted(rng.sample(range(1, a.n + 1), 2))))
    return cases


def random_laws_by_composing(kind, cases: dict) -> list:
    """The three LawReports of the random cases of each law (random_cases),
    each case decided by composing both sides; a skipped case, or one whose
    composition is undefined, is skipped.  The witness is the least
    failure, ordered as brute_force_laws orders them."""
    reports = []
    for law, drawn in cases.items():
        checked = skipped = 0
        failures = []
        for case in drawn:
            verdict = None if case is None else _composed_verdict(kind, law, *case)
            if verdict is None:
                skipped += 1
                continue
            checked += 1
            holds, left, right = verdict
            if not holds:
                failures.append(Witness(*case, left, right))
        witness = min(failures, key=_witness_order) if failures else None
        verdict = "fail" if failures else "pass"
        reports.append(LawReport(law, kind_name(kind), verdict, checked, skipped, witness))
    return reports


def contiguous_ranges(n: int, min_len: int = 2):
    for d in range(1, n + 1):
        for k in range(d + min_len - 1, n + 1):
            yield tuple(range(d, k + 1))


def sweep_insertion_invariance(max_n: int = 5, max_m: int = 3):
    """Violations of the identical-insertion guarantee, under either pairing
    (totally connected block with a chain / totally disconnected block with
    an antichain) plus the flatness condition.  Expected empty."""
    violations = []
    for n in range(2, max_n + 1):
        for a in generate_all(n):
            a_connected = classify_connectivity(a).connected
            for alpha in contiguous_ranges(n):
                block = principal_subposet(a, alpha)
                pairings = []
                if a_connected and is_totally_connected(block):
                    pairings.append([chain(m) for m in range(1, max_m + 1)])
                if is_totally_disconnected(block):
                    pairings.append([antichain(m) for m in range(1, max_m + 1)])
                if not pairings or not insertion_invariance_condition(a, alpha):
                    continue
                for bs in pairings:
                    for b in bs:
                        first = compose(SQUARE, a, alpha[0], b)
                        if any(
                            compose(SQUARE, a, i, b) != first for i in alpha[1:]
                        ):
                            violations.append((a, alpha, b))
    return violations


def sweep_semi_equidual(max_n: int = 5, max_m: int = 3):
    """Violations of: a totally disconnected flat block makes the insertions
    at the block's two ends semi-equidual (chain inserted).  Expected empty."""
    violations = []
    for n in range(2, max_n + 1):
        for a in generate_all(n):
            for alpha in contiguous_ranges(n):
                block = principal_subposet(a, alpha)
                if not is_totally_disconnected(block):
                    continue
                if not insertion_invariance_condition(a, alpha):
                    continue
                for m in range(1, max_m + 1):
                    b = chain(m)
                    left = compose(SQUARE, a, alpha[0], b)
                    right = compose(SQUARE, a, alpha[-1], b)
                    if semi_equidual(left, right) is None:
                        violations.append((a, alpha, b))
    return violations


def semi_equidual_by_definition(a: PosetMatrix, b: PosetMatrix):
    """(alpha, a's block, b's block as row grids) for the least, then
    lexicographically first, index set alpha such that a and b agree outside
    alpha x alpha, a's block on alpha is disconnected and b's is its dual
    (entry (s, t) of the dual of an order-k block is entry (k+1-t, k+1-s));
    None when there is none.  Written entry by entry from the definition."""
    n, ra, rb = a.n, a.rows, b.rows
    differ = [(s, t) for s in range(n) for t in range(n) if ra[s][t] != rb[s][t]]
    for size in range(1, n + 1):
        for alpha in combinations(range(n), size):
            if any(s not in alpha or t not in alpha for s, t in differ):
                continue
            block_a = tuple(tuple(ra[s][t] for t in alpha) for s in alpha)
            block_b = tuple(tuple(rb[s][t] for t in alpha) for s in alpha)
            reached, todo = {0}, [0]
            while todo:
                s = todo.pop()
                for t in range(size):
                    if t not in reached and (block_a[s][t] or block_a[t][s]):
                        reached.add(t)
                        todo.append(t)
            if len(reached) == size:
                continue
            last = size - 1
            if all(block_b[s][t] == block_a[last - t][last - s] for s in range(size) for t in range(size)):
                return tuple(q + 1 for q in alpha), block_a, block_b
    return None


def covers_by_definition(a: PosetMatrix) -> tuple:
    """Sorted pairs (i, j), i < j, with j above i and no k strictly between
    them: a(j, i) = 1 and no i < k < j has a(j, k) = a(k, i) = 1."""
    n, r = a.n, a.rows
    return tuple(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if r[j][i] and not any(r[j][k] and r[k][i] for k in range(i + 1, j))
    )


def dual_by_formula(a: PosetMatrix) -> tuple:
    """The dual's row grid, entry by entry: d(i, j) = a(n+1-j, n+1-i)."""
    n, r = a.n, a.rows
    return tuple(tuple(r[n - 1 - j][n - 1 - i] for j in range(n)) for i in range(n))


def witness_by_definition(a: PosetMatrix):
    """The smallest component of the comparability graph, then the
    lexicographically least of that size; None when a is connected."""
    comps = components_by_search(a)
    return None if len(comps) == 1 else min(comps, key=lambda c: (len(c), c))


def read_pm_by_spec(text: str) -> tuple:
    """Row codes of a .pm text, or the ParseError the format's rules name,
    read one character at a time.

    The rules: the text is cut into lines at every line boundary that
    str.splitlines knows, and whitespace around a line is ignored.  Line 1
    holds the order n in ASCII digits after at most one minus sign, n >= 1.
    Lines 2..n+1 hold the rows: an empty row is missing (column 1), a row of
    fewer than n characters is too short (at the column after its last), one
    of more is too long (at column n+1), and otherwise the first character
    other than 0 and 1 is invalid (at its own column).  After the rows, the
    first line that is not blank is an unexpected extra line (column 1).
    Faults are reported in line order."""
    lines = text.splitlines()

    def trimmed(line):
        lo, hi = 0, len(line)
        while lo < hi and line[lo].isspace():
            lo += 1
        while hi > lo and line[hi - 1].isspace():
            hi -= 1
        return line[lo:hi]

    order = trimmed(lines[0]) if lines else ""
    if not order:
        raise ParseError(1, 1, "missing order line")
    digits = order[1:] if order[0] == "-" else order
    if not digits or any(ch not in "0123456789" for ch in digits):
        raise ParseError(1, 1, f"order is not an integer: {order!r}")
    n = int(order)
    if n < 1:
        raise ParseError(1, 1, f"order must be positive, got {n}")
    codes = []
    for lineno in range(2, n + 2):
        row = trimmed(lines[lineno - 1]) if lineno <= len(lines) else ""
        if not row:
            raise ParseError(lineno, 1, "missing row")
        if len(row) < n:
            raise ParseError(lineno, len(row) + 1, "row too short")
        if len(row) > n:
            raise ParseError(lineno, n + 1, "row too long")
        code = 0
        for c, ch in enumerate(row):
            if ch == "1":
                code |= 1 << c
            elif ch != "0":
                raise ParseError(lineno, c + 1, f"invalid character {ch!r}")
        codes.append(code)
    for lineno in range(n + 2, len(lines) + 1):
        if trimmed(lines[lineno - 1]):
            raise ParseError(lineno, 1, "unexpected extra line")
    return tuple(codes)


# The library functions below are called by the tests alone: oracles and
# statements of the paper's invariance conditions.


def is_poset_matrix(m) -> bool:
    """True iff validate(m) succeeds.  Input that is not a grid of 0/1
    entries (None, a number, ragged rows, other entries) gives False."""
    try:
        validate(m)
        return True
    except (ValidationError, ValueError, TypeError, OverflowError):
        # OverflowError: int() of an infinite float entry.
        return False


def insertion_invariance_condition(a: PosetMatrix, alpha) -> bool:
    """Flatness condition making insertions over a contiguous alpha coincide.

    For alpha = {d,..,k}: the rows of a[alpha | 1..d-1] are all equal and the
    columns of a[k+1..n | alpha] are all equal.  For a prefix or suffix alpha
    one strip is empty and this is exactly the single stated strip condition.
    """
    alpha = _range(a, alpha)
    d, k, n = alpha[0], alpha[-1], a.n
    if d > 1:
        left = submatrix(a, alpha, range(1, d))
        if not equal_rows(left):
            return False
    if k < n:
        below = submatrix(a, range(k + 1, n + 1), alpha)
        if not equal_columns(below):
            return False
    return True


def case3_literal_condition(a: PosetMatrix, alpha) -> bool:
    """Interior-range condition as literally stated: rows k..n over columns
    1..k-1 pairwise equal and each a constant vector.  Known to be weaker
    than insertion_invariance_condition; see case3_literal_discrepancies."""
    alpha = _range(a, alpha)
    d, k, n = alpha[0], alpha[-1], a.n
    if not (1 < d < k < n):
        return False
    strip = submatrix(a, range(k, n + 1), range(1, k))
    return equal_rows(strip) and equal_columns(strip)


def case3_literal_discrepancies(matrices, b: PosetMatrix) -> list:
    """Interior ranges passing the literal condition whose insertions differ.

    Returns (a, alpha) pairs; nonempty on PM(4) already, which is why the
    sweeps assert the flatness condition instead.  Ranges whose block type
    does not match b's are outside insertion_invariance_class and skipped.
    """
    found = []
    for a in matrices:
        for d in range(2, a.n):
            for k in range(d + 1, a.n):
                alpha = tuple(range(d, k + 1))
                if not case3_literal_condition(a, alpha):
                    continue
                try:
                    if not insertion_invariance_class(a, alpha, b):
                        found.append((a, alpha))
                except PreconditionViolated:
                    continue
    return found


def invariance_scan(a: PosetMatrix, b: PosetMatrix) -> tuple:
    """Maximal contiguous ranges (length >= 2) with identical square insertions."""
    n = a.n
    composites = [compose(SQUARE, a, i, b) for i in range(1, n + 1)]
    runs = []
    start = 0
    for i in range(1, n + 1):
        if i == n or composites[i] != composites[start]:
            if i - start >= 2:
                runs.append(tuple(range(start + 1, i + 1)))
            start = i
    return tuple(runs)


def direct_sum(g: PosetMatrix, h: PosetMatrix) -> PosetMatrix:
    """Block-diagonal matrix with g before h."""
    return PosetMatrix._wrap(g.codes + tuple(x << g.n for x in h.codes))


def component_contiguous_form(c: PosetMatrix) -> PosetMatrix:
    """A permutation-equivalent relabelling listing each component contiguously."""
    order = [i for comp in components(c) for i in comp]
    return relabel(c, order)
