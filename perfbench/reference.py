"""Independent reference used to check every output of the benchmark.

Nothing here imports posetmat.  A matrix is a tuple of row tuples of 0/1
entries, indices are 0-based inside this module, and every routine is
written from a definition rather than from the program's code:

* the eleven compositions from the (U-fill, V-fill) description: B replaces
  A's diagonal cell i, the block U left of B and the block V below B are
  filled by the kind's rule, everything else is copied from A or B;
* transitivity by its definition over all triples;
* the dual by its entry formula a(n+1-j, n+1-i);
* connectivity by union-find over the comparability graph;
* covers by their definition and the closure of a cover set by repeated
  composition of the relation;
* the canonical form as the least relabelling over every permutation
  that keeps the matrix lower triangular (orders <= 6);
* the law sweeps of the paper's three operad axioms.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

# Published counts, indexed by order n (offset 0 in OEIS).
#   A006455  naturally labelled posets on n points (= poset matrices of
#            order n): https://oeis.org/A006455
#   A000112  posets on n unlabelled points (= permutation-equivalence
#            classes): https://oeis.org/A000112, values to n = 16 from
#            G. Brinkmann and B. D. McKay, "Posets on up to 16 points",
#            Order 19 (2002) 147-179.
#   A000608  connected posets on n unlabelled points:
#            https://oeis.org/A000608, same source.
A006455 = {1: 1, 2: 2, 3: 7, 4: 40, 5: 357, 6: 4824, 7: 96428}
A000112 = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
A000608 = {1: 1, 2: 1, 3: 3, 4: 10, 5: 44, 6: 238, 7: 1650}

MASK_KINDS = ("square", "min", "max", "minmax")
BOXED_KINDS = tuple(
    f"boxed:{u}{a}{v}" for u, a, v in product((1, 0), repeat=3) if (u, a, v) != (1, 0, 1)
)
ALL_KINDS = MASK_KINDS + BOXED_KINDS
OPERAD_KINDS = ("square", "min", "max")
UNIT = ((1,),)


class Undefined(Exception):
    """A boxed composition whose precondition on A does not hold."""


def from_bits(rows) -> tuple:
    """Matrix from '100;110;111' or a list of '0'/'1' strings."""
    if isinstance(rows, str):
        rows = rows.split(";")
    return tuple(tuple(int(ch) for ch in r) for r in rows)


def to_bits(m) -> list:
    return ["".join(str(x) for x in row) for row in m]


def encode(m) -> str:
    return ";".join(to_bits(m))


def is_lower_unit(m) -> bool:
    n = len(m)
    return (
        all(len(row) == n and set(row) <= {0, 1} for row in m)
        and all(m[i][i] == 1 for i in range(n))
        and not any(m[i][j] for i in range(n) for j in range(i + 1, n))
    )


def is_transitive(m) -> bool:
    """m[i][j] = 1 and m[j][k] = 1 imply m[i][k] = 1, over every triple."""
    n = len(m)
    for i in range(n):
        row_i = m[i]
        for j in range(n):
            if row_i[j]:
                row_j = m[j]
                for k in range(n):
                    if row_j[k] and not row_i[k]:
                        return False
    return True


def is_poset_matrix(m) -> bool:
    return is_lower_unit(m) and is_transitive(m)


def violations(m) -> set:
    """The kinds of poset-matrix invariant that m breaks."""
    n = len(m)
    out = set()
    if any(m[i][i] != 1 for i in range(n)):
        out.add("reflexive")
    if any(m[i][j] for i in range(n) for j in range(i + 1, n)):
        out.add("triangular")
    if not is_transitive(m):
        out.add("transitive")
    return out


def minimal(b) -> set:
    """Elements with nothing strictly below them."""
    m = len(b)
    return {q for q in range(m) if not any(b[q][p] for p in range(m) if p != q)}


def maximal(b) -> set:
    """Elements with nothing strictly above them."""
    m = len(b)
    return {q for q in range(m) if not any(b[p][q] for p in range(m) if p != q)}


def compose(kind: str, a, i: int, b):
    """A composed with B at 1-based position i; raises Undefined when a boxed
    kind's lower-left block of A is not its constant fill."""
    n, m = len(a), len(b)
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside [1,{n}]")
    p = i - 1  # 0-based row/column of A that B replaces
    if kind.startswith("boxed:"):
        u_const, a21, v_const = (int(ch) for ch in kind[6:])
        if any(a[s][c] != a21 for s in range(p + 1, n) for c in range(p)):
            raise Undefined(kind)
    mins, maxs = minimal(b), maximal(b)

    def u_fill(q, c):  # row of B's element q, column c of A left of i
        if kind in ("square", "min"):
            return a[p][c]
        if kind in ("max", "minmax"):
            return a[p][c] if q in maxs else 0
        return u_const

    def v_fill(s, q):  # row s of A below i, column of B's element q
        if kind in ("square", "max"):
            return a[s][p]
        if kind in ("min", "minmax"):
            return a[s][p] if q in mins else 0
        return v_const

    def source(r):
        if r < p:
            return "A", r
        if r < p + m:
            return "B", r - p
        return "A", r - m + 1

    size = n + m - 1
    out = []
    for r in range(size):
        rs, ri = source(r)
        row = []
        for c in range(size):
            cs, ci = source(c)
            if rs == "A" and cs == "A":
                x = a[ri][ci]
            elif rs == "B" and cs == "B":
                x = b[ri][ci]
            elif rs == "B":
                x = u_fill(ri, ci) if ci < p else 0
            else:
                x = v_fill(ri, ci) if ri > p else 0
            row.append(x)
        out.append(tuple(row))
    return tuple(out)


def try_compose(kind, a, i, b):
    try:
        return compose(kind, a, i, b)
    except Undefined:
        return None


def dual(a) -> tuple:
    """Entry (i, j) of the dual is a(n+1-j, n+1-i) (1-based)."""
    n = len(a)
    return tuple(tuple(a[n - 1 - j][n - 1 - i] for j in range(n)) for i in range(n))


def components(a) -> list:
    """Components of the comparability graph by union-find, each a sorted
    tuple of 1-based elements, listed by their least element."""
    n = len(a)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if i != j and a[i][j]:
                parent[find(i)] = find(j)
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x + 1)
    return sorted(tuple(g) for g in groups.values())


def connectivity(a):
    """(connected, witness): the witness is a smallest, then lex-least,
    component when a is disconnected, else None."""
    comps = components(a)
    if len(comps) == 1:
        return True, None
    return False, min(comps, key=lambda c: (len(c), c))


def covers(a) -> list:
    """Pairs (i, j), 1-based, with i strictly below j and nothing between."""
    n = len(a)
    out = []
    for lo in range(n):
        for hi in range(n):
            if lo == hi or not a[hi][lo]:
                continue
            if any(k not in (lo, hi) and a[k][lo] and a[hi][k] for k in range(n)):
                continue
            out.append((lo + 1, hi + 1))
    return sorted(out)


def closure(n: int, cover_pairs) -> tuple:
    """Reflexive-transitive closure of a relation given as (below, above)
    1-based pairs, by composing the relation with itself until it is stable."""
    rel = {(x, x) for x in range(n)} | {(i - 1, j - 1) for i, j in cover_pairs}
    while True:
        grown = rel | {(x, z) for x, y in rel for y2, z in rel if y == y2}
        if grown == rel:
            break
        rel = grown
    return tuple(tuple(1 if (j, i) in rel else 0 for j in range(n)) for i in range(n))


def principal(a, alpha) -> tuple:
    """Principal block on 1-based indices alpha."""
    return tuple(tuple(a[r - 1][c - 1] for c in alpha) for r in alpha)


def relabel(a, perm) -> tuple:
    """Element perm[p] gets label p."""
    return tuple(tuple(a[x][y] for y in perm) for x in perm)


def canonical_form(a) -> tuple:
    """Least relabelling over every permutation keeping a lower triangular."""
    n = len(a)
    if n > 6:
        raise ValueError("brute-force canonical form is limited to order 6")
    best = None
    for perm in permutations(range(n)):
        if any(a[perm[p]][perm[q]] for p in range(n) for q in range(p + 1, n)):
            continue
        cand = relabel(a, perm)
        if best is None or cand < best:
            best = cand
    return best


def all_matrices(n: int) -> list:
    """Every poset matrix of order n, by filtering every unit lower-triangular
    0/1 matrix through the transitivity check; sorted lexicographically."""
    cells = [(i, j) for i in range(n) for j in range(i)]
    out = []
    for bits in product((0, 1), repeat=len(cells)):
        grid = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), x in zip(cells, bits):
            grid[i][j] = x
        m = tuple(tuple(r) for r in grid)
        if is_transitive(m):
            out.append(m)
    return sorted(out)


def semi_equidual(a, b):
    """Smallest, then lexicographically first, 1-based index set alpha such
    that a and b agree outside alpha x alpha, a[alpha] is disconnected and
    b[alpha] is its dual; None when there is none."""
    n = len(a)
    for size in range(2, n + 1):
        for alpha in combinations(range(1, n + 1), size):
            if is_semi_equidual_witness(a, b, alpha):
                return alpha
    return None


def is_semi_equidual_witness(a, b, alpha) -> bool:
    inside = set(alpha)
    n = len(a)
    if any(
        a[p][q] != b[p][q]
        for p in range(n)
        for q in range(n)
        if not (p + 1 in inside and q + 1 in inside)
    ):
        return False
    block_a = principal(a, alpha)
    return not connectivity(block_a)[0] and dual(block_a) == principal(b, alpha)


# ---------------------------------------------------------------- law sweeps


def nested_sides(kind, a, b, c, i, j, comp=try_compose):
    """(A o_i B) o_{i+j-1} C and A o_i (B o_j C); None where undefined."""
    ab = comp(kind, a, i, b)
    bc = comp(kind, b, j, c)
    if ab is None or bc is None:
        return None
    left = comp(kind, ab, i + j - 1, c)
    right = comp(kind, a, i, bc)
    if left is None or right is None:
        return None
    return left, right


def parallel_sides(kind, a, b, c, i, j, comp=try_compose):
    """(A o_i B) o_{j+m-1} C and (A o_j C) o_i B for i < j; None where undefined."""
    ab = comp(kind, a, i, b)
    ac = comp(kind, a, j, c)
    if ab is None or ac is None:
        return None
    left = comp(kind, ab, j + len(b) - 1, c)
    right = comp(kind, ac, i, b)
    if left is None or right is None:
        return None
    return left, right


def unit_sides(kind, a, i):
    """[1] o_1 A and A o_i [1]; None where undefined."""
    left = try_compose(kind, UNIT, 1, a)
    right = try_compose(kind, a, i, UNIT)
    if left is None or right is None:
        return None
    return left, right


def sweep(kind: str, max_order: int) -> dict:
    """Exhaustive check of the three laws over every matrix of order
    1..max_order.  Cases are grouped by ascending total order (n for the
    unit law, n+m+k for the others); a law's sweep ends with the first
    group that holds a failure, and its witness is the least failure by
    (encoding of A, B, C, then i, j).  Returns law -> summary dict."""
    pools = {n: all_matrices(n) for n in range(1, max_order + 1)}
    memo = {}

    def comp(kind, a, i, b):  # the sweeps compose the same small pairs often
        key = (a, i, b)
        if key not in memo:
            memo[key] = try_compose(kind, a, i, b)
        return memo[key]

    return {
        "nested": _sweep_triples(kind, pools, max_order, nested_sides, comp, parallel=False),
        "parallel": _sweep_triples(kind, pools, max_order, parallel_sides, comp, parallel=True),
        "unit": _sweep_unit(kind, pools),
    }


def _summary(checked, skipped, failures):
    witness = min(failures, key=lambda f: f[0]) if failures else None
    return {
        "verdict": "fail" if failures else "pass",
        "cases_checked": checked,
        "cases_skipped": skipped,
        "witness": witness[1] if witness else None,
    }


def _sweep_triples(kind, pools, top, sides, comp, parallel):
    checked = skipped = 0
    failures = []
    for total in range(3, 3 * top + 1):
        for n, m in product(sorted(pools), repeat=2):
            k = total - n - m
            if k not in pools:
                continue
            for a, b, c in product(pools[n], pools[m], pools[k]):
                if parallel:
                    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                else:
                    positions = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
                for i, j in positions:
                    result = sides(kind, a, b, c, i, j, comp)
                    if result is None:
                        skipped += 1
                        continue
                    checked += 1
                    left, right = result
                    if left != right:
                        key = (encode(a), encode(b), encode(c), i, j)
                        failures.append((key, witness_dict(a, b, c, i, j, left, right)))
        if failures:
            break
    return _summary(checked, skipped, failures)


def _sweep_unit(kind, pools):
    checked = skipped = 0
    failures = []
    for n in sorted(pools):
        for a in pools[n]:
            for i in range(1, n + 1):
                result = unit_sides(kind, a, i)
                if result is None:
                    skipped += 1
                    continue
                checked += 1
                left, right = result
                if left != a or right != a:
                    key = (encode(a), "", "", i, 0)
                    failures.append((key, witness_dict(a, None, None, i, None, left, right)))
        if failures:
            break
    return _summary(checked, skipped, failures)


def witness_dict(a, b, c, i, j, left, right) -> dict:
    """A witness in the program's JSON layout."""
    return {
        "a": to_bits(a),
        "b": to_bits(b) if b is not None else None,
        "c": to_bits(c) if c is not None else None,
        "i": i,
        "j": j,
        "left": to_bits(left),
        "right": to_bits(right),
    }


def witness_problem(law: str, kind: str, w: dict, max_order: int):
    """None when the witness is a genuine failure of the law, recomposed by
    this module, with the stated sides; else a description of the fault."""
    a = from_bits(w["a"])
    b = from_bits(w["b"]) if w["b"] is not None else None
    c = from_bits(w["c"]) if w["c"] is not None else None
    for name, m in (("A", a), ("B", b), ("C", c)):
        if m is not None and not (1 <= len(m) <= max_order and is_poset_matrix(m)):
            return f"{name} is not a poset matrix of order <= {max_order}"
    if law == "nested":
        result = nested_sides(kind, a, b, c, w["i"], w["j"])
    elif law == "parallel":
        if not 1 <= w["i"] < w["j"] <= len(a):
            return "parallel positions must satisfy 1 <= i < j <= n"
        result = parallel_sides(kind, a, b, c, w["i"], w["j"])
    else:
        result = unit_sides(kind, a, w["i"])
    if result is None:
        return "a composition in the witness is undefined"
    left, right = result
    if law == "unit":
        if left == a and right == a:
            return "both unit sides equal A"
    elif left == right:
        return "the two sides are equal"
    if to_bits(left) != w["left"] or to_bits(right) != w["right"]:
        return "the stated sides differ from the recomposed ones"
    return None
