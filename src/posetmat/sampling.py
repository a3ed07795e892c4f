"""Random mode of operad.verify_laws: seeded random trials of each law.

Random mode never lists the pools.  Each law draws its trials from its own
generator (seed + t) as pool indices into PM(1), ..., PM(N) listed in
turn, and the draws depend only on the pool sizes (matrix_count) and the
order of each drawn matrix (proved at _draw).  By the operad module's
rules, a mask kind holds every unit case, and its parallel cases are
skipped only where A has order 1 and otherwise hold; square, min and max
hold every nested case.  So those laws read no matrix: the unit and
nested ones are counted, checked = trials, without a draw, and parallel
draws only to count its skips.  Each draw is one getrandbits rejection
loop, random.py's _randbelow inlined (_draw).  The rest (_reads) record
their draws in bytes and mark each drawn index that they read with a 1,
then walk the levels once (_Drawn): the masks of PM(1), ..., PM(N-1) come
from the kind's extension rule (operad._reader) in one walk
(operad._masks), and PM(N) is walked parent by parent over PM(N-1), as
matrices_by_parent does, each marked child's masks made from its parent's
and its ideal, without building it.  Each distinct masks key is turned
once into a row of signatures, antichain and unit verdicts (operad._row).
Each case is then decided from those rows, and only the least failing
case is kept, by the witness order on pool indices (_rank).  Random mode
holds at most PM(N-1) and a few bytes per pool index and per trial,
however large PM(N) is.

operad imports this module when random mode first runs, as it imports
operad's rule.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, compress, count
from struct import Struct

from .compose import COL_AT_MIN, ROW_AT_MAX
from .enumeration import _below, _ideals, matrix_count
from .operad import LAWS, NESTED, PARALLEL, UNIT_LAW, _masks, _outer, _reader, _row, _Tally

# One drawn case (a, b, c, i, j) as five 4-byte ints
_CASE = Struct("5i")


def _reads(rule, law) -> tuple:
    """Whether random mode reads A, B and C in a case of law, by the
    operad module's rules.  A boxed kind's rule reads the signatures of A
    (parallel), of A and B (nested, which never breaks there, so C is never
    read), or A's unit verdicts; minmax nested reads the signatures of A
    and B and whether C is an antichain.  Nothing else reads a matrix: a
    mask kind holds every unit case and breaks no parallel case, and
    square, min and max break no nested case."""
    u_fill, v_fill, a21 = rule
    if a21 is not None:
        return True, law == NESTED, False
    return (law == NESTED and (u_fill, v_fill) == (ROW_AT_MAX, COL_AT_MIN),) * 3


def _draw(law, reads, starts, trials, seed, need):
    """One law's random trials, drawn from the pool sizes alone: (skipped,
    cases), cases the pool indices and positions a, b, c, i, j of each trial
    not skipped, packed in turn (_CASE; b, c and j are 0 for the unit law),
    kept only when the law reads a matrix (reads, from _reads), whose
    indices are then marked 1 in need.

    The pools are PM(1), ..., PM(N) listed in turn, and starts holds the
    index of each one's first matrix and then their total, so index g has
    order bisect_right(starts, g).  The trials draw as random mode always
    has, from rng = random.Random(seed) and that list, flat:
    A = rng.choice(flat); for the unit law i = rng.randint(1, n_A); else B
    and C by choice, then nested i = randint(1, n_A) and j = randint(1, n_B),
    or parallel, skipped if n_A < 2, i < j = sorted(rng.sample(range(1,
    n_A + 1), 2)).  On CPython 3.10 to 3.13, random.py makes these calls:
      - choice(seq) is seq[self._randbelow(len(seq))], and randrange(n) is
        _randbelow(n) for n > 0, so the index of A is _randbelow(len(flat));
      - randint(1, n) is randrange(1, n + 1), which is 1 + _randbelow(n);
      - sample(range(1, n + 1), 2) takes its list path for n <= 21 (orders
        stop at the cap 8): it copies the range into pool, takes
        x = _randbelow(n) and pool[x] = 1 + x, moves pool[n - 1] = n into
        slot x, then takes y = _randbelow(n - 1) and pool[y]; that is
        (1 + x, n if y == x else 1 + y);
      - Random's _randbelow(n) is _randbelow_with_getrandbits: with
        k = n.bit_length(), it takes r = getrandbits(k) until r < n and
        returns that r.
    So every draw is one _randbelow(n) with n > 0, and each loop
    `while (r := getrandbits(k)) >= n` here is that call inlined: it makes
    the same getrandbits(k) calls and keeps the same r.  The loops run in
    the order of the calls above, so a seed draws the same cases as
    before, and a matrix's order is all that is read of it while
    drawing."""
    getrandbits, total = random.Random(seed).getrandbits, starts[-1]
    width, pack = total.bit_length(), _CASE.pack
    cases = bytearray() if any(reads) else None
    read_a, read_b, read_c = reads
    unit, nested = law == UNIT_LAW, law == NESTED
    skipped = 0
    for _ in range(trials):
        while (a := getrandbits(width)) >= total:
            pass
        n = bisect_right(starts, a)
        k = n.bit_length()
        if unit:
            b = c = j = 0
            while (i := getrandbits(k)) >= n:
                pass
            i += 1
        else:
            while (b := getrandbits(width)) >= total:
                pass
            while (c := getrandbits(width)) >= total:
                pass
            if nested:
                m = bisect_right(starts, b)
                while (i := getrandbits(k)) >= n:
                    pass
                while (j := getrandbits(m.bit_length())) >= m:
                    pass
                i, j = i + 1, j + 1
            elif n < 2:
                skipped += 1
                continue
            else:
                while (x := getrandbits(k)) >= n:
                    pass
                while (y := getrandbits((n - 1).bit_length())) >= n - 1:
                    pass
                i, j = 1 + x, n if y == x else 1 + y
                if i > j:
                    i, j = j, i
        if cases is not None:
            cases += pack(a, b, c, i, j)
            need[a] |= read_a
            need[b] |= read_b
            need[c] |= read_c
    return skipped, cases


class _Drawn:
    """The rows (_row) of the matrices marked in need, by pool index, and
    the row codes of any index.

    PM(1), ..., PM(N-1) are listed (_below), and their masks made by the
    kind's extension rule (_reader, chosen once) in one walk (_masks).
    PM(N) is walked once, parent by parent over PM(N-1), as
    matrices_by_parent lists it, and each marked child's masks come from
    its parent's and its ideal, without building it.  Each distinct masks
    key is turned into one row: table[g] is the place of index g's row in
    rows."""

    def __init__(self, rule, max_order, starts, need):
        self.starts = starts
        self.levels = _below(max_order)  # PM(0), ..., PM(N-1)
        self.top = 1 << (max_order - 1)
        # the index of each parent's first child, and each index's row
        self.firsts = memoryview(bytearray(4 * len(self.levels[-1]))).cast("I")
        self.table = memoryview(bytearray(4 * starts[-1])).cast("I")
        ids, extend, table = {}, _reader(rule), self.table
        keys = _masks(extend, self.levels)

        def read(start, marks, masks):
            """Gives each marked index from start its row; masks are the
            masks of the marked matrices, in turn."""
            for g, key in zip(compress(count(start), marks), masks):
                table[g] = ids.setdefault(key, len(ids))

        for level, start in zip(keys[1:], starts):
            marks = need[start : start + len(level)]
            read(start, marks, compress(level, marks))
        start = starts[-2]
        for p, (parent, masks) in enumerate(zip(self.levels[-1], keys[-1])):
            ideals = _ideals(parent)
            self.firsts[p] = start
            marks = need[start : start + len(ideals)]
            if 1 in marks:
                read(start, marks, extend(masks, list(compress(ideals, marks))))
            start += len(ideals)
        self.rows = [_row(rule, masks) for masks in ids]

    def codes(self, g) -> tuple:
        n = bisect_right(self.starts, g)
        if n < len(self.levels):
            return self.levels[n][g - self.starts[n - 1]]
        p = bisect_right(self.firsts, g) - 1
        parent = self.levels[-1][p]
        return parent + (_ideals(parent)[g - self.firsts[p]] | self.top,)


def _rank(starts, g) -> tuple:
    """The witness order (_case_key) on pool indices: PM(1), then PM(N),
    PM(N-1), ..., PM(2), each in its own order.  Within an order the key
    _enc ascends along the level (_levels).  Across orders, every matrix's
    first row is 1 and then zeros: the one matrix of order 1 has the key
    "1", a prefix of every other key, and for 2 <= n < m a matrix of order
    n has ";" where one of order m has "0", at place n of the key, and
    "0" < ";"."""
    n = bisect_right(starts, g)
    return n > 1, -n, g


def _decide(rule, law, trials, skipped, cases, drawn) -> _Tally:
    """One law's tally from its draws (_draw).  A law that reads no matrix
    holds every case it does not skip.  Else each case is decided from the
    rows of its matrices, and only the least failing case is kept, by
    _rank; its matrices are then built."""
    tally = _Tally()
    tally.skipped = skipped
    if cases is None:
        tally.checked = trials - skipped
        return tally
    least = None
    rows, table, starts = drawn.rows, drawn.table, drawn.starts
    for a, b, c, i, j in _CASE.iter_unpack(cases):
        if law == UNIT_LAW:
            holds = rows[table[a]][2][i - 1]
        else:
            sb = rows[table[b if law == NESTED else a]][0][j - 1]
            breaks = _outer(rule, law, rows[table[a]][0][i - 1], sb)
            holds = None if breaks is None else not breaks or law == NESTED and rows[table[c]][1]
        if holds is None:
            tally.skipped += 1
            continue
        tally.checked += 1
        if not holds:
            rank = _rank(starts, a)
            if least is None or rank <= least[0][0]:  # else A alone ranks it above
                key = rank, _rank(starts, b), _rank(starts, c), i, j
                if least is None or key < least[0]:
                    least = key, (a, b, c, i, j)
    if least is not None:
        a, b, c, i, j = least[1]
        b, c = (None, None) if law == UNIT_LAW else (drawn.codes(b), drawn.codes(c))
        tally.failures.append((drawn.codes(a), b, c, i, j or None))
    return tally


def random_tallies(rule, max_order, trials, seed) -> list:
    """One _Tally per law of LAWS over seeded random cases, each law from
    its own generator (seed + t): drawn from the pool sizes (_draw), then
    decided from the drawn matrices that the rule reads (_Drawn)."""
    starts = [0, *accumulate(matrix_count(n) for n in range(1, max_order + 1))]
    reads = [_reads(rule, law) for law in LAWS]
    need = bytearray(starts[-1]) if any(map(any, reads)) else None
    draws = [  # a parallel law that reads nothing still draws, to count its skips
        _draw(law, r, starts, trials, seed + t, need) if any(r) or law == PARALLEL else (0, None)
        for t, (law, r) in enumerate(zip(LAWS, reads))
    ]
    drawn = _Drawn(rule, max_order, starts, need) if need else None
    return [_decide(rule, law, trials, *d, drawn) for law, d in zip(LAWS, draws)]
