"""Random mode of operad.verify_laws: seeded random trials of each law.

Random mode never lists the pools.  Each law draws its trials from its own
generator (seed + t) as pool indices into PM(1), ..., PM(N) listed in
turn, and the draws depend only on the pool sizes (matrix_count) and the
order of each drawn matrix (proved at _draw).  By the operad module's
rules, a mask kind holds every unit case, and its parallel cases are
skipped only where A has order 1 and otherwise hold; square, min and max
hold every nested case.  So those laws read no matrix: the unit and
nested ones are counted, checked = trials, without a draw, and parallel
draws only to count its skips.  The rest (_reads) record their draws in
bytes and mark each drawn index that they read with a 1, then walk the
levels once, the last one parent by parent over PM(N-1) as
matrices_by_parent does, and read each marked matrix once (_Drawn): its
two bit masks (operad._reader), of which each distinct key is turned once
into a row of signatures, antichain and unit verdicts (operad._row).
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
from itertools import accumulate
from struct import Struct

from .compose import COL_AT_MIN, ROW_AT_MAX
from .enumeration import _below, _ideals, matrix_count
from .operad import LAWS, NESTED, PARALLEL, UNIT_LAW, _outer, _reader, _row, _Tally

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
    n_A + 1), 2)).  On CPython 3.10 and 3.11, random.py makes these calls:
      - choice(seq) is seq[self._randbelow(len(seq))], and randrange(n) is
        _randbelow(n) for n > 0, so the index of A is randrange(len(flat));
      - randint(1, n) is randrange(1, n + 1), which is 1 + _randbelow(n),
        so it is 1 + randrange(n);
      - sample(range(1, n + 1), 2) takes its list path for n <= 21 (orders
        stop at the cap 8): it copies the range into pool, takes
        x = _randbelow(n) and pool[x] = 1 + x, moves pool[n - 1] = n into
        slot x, then takes y = _randbelow(n - 1) and pool[y]; that is
        (1 + x, n if y == x else 1 + y).
    Each call here makes the same _randbelow calls in the same order, so a
    seed draws the same cases as before, and a matrix's order is all that
    is read of it while drawing."""
    rng = random.Random(seed)
    randrange, total = rng.randrange, starts[-1]
    cases = bytearray() if any(reads) else None
    read_a, read_b, read_c = reads
    skipped = 0
    for _ in range(trials):
        a = randrange(total)
        n = bisect_right(starts, a)
        if law == UNIT_LAW:
            b = c = j = 0
            i = 1 + randrange(n)
        else:
            b, c = randrange(total), randrange(total)
            if law == NESTED:
                i, j = 1 + randrange(n), 1 + randrange(bisect_right(starts, b))
            elif n < 2:
                skipped += 1
                continue
            else:
                x, y = randrange(n), randrange(n - 1)
                i, j = sorted((1 + x, n if y == x else 1 + y))
        if cases is not None:
            cases += _CASE.pack(a, b, c, i, j)
            need[a] |= read_a
            need[b] |= read_b
            need[c] |= read_c
    return skipped, cases


class _Drawn:
    """The rows (_row) of the matrices marked in need, by pool index, read
    in one walk of the levels, and the row codes of any index.

    PM(1), ..., PM(N-1) are listed (_below); PM(N) is walked once, parent
    by parent over PM(N-1), as matrices_by_parent lists it, and only its
    marked children are built.  Each marked matrix is read once, by the
    kind's reader (_reader, chosen once), and each distinct masks key is
    turned into one row: table[g] is the place of index g's row in rows."""

    def __init__(self, rule, max_order, starts, need):
        self.starts = starts
        self.levels = _below(max_order)  # PM(0), ..., PM(N-1)
        self.top = 1 << (max_order - 1)
        # the index of each parent's first child, and each index's row
        self.firsts = memoryview(bytearray(4 * len(self.levels[-1]))).cast("I")
        self.table = memoryview(bytearray(4 * starts[-1])).cast("I")
        ids, masks = {}, _reader(rule)

        def read(start, end, child):
            g = need.find(1, start, end)
            while g >= 0:
                self.table[g] = ids.setdefault(masks(child(g - start)), len(ids))
                g = need.find(1, g + 1, end)

        for level, start in zip(self.levels[1:], self.starts):
            read(start, start + len(level), level.__getitem__)
        start = self.starts[-2]
        for p, parent in enumerate(self.levels[-1]):
            ideals = _ideals(parent)
            self.firsts[p] = start
            read(start, start + len(ideals), lambda k: parent + (ideals[k] | self.top,))
            start += len(ideals)
        self.rows = [_row(rule, masks) for masks in ids]

    def row(self, g) -> tuple:
        return self.rows[self.table[g]]

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
    row = drawn.row
    for a, b, c, i, j in _CASE.iter_unpack(cases):
        if law == UNIT_LAW:
            holds = row(a)[2][i - 1]
        else:
            breaks = _outer(rule, law, row(a)[0][i - 1], row(b if law == NESTED else a)[0][j - 1])
            holds = None if breaks is None else not breaks or law == NESTED and row(c)[1]
        if holds is None:
            tally.skipped += 1
            continue
        tally.checked += 1
        if not holds:
            key = tuple(_rank(drawn.starts, g) for g in (a, b, c)) + (i, j)
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
