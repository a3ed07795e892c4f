"""A fixed piece of pure-Python work, timed next to every measurement, that
corrects the benchmark's times for the machine's speed of the moment.

On a shared machine the same pure-Python loop runs up to 1.7 times slower
for stretches of several seconds, and process CPU time slows as much as
wall time.  Every process that times posetmat therefore also times
`yardstick()` just before and just after, and the time it reports is

    measured time * REFERENCE_S / (mean of its yardstick times),

the time the work would take at the speed where the yardstick takes
REFERENCE_S.  The yardstick never calls posetmat, so a change to the program
moves the corrected time as it moves the wall time.  Its objects are small
and its own: a dictionary of 1024 integers and a few 8-tuples.
"""

from time import perf_counter

REFERENCE_S = 0.025  # yardstick time at the reference speed


def _flip(row, k):
    return tuple(x ^ (k & 1) for x in row)


def yardstick():
    """Seconds this process takes now for the fixed work: dictionary
    updates on small integers, then tuples built by generators, hashed and
    summed, the kinds of work posetmat's matrices are made of."""
    start = perf_counter()
    counts = {}
    for i in range(40000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i * 3 % 7
    rows = [tuple((i * j) & 1 for j in range(8)) for i in range(8)]
    seen = set()
    total = 0
    for k in range(900):
        m = tuple(_flip(r, k) for r in rows)
        seen.add(m)
        total += sum(1 for r in m for x in r if x)
    return perf_counter() - start


def factor(samples):
    """What a time measured next to these yardstick samples is multiplied
    by to give it at the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)
