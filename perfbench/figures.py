"""Reference figures for perfbench/README.md, measured once, not a workload.

usage: python3 perfbench/figures.py

Run from the root of the repository.  Prints one line per figure.  It also
times the two ROADMAP runs that are too long to repeat as workloads,
`laws --op minmax --max-n 4` and `enumerate --n 7 --classes`, so it takes
about two minutes.
"""

import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run


def median_us(fn, *args, repeat=2000):
    """Median of `repeat` timed calls, in microseconds."""
    samples = []
    for _ in range(repeat):
        start = perf_counter()
        fn(*args)
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e6


def cli(runner, argv):
    """(seconds inside posetmat.cli.run, peak RSS in MiB) of one command."""
    path = runner.record_path()
    code, _, err = runner.spawn([str(run.BENCH / "cli_child.py"), str(path), "0", "--", *argv])
    record = runner.read_record(path)
    if record is None:
        raise SystemExit(f"posetmat {' '.join(argv)} failed (exit {code}):\n{err}")
    return record["run_s"], record["peak_rss_kib"] / 1024


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    from posetmat import PosetMatrix, compose, validate, verify_laws
    from posetmat.compose import ALL_KINDS, kind_name

    print(f"python {sys.version.split()[0]}")
    per_kind = {}
    for kind in ALL_KINDS:
        start = perf_counter()
        verify_laws(kind, 3)
        per_kind[kind_name(kind)] = perf_counter() - start
    print(f"verify_laws exhaustive, order 3: {sum(per_kind.values()):.2f} s in total, "
          f"{min(per_kind.values()):.2f}-{max(per_kind.values()):.2f} s per kind")
    for kind in ("square", "min", "max", "minmax"):
        start = perf_counter()
        verify_laws(kind, 6, trials=3000, seed=1)
        print(f"verify_laws random, 3000 trials, order 6, {kind}: {perf_counter() - start:.2f} s")

    a = PosetMatrix.from_bits("100000;110000;101000;111100;100010;111111")
    b = PosetMatrix.from_bits("10000;11000;10100;11110;10001")
    for kind in ("square", "min", "max", "minmax"):
        print(f"compose {kind}, order 6 into order 5 at 3: {median_us(compose, kind, a, 3, b):.1f} us")
    print(f"validate, order 6: {median_us(validate, a.rows):.1f} us")

    with tempfile.TemporaryDirectory(dir=run.BENCH) as scratch:
        runner = run.Runner(Path(scratch))
        run.setup_sample(runner)
        setup = statistics.median(run.setup_sample(runner) for _ in range(9))
        print(f"setup (fresh interpreter, import posetmat.cli, build parser): {setup:.3f} s")
        commands = [
            ["enumerate", "--n", "6", "--classes", "--format", "json", "--print"],
            ["enumerate", "--n", "7"],
            ["laws", "--op", "minmax", "--max-n", "4"],
            ["enumerate", "--n", "7", "--classes"],
        ]
        for argv in commands:
            took, mib = cli(runner, argv)
            print(f"posetmat {' '.join(argv)}: {took:.2f} s, peak {mib:.0f} MiB")


if __name__ == "__main__":
    main()
