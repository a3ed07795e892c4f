"""posetmat benchmark: one workload, one seed, one JSON result line.

usage: python3 perfbench/run.py --workload {laws,classes,session}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds src/posetmat.  The run repeats
whole rounds of the workload until S seconds have passed (at least one
round); every process it starts is a fresh interpreter with cold caches,
and it waits for each one.  Every time is corrected to the reference speed
by the yardstick each process also times (speed.py).  Outputs are checked
against reference.py after the timed rounds.  The last line of standard output is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0, and with --trace 1 the
per-layer metrics of traced rounds (alternated with untraced rounds to
measure the tracing overhead).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import cli_workloads
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("laws", "classes", "session")
SETUP_PER_ROUND = 3  # set-up samples taken before each untraced round
CHILD_TIMEOUT = 150  # seconds; a child that takes longer is killed and the run fails
SETUP_CODE = (
    f"import sys; sys.path.append({str(BENCH)!r}); from speed import yardstick; "
    "before = yardstick(); from posetmat.cli import build_parser; build_parser(); "
    "print(before, yardstick())"
)


class Runner:
    """Starts children in the checkout with posetmat taken from its src/."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def spawn(self, args):
        """Run `python3 ARGS` to its end; returns (exit code, stdout, stderr)."""
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err
        return proc.returncode, out, err

    def record_path(self):
        self.count += 1
        return self.scratch / f"record-{self.count}.json"

    def read_record(self, path):
        """The JSON record a child wrote, checked to come from this checkout."""
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not Path(record["posetmat"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"posetmat was imported from {record['posetmat']}, not {ROOT / 'src'}")
        return record


def setup_sample(runner):
    """Wall time of a fresh interpreter importing posetmat.cli and building
    its parser, without the yardstick it times on either side, at the
    reference speed."""
    start = perf_counter()
    code, out, err = runner.spawn(["-c", SETUP_CODE])
    took = perf_counter() - start
    if code != 0:
        raise SystemExit(f"importing posetmat.cli failed:\n{err}")
    samples = [float(x) for x in out.split()]
    return (took - sum(samples)) * speed.factor(samples)


class Round:
    """What one round of a workload measured and produced."""

    def __init__(self):
        self.op_s = []  # seconds per operation, at the reference speed
        self.wall_s = []  # seconds per operation, as measured
        self.outputs = []  # per operation: what must repeat across rounds
        self.peak_kib = 0
        self.start_kib = None  # session: resident memory before its first call
        self.traces = []
        self.problems = None  # the session's own checks, when it made them

    @property
    def run_s(self):
        return sum(self.op_s)


def cli_round(runner, cmds, trace):
    rnd = Round()
    for argv in cmds:
        path = runner.record_path()
        code, out, err = runner.spawn([str(BENCH / "cli_child.py"), str(path), str(trace), "--", *argv])
        record = runner.read_record(path)
        if code is None or record is None:
            raise SystemExit(f"posetmat {' '.join(argv)}: no result (exit {code})\n{err}")
        rnd.wall_s.append(record["run_s"])
        rnd.op_s.append(record["run_s"] * speed.factor(record["yardstick_s"]))
        rnd.outputs.append((code, out))
        rnd.peak_kib = max(rnd.peak_kib, record["peak_rss_kib"])
        if trace:
            rnd.traces.append(record["trace"])
    return rnd


def session_round(runner, seed, trace, check=0):
    rnd = Round()
    path = runner.record_path()
    code, _, err = runner.spawn(
        [str(BENCH / "session.py"), "--seed", str(seed), "--out", str(path),
         "--trace", str(trace), "--check", str(check)]
    )
    record = runner.read_record(path) if code == 0 else None
    if record is None:
        raise SystemExit(f"session: no result (exit {code})\n{err}")
    rnd.wall_s = [took for _, took, _ in record["ops"]]
    factor = speed.factor(record["yardstick_s"])
    rnd.op_s = [took * factor for took in rnd.wall_s]
    rnd.outputs = [(name, d) for name, _, d in record["ops"]]
    rnd.peak_kib = record["peak_rss_kib"]
    rnd.start_kib = record["start_rss_kib"]
    rnd.problems = record.get("problems")
    if trace:
        rnd.traces.append(record["trace"])
    return rnd


def run_rounds(workload, runner, seed, seconds, trace):
    """Whole rounds until `seconds` have passed.  With trace, rounds come in
    (untraced, traced) pairs; without, set-up samples are spread over the
    run, before each round, after one untimed start that fills the bytecode
    cache.  Returns (commands, untraced rounds, traced rounds, set-up samples)."""
    cmds = None
    if workload == "laws":
        cmds = cli_workloads.laws_commands(seed)
    elif workload == "classes":
        cmds = cli_workloads.classes_commands(seed)

    def one(traced):
        if cmds is not None:
            return cli_round(runner, cmds, traced)
        return session_round(runner, seed, traced)

    plain, traced, setup = [], [], []
    if not trace:
        setup_sample(runner)
    deadline = perf_counter() + seconds
    while True:
        if not trace:
            setup += [setup_sample(runner) for _ in range(SETUP_PER_ROUND)]
        plain.append(one(0))
        if trace:
            traced.append(one(1))
        if perf_counter() >= deadline:
            return cmds, plain, traced, setup


def count_failures(workload, runner, seed, cmds, rounds):
    """(attempted, failed, problems): an operation fails when its outcome is
    not the expected one.  The first round is checked against the
    reference; every other round must repeat its outcomes exactly."""
    if workload == "session":
        checked = session_round(runner, seed, 0, check=1)
        expected = checked.outputs
        verdicts = checked.problems
    else:
        expected = rounds[0].outputs
        check = cli_workloads.check_laws if workload == "laws" else cli_workloads.check_classes
        verdicts = check(cmds, expected)
    problems = []
    failed = 0
    for rnd in rounds:
        for k, output in enumerate(rnd.outputs):
            why = verdicts[k]
            if why is None and output != expected[k]:
                why = "outcome differs from the checked round"
            if why is not None:
                failed += 1
                problems.append(f"operation {k}: {why}")
    attempted = sum(len(rnd.outputs) for rnd in rounds)
    return attempted, failed, problems


def end_to_end(rounds, setup):
    # Every round makes the same operations in the same order.  Each
    # operation's time is its median across rounds; op_gmean_ms is the
    # geometric mean of those.  A median over the operations would fall in
    # a gap between two commands (laws has one between about 170 and
    # 230 ms) and jump across it from run to run.
    ops = [statistics.median(times) for times in zip(*(rnd.op_s for rnd in rounds))]
    return {
        "run_s": (statistics.median(rnd.run_s for rnd in rounds), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (max(rnd.peak_kib for rnd in rounds) / 1024, "MiB"),
        "op_gmean_ms": (statistics.geometric_mean(ops) * 1e3, "ms"),
    }


def per_layer(plain, traced):
    merged = tracer.merge(t for rnd in traced for t in rnd.traces)
    metrics = tracer.layer_metrics(merged, len(traced))
    overhead = statistics.median(r.run_s for r in traced) - statistics.median(r.run_s for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main():
    parser = argparse.ArgumentParser(description="posetmat benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "posetmat" / "__init__.py").is_file():
        print(f"no posetmat source at {ROOT / 'src' / 'posetmat'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(scratch)
        cmds, plain, traced, setup = run_rounds(args.workload, runner, args.seed, args.seconds, args.trace)
        attempted, failed, problems = count_failures(
            args.workload, runner, args.seed, cmds, plain + traced
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in problems[:20]:
        print(line, file=sys.stderr)

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {
        "result": result,
        "round_run_s": [rnd.run_s for rnd in plain],
        "round_wall_run_s": [sum(rnd.wall_s) for rnd in plain],
        "traced_round_run_s": [rnd.run_s for rnd in traced],
        "setup_samples_s": setup,
        "round_peak_rss_mib": [rnd.peak_kib / 1024 for rnd in plain],
        "round_start_rss_mib": [rnd.start_kib / 1024 for rnd in plain if rnd.start_kib is not None],
        "problems": problems,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
