"""Run one posetmat CLI command in this fresh interpreter and time it.

usage: python3 perfbench/cli_child.py RECORD_JSON TRACE(0|1) -- ARGS...

run.py starts it with src/ of the checkout on PYTHONPATH.
Standard output, standard error and the exit code are the command's own,
as `posetmat ARGS...` gives them.  RECORD_JSON receives the time spent in
`posetmat.cli.run(ARGS)` (the import of posetmat.cli is set-up, timed by
run.py as setup_s), the yardstick times taken just before and just after it
(see speed.py), the process's peak resident memory, and with TRACE 1 the
spans of the traced layers.
"""

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import yardstick


def peak_rss_kib():
    """Peak resident memory of this process image, in KiB.

    VmHWM starts afresh at exec.  getrusage's ru_maxrss does not: it keeps
    the peak of the parent image the child was forked from, which would
    count the benchmark's own memory."""
    return status_kib("VmHWM")


def status_kib(field):
    """One memory field of /proc/self/status, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise LookupError(f"no {field} in /proc/self/status")


def main():
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    import posetmat.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = yardstick()
    start = perf_counter()
    try:
        code = cli.run(argv)
    except SystemExit as e:  # argparse rejects a usage error this way
        code = e.code
    except Exception:  # an escaped traceback is an outcome the checks reject
        traceback.print_exc()
        code = 1
    took = perf_counter() - start
    after = yardstick()
    sys.stdout.flush()
    record = {
        "posetmat": cli.__file__,
        "run_s": took,
        "yardstick_s": [before, after],
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
