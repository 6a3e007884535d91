"""Solver process: runs the CLI on every problem of a workload, round after round.

    python3 bench/solve.py WORK_DIR SECONDS TRACE

It imports ``sympsheaf.cli`` from the checkout's ``src`` and calls
``cli.main([command, "--input", file, "--output", "json"])`` on one problem at
a time (closed loop, one caller), timing each call from entry to report
written.  Whole rounds over all problems repeat until SECONDS have passed.
First-round reports go to WORK_DIR/reports for checking by the parent; later
rounds must reproduce them byte for byte.  With TRACE=1 every other round
runs with the probes of ``probes.py`` installed.  Results go to
WORK_DIR/solve.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from sympsheaf import cli  # noqa: E402


def run_round(calls, reports_dir=None):
    """One pass over the problems: per-call seconds and digests of (code, report)."""
    times, digests = [], []
    for name, argv in calls:
        buf = io.StringIO()
        with redirect_stdout(buf):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the CLI would die with a traceback and exit 1
                code = 1
                buf.write(traceback.format_exc())
            elapsed = perf_counter() - t0
        text = buf.getvalue()
        times.append(elapsed)
        digests.append(hashlib.sha256(f"{code}\n{text}".encode()).hexdigest())
        if reports_dir is not None:
            (reports_dir / name).write_text(json.dumps({"code": code, "report": text}),
                                            encoding="utf-8")
    return times, digests


def main(argv):
    work, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    calls = [(e["file"], [e["command"], "--input", str(work / e["file"]), "--output", "json"])
             for e in manifest]
    reports = work / "reports"
    reports.mkdir(exist_ok=True)
    if trace:
        from probes import Tracer

    start = perf_counter()
    first, reference = run_round(calls, reports)
    rounds, traced, snapshots, absent, mismatches = [first], [], [], [], 0

    def timed_round(into):
        times, digests = run_round(calls)
        into.append(times)
        return sum(d != r for d, r in zip(digests, reference))

    while perf_counter() - start < seconds or (trace and not traced):
        if trace:  # probed and unprobed rounds alternate, so that drift hits both alike
            tracer = Tracer()
            tracer.install()
            try:
                mismatches += timed_round(traced)
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot())
            absent = tracer.absent
        mismatches += timed_round(rounds)

    result = {"rounds": rounds, "mismatches": mismatches,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        result.update(traced_rounds=traced, snapshots=snapshots, absent=absent)
    (work / "solve.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
