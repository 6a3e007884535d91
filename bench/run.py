"""The sympsheaf benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload forms --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It generates the workload's problems from
the seed, times ``import sympsheaf.cli`` in fresh interpreters (set-up),
solves the problems through ``sympsheaf.cli.main`` round after round in a
separate solver process, checks every report against the planted answers,
and prints each metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a probed run with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import probes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 8  # before the solve and again after it
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t0 = time.perf_counter()\n"
                "import sympsheaf.cli\n"
                "print(time.perf_counter() - t0)\n")
DEADLINE_S = 170  # a run must end within 180 s

# problem counts the probes must see once per pass, by the subcommand that makes them
PROBE_COUNTS = {
    "cli.main.calls": None,
    "symplectic.darboux_basis.calls": "darboux",
    "symplectic.skew_normal_form.calls": "normal-form",
    "exterior.wedge.calls": "wedge",
    "charpoly.eigen_sections.calls": "eigen",
    "presheaf.check_completeness.calls": "sheaf-check",
}


def import_seconds(launches):
    """``import sympsheaf.cli`` timed inside fresh interpreters, so that
    process spawn is left out."""
    out = []
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def solve(work, seconds, trace, deadline):
    proc = subprocess.Popen([sys.executable, str(BENCH / "solve.py"), str(work),
                             str(seconds), str(int(trace))], cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("solver did not finish in time")
    if code != 0:
        raise SystemExit(f"solver exited with code {code}")
    return json.loads((work / "solve.json").read_text(encoding="utf-8"))


def check_reports(work, manifest):
    """Number of problems whose first-round report fails its check."""
    failed = 0
    for entry in manifest:
        problem = json.loads((work / entry["file"]).read_text(encoding="utf-8"))
        saved = json.loads((work / "reports" / entry["file"]).read_text(encoding="utf-8"))
        reason = check.check(entry["command"], problem, entry["plant"],
                             saved["code"], saved["report"])
        if reason is not None:
            failed += 1
            print(f"FAILED {entry['file']}: {reason}", file=sys.stderr)
    return failed


def medians(rounds):
    """Each problem's median time over the rounds."""
    return [statistics.median(ts) for ts in zip(*rounds)]


def end_to_end(result, setup_s):
    per_problem = medians(result["rounds"])
    return {
        "setup_s": setup_s,
        "report_gmean_s": math.exp(statistics.fmean(math.log(t) for t in per_problem)),
        "problems_per_s": len(per_problem) / sum(per_problem),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result, manifest):
    """Median of each per-pass figure over the traced passes, plus the
    probe-count checks; returns (metrics, problems with the checks)."""
    snapshots = result["snapshots"]
    metrics = {}
    for key in snapshots[0]:
        vals = [s[key] for s in snapshots]
        metrics[key] = statistics.median_low(vals) if isinstance(vals[0], int) else statistics.median(vals)
    metrics["trace.overhead_ratio"] = (sum(medians(result["traced_rounds"]))
                                       / sum(medians(result["rounds"])))
    problems = []
    for key, command in PROBE_COUNTS.items():
        if set(probes.TIMED[key.rsplit(".", 1)[0]]) <= set(result["absent"]):
            continue
        want = sum(1 for e in manifest if command in (None, e["command"]))
        got = [s[key] for s in snapshots]
        if any(g != want for g in got):
            problems.append(f"{key} = {got}, expected {want} per pass")
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="sympsheaf benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "sympsheaf" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"no sympsheaf checkout with BENCHMARK.json at {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = BENCH / "_work" / f"{args.workload}-{args.seed}"
    manifest = gen.write(args.workload, args.seed, work)
    if not args.trace:
        import_seconds(1)  # writes the bytecode caches, which every later launch reads
        setup = import_seconds(SETUP_LAUNCHES)
    result = solve(work, args.seconds, args.trace, deadline)
    failed_per_round = check_reports(work, manifest)
    rounds = len(result["rounds"]) + len(result.get("traced_rounds", []))
    attempted = len(manifest) * rounds
    failed = failed_per_round * rounds
    correct = result["mismatches"] == 0
    if not correct:
        print(f"{result['mismatches']} reports differ from the first round's", file=sys.stderr)

    if args.trace:
        values, problems = per_layer(result, manifest)
        for t in result["absent"]:
            print(f"probe absent: {t}", file=sys.stderr)
        for p in problems:
            print(f"probe count check failed: {p}", file=sys.stderr)
        correct = correct and not problems
        declared = spec["per_layer"]
    else:
        setup += import_seconds(SETUP_LAUNCHES)
        values = end_to_end(result, statistics.median(setup))
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}, seed {args.seed}: {len(manifest)} problems x {rounds} rounds"
          f"{' (every other one probed)' if args.trace else ''}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
