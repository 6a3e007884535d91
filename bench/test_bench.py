"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import probes  # noqa: E402
from sympsheaf import cli  # noqa: E402


def test_same_seed_same_bytes(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.write(workload, 3, tmp_path / "a")
        gen.write(workload, 3, tmp_path / "b")
        gen.write(workload, 4, tmp_path / "c")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == len(a) + 1
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
                   for n in names)


def solve_one(work, entry):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([entry["command"], "--input", str(work / entry["file"]), "--output", "json"])
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """The first problem of each (subcommand, presheaf kind) with its report."""
    out = {}
    for workload in gen.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        for entry in gen.write(workload, 1, work):
            problem = json.loads((work / entry["file"]).read_text())
            key = (entry["command"], problem.get("presheaf"), check.expected_code(entry["command"], problem))
            if key not in out:
                code, text = solve_one(work, entry)
                out[key] = (entry, problem, code, json.loads(text))
    return out


def bump(x):
    """A rational JSON value changed by one."""
    return str(check.Q(x) + 1)


def corrupt_entry(matrix, i, j):
    e = matrix[i][j]
    if isinstance(e, dict):
        p = next(iter(e["values"]))
        e["values"][p] = bump(e["values"][p])
    else:
        matrix[i][j] = bump(e)


def corruptions(command, report, problem):
    """Ways to spoil a correct report, each one a (name, spoiled report)."""
    out = []

    def spoiled(name, fn):
        r = copy.deepcopy(report)
        fn(r)
        out.append((name, r))

    res = "result"
    if command in ("darboux", "normal-form"):
        spoiled("P entry", lambda r: corrupt_entry(r[res]["change_of_basis"], 0, 0))
        spoiled("m", lambda r: r[res].__setitem__("m", r[res]["m"] - 1))
        spoiled("gram", lambda r: corrupt_entry(r["certificate"]["gram"], 0, 1))
    elif command == "charpoly":
        spoiled("coefficient", lambda r: r[res]["coeffs"].__setitem__(0, bump(0)))
        spoiled("residue", lambda r: corrupt_entry(r["certificate"]["cayley_hamilton_residue"], 0, 0))
    elif command == "eigen":
        spoiled("eigenvalue", lambda r: r[res]["pairs"][0].__setitem__("lambda", 1000001))
        spoiled("vector", lambda r: corrupt_entry([r[res]["pairs"][0]["vector"]], 0, 1))
        spoiled("omitted", lambda r: r[res].__setitem__("omitted_points", ["zz"]))
    elif command == "check-symplectic":
        spoiled("det", lambda r: r[res].__setitem__("det", 2))
        spoiled("pullback", lambda r: corrupt_entry(r["certificate"]["pullback"], 0, 0))
    elif command == "wedge":
        def coeff(r):
            coeffs = r[res]["form"]["coeffs"]
            k = next(iter(coeffs))
            e = [[coeffs[k]]]
            corrupt_entry(e, 0, 0)
            coeffs[k] = e[0][0]
        spoiled("coefficient", coeff)
        spoiled("missing coefficient",
                lambda r: r[res]["form"]["coeffs"].pop(next(iter(r[res]["form"]["coeffs"]))))
    elif command == "sheaf-check":
        if report["result"]["S2"]["status"] == "pass":
            spoiled("S2 verdict", lambda r: r[res]["S2"].__setitem__("status", "fail"))
        else:
            def glue(r):
                fam = r[res]["S2"]["witness"]["family"]
                for f in fam:
                    f["section"] = fam[0]["section"]
            spoiled("glueable witness", glue)
            spoiled("short witness", lambda r: r[res]["S2"]["witness"]["family"].pop())
        spoiled("S1 verdict", lambda r: r[res]["S1"].__setitem__("status", "fail"))
    return out


def test_every_subcommand_is_covered(solved):
    commands = {key[0] for key in solved}
    assert commands == set(check.CHECKERS)
    assert {key[2] for key in solved if key[0] == "sheaf-check"} == {0, 1}


def test_checkers_accept_the_reports(solved):
    for (command, _, _), (entry, problem, code, report) in solved.items():
        assert check.check(command, problem, entry["plant"], code, json.dumps(report)) is None


def test_checkers_reject_corrupted_reports(solved):
    for (command, _, _), (entry, problem, code, report) in solved.items():
        cases = corruptions(command, report, problem)
        assert cases
        for name, bad in cases:
            reason = check.check(command, problem, entry["plant"], code, json.dumps(bad))
            assert reason is not None, f"{command}: corrupted {name} was accepted"
        assert check.check(command, problem, entry["plant"], 2, json.dumps(report)) is not None


def test_wrong_eigenvalue_in_the_plant_is_caught(solved):
    entry, problem, code, report = next(v for k, v in solved.items() if k[0] == "eigen")
    plant = copy.deepcopy(entry["plant"])
    x = problem["open"][0]
    plant["eigenvalues"][x][0] = str(check.Q(plant["eigenvalues"][x][0]) + 1)
    assert check.check("eigen", problem, plant, code, json.dumps(report)) is not None


def test_probe_counts_and_restore(tmp_path):
    manifest = gen.write("forms", 1, tmp_path)
    entry = next(e for e in manifest if e["command"] == "darboux")
    original = cli.darboux_basis
    tracer = probes.Tracer()
    tracer.install()
    try:
        assert cli.darboux_basis is not original
        solve_one(tmp_path, entry)
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert cli.darboux_basis is original
    assert snap["cli.main.calls"] == 1
    assert snap["symplectic.darboux_basis.calls"] == 1
    assert snap["symplectic.check_form.calls"] >= 1
    assert snap["sections.constructed"] > 0
    assert snap["qlinalg.rref.calls"] >= 1 and snap["qlinalg.max_bits"] > 0
    assert tracer.absent == []


def test_missing_probe_is_tolerated(tmp_path, monkeypatch):
    monkeypatch.setitem(probes.TIMED, "symplectic.completion",
                        ["sympsheaf.symplectic:_no_such_function"])
    monkeypatch.setattr(probes, "CARRIERS", ["sympsheaf.presheaf:NoSuchPresheaf.sections"])
    manifest = gen.write("forms", 1, tmp_path)
    tracer = probes.Tracer()
    tracer.install()
    try:
        solve_one(tmp_path, manifest[0])
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert tracer.absent == ["sympsheaf.symplectic:_no_such_function",
                             "sympsheaf.presheaf:NoSuchPresheaf.sections"]
    assert snap["symplectic.completion.calls"] == 0
    assert snap["symplectic.completion_share"] == 0
    assert snap["cli.main.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sheaf", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
