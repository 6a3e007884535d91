"""Independent checks of the CLI's reports against the planted answers.

Each checker recomputes what it needs in plain ``fractions`` from the
*input* problem and the generator's plant, never from a saved copy of an
earlier report, and returns None when the report is right or a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from itertools import combinations

import qmat
from qmat import Q


class Wrong(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Wrong(message)


def values(entry, points):
    """Per-point values of a bare rational or a section object."""
    if isinstance(entry, dict):
        vals = entry["values"]
        expect(set(vals) == set(points), f"section over {sorted(vals)}, expected {points}")
        return [qmat.from_json(vals[p]) for p in points]
    return [qmat.from_json(entry)] * len(points)


def stalks(matrix, points):
    """Per-point ℚ matrices of a matrix of section entries."""
    grid = [[values(e, points) for e in row] for row in matrix]
    return [[[e[k] for e in row] for row in grid] for k in range(len(points))]


def vector_stalks(vector, points):
    grid = [values(e, points) for e in vector]
    return [[e[k] for e in grid] for k in range(len(points))]


def is_zero_matrix(matrix, points):
    return all(x == 0 for m in stalks(matrix, points) for row in m for x in row)


# -- forms -----------------------------------------------------------------------

def _congruence(problem, plant, report, target):
    points = problem["open"]
    m = plant["m"]
    result = report["result"]
    expect(result["m"] == m, f"m = {result['m']}, planted {m}")
    omegas = stalks(problem["form"], points)
    Ps = stalks(result["change_of_basis"], points)
    grams = stalks(report["certificate"]["gram"], points)
    for x, omega, P, gram in zip(points, omegas, Ps, grams):
        expect(len(P) == plant["n"] and all(len(r) == plant["n"] for r in P), "P has the wrong shape")
        expect(qmat.det(P) != 0, f"P is singular at {x}")
        expect(qmat.matmul(qmat.matmul(qmat.transpose(P), omega), P) == target,
               f"ᵗPΩP is not the normal form at {x}")
        expect(gram == target, f"reported gram is not the normal form at {x}")
    return Ps


def check_darboux(problem, plant, report):
    n, m = plant["n"], plant["m"]
    Ps = _congruence(problem, plant, report, qmat.standard_J(m))
    basis = report["result"]["basis"]
    expect(len(basis) == n, f"{len(basis)} basis vectors, expected {n}")
    for k, vec in enumerate(basis):
        for P, v in zip(Ps, vector_stalks(vec, problem["open"])):
            expect(v == [row[k] for row in P], f"basis vector {k} is not column {k} of P")


def check_normal_form(problem, plant, report):
    _congruence(problem, plant, report, qmat.block_form(plant["m"], plant["n"]))


def shuffle_wedge(xi, eta):
    """ξ∧η on strictly increasing index tuples: the shuffle sum with signs."""
    out = {}
    for left, a in xi.items():
        for right, b in eta.items():
            if set(left) & set(right):
                continue
            seq = left + right
            inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
            key = tuple(sorted(seq))
            out[key] = out.get(key, 0) + (-1) ** inversions * a * b
    return out


def _kform_stalks(form, points):
    per_point = [{} for _ in points]
    for key, entry in form["coeffs"].items():
        idx = tuple(json.loads(key))
        for k, v in enumerate(values(entry, points)):
            per_point[k][idx] = v
    return per_point


def check_wedge(problem, plant, report):
    points = problem["open"]
    xi, eta = problem["xi"], problem["eta"]
    form = report["result"]["form"]
    degree = xi["degree"] + eta["degree"]
    expect(form["degree"] == degree and form["rank"] == xi["rank"], "wrong degree or rank")
    expect(report["result"]["degree_overflow"] is (degree > xi["rank"]), "wrong degree_overflow")
    expected = [shuffle_wedge(a, b) for a, b in
                zip(_kform_stalks(xi, points), _kform_stalks(eta, points))]
    keys = {k for stalk in expected for k, v in stalk.items() if v != 0}
    got = _kform_stalks(form, points)
    expect({k for stalk in got for k in stalk} == keys, "wrong set of nonzero coefficients")
    for x, want, have in zip(points, expected, got):
        for k in keys:
            expect(want.get(k, 0) == have[k], f"coefficient {list(k)} wrong at {x}")


# -- spectral ----------------------------------------------------------------------

def planted_charpoly(eigs, blocks):
    poly = [Q(1)]
    for lam in eigs:
        poly = qmat.poly_mul(poly, [-lam, Q(1)])
    for c in blocks:
        poly = qmat.poly_mul(poly, [Q(c), Q(0), Q(1)])
    return poly


def check_charpoly(problem, plant, report):
    points = problem["open"]
    result = report["result"]
    expect(result["monic"] is True, "not reported monic")
    coeffs = [values(c, points) for c in result["coeffs"]]
    for k, x in enumerate(points):
        eigs = [qmat.from_json(v) for v in plant["eigenvalues"][x]]
        want = planted_charpoly(eigs, plant["blocks"])
        expect([c[k] for c in coeffs] == want, f"det(tI − M) is not the planted polynomial at {x}")
    expect(is_zero_matrix(report["certificate"]["cayley_hamilton_residue"], points),
           "Cayley–Hamilton residue is not zero")


def check_eigen(problem, plant, report):
    points = problem["open"]
    # t² + c with c > 0 has no rational root, so only the integers count
    roots = {x: sorted({qmat.from_json(v) for v in plant["eigenvalues"][x]}) for x in points}
    most = max(len(r) for r in roots.values())
    fewest = min(len(r) for r in roots.values())
    omitted = [x for x in points if len(roots[x]) < most] if most else list(points)
    result = report["result"]
    expect(result["omitted_points"] == omitted,
           f"omitted {result['omitted_points']}, expected {omitted}")
    expect(len(result["pairs"]) == fewest, f"{len(result['pairs'])} pairs, expected {fewest}")
    Ms = stalks(problem["matrix"], points)
    for k, pair in enumerate(result["pairs"]):
        lams = values(pair["lambda"], points)
        vecs = vector_stalks(pair["vector"], points)
        for x, M, lam, v in zip(points, Ms, lams, vecs):
            expect(lam == roots[x][k], f"eigenvalue {k} at {x} is {lam}, expected {roots[x][k]}")
            expect(any(v), f"eigenvector {k} vanishes at {x}")
            expect(qmat.matvec(M, v) == [lam * c for c in v], f"Mv ≠ λv for pair {k} at {x}")
    for residue in report["certificate"]["residues"]:
        expect(all(x == 0 for v in vector_stalks(residue, points) for x in v), "nonzero residue")


def check_symplectic(problem, plant, report):
    points = problem["open"]
    J = qmat.standard_J(plant["n"] // 2)
    result = report["result"]
    expect(result["symplectic"] is True, "not reported symplectic")
    expect(values(result["det"], points) == [Q(1)] * len(points), "det is not 1 everywhere")
    for x, M, pullback in zip(points, stalks(problem["matrix"], points),
                              stalks(report["certificate"]["pullback"], points)):
        expect(qmat.matmul(qmat.matmul(qmat.transpose(M), J), M) == J, f"ᵗMJM ≠ J at {x}")
        expect(pullback == J, f"reported pullback is not J at {x}")


# -- sheaf ---------------------------------------------------------------------------

def overlap_components(cover):
    """Connected components of the cover's nonempty-overlap graph."""
    parent = list(range(len(cover)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(len(cover)), 2):
        if set(cover[i]) & set(cover[j]):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(cover))})


def sheaf_verdict(problem):
    """Expected exit code and S2 status, from the construction alone.

    The function presheaf is the structure sheaf: S1 and S2 hold.  The
    constant presheaf glues exactly over covers whose overlap graph is
    connected (any family on a disconnected one can take two values).
    """
    if problem["presheaf"] == "functions":
        return 0, "pass"
    connected = overlap_components(problem["cover"]) == 1
    return (0, "pass") if connected or len(problem["grid"]) < 2 else (1, "fail")


def check_sheaf(problem, plant, report):
    code, s2 = sheaf_verdict(problem)
    result = report["result"]
    expect(report["status"] == ("ok" if code == 0 else "CompletenessFailure"), "wrong status")
    expect(result["S1"] == {"axiom": "S1", "status": "pass", "witness": None}, "S1 should pass")
    expect(result["S2"]["status"] == s2, f"S2 {result['S2']['status']}, expected {s2}")
    if s2 == "pass":
        expect(result["S2"]["witness"] is None, "passing S2 has a witness")
        return
    family = result["S2"]["witness"]["family"]
    cover = problem["cover"]
    expect([sorted(f["open"]) for f in family] == [sorted(V) for V in cover],
           "witness family is not over the input cover")
    grid = {qmat.from_json(g) for g in problem["grid"]}
    vals = [qmat.from_json(f["section"]) for f in family]
    expect(all(v in grid for v in vals), "witness section outside the grid")
    for i, j in combinations(range(len(cover)), 2):
        if set(cover[i]) & set(cover[j]):
            expect(vals[i] == vals[j], "witness family is not compatible")
    expect(len(set(vals)) > 1, "witness family has a glue")


CHECKERS = {
    "darboux": check_darboux,
    "normal-form": check_normal_form,
    "wedge": check_wedge,
    "charpoly": check_charpoly,
    "eigen": check_eigen,
    "check-symplectic": check_symplectic,
    "sheaf-check": check_sheaf,
}


def expected_code(command, problem):
    return sheaf_verdict(problem)[0] if command == "sheaf-check" else 0


def check(command, problem, plant, code, report_text):
    """None when the report is right, else the reason it is wrong."""
    want = expected_code(command, problem)
    if code != want:
        return f"exit code {code}, expected {want}"
    try:
        report = json.loads(report_text)
        expect(report["command"] == command, "wrong command in report")
        if code == 0:
            expect(report["status"] == "ok", f"status {report['status']}")
        CHECKERS[command](problem, plant, report)
    except Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
