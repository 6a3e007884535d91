"""Seeded problem generators for the three benchmark workloads.

Every problem is built in plain ``fractions`` with a planted answer (the
Darboux rank, the spectrum, the sheaf verdict) that the checkers in
``check.py`` compare the CLI's reports against.  The make-up of each
workload (sizes, point counts, bit lengths, shapes) is a fixed schedule; the
seed draws the entries, permutations, signs and labels.  That keeps the cost
of each slot nearly the same from seed to seed, so that figures from
different seeds can be compared.

Regenerate the inputs of one run with

    python3 bench/gen.py --workload forms --seed 1 --out bench/_work/forms-1
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from itertools import combinations
from pathlib import Path

import qmat
from qmat import Q

WORKLOADS = ("forms", "spectral", "sheaf")

LABELS = "abcdefghjkmnpqrstuvwxyz"


# -- spaces ---------------------------------------------------------------------

def poset_space(rng, shapes):
    """A finite T0 space built from poset components, opens = up-sets.

    ``shapes`` lists components as (kind, size) with kind one of "chain",
    "vee" (one point below the others), "lambda" (one point above the
    others) or "antichain".  Returns (points, opens, up, components), where
    ``up[x]`` is the minimal open neighbourhood of x.
    """
    names = rng.sample(LABELS, sum(k for _, k in shapes))
    up, components, pos = {}, [], 0
    for kind, k in shapes:
        pts = names[pos:pos + k]
        pos += k
        components.append(pts)
        for i, p in enumerate(pts):
            if kind == "chain":
                up[p] = set(pts[i:])
            elif kind == "vee":
                up[p] = set(pts) if i == 0 else {p}
            elif kind == "lambda":
                up[p] = {p} if i == 0 else {p, pts[0]}
            elif kind == "antichain":
                up[p] = {p}
            else:
                raise ValueError(kind)
    points = sorted(names)
    opens = []
    for r in range(len(points) + 1):
        for subset in combinations(points, r):
            s = set(subset)
            if all(up[p] <= s for p in subset):
                opens.append(list(subset))
    return points, opens, up, components


def section_json(points, values):
    """A section over all points: a bare rational when constant."""
    if len(set(values)) == 1:
        return qmat.to_json(values[0])
    return {"open": list(points), "values": {p: qmat.to_json(v) for p, v in zip(points, values)}}


def matrix_json(points, per_point):
    """Glue per-point matrices into a matrix of section entries."""
    rows, cols = len(per_point[0]), len(per_point[0][0])
    return [[section_json(points, [m[i][j] for m in per_point]) for j in range(cols)]
            for i in range(rows)]


def small_space(rng, size):
    kind = rng.choice(("chain", "vee", "lambda", "antichain"))
    points, opens, _, _ = poset_space(rng, [(kind, size)])
    return points, {"points": points, "opens": opens}


# -- matrices -------------------------------------------------------------------

def nonzero(rng, r):
    return rng.choice([c for c in range(-r, r + 1) if c])


def unimodular(rng, n, ops, r):
    """S and S⁻¹ for a product of ``ops`` integer row operations."""
    S, S_inv = qmat.identity(n), qmat.identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = nonzero(rng, r)
        S[i] = [x + c * y for x, y in zip(S[i], S[j])]
        for row in S_inv:
            row[j] -= c * row[i]
    return S, S_inv


def permuted_diagonal(rng, n):
    """Π·D for a random permutation Π and diagonal D with entries ±1..±3."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = qmat.zeros(n, n)
    for i, p in enumerate(perm):
        out[p][i] = Q(nonzero(rng, 3))
    return out


def congruent(Q_mat, B):
    return qmat.matmul(qmat.matmul(qmat.transpose(Q_mat), B), Q_mat)


def rescaled(rng, omega):
    """D·Ω·D for a random diagonal D with entries ±1..±3."""
    d = [Q(nonzero(rng, 3)) for _ in omega]
    return [[d[i] * d[j] * x for j, x in enumerate(row)] for i, row in enumerate(omega)]


def moving_perms(rng, n, m, count):
    """One permutation per point, such that no index pair is sent to a pair
    (k, m + k) at every point."""
    def pairs(perm):
        at = {p: i for i, p in enumerate(perm)}
        return {frozenset((at[k], at[m + k])) for k in range(m)}

    while True:
        perms = [rng.sample(range(n), n) for _ in range(count)]
        if not set.intersection(*map(pairs, perms)):
            return perms


def skew_stalks(rng, kind, n, m, count):
    """Per-point stalks of a skew form of rank 2m, congruent to the block
    normal form B at every point.

    "dense" and "sparse": one ᵗQ·B·Q (Q unimodular; Π·D after a few row
    operations for "sparse"), rescaled per point as D·ᵗQBQ·D.  Every pairing
    met in the reduction then vanishes at all points or at none, so the
    reduction always finds unit pivots.  "moving": ᵗ(Π·D)·B·(Π·D) with Π drawn
    per point and no index pair matched at every point, so no pairing is a
    unit and the reduction falls back to pointwise completion at once.  The
    path the reduction takes is thus fixed by the kind, not by the seed.
    """
    B = qmat.block_form(m, n)
    if kind == "moving":
        return [rescaled(rng, [[B[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
                for perm in moving_perms(rng, n, m, count)]
    if kind == "dense":
        Q_mat, _ = unimodular(rng, n, 2 * n, 2)
    elif kind == "sparse":
        S, _ = unimodular(rng, n, n // 2, 2)
        Q_mat = qmat.matmul(S, permuted_diagonal(rng, n))
    else:
        raise ValueError(kind)
    omega = congruent(Q_mat, B)
    return [rescaled(rng, omega) for _ in range(count)]


def interleave(a, b, perm):
    """The direct sum a ⊕ b with its indices shuffled by perm."""
    na, n = len(a), len(perm)
    out = qmat.zeros(n, n)
    for i in range(n):
        for j in range(n):
            p, q = perm[i], perm[j]
            if p < na and q < na:
                out[i][j] = a[p][q]
            elif p >= na and q >= na:
                out[i][j] = b[p - na][q - na]
    return out


# -- forms ----------------------------------------------------------------------

# (command, kind, n, m, points); m = n // 2 is nondegenerate.
FORMS_SCHEDULE = [
    ("darboux", "dense", 6, 3, 5),
    ("darboux", "dense", 8, 4, 3),
    ("darboux", "dense", 10, 5, 3),
    ("darboux", "moving", 6, 3, 4),
    ("darboux", "moving", 8, 4, 3),
    ("darboux", "mixed", 8, 4, 3),
    ("darboux", "sparse", 8, 4, 4),
    ("normal-form", "dense", 7, 2, 3),
    ("normal-form", "dense", 9, 3, 3),
    ("normal-form", "moving", 8, 3, 3),
    ("normal-form", "sparse", 7, 3, 5),
    ("normal-form", "dense", 6, 3, 4),
]

# (degree of xi, degree of eta, rank, points, density)
WEDGE_SCHEDULE = [
    (2, 2, 10, 5, 1.0),
    (2, 3, 9, 4, 1.0),
    (2, 4, 8, 5, 1.0),
    (3, 3, 8, 4, 1.0),
    (4, 4, 10, 3, 0.5),
    (3, 4, 9, 3, 1.0),
]


def forms_problems(rng):
    out = []
    for command, kind, n, m, size in FORMS_SCHEDULE:
        points, space = small_space(rng, size)
        if kind == "mixed":
            # unit pivots on the dense block first, then completion on the moving one
            n_dense = 2 * (n // 4)
            dense = skew_stalks(rng, "dense", n_dense, n_dense // 2, size)
            moving = skew_stalks(rng, "moving", n - n_dense, (n - n_dense) // 2, size)
            perm = rng.sample(range(n), n)
            stalks = [interleave(a, b, perm) for a, b in zip(dense, moving)]
        else:
            stalks = skew_stalks(rng, kind, n, m, size)
        problem = {"space": space, "open": points, "form": matrix_json(points, stalks)}
        out.append((command, problem, {"kind": kind, "n": n, "m": m}))
    for k, l, n, size, density in WEDGE_SCHEDULE:
        points, space = small_space(rng, size)
        xi = kform_json(rng, points, n, k, density)
        eta = kform_json(rng, points, n, l, density)
        problem = {"space": space, "open": points, "xi": xi, "eta": eta}
        out.append(("wedge", problem, {"kind": "wedge", "n": n}))
    return out


def kform_json(rng, points, rank, degree, density):
    idx_all = list(combinations(range(rank), degree))
    keep = idx_all if density >= 1 else rng.sample(idx_all, round(density * len(idx_all)))
    coeffs = {}
    for idx in sorted(keep):
        values = [Q(nonzero(rng, 9)) for _ in points]
        if rng.random() < 0.25:
            values = [values[0]] * len(points)
        coeffs["[" + ",".join(str(i + 1) for i in idx) + "]"] = section_json(points, values)
    return {"degree": degree, "rank": rank, "coeffs": coeffs}


# -- spectral -------------------------------------------------------------------

# (command, n, points, magnitudes, rotation-block constants, row ops, multiplier range)
# Each planted spectrum is ±magnitudes (per point signs and order), plus one
# 2×2 block with characteristic polynomial t² + c per constant, which has no
# rational root.  The product of magnitudes and constants fixes |det| (about
# 10⁵–10⁶ for eigen) at every point, so that the cost of rational root
# finding is the same for every seed.  A repeated magnitude gives a double
# eigenvalue at the points where its two signs agree, so those points have
# fewer distinct eigenvalues and are reported as omitted.
SPECTRAL_SCHEDULE = [
    ("charpoly", 6, 1, (2, 3, 5, 7, 11, 13), (), 6, 2),
    ("charpoly", 7, 2, (2, 3, 4, 5, 7, 9, 11), (), 14, 3),
    ("charpoly", 8, 4, (1, 2, 3, 5, 7, 9, 11, 13), (), 8, 2),
    ("charpoly", 8, 2, (2, 3, 5, 7, 9, 11), (5,), 16, 9),
    ("charpoly", 6, 3, (3, 4, 5, 7), (11,), 12, 9),
    ("eigen", 6, 1, (5, 6, 7, 8, 9, 10), (), 6, 2),
    ("eigen", 6, 3, (7, 8, 8, 9), (29,), 6, 2),
    ("eigen", 7, 2, (3, 4, 5, 6, 7, 9, 11), (), 14, 9),
    ("eigen", 8, 2, (2, 3, 4, 5, 6, 7, 9, 11), (), 8, 2),
    ("eigen", 8, 4, (2, 3, 3, 5, 7, 9), (23,), 8, 3),
]

# (n, points, transvections, vector entry range, parameter denominators)
SYMPLECTIC_SCHEDULE = [
    (6, 1, 3, 2, 1),
    (6, 3, 4, 3, 1),
    (8, 2, 3, 2, 1),
    (8, 4, 4, 1000, 1),
    (6, 4, 4, 1000, 7),
    (8, 1, 5, 30, 3),
]


def planted_stalk(rng, n, magnitudes, blocks, ops, r):
    """M = S·D·S⁻¹ with S unimodular and D block diagonal with the planted
    spectrum; returns (M, its integer eigenvalues)."""
    eigs = [Q(rng.choice((-1, 1)) * v) for v in magnitudes]
    rng.shuffle(eigs)
    D = qmat.zeros(n, n)
    pos = 0
    for lam in eigs:
        D[pos][pos] = lam
        pos += 1
    for c in blocks:
        D[pos][pos + 1] = Q(-c)
        D[pos + 1][pos] = Q(1)
        pos += 2
    assert pos == n
    S, S_inv = unimodular(rng, n, ops, r)
    return qmat.matmul(qmat.matmul(S, D), S_inv), eigs


def transvection_product(rng, n, count, r, denom):
    """A product of symplectic transvections x ↦ x + c·ω(x, v)·v."""
    J = qmat.standard_J(n // 2)
    M = qmat.identity(n)
    for _ in range(count):
        v = [Q(rng.randint(-r, r)) for _ in range(n)]
        c = Q(nonzero(rng, 2), rng.randint(1, denom))
        vJ = qmat.matvec(qmat.transpose(J), v)  # row vector vᵀJ
        T = [[Q(int(i == j)) - c * v[i] * vJ[j] for j in range(n)] for i in range(n)]
        M = qmat.matmul(M, T)
    return M


def spectral_problems(rng):
    out = []
    for command, n, size, mags, blocks, ops, r in SPECTRAL_SCHEDULE:
        points, space = small_space(rng, size)
        stalks, spectra = [], {}
        for p in points:
            M, eigs = planted_stalk(rng, n, mags, blocks, ops, r)
            stalks.append(M)
            spectra[p] = [qmat.to_json(x) for x in eigs]
        problem = {"space": space, "open": points, "matrix": matrix_json(points, stalks)}
        plant = {"n": n, "eigenvalues": spectra, "blocks": list(blocks)}
        out.append((command, problem, plant))
    for n, size, count, r, denom in SYMPLECTIC_SCHEDULE:
        points, space = small_space(rng, size)
        stalks = [transvection_product(rng, n, count, r, denom) for _ in points]
        problem = {"space": space, "open": points, "matrix": matrix_json(points, stalks)}
        out.append(("check-symplectic", problem, {"n": n}))
    return out


# -- sheaf ----------------------------------------------------------------------

# Hashing a non-integral Fraction costs a modular inverse, so each grid takes
# the same number of integers and non-integers whatever the seed.
INTEGERS = (0, 1, -1, 2, -2, 3, 5)
FRACTIONS = ("1/2", "-1/2", "2/3", "-3/4", "7/3")

# (presheaf, component shapes, grid size, cover)
SHEAF_SCHEDULE = [
    ("functions", [("vee", 4), ("chain", 2)], 4, "components"),
    ("functions", [("antichain", 6)], 4, "minimal"),
    ("functions", [("lambda", 5)], 4, "minimal"),
    ("functions", [("vee", 6)], 3, "minimal"),
    ("functions", [("chain", 3), ("lambda", 4)], 3, "components"),
    ("functions", [("vee", 3), ("antichain", 3)], 3, "minimal"),
    ("functions", [("chain", 5)], 3, "minimal"),
    ("functions", [("antichain", 7)], 3, "minimal"),
    ("constant", [("antichain", 7)], 4, "opens"),
    ("constant", [("antichain", 1), ("antichain", 6)], 4, "component-opens"),
    ("constant", [("vee", 7)], 3, "opens"),
    ("constant", [("lambda", 7)], 4, "opens"),
    ("constant", [("antichain", 6), ("antichain", 1)], 3, "component-opens"),
]


def sheaf_problems(rng):
    out = []
    for kind, shapes, grid_size, cover_kind in SHEAF_SCHEDULE:
        points, opens, up, components = poset_space(rng, shapes)
        if cover_kind == "components":
            members = [set(c) for c in components]
        elif cover_kind == "minimal":
            members = [up[p] for c in components for p in c]
        elif cover_kind == "opens":
            members = [set(o) for o in opens if o]
        elif cover_kind == "component-opens":
            members = [set(o) for o in opens if o and any(set(o) <= set(c) for c in components)]
        else:
            raise ValueError(cover_kind)
        # The backtracking search's cost depends on the order of the cover
        # members, so order them by the points' place in the component
        # shapes, which the seed does not change, not by their labels.
        rank = {p: i for i, p in enumerate(p for c in components for p in c)}
        cover = []
        for member in sorted(members, key=lambda m: sorted(rank[p] for p in m)):
            if sorted(member) not in cover:
                cover.append(sorted(member))
        grid = rng.sample(INTEGERS, (grid_size + 1) // 2) + rng.sample(FRACTIONS, grid_size // 2)
        rng.shuffle(grid)
        problem = {"space": {"points": points, "opens": opens}, "open": points,
                   "presheaf": kind, "grid": grid, "cover": cover}
        out.append(("sheaf-check", problem, {"presheaf": kind}))
    return out


GENERATORS = {"forms": forms_problems, "spectral": spectral_problems, "sheaf": sheaf_problems}


def generate(workload, seed):
    """The workload's problems for this seed: (command, problem, plant) triples."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write(workload, seed, out_dir):
    """Write one JSON file per problem plus ``manifest.json``; returns the manifest."""
    out_dir = Path(out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    manifest = []
    for k, (command, problem, plant) in enumerate(generate(workload, seed)):
        name = f"{k:02d}-{command}.json"
        (out_dir / name).write_text(json.dumps(problem) + "\n", encoding="utf-8")
        manifest.append({"command": command, "file": name, "plant": plant})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to (re)create")
    args = parser.parse_args(argv)
    manifest = write(args.workload, args.seed, args.out)
    print(f"{len(manifest)} problems written to {args.out}")


if __name__ == "__main__":
    main()
