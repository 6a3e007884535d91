"""Exact linear algebra over ℚ on plain list-of-list matrices.

These are the stalk-level kernels: every pointwise computation on section
matrices (products, determinants, ranks, kernels, symplectic reduction)
bottoms out here.  Matrices are sequences of rows of Fractions: the kernels
accept list or tuple rows, return list rows and never mutate an argument.

The hot kernels (products and determinants here, characteristic polynomials
and their substitution in `charpoly`) run on Python ints: `scaled` writes a
stalk M as D·M, an integer matrix over one common denominator D, the loops
stay in ℤ, and the denominator is restored once per output entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

QMatrix = list  # list[list[Fraction]]; tuple rows are accepted as input


def copy(m: QMatrix) -> QMatrix:
    """A copy with list rows, which the caller may write into."""
    return [list(row) for row in m]


def scaled(m: QMatrix) -> tuple[int, list[list[int]]]:
    """(D, D·m): the lcm D of the entry denominators and the integer matrix
    D·m, with list rows.  Entries may be Fractions or ints."""
    d = lcm(*(x.denominator for row in m for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def dot(u, v) -> Fraction:
    return sum(map(mul, u, v), Fraction(0))


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    """a·b as (Da·a)(Db·b)/(Da·Db): an integer product, one Fraction per entry."""
    (da, ia), (db, ib) = scaled(a), scaled(b)
    d, columns = da * db, list(zip(*ib))
    return [[Fraction(sum(map(mul, row, col)), d) for col in columns] for row in ia]


def transpose(a: QMatrix) -> QMatrix:
    return [list(col) for col in zip(*a)] if a else []


def det_bareiss(a: QMatrix) -> Fraction:
    """det(a) = det(D·a)/Dⁿ, with det(D·a) by Bareiss's fraction-free
    elimination on ints, whose divisions are exact (O(n³))."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    d, m = scaled(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot_row, pivot = m[k][k + 1:], m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            row[k + 1:] = [(x * pivot - lead * y) // prev
                           for x, y in zip(row[k + 1:], pivot_row)]
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], d ** n)


def adjugate(a: QMatrix) -> QMatrix:
    """Adjugate via cofactors: adj[i][j] = (-1)^(i+j) det(a with row j, col i deleted)."""
    n = len(a)
    if n == 1:
        return [[Fraction(1)]]
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j]
            out[i][j] = (-1) ** (i + j) * det_bareiss(minor)
    return out


def rref(a: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: QMatrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: QMatrix) -> list[list[Fraction]]:
    """Deterministic basis of the null space of a (columns = unknowns)."""
    cols = len(a[0]) if a else 0
    reduced, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def symplectic_reduce(gram: QMatrix) -> tuple[int, QMatrix]:
    """Constructive normal form of a skew-symmetric Gram matrix over ℚ.

    Returns (m, C) with C invertible and C^T gram C equal to the block form
    [[0, I_m, 0], [-I_m, 0, 0], [0, 0, 0]].  Follows the flag-splitting
    argument: pick a pair with nonzero pairing, normalize, project the rest
    onto the orthogonal complement, repeat; whatever remains pairs to zero
    with everything and spans the kernel.
    """
    n = len(gram)
    # Each generator g is kept with G·g, so ω(u, g) = u·(G·g) is one dot
    # product; G·e_j is the j-th column of G.
    gens = [([Fraction(i == j) for j in range(n)], list(col)) for i, col in enumerate(zip(*gram))]
    s_vecs: list[list[Fraction]] = []
    t_vecs: list[list[Fraction]] = []
    while True:
        found = next(((i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
                      if dot(gens[i][0], gens[j][1]) != 0), None)
        if found is None:
            break
        (s, gs), (t, gt) = gens[found[0]], gens[found[1]]
        u = dot(s, gt)
        t, gt = [x / u for x in t], [x / u for x in gt]

        def split(z, gz):  # z + ω(z,s)·t − ω(z,t)·s, and its image under G
            zs, zt = dot(z, gs), dot(z, gt)
            return ([a + zs * b - zt * c for a, b, c in zip(z, t, s)],
                    [a + zs * b - zt * c for a, b, c in zip(gz, gt, gs)])

        gens = [split(*g) for k, g in enumerate(gens) if k not in found]
        s_vecs.append(s)
        t_vecs.append(t)
    m = len(s_vecs)
    columns = s_vecs + t_vecs + [z for z, _ in gens]
    return m, [[columns[c][r] for c in range(n)] for r in range(n)]
