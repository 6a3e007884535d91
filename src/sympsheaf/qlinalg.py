"""Exact linear algebra over ℚ on plain list-of-list matrices.

These are the stalk-level kernels: every pointwise computation on section
matrices (determinants, ranks, kernels, symplectic reduction) bottoms out
here.  Matrices are lists of rows of Fractions and are never mutated.
"""

from __future__ import annotations

from fractions import Fraction

QMatrix = list  # list[list[Fraction]]


def identity(n: int) -> QMatrix:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def copy(m: QMatrix) -> QMatrix:
    return [row[:] for row in m]


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def transpose(a: QMatrix) -> QMatrix:
    return [list(col) for col in zip(*a)] if a else []


def det_bareiss(a: QMatrix) -> Fraction:
    """Fraction-free style Gaussian determinant (exact, O(n^3))."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = copy(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    gens = [[Fraction(i == j) for j in range(n)] for i in range(n)]  # columns

    def pairing(u, v) -> Fraction:
        return sum((u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)),
                   Fraction(0))

    s_vecs: list[list[Fraction]] = []
    t_vecs: list[list[Fraction]] = []
    while True:
        found = None
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if pairing(gens[i], gens[j]) != 0:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i, j = found
        s = gens[i]
        u = pairing(s, gens[j])
        t = [x / u for x in gens[j]]
        rest = [gens[k] for k in range(len(gens)) if k not in (i, j)]
        projected = []
        for z in rest:
            zs, zt = pairing(z, s), pairing(z, t)
            projected.append([z[k] + zs * t[k] - zt * s[k] for k in range(n)])
        s_vecs.append(s)
        t_vecs.append(t)
        gens = projected
    m = len(s_vecs)
    columns = s_vecs + t_vecs + gens
    return m, [[columns[c][r] for c in range(n)] for r in range(n)]
