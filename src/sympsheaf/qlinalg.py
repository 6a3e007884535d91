"""Exact linear algebra over ℚ on plain list-of-list matrices.

These are the stalk-level kernels: every pointwise computation on section
matrices (products, determinants, ranks, kernels, symplectic reduction)
bottoms out here.  Matrices are sequences of rows of Fractions: the kernels
accept list or tuple rows, return list rows and never mutate an argument.

The hot kernels run on Python ints: `scaled` writes a stalk M as D·M, an
integer matrix over one common denominator D, restored once per output
entry.  One fraction-free Gauss–Jordan (`_gauss_jordan`) serves
determinants, RREF, ranks and kernels; products, Berkowitz's characteristic
polynomial and Horner substitution run on D·M too, and the adjugate is the
Cayley–Hamilton polynomial in M, so no kernel computes a minor.  The
symplectic reduction runs on the integer Gram matrix D·G, each generator an
integer vector over its own denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

QMatrix = list  # list[list[Fraction]]; tuple rows are accepted as input


def scaled(m: QMatrix) -> tuple[int, list[list[int]]]:
    """(D, D·m): the lcm D of the entry denominators and the integer matrix
    D·m, with list rows.  Entries may be Fractions or ints."""
    d = lcm(*(x.denominator for row in m for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    """a·b as (Da·a)(Db·b)/(Da·Db): an integer product, one Fraction per entry."""
    (da, ia), (db, ib) = scaled(a), scaled(b)
    d, columns = da * db, list(zip(*ib))
    return [[Fraction(sum(map(mul, row, col)), d) for col in columns] for row in ia]


def _gauss_jordan(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss–Jordan elimination of the integer matrix m, in
    place; returns the pivot columns and the sign of the row swaps.

    Bareiss's rule (Math. Comp. 22:565, 1968) row_i ← (p·row_i − m_ic·row_p)/p′,
    with p the new pivot and p′ the one before, updates every other row, above
    the pivot as well as below; its divisions are exact, as every entry stays
    a minor of m.  The r pivot rows end up sharing the last pivot, which is
    sign·det(m) when m is square of full rank; the other rows are zero.
    """
    rows = len(m)
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(m[0]) if rows else 0):
        r = len(pivots)
        if r == rows:
            break
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        pivot_row, pivot = m[r], m[r][c]
        for i in range(rows):
            if i != r:
                lead = m[i][c]
                m[i] = [(x * pivot - lead * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = pivot
        pivots.append(c)
    return pivots, sign


def det_bareiss(a: QMatrix) -> Fraction:
    """det(a) = det(D·a)/Dⁿ, with det(D·a) the last pivot of the fraction-free
    elimination of D·a on ints (O(n³)); 0 when a pivot is missing."""
    n = len(a)
    d, m = scaled(a)
    pivots, sign = _gauss_jordan(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], d ** n) if n else Fraction(1)


def rref(a: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and the pivot column list: the elimination
    of D·a, whose pivot rows all carry the same pivot, divided by it."""
    _, m = scaled(a)
    pivots, _ = _gauss_jordan(m)
    pivot = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [[Fraction(x, pivot) for x in row] for row in m], pivots


def rank(a: QMatrix) -> int:
    """The number of pivots of the elimination of D·a."""
    return len(_gauss_jordan(scaled(a)[1])[0])


def kernel_basis(a: QMatrix) -> list[list[Fraction]]:
    """Deterministic basis of the null space of a (columns = unknowns)."""
    cols = len(a[0]) if a else 0
    reduced, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(j == f) for j in range(cols)]
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def qq_charpoly(mat: QMatrix) -> list[Fraction]:
    """Coefficients of det(tI − M), constant term first, for a ℚ matrix.

    Berkowitz's division-free method (Inf. Proc. Lett. 18:147, 1984): for
    M = [[a, R], [C, M₁]], det(tI − M) is the product of the lower triangular
    Toeplitz matrix with first column (1, −a, −RC, −RM₁C, …, −RM₁ⁿ⁻²C) and
    the coefficients of det(tI − M₁), leading coefficient first.  Running
    from the bottom-right entry up takes O(n⁴) ring operations.  They run on
    the integer matrix D·M, and c_k(M) = c_k(D·M)/Dⁿ⁻ᵏ.
    """
    n = len(mat)
    d, m = scaled(mat)
    p = [1]  # det(tI − M₁) for the trailing block, leading coefficient first
    for i in reversed(range(n)):
        row, column = m[i][i + 1:], [r[i] for r in m[i + 1:]]
        block = [r[i + 1:] for r in m[i + 1:]]
        toeplitz = [1, -m[i][i]]
        for k in range(len(block)):
            if k:
                column = [sum(map(mul, r, column)) for r in block]
            toeplitz.append(-sum(map(mul, row, column)))
        p = [sum(toeplitz[j - l] * p[l] for l in range(min(j + 1, len(p))))
             for j in range(len(p) + 1)]
    return [Fraction(c, d ** k) for k, c in enumerate(p)][::-1]


def _horner(coeffs: Sequence[Fraction], mat: QMatrix) -> QMatrix:
    """Σ c_k·M^k = H/(e·D^deg) with H = Σ (e·c_k·D^{deg−k})·(D·M)^k, where e
    clears the coefficient denominators; Horner's rule computes H in ints."""
    n, deg = len(mat), len(coeffs) - 1
    d, m = scaled(mat)
    e, (ints,) = scaled([coeffs])
    columns = list(zip(*m))
    h = [[0] * n for _ in range(n)]
    for k in range(deg, -1, -1):
        if k < deg:
            h = [[sum(map(mul, row, col)) for col in columns] for row in h]
        c = ints[k] * d ** (deg - k)
        for i in range(n):
            h[i][i] += c
    denominator = e * d ** max(deg, 0)
    return [[Fraction(x, denominator) for x in row] for row in h]


def adjugate(a: QMatrix) -> QMatrix:
    """adj(a) by Cayley–Hamilton: with det(tI − a) = Σ c_k t^k and
    c₀ = (−1)ⁿ det(a), a·Σ_{k≥1} c_k a^{k−1} = −c₀·I, so
    adj(a) = (−1)ⁿ⁻¹ Σ_{k≥1} c_k a^{k−1}.  A polynomial identity in the
    entries, it holds for singular a too; O(n⁴) on ints."""
    sign = 1 if len(a) % 2 else -1
    return _horner([sign * c for c in qq_charpoly(a)[1:]], a)


def symplectic_reduce(gram: QMatrix) -> tuple[int, QMatrix]:
    """Constructive normal form of a skew-symmetric Gram matrix over ℚ.

    Returns (m, C) with C invertible and C^T gram C equal to the block form
    [[0, I_m, 0], [-I_m, 0, 0], [0, 0, 0]].  Follows the flag-splitting
    argument: pick a pair with nonzero pairing, normalize, project the rest
    onto the orthogonal complement, repeat; whatever remains pairs to zero
    with everything and spans the kernel.

    It runs on ints, on the Gram matrix G = D·gram from `scaled`.  Its
    pairings are D times those of gram, so each t found is the t of gram
    divided by D, while the split z ↦ z + ω(z,s)·t − ω(z,t)·s is unchanged:
    with the t columns multiplied by D at the end, C is the one gram gives.
    """
    n = len(gram)
    d, g = scaled(gram)
    # Each generator z = num/den is kept as (num, den, G·num), num and den
    # coprime and den > 0, so ω(u, z) is the integer u·(G·num) over the
    # denominators; G·e_j is the j-th column of G.
    gens = [([int(i == j) for j in range(n)], 1, list(col)) for i, col in enumerate(zip(*g))]
    s_vecs: list[tuple[list[int], int]] = []
    t_vecs: list[tuple[list[int], int]] = []
    while True:
        found = next(((i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
                      if sum(map(mul, gens[i][0], gens[j][2]))), None)
        if found is None:
            break
        (s, ds, gs), (t, dt, gt) = gens[found[0]], gens[found[1]]
        # t ← t/ω(s,t) = ds·num_t/u with u = s·(G·num_t), the sign of u moved to num_t
        u = sum(map(mul, s, gt))
        r = ds if u > 0 else -ds
        t, dt, gt = _reduced([x * r for x in t], abs(u), [x * r for x in gt])

        def split(z, dz, gz):  # z + ω(z,s)·t − ω(z,t)·s over dz·ds·dt, and G times it
            a, b, e = sum(map(mul, z, gs)), -sum(map(mul, z, gt)), ds * dt
            return _reduced([x * e + a * y + b * w for x, y, w in zip(z, t, s)], dz * e,
                            [x * e + a * y + b * w for x, y, w in zip(gz, gt, gs)])

        gens = [split(*z) for k, z in enumerate(gens) if k not in found]
        s_vecs.append((s, ds))
        t_vecs.append(([x * d for x in t], dt))
    m = len(s_vecs)
    columns = [[Fraction(x, den) for x in num] for num, den, *_ in s_vecs + t_vecs + gens]
    return m, [[columns[c][r] for c in range(n)] for r in range(n)]


def _reduced(num: list[int], den: int, image: list[int]) -> tuple[list[int], int, list[int]]:
    """(num, den, image) divided by gcd(num, den): image = G·num is an
    integer combination of num's entries, so it divides exactly too."""
    c = gcd(den, *num)
    if c == 1:
        return num, den, image
    return [x // c for x in num], den // c, [x // c for x in image]
