"""Independent brute-force oracles the tests check the library against.

Everything here works on plain lists of Fractions and deliberately avoids
the code paths under test: determinants by Laplace cofactor expansion,
characteristic polynomials by cofactor expansion over ℚ[t], wedge
evaluation by the full permutation sum with the (1/k!l!) normalization,
congruence by direct triple products, matrix polynomials by Horner's rule
on Fractions, rational roots by trial division, reduced row echelon forms
by Gauss–Jordan on Fractions, adjugates by cofactors, the sheaf axioms
on section objects rather than on carrier keys, symplectic reduction and the
wedge product on Fractions and multi-index tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

from sympsheaf import KForm, SectionMatrix, SectionVector, StructureSection
from sympsheaf.presheaf import AxiomReport, CompatibleFamily, CompletenessReport
from sympsheaf.site import require_open_cover


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def cofactor_det(rows) -> Fraction:
    """Laplace expansion along the first row; exponential and independent."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    acc = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        acc += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return acc


def cofactor_adjugate(rows) -> list[list[Fraction]]:
    """adj[i][j] = (−1)^(i+j)·det(rows without row j and column i), each
    minor by Laplace expansion."""
    n = len(rows)
    return [[(-1) ** (i + j) * cofactor_det([r[:i] + r[i + 1:]
                                             for k, r in enumerate(rows) if k != j])
             for j in range(n)] for i in range(n)]


def rref_fraction(rows):
    """Reduced row echelon form and pivot columns by Gauss–Jordan on Fractions:
    normalize each pivot row, then clear its column in every other row."""
    m = [[Fraction(x) for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def kernel_from_rref(rows):
    """The null space basis read off rref_fraction: one vector per free
    column f, with 1 at f and −(reduced entry) at each pivot column."""
    cols = len(rows[0]) if rows else 0
    reduced, pivots = rref_fraction(rows)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def qq_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def horner_apply(coeffs, rows):
    """Σ c_k·M^k (coefficients constant first) by Horner's rule on Fractions."""
    n = len(rows)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = qq_matmul(out, rows) if n else []
        for i in range(n):
            out[i][i] += c
    return out


def rational_roots_brute(coeffs) -> list[Fraction]:
    """Distinct rational roots, ascending, by the rational root theorem: every
    ±p/q with p | a₀ and q | aₙ after clearing denominators and splitting off
    the zero roots, with p and q found by trial division."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs[-1] == 0:
        coeffs.pop()

    def value(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def divisors(k):
        return [d for d in range(1, abs(k) + 1) if k % d == 0]

    low = next(k for k, c in enumerate(coeffs) if c != 0)
    roots = {Fraction(0)} if low else set()
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs[low:]]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            roots.update(x for x in (Fraction(p, q), Fraction(-p, q)) if value(x) == 0)
    return sorted(roots)


def qq_transpose(a):
    return [list(col) for col in zip(*a)]


def congruence(p, omega):
    """ᵗP·Ω·P on plain rational matrices."""
    return qq_matmul(qq_matmul(qq_transpose(p), omega), p)


def charpoly_cofactor(rows) -> list[Fraction]:
    """Coefficients (constant first) of det(tI − M) by cofactor expansion
    over ℚ[t], no memoization."""
    n = len(rows)

    def padd(a, b):
        m = max(len(a), len(b))
        return [(a[i] if i < len(a) else Fraction(0)) +
                (b[i] if i < len(b) else Fraction(0)) for i in range(m)]

    def pmul(a, b):
        if not a or not b:
            return []
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def entry(i, j):
        return [-rows[i][j], Fraction(1)] if i == j else [-rows[i][j]]

    def det(row_idx, col_idx):
        if not row_idx:
            return [Fraction(1)]
        i = row_idx[0]
        acc = []
        for pos, j in enumerate(col_idx):
            term = pmul(entry(i, j), det(row_idx[1:], col_idx[:pos] + col_idx[pos + 1:]))
            if pos % 2:
                term = [-c for c in term]
            acc = padd(acc, term)
        return acc

    coeffs = det(tuple(range(n)), tuple(range(n)))
    return coeffs + [Fraction(0)] * (n + 1 - len(coeffs))


def wedge_eval_oracle(xi, eta, args) -> StructureSection:
    """(ξ∧η)(s₁..s_{k+l}) by the defining (1/k!l!)·Σ_{S_{k+l}} sign(σ)·
    ξ(s_{σ(1)}..s_{σ(k)})·η(s_{σ(k+1)}..s_{σ(k+l)}) sum."""
    k, l = xi.degree, eta.degree
    domain = xi.domain
    norm = Fraction(1, factorial(k) * factorial(l))
    acc = StructureSection.zero(domain)
    for sigma in permutations(range(k + l)):
        left = [args[sigma[i]] for i in range(k)]
        right = [args[sigma[k + i]] for i in range(l)]
        term = xi.evaluate(left) * eta.evaluate(right) * (perm_sign(sigma) * norm)
        acc = acc + term
    return acc


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def symplectic_reduce_fraction(gram):
    """(m, C) with ᵗC·gram·C the block normal form, by the flag-splitting
    reduction on Fractions: pair the first two generators z_i, z_j (i < j)
    with ω(z_i, z_j) ≠ 0 as s and t = z_j/ω(s, z_j), split every other
    generator z ↦ z + ω(z,s)·t − ω(z,t)·s, repeat; C is the s columns, the t
    columns, then the generators left over."""
    n = len(gram)
    # each generator g is kept with gram·g, so ω(u, g) = u·(gram·g)
    gens = [([Fraction(i == j) for j in range(n)], list(col)) for i, col in enumerate(zip(*gram))]
    s_vecs, t_vecs = [], []
    while True:
        found = next(((i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
                      if _dot(gens[i][0], gens[j][1]) != 0), None)
        if found is None:
            break
        (s, gs), (t, gt) = gens[found[0]], gens[found[1]]
        u = _dot(s, gt)
        t, gt = [x / u for x in t], [x / u for x in gt]

        def split(z, gz):
            zs, zt = _dot(z, gs), _dot(z, gt)
            return ([a + zs * b - zt * c for a, b, c in zip(z, t, s)],
                    [a + zs * b - zt * c for a, b, c in zip(gz, gt, gs)])

        gens = [split(*g) for k, g in enumerate(gens) if k not in found]
        s_vecs.append(s)
        t_vecs.append(t)
    columns = s_vecs + t_vecs + [z for z, _ in gens]
    return len(s_vecs), [[columns[c][r] for c in range(n)] for r in range(n)]


def wedge_shuffle(xi, eta) -> KForm:
    """ξ∧η by the shuffle sum on each stalk: for disjoint multi-indices I, J
    the term c_I·d_J lands on sorted(I + J), with the sign (−1) to the
    number of pairs i ∈ I, j ∈ J with i > j."""
    def product(a, b):
        out = {}
        for left, x in a:
            for right, y in b:
                if set(left) & set(right):
                    continue
                inversions = sum(1 for i in left for j in right if i > j)
                merged = tuple(sorted(left + right))
                out[merged] = out.get(merged, Fraction(0)) + (-1) ** inversions * x * y
        return out

    return KForm.from_stalks(xi.domain, xi.rank, xi.degree + eta.degree,
                             map(product, xi.stalks, eta.stalks))


# -- sheaf axioms on section objects ----------------------------------------------


def compatible_families_sections(presheaf, cover):
    """Every compatible family over the cover, in lexicographic carrier order,
    by a hash join over the carriers as section objects: each member's
    sections are bucketed by their restrictions to the nonempty overlaps
    with the earlier members."""
    cover = tuple(cover)
    earlier = [[(i, cover[i].intersection(V)) for i in range(j) if cover[i].mask & V.mask]
               for j, V in enumerate(cover)]
    index: list[dict[tuple, list]] = []
    for V, overlaps in zip(cover, earlier):
        bucket: dict[tuple, list] = {}
        for s in presheaf.sections(V):
            bucket.setdefault(tuple(presheaf.restrict(s, o) for _, o in overlaps),
                              []).append(s)
        index.append(bucket)
    chosen: list = []

    def extend(j):
        if j == len(cover):
            yield CompatibleFamily(cover, tuple(chosen))
            return
        wanted = tuple(presheaf.restrict(chosen[i], o) for i, o in earlier[j])
        for s in index[j].get(wanted, ()):
            chosen.append(s)
            yield from extend(j + 1)
            chosen.pop()

    yield from extend(0)


def check_completeness_sections(presheaf, U, cover) -> CompletenessReport:
    """S1 and S2 decided on the carrier's section objects through the public
    sections/restrict interface, with the same witnesses."""
    cover = list(cover)
    require_open_cover(U, cover)
    carrier = presheaf.sections(U)

    # S1: bucket carrier sections by their tuple of restrictions.
    buckets: dict[tuple, list] = {}
    for s in carrier:
        k = tuple(presheaf.restrict(s, V) for V in cover)
        buckets.setdefault(k, []).append(s)
    s1 = AxiomReport("S1", "pass")
    for group in buckets.values():
        distinct = []
        for s in group:
            if all(s != t for t in distinct):
                distinct.append(s)
        if len(distinct) >= 2:
            s1 = AxiomReport("S1", "fail", witness={"left": distinct[0], "right": distinct[1]})
            break

    # S2: a family glues iff it is the tuple of restrictions of some carrier
    # section, i.e. hits an S1 bucket.
    unglued = next((f for f in compatible_families_sections(presheaf, cover)
                    if f.sections not in buckets), None)
    s2 = (AxiomReport("S2", "fail", witness=unglued) if unglued is not None
          else AxiomReport("S2", "pass"))
    return CompletenessReport(s1, s2)


# -- random instance generators ------------------------------------------------------


def rand_frac(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_section(rng: random.Random, domain, span: int = 6) -> StructureSection:
    return StructureSection(domain, [rand_frac(rng, span) for _ in range(domain.size)])


def rand_vector(rng: random.Random, domain, n: int) -> SectionVector:
    return SectionVector(domain, [rand_section(rng, domain) for _ in range(n)])


def rand_matrix(rng: random.Random, domain, rows: int, cols: int) -> SectionMatrix:
    return SectionMatrix(domain, [[rand_section(rng, domain) for _ in range(cols)]
                                  for _ in range(rows)])


def rand_qq_matrix(rng: random.Random, n: int, span: int = 6):
    return [[rand_frac(rng, span) for _ in range(n)] for _ in range(n)]


def rand_invertible_qq(rng: random.Random, n: int):
    # generation only; verification elsewhere uses the cofactor oracle
    from sympsheaf.qlinalg import det_bareiss
    while True:
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if det_bareiss(m) != 0:
            return m


def rand_skew_nondegenerate(rng: random.Random, domain, n: int) -> SectionMatrix:
    """Random skew section matrix with unit determinant section (resampled
    until pointwise nondegenerate)."""
    from sympsheaf.qlinalg import det_bareiss
    assert n % 2 == 0
    while True:
        entries = [[StructureSection.zero(domain) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                s = rand_section(rng, domain, span=4)
                entries[i][j] = s
                entries[j][i] = -s
        omega = SectionMatrix(domain, entries)
        if all(det_bareiss(omega.at_point(p)) != 0 for p in domain.labels):
            return omega


def rand_skew_of_rank(rng: random.Random, domain, n: int, m: int) -> SectionMatrix:
    """Skew form of exact pointwise rank 2m, built by congruence from the
    block normal form with a random constant invertible matrix."""
    from sympsheaf import block_normal_form
    block = block_normal_form(domain, m, n)
    q = rand_invertible_qq(rng, n)
    Q = SectionMatrix(domain, q)
    return Q.transpose() @ block @ Q


def _block_stalk(m: int, n: int):
    """The n×n block normal form [[0, I_m, 0], [−I_m, 0, 0], [0, 0, 0]] over ℚ."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for k in range(m):
        out[k][m + k], out[m + k][k] = Fraction(1), Fraction(-1)
    return out


def rand_skew_mixed(rng: random.Random, domain, dense: int, moving: int,
                    m_moving: int) -> SectionMatrix:
    """A dense block interleaved with a moving-zero block, rescaled per point.

    The dense block is one nondegenerate ᵗQBQ (dense × dense) at every point,
    so its pairings vanish nowhere.  The moving block is the block form of
    rank 2·m_moving with its indices permuted per point such that no index
    pair pairs to a nonzero value at every point: none of its pairings is a
    unit section.  The pointwise rank is dense + 2·m_moving everywhere.
    Needs a domain of at least two points.  ValueError when no such
    permutations exist: 2·m_moving > moving, or moving = 2 = 2·m_moving,
    whose only index pair is common to every point.
    """
    assert domain.size >= 2 and dense % 2 == 0
    if 2 * m_moving > moving or moving == 2 == 2 * m_moving:
        raise ValueError(f"no per-point permutations of a rank-{2 * m_moving} block "
                         f"of size {moving} avoid a common pair")
    q = rand_invertible_qq(rng, dense)
    dense_stalk = congruence(q, _block_stalk(dense // 2, dense))
    block = _block_stalk(m_moving, moving)

    def pairs(perm):
        return {frozenset((perm[k], perm[m_moving + k])) for k in range(m_moving)}

    while True:
        perms = [rng.sample(range(moving), moving) for _ in domain.labels]
        if not set.intersection(*map(pairs, perms)):
            break
    n = dense + moving
    order = rng.sample(range(n), n)
    stalks = {}
    for p, perm in zip(domain.labels, perms):
        total = [[Fraction(0)] * n for _ in range(n)]
        for i in range(dense):
            total[i][:dense] = dense_stalk[i]
        for i in range(moving):
            for j in range(moving):
                total[dense + perm[i]][dense + perm[j]] = block[i][j]
        d = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(n)]
        stalks[p] = [[d[i] * d[j] * total[order[i]][order[j]] for j in range(n)]
                     for i in range(n)]
    return SectionMatrix.from_point_data(domain, n, n, stalks.__getitem__)
