"""The integer stalk kernels against the Fraction oracles.

`qlinalg.mat_mul`, `qlinalg.det_bareiss`, `qlinalg.rref` (with `rank` and
`kernel_basis` on top), `qlinalg.adjugate`, `qlinalg.qq_charpoly` and the
Horner substitution behind `poly_apply` run on D·M over ints; here they must
equal plain-Fraction computations on random matrices of size 0…8 with mixed
denominators, singular, rank-deficient and rectangular shapes, and on
smaller ones with 80–100-bit entries, where the exponential oracles allow.
`rational_roots` (bisection between the integer brackets of the derivative's
real roots) must equal the trial-division oracle, find planted spectra of
degree 16–32 beyond the oracle's reach, and solve planted 8×8 spectra of
20-digit rationals quickly; `_brackets` must hold ⌊r⌋ and ⌈r⌉ of every real
root r of products of rational linear factors and t² ∓ c.

The forms kernels run on ints as well: `qlinalg.symplectic_reduce` on the
integer Gram matrix must return the very (m, C) of the Fraction reduction on
thousands of random skew matrices (n = 0…9, mixed denominators, zero
patterns, low ranks, the moving and mixed zero patterns of `rand_skew_mixed`),
and the bitmask `wedge` must equal the shuffle-sign product stalk for stalk,
on degree-0 factors, overflowing degrees, empty stalks, U = ∅ and ranks of
64 and more.
"""

import random
import time
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from sympsheaf import (
    KForm,
    SectionMatrix,
    discrete,
    eigen_sections,
    point_space,
    rational_roots,
    wedge,
)
from sympsheaf.charpoly import _brackets
from sympsheaf.qlinalg import (
    _horner,
    adjugate,
    det_bareiss,
    kernel_basis,
    mat_mul,
    qq_charpoly,
    rank,
    rref,
    scaled,
    symplectic_reduce,
)

from oracles import (
    charpoly_cofactor,
    cofactor_adjugate,
    _block_stalk,
    cofactor_det,
    congruence,
    horner_apply,
    kernel_from_rref,
    qq_matmul,
    rational_roots_brute,
    rand_skew_mixed,
    rref_fraction,
    symplectic_reduce_fraction,
    wedge_shuffle,
)

PT = point_space().whole


def mixed(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7, 9)))


def big(rng):
    bits = rng.randint(80, 100)
    return F(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) | 1)


def matrix(rng, n, cols=None, entry=mixed, singular=False):
    m = [[entry(rng) for _ in range(n if cols is None else cols)] for _ in range(n)]
    if singular and n > 1:  # the last row is a combination of the others
        c = [entry(rng) for _ in range(n - 1)]
        m[-1] = [sum((ci * row[j] for ci, row in zip(c, m)), F(0)) for j in range(len(m[0]))]
    return m


def cases(max_big):
    """(n, entry, singular) for n = 0…8 with mixed denominators, singular
    at every size, and 80–100-bit entries up to size max_big."""
    return ([(n, mixed, s) for n in range(9) for s in (False, True)]
            + [(n, big, s) for n in range(max_big + 1) for s in (False, True)])


def test_scaled_is_the_common_denominator():
    d, ints = scaled([[F(1, 6), F(-3, 4)], [2, F(0)]])
    assert (d, ints) == (12, [[2, -9], [24, 0]])
    assert scaled([]) == (1, [])


@pytest.mark.parametrize("n,entry,singular", cases(8))
def test_mat_mul_matches_fraction_product(n, entry, singular):
    rng = random.Random(f"mul{n}{entry.__name__}{singular}")
    a = matrix(rng, n, 3, entry)
    b = matrix(rng, 3, n, entry)
    c = matrix(rng, n, entry=entry, singular=singular)
    assert mat_mul(a, b) == qq_matmul(a, b)
    if n:
        assert mat_mul(c, c) == qq_matmul(c, c)
        assert mat_mul(b, a) == qq_matmul(b, a)


@pytest.mark.parametrize("n,entry,singular", cases(6))
def test_det_bareiss_matches_cofactor_expansion(n, entry, singular):
    rng = random.Random(f"det{n}{entry.__name__}{singular}")
    m = matrix(rng, n, entry=entry, singular=singular)
    det = det_bareiss(m)
    assert det == cofactor_det(m)
    assert type(det) is F
    if singular and n > 1:
        assert det == 0


@pytest.mark.parametrize("n,entry,singular",
                         [c for c in cases(5) if c[0] < 8 or not c[2]])
def test_qq_charpoly_matches_cofactor_expansion(n, entry, singular):
    rng = random.Random(f"charpoly{n}{entry.__name__}{singular}")
    m = matrix(rng, n, entry=entry, singular=singular)
    assert qq_charpoly(m) == charpoly_cofactor(m)


@pytest.mark.parametrize("n,entry,singular", cases(6))
def test_horner_matches_fraction_horner(n, entry, singular):
    rng = random.Random(f"horner{n}{entry.__name__}{singular}")
    m = matrix(rng, n, entry=entry, singular=singular)
    coeffs = [entry(rng) for _ in range(rng.randint(1, 5))]
    assert _horner(coeffs, m) == horner_apply(coeffs, m)
    assert _horner([], m) == horner_apply([], m)
    assert _horner(qq_charpoly(m), m) == [[0] * n for _ in range(n)]  # Cayley–Hamilton


def shaped(rng, rows, cols, entry, shape):
    """A rows×cols matrix: dense; a product L·R through a random inner size,
    so rank-deficient; with repeated rows; or with zero rows and columns."""
    if shape == "product":
        k = rng.randint(0, min(rows, cols))
        left, right = matrix(rng, rows, k, entry), matrix(rng, k, cols, entry)
        return [[sum((x * right[t][j] for t, x in enumerate(row)), F(0)) for j in range(cols)]
                for row in left]
    m = matrix(rng, rows, cols, entry)
    if shape == "repeated" and rows > 1:
        for _ in range(rng.randint(1, rows - 1)):
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    if shape == "zeros" and rows and cols:
        m[rng.randrange(rows)] = [F(0)] * cols
        j = rng.randrange(cols)
        for row in m:
            row[j] = F(0)
    return m


def check_elimination(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == rref_fraction(m)
    assert all(type(x) is F for row in reduced for x in row)
    assert rank(m) == len(pivots)
    kernel = kernel_basis(m)
    assert kernel == kernel_from_rref(m)
    assert all(not any(qq_matmul(m, [[x] for x in v])[i][0] for i in range(len(m)))
               for v in kernel)
    if m and len(m) == len(m[0]) and len(pivots) < len(m):
        assert det_bareiss(m) == 0


SHAPES = ("dense", "product", "repeated", "zeros")


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("rows", range(9))
def test_rref_rank_kernel_match_fraction_gauss_jordan(rows, shape):
    rng = random.Random(f"rref{rows}{shape}")
    for cols in range(9):
        check_elimination(shaped(rng, rows, cols, mixed, shape))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", range(7))
def test_rref_rank_kernel_with_big_entries(n, shape):
    rng = random.Random(f"rrefbig{n}{shape}")
    for cols in {max(n - 1, 0), n, n + 1}:
        check_elimination(shaped(rng, n, cols, big, shape))


@pytest.mark.parametrize("n,entry,drop", [(n, mixed, d) for n in range(8) for d in (0, 1, 2)]
                         + [(n, big, d) for n in range(6) for d in (0, 1, 2)])
def test_adjugate_matches_cofactors(n, entry, drop):
    """adj by Cayley–Hamilton equals the cofactor adjugate at full rank, at
    rank n − 1 (adj of rank one) and at rank n − 2 (adj = 0)."""
    rng = random.Random(f"adj{n}{entry.__name__}{drop}")
    k = max(n - drop, 0)  # the rank: L·R through k inner columns
    m = mat_mul(matrix(rng, n, k, entry), matrix(rng, k, n, entry)) if k else \
        [[F(0)] * n for _ in range(n)]
    expected = cofactor_adjugate(m)
    assert adjugate(m) == expected
    if n:
        assert any(map(any, expected)) == (k >= n - 1)
        det = det_bareiss(m)
        assert qq_matmul(m, expected) == [[det * (i == j) for j in range(n)] for i in range(n)]


# -- symplectic reduction --------------------------------------------------------


def skew(rng, n, entry, zeros=0.0):
    """A random n×n skew matrix, each pair (i, j), i < j, zero with probability zeros."""
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= zeros:
                m[i][j] = entry(rng)
                m[j][i] = -m[i][j]
    return m


def skew_shaped(rng, n, entry, shape):
    """Dense; with about half its entries zero; or ᵗB·K·B for a random k×k
    skew K, k ≤ n, so of rank at most k (0 when k < 2)."""
    if shape == "low rank":
        k = rng.randint(0, n)
        b = matrix(rng, k, n, entry)
        return congruence(b, skew(rng, k, entry))
    return skew(rng, n, entry, 0.5 if shape == "zeros" else 0.0)


def check_reduction(gram):
    m, C = symplectic_reduce(gram)
    assert (m, C) == symplectic_reduce_fraction(gram)
    assert all(type(x) is F for row in C for x in row)
    assert congruence(C, gram) == _block_stalk(m, len(gram))


@pytest.mark.parametrize("shape", ("dense", "zeros", "low rank"))
@pytest.mark.parametrize("n", range(10))
def test_symplectic_reduce_matches_fraction_reduction(n, shape):
    rng = random.Random(f"reduce{n}{shape}")
    for _ in range(80):
        check_reduction(skew_shaped(rng, n, mixed, shape))


@pytest.mark.parametrize("shape", ("dense", "zeros", "low rank"))
@pytest.mark.parametrize("n", range(7))
def test_symplectic_reduce_with_big_entries(n, shape):
    rng = random.Random(f"reducebig{n}{shape}")
    for _ in range(5):
        check_reduction(skew_shaped(rng, n, big, shape))


@pytest.mark.parametrize("dense,moving,m_moving", [(0, 3, 1), (0, 4, 1), (0, 5, 2), (0, 6, 2),
                                                   (2, 3, 1), (2, 4, 2), (4, 4, 1), (4, 5, 2)])
def test_symplectic_reduce_on_moving_and_mixed_zeros(dense, moving, m_moving):
    """At every point of a 3-point site, stalks whose pairings each vanish
    somewhere, rescaled per point."""
    rng = random.Random(f"reducemixed{dense}{moving}{m_moving}")
    domain = discrete(["a", "b", "c"]).whole
    for _ in range(20):
        for stalk in rand_skew_mixed(rng, domain, dense, moving, m_moving).stalks:
            check_reduction(stalk)


# -- wedge ------------------------------------------------------------------------


def sparse_form(rng, domain, rank, degree, entry):
    """A form with up to 6 random coefficients per point on random multi-indices
    (all of them, for small ranks), some points left without any."""
    stalks = []
    for _ in range(domain.size):
        count = rng.choice((0, 1, 3, 6)) if degree <= rank else 0
        stalks.append({tuple(sorted(rng.sample(range(rank), degree))): entry(rng)
                       for _ in range(count)})
    return KForm.from_stalks(domain, rank, degree, stalks)


@pytest.mark.parametrize("rank", (0, 1, 2, 3, 4, 5, 6, 8, 63, 64, 65, 130))
def test_wedge_matches_shuffle_product(rank):
    rng = random.Random(f"wedge{rank}")
    space = discrete(["a", "b", "c"])
    for domain in (space.empty, PT, space.whole):
        for k in range(min(rank, 4) + 1):
            for l in range(min(rank, 4) + 1):
                for entry in (mixed, mixed, big):
                    xi = sparse_form(rng, domain, rank, k, entry)
                    eta = sparse_form(rng, domain, rank, l, entry)
                    product = wedge(xi, eta)
                    assert product == wedge_shuffle(xi, eta)
                    assert product.degree == k + l
                    if k + l > rank:
                        assert product.is_zero()


# -- rational roots --------------------------------------------------------------


def times_linear(p, root):
    """The coefficients (constant first) of p·(t − root)."""
    shifted = [F(0)] + p
    return [a - root * b for a, b in zip(shifted, p + [F(0)])]


small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(small_rationals, st.integers(1, 2)), max_size=3),
       cofactor=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       lead=small_rationals.filter(bool))
def test_rational_roots_matches_brute_force(roots, cofactor, lead):
    """Planted roots with multiplicities (zero included) times an integer
    cofactor, which may add irrational, repeated or more zero roots."""
    p = [F(c) * lead for c in cofactor]
    if not any(p):
        p = [lead]
    for root, multiplicity in roots:
        for _ in range(multiplicity):
            p = times_linear(p, root)
    assert rational_roots(p) == rational_roots_brute(p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=7).filter(lambda c: any(c[1:])))
def test_rational_roots_of_random_integer_polynomials(coeffs):
    assert rational_roots(coeffs) == rational_roots_brute(coeffs)


def test_rational_roots_multiple_and_zero_roots():
    p = [F(1)]
    for root in (F(0), F(0), F(-2, 3), F(-2, 3), F(-2, 3), F(5), F(7, 2)):
        p = times_linear(p, root)
    assert rational_roots(p) == [F(-2, 3), F(0), F(7, 2), F(5)]
    assert rational_roots([F(0), F(0), F(3)]) == [F(0)]
    assert rational_roots([F(5)]) == []


def test_rational_roots_of_a_large_constant_term():
    """t² − a₀ with a₀ = (10²⁰ + 39)² and t² + 10³⁰: trial division up to
    |a₀| would never return."""
    r = 10 ** 20 + 39
    assert rational_roots([F(-r * r), F(0), F(1)]) == [F(-r), F(r)]
    assert rational_roots([F(10 ** 30), F(0), F(1)]) == []


def product(factors):
    """The product of integer polynomials, each highest degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


non_squares = st.integers(2, 10 ** 12).filter(lambda c: isqrt(c) ** 2 != c)


@settings(max_examples=300, deadline=None)
@given(linear=st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 60),
                                 st.integers(1, 3)), max_size=5),
       real=st.lists(non_squares, max_size=3),
       unreal=st.lists(st.integers(1, 10 ** 6), max_size=2),
       lead=st.integers(-30, 30).filter(bool))
def test_brackets_hold_the_floor_and_ceiling_of_every_real_root(linear, real, unreal, lead):
    """(q·t − p)^m, (t² − c) with c a positive non-square and (t² + c) factors:
    ⌊r⌋ and ⌈r⌉ of every real root r are brackets, and ±√c lie strictly
    between isqrt(c) and isqrt(c) + 1."""
    f = product([[lead]] + [[q, -p] for p, q, m in linear for _ in range(m)]
                + [[1, 0, -c] for c in real] + [[1, 0, c] for c in unreal])
    brackets = _brackets(f)
    assert brackets == sorted(set(brackets))
    ends = {e for p, q, _ in linear for e in (p // q, -(-p // q))}
    for c in real:
        s = isqrt(c)
        ends |= {s, s + 1, -s - 1, -s}
    assert ends <= set(brackets)


@pytest.mark.parametrize("degree", [16, 20, 24, 28, 32])
@pytest.mark.parametrize("denominators", [1, 10 ** 3])
def test_rational_roots_of_planted_spectra_of_degree_16_to_32(degree, denominators):
    """Planted roots, some repeated, times (t² − c) and (t² + c) factors, at
    degrees the trial-division oracle cannot reach."""
    rng = random.Random(degree * denominators)
    factors, planted, left = [[rng.choice((-7, -1, 1, 3))]], set(), degree
    while left:
        if left >= 2 and rng.random() < 0.2:
            c = rng.randint(2, 10 ** 6)
            factors.append([1, 0, c] if rng.random() < 0.5 or isqrt(c) ** 2 == c else [1, 0, -c])
            left -= 2
        else:
            root = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, denominators))
            multiplicity = min(rng.randint(1, 3), left)
            factors += [[root.denominator, -root.numerator]] * multiplicity
            planted.add(root)
            left -= multiplicity
    p = product(factors)[::-1]  # constant term first
    assert len(p) == degree + 1
    assert rational_roots(p) == sorted(planted)


def planted_matrix(rng, eigenvalues, blocks):
    """S·D·S⁻¹ with S unimodular and D block diagonal: the eigenvalues, then a
    2×2 block with characteristic polynomial t² + c for each c in blocks."""
    n = len(eigenvalues) + 2 * len(blocks)
    D = [[F(0)] * n for _ in range(n)]
    for i, lam in enumerate(eigenvalues):
        D[i][i] = lam
    for k, c in enumerate(blocks):
        i = len(eigenvalues) + 2 * k
        D[i][i + 1], D[i + 1][i] = F(-c), F(1)
    S = [[F(i == j) for j in range(n)] for i in range(n)]
    S_inv = [row[:] for row in S]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        S[i] = [x + c * y for x, y in zip(S[i], S[j])]
        for row in S_inv:
            row[j] -= c * row[i]
    return qq_matmul(qq_matmul(S, D), S_inv)


def twenty_digits(rng):
    return F(rng.choice((-1, 1)) * rng.randint(10 ** 19, 10 ** 20), rng.randint(1, 10 ** 3))


@pytest.mark.parametrize("seed,blocks", [(1, ()), (2, ()), (3, (7,)), (4, (10 ** 20 + 1,))])
def test_eigen_planted_twenty_digit_spectra(seed, blocks):
    rng = random.Random(seed)
    eigenvalues = [twenty_digits(rng) for _ in range(8 - 2 * len(blocks))]
    M = SectionMatrix(PT, planted_matrix(rng, eigenvalues, blocks))
    assert max(abs(x.numerator) for row in M.stalks[0] for x in row) >= 10 ** 19
    started = time.perf_counter()
    report = eigen_sections(M)  # checks M·v = λ·v for every pair
    elapsed = time.perf_counter() - started
    assert [p.lam.stalks[0] for p in report.pairs] == sorted(eigenvalues)
    assert elapsed < 5, f"8×8 planted spectrum took {elapsed:.2f}s"
