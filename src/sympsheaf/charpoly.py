"""Characteristic polynomials, Cayley–Hamilton, and eigen-sections.

A polynomial over A(U) = ∏_{x∈U} ℚ is one ℚ polynomial per point, so a
Polynomial stores one coefficient tuple per point, like a section vector.
The characteristic polynomial det(tI − M) is computed on the ℚ stalk at
each point by `qlinalg.qq_charpoly` (Berkowitz's division-free method on
the integer matrix D·M) and glued stalk by stalk; substitution runs
`qlinalg._horner` (Horner's rule on D·M) at each point, and root finding
works on an integer polynomial, so the inner loops do no Fraction
arithmetic.
Eigenvalues are exact rational roots of the pointwise polynomials (Sturm
bisection, polynomial in the bit length of the coefficients);
per-point eigenpair choices are glued into sections deterministically
(eigenvalues ascending, eigenvectors normalized to leading entry 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from operator import ne
from typing import Optional, Sequence

from . import qlinalg
from .errors import (
    DegreeTooLarge,
    DimensionMismatch,
    CayleyHamiltonViolation,
    DomainMismatch,
    NotSquare,
    NotSymplectic,
)
from .modules import SectionMatrix, SectionVector
from .presheaf import glue_stalkwise
from .qlinalg import _horner, qq_charpoly
from .sections import StructureSection
from .site import OpenSet, require_open_cover
from .symplectic import is_symplectic_map, standard_J

CHARPOLY_SIZE_CAP = 8


class Polynomial(SectionVector):
    """A polynomial over A(U) with n + 1 coefficients, constant term first,
    stored as one tuple of ℚ coefficients per point of U.

    Built from ints, Fractions or sections with Polynomial(U, coeffs), or
    from per-point coefficient tuples with from_stalks.  Its degree is n,
    also where the leading coefficient vanishes and on U = ∅.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.length - 1

    def is_monic(self) -> bool:
        return self.length > 0 and all(s[-1] == 1 for s in self.stalks)

    @property
    def coeffs(self) -> tuple[StructureSection, ...]:
        return self.entries


def char_poly(M: SectionMatrix) -> Polynomial:
    """The characteristic polynomial section det(tI − M) ∈ A(U)[t].

    Monic of degree n, with constant term (−1)ⁿ·det(M) and t^{n−1}
    coefficient −trace(M).
    """
    if not M.is_square():
        raise NotSquare(f"{M.rows}x{M.cols} matrix has no characteristic polynomial")
    n = M.rows
    if n > CHARPOLY_SIZE_CAP:
        raise DegreeTooLarge(f"a {n}x{n} matrix exceeds CHARPOLY_SIZE_CAP = {CHARPOLY_SIZE_CAP}")
    return Polynomial.from_stalks(M.domain, n + 1, map(qq_charpoly, M.stalks))


def poly_apply(p: Polynomial, M: SectionMatrix) -> SectionMatrix:
    """Substitute M for the variable: Σ cᵢ Mⁱ with M⁰ = I, by Horner's rule
    on the ℚ stalk at each point; p and M live on the same open set."""
    if not M.is_square():
        raise DimensionMismatch("polynomial substitution needs a square matrix")
    if p.domain != M.domain:
        raise DomainMismatch(f"polynomial on {p.domain} applied to a matrix on {M.domain}")
    return SectionMatrix.from_stalks(M.domain, M.rows, M.rows, map(_horner, p.stalks, M.stalks))


def cayley_hamilton_check(M: SectionMatrix, p: Polynomial) -> SectionMatrix:
    """P_M(M) for p = P_M, which the Cayley–Hamilton theorem makes the exact zero matrix.

    The residue is returned as a certificate; a nonzero residue signals an
    arithmetic bug and raises CayleyHamiltonViolation.
    """
    residue = poly_apply(p, M)
    if not residue.is_zero():
        raise CayleyHamiltonViolation("P_M(M) is nonzero; arithmetic bug")
    return residue


# -- exact rational eigen-solves -----------------------------------------------------


def _primitive(p: list[int]) -> list[int]:
    """p divided by its positive content; [] for the zero polynomial."""
    while p and p[0] == 0:
        p = p[1:]
    g = gcd(*p)
    return [x // g for x in p] if g > 1 else p


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of −(a mod b), primitive; polynomials over ℤ,
    highest degree first, b nonzero.  Pseudo-division by b multiplies the
    remainder by lc(b) at each step, whose sign is tracked."""
    r, lead, sign = list(a), b[0], -1
    while len(r) >= len(b):
        if r[0]:
            r = [lead * x - r[0] * y for x, y in zip_longest(r, b, fillvalue=0)]
            sign = -sign if lead < 0 else sign
        r = r[1:]
    return [sign * x for x in _primitive(r)]


def _value(p: list[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _sturm_chain(g: list[int]) -> list[list[int]]:
    """g, g′ and the negated remainders after them, each primitive."""
    n = len(g) - 1
    chain = [g, _primitive([c * (n - i) for i, c in enumerate(g[:-1])])]
    while len(chain[-1]) > 1:
        nxt = _negated_remainder(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for b with leading coefficient ±1 dividing a in ℤ[t]."""
    r, q = list(a), []
    while len(r) >= len(b):
        c = r[0] * b[0]  # b[0] = ±1 is its own inverse
        q.append(c)
        r = [x - c * y for x, y in zip(r[1:], b[1:])] + r[len(b):]
    return q


def _integer_roots(chain: list[list[int]]) -> list[int]:
    """Integer roots of g = chain[0], square-free over ℤ with leading
    coefficient ±1 and highest degree first, from its Sturm chain.

    Sturm's theorem on integer intervals (lo, hi]: the sign variations V of
    the chain give the number of distinct real roots there as V(lo) − V(hi),
    also when lo or hi is a root.  Bisection starts from Fujiwara's bound
    |z| ≤ 2·max |g_{n−k}|^{1/k}, rounded up to a power of two, keeps only the
    intervals holding a root and tests g(hi) = 0 on unit intervals, so it
    costs O(roots · bit length) chain evaluations.
    """
    g = chain[0]
    bound = 2 << max((-(-abs(c).bit_length() // k) for k, c in enumerate(g[1:], 1)),
                     default=0)
    variations: dict[int, int] = {}

    def var(x: int) -> int:
        if x not in variations:
            signs = [v > 0 for v in (_value(p, x) for p in chain) if v]
            variations[x] = sum(map(ne, signs, signs[1:]))
        return variations[x]

    roots, todo = [], [(-bound - 1, bound)]
    while todo:
        lo, hi = todo.pop()
        if var(lo) == var(hi):
            continue
        if hi - lo == 1:
            if _value(g, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        todo += [(lo, mid), (mid, hi)]
    return roots


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Distinct rational roots of a nonzero ℚ polynomial, ascending.

    The zero roots are split off and the denominators cleared, giving
    f = Σ a_k t^k over ℤ with a₀ ≠ 0.  Substituting t = s/aₙ turns
    aₙⁿ⁻¹·f into the monic g(s) = Σ a_k·aₙⁿ⁻¹⁻ᵏ·s^k, whose rational roots are
    integers (rational root theorem).  They are isolated by Sturm bisection
    on the square-free part g/gcd(g, g′), in time polynomial in the bit
    length of the coefficients.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every rational as a root")
    low = next(k for k, c in enumerate(coeffs) if c != 0)
    roots = [Fraction(0)] if low else []
    _, (a,) = qlinalg.scaled([coeffs[low:]])
    n, an = len(a) - 1, a[-1]
    if n == 0:
        return roots
    g = [1] + [a[k] * an ** (n - 1 - k) for k in reversed(range(n))]
    chain = _sturm_chain(g)
    if len(chain[-1]) > 1:  # gcd(g, g′) of positive degree: keep the square-free part
        chain = _sturm_chain(_exact_quotient(g, chain[-1]))
    roots += [Fraction(s, an) for s in _integer_roots(chain)]
    return sorted(roots)


def _eigenvector_at(stalk: qlinalg.QMatrix, lam: Fraction) -> list[Fraction]:
    n = len(stalk)
    shifted = [[stalk[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    kernel = qlinalg.kernel_basis(shifted)
    if not kernel:
        raise AssertionError("eigenvalue without eigenvector; root finding bug")
    v = kernel[0]
    lead = next(x for x in v if x != 0)
    return [x / lead for x in v]


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue section λ with a nowhere-zero eigenvector: M·s = λ·s."""

    lam: StructureSection
    vector: SectionVector


@dataclass(frozen=True)
class EigenReport:
    pairs: tuple[EigenPair, ...]
    omitted_points: tuple[str, ...]


def eigen_sections(M: SectionMatrix) -> EigenReport:
    """All eigenpair sections obtained by gluing pointwise rational solves.

    At each point the rational eigenvalues are sorted ascending; branch k
    glues the k-th smallest across the open set and exists only when every
    point has more than k rational eigenvalues.  Points with fewer roots
    than the maximum (in particular with none) are reported as omitted.
    """
    if not M.is_square():
        raise NotSquare("eigen solve needs a square matrix")
    domain = M.domain
    if domain.size == 0:
        return EigenReport((), ())
    roots = [rational_roots(qq_charpoly(s)) for s in M.stalks]  # monic, so nonzero
    branch_count = min(map(len, roots))
    max_count = max(map(len, roots))
    if max_count == 0:
        omitted = domain.labels  # no rational eigenvalue anywhere
    else:
        omitted = tuple(p for p, r in zip(domain.labels, roots) if len(r) < max_count)
    pairs = []
    for k in range(branch_count):
        lam = StructureSection(domain, [r[k] for r in roots])
        vec = SectionVector.from_stalks(
            domain, M.rows, (_eigenvector_at(s, r[k]) for s, r in zip(M.stalks, roots)))
        if (M @ vec) != vec.scale(lam) or not vec.is_nowhere_zero():
            raise AssertionError("glued eigenpair failed verification; bug")
        pairs.append(EigenPair(lam, vec))
    return EigenReport(tuple(pairs), omitted)


def eigen_presheaf_glue(M: SectionMatrix, cover: Sequence[OpenSet],
                        pairs: Sequence[EigenPair]) -> EigenPair:
    """Glue per-cover-member eigenpairs of M into an eigenpair over its domain.

    The family must agree on overlaps: the eigenvalues are glued first, then
    the eigenvectors, and IncompatibleFamily carries the first disagreeing
    overlap with the two restrictions there.  Each member must be an actual
    eigenpair of M restricted to its member.
    """
    U = M.domain
    require_open_cover(U, cover)
    if len(cover) != len(pairs):
        raise DimensionMismatch("one eigenpair per cover member required")
    for V, pair in zip(cover, pairs):
        M_V = M.restrict(V)
        if (M_V @ pair.vector) != pair.vector.scale(pair.lam):
            raise ValueError(f"not an eigenpair of M over {V}")
        if not pair.vector.is_nowhere_zero():
            raise ValueError(f"eigenvector vanishes at a point of {V}")
    if not cover:  # the empty cover of U = ∅ glues to the one eigenpair over ∅
        return EigenPair(StructureSection(U, []), SectionVector.from_stalks(U, M.rows, []))
    lam = glue_stalkwise(U, cover, [p.lam for p in pairs])
    vec = glue_stalkwise(U, cover, [p.vector for p in pairs])
    if (M @ vec) != vec.scale(lam):
        raise AssertionError("glued eigenpair failed verification; bug")
    return EigenPair(lam, vec)


# -- symplectic eigenvalue reciprocity ---------------------------------------------------


@dataclass(frozen=True)
class ReciprocityReport:
    palindromic: bool
    spectrum_closed: bool
    char: Polynomial
    spectra: dict  # point label -> tuple of rational eigenvalues


def reciprocal_spectrum_check(M: SectionMatrix,
                              form: Optional[SectionMatrix] = None) -> ReciprocityReport:
    """Verify P(t) = t^{2n}·P(1/t) for a symplectomorphism and that every
    pointwise rational spectrum is closed under λ ↦ 1/λ."""
    if M.rows % 2:
        raise DimensionMismatch("symplectomorphisms have even rank")
    J = form if form is not None else standard_J(M.domain, M.rows // 2)
    if not is_symplectic_map(M, J):
        raise NotSymplectic("matrix does not preserve the form")
    p = char_poly(M)
    palindromic = all(s == s[::-1] for s in p.stalks)
    spectra = {point: tuple(rational_roots(s)) for point, s in zip(M.domain.labels, p.stalks)}
    closed = all(lam != 0 and 1 / lam in roots for roots in spectra.values() for lam in roots)
    return ReciprocityReport(palindromic, closed, p, spectra)
