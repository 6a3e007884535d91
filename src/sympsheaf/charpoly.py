"""Characteristic polynomials, Cayley–Hamilton, and eigen-sections.

A polynomial over A(U) = ∏_{x∈U} ℚ is one ℚ polynomial per point, so a
Polynomial stores one coefficient tuple per point, like a section vector.
The characteristic polynomial det(tI − M) is computed on the ℚ stalk at
each point (Berkowitz's division-free method) and glued stalk by stalk;
substitution, palindromy and root finding run on the stalks as well.
Eigenvalues are exact rational roots of the pointwise polynomials;
per-point eigenpair choices are glued into sections deterministically
(eigenvalues ascending, eigenvectors normalized to leading entry 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
from .modules import ZERO, SectionMatrix, SectionVector
from .presheaf import glue_stalkwise
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


def qq_charpoly(mat: qlinalg.QMatrix) -> list[Fraction]:
    """Coefficients of det(tI − M), constant term first, for a ℚ matrix.

    Berkowitz's division-free method (Inf. Proc. Lett. 18:147, 1984): for
    M = [[a, R], [C, M₁]], det(tI − M) is the product of the lower triangular
    Toeplitz matrix with first column (1, −a, −RC, −RM₁C, …, −RM₁ⁿ⁻²C) and
    the coefficients of det(tI − M₁), leading coefficient first.  Running
    from the bottom-right entry up takes O(n⁴) field operations.
    """
    n = len(mat)
    p = [Fraction(1)]  # det(tI − M₁) for the trailing block, leading coefficient first
    for i in reversed(range(n)):
        row, column = mat[i][i + 1:], [r[i] for r in mat[i + 1:]]
        block = [r[i + 1:] for r in mat[i + 1:]]
        toeplitz = [Fraction(1), -mat[i][i]]
        for _ in block:
            toeplitz.append(-qlinalg.dot(row, column))
            column = [qlinalg.dot(r, column) for r in block]
        p = [sum(toeplitz[j - l] * p[l] for l in range(min(j + 1, len(p))))
             for j in range(len(p) + 1)]
    return p[::-1]


def char_poly(M: SectionMatrix) -> Polynomial:
    """The characteristic polynomial section det(tI − M) ∈ A(U)[t].

    Monic of degree n, with constant term (−1)ⁿ·det(M) and t^{n−1}
    coefficient −trace(M).
    """
    if not M.is_square():
        raise NotSquare(f"{M.rows}x{M.cols} matrix has no characteristic polynomial")
    n = M.rows
    if n > CHARPOLY_SIZE_CAP:
        raise DegreeTooLarge(f"characteristic polynomial capped at size {CHARPOLY_SIZE_CAP}")
    return Polynomial.from_stalks(M.domain, n + 1, map(qq_charpoly, M.stalks))


def _horner(coeffs: Sequence[Fraction], mat: qlinalg.QMatrix) -> qlinalg.QMatrix:
    n = len(mat)
    out = [[ZERO] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = qlinalg.mat_mul(out, mat)
        for i in range(n):
            out[i][i] += c
    return out


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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Distinct rational roots of a nonzero ℚ polynomial, ascending.

    Rational root theorem after clearing denominators: any root p/q in
    lowest terms has p | constant term and q | leading coefficient.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every rational as a root")

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    roots = set()
    low = 0
    while coeffs[low] == 0:
        roots.add(Fraction(0))
        low += 1
    scale = lcm(*(c.denominator for c in coeffs)) if len(coeffs) > 1 else coeffs[0].denominator
    ints = [int(c * scale) for c in coeffs[low:]]
    a0, an = ints[0], ints[-1]
    for p in _divisors(a0):
        for q in _divisors(an):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and value(cand) == 0:
                    roots.add(cand)
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
