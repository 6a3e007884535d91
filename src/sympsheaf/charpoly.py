"""Characteristic polynomials, Cayley–Hamilton, and eigen-sections.

A polynomial over A(U) = ∏_{x∈U} ℚ is one ℚ polynomial per point, so a
Polynomial stores one coefficient tuple per point, like a section vector.
The characteristic polynomial det(tI − M) is computed on the ℚ stalk at
each point by `qlinalg.qq_charpoly` (Berkowitz's division-free method on
the integer matrix D·M) and glued stalk by stalk; substitution runs
`qlinalg._horner` (Horner's rule on D·M) at each point, and root finding
works on an integer polynomial, so the inner loops do no Fraction
arithmetic.
Eigenvalues are exact rational roots of the pointwise polynomials (integer
brackets of the real roots, found by bisection between the brackets of the
derivative, polynomial in the bit length of the coefficients);
per-point eigenpair choices are glued into sections deterministically
(eigenvalues ascending, eigenvectors normalized to leading entry 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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
from .qlinalg import _horner, qq_charpoly
from .sections import StructureSection
from .site import OpenSet, require_open_cover

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


def _value(p: list[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _brackets(f: list[int]) -> list[int]:
    """Sorted integers holding ⌊r⌋ and ⌈r⌉ of every real root r of f, a
    nonzero polynomial over ℤ, highest degree first.

    Every root has |r| < bound/2, with bound twice Fujiwara's 2·max
    |f_k/f_0|^{1/k} rounded up to a power of two of at least 4; so do the
    real roots of f′ (Gauss–Lucas), whose brackets therefore lie inside
    ±bound.  Between adjacent points a < b − 1 of f′'s brackets and ±bound,
    f′ has no root, so f is strictly monotone there and has a root inside
    only if f(a) and f(b) have opposite signs; one bisection on the sign of
    f narrows it to a unit interval.  A root inside a unit interval between
    adjacent points has both ends among f′'s brackets already.
    """
    n = len(f) - 1
    if n < 1:
        return []
    top = f[0].bit_length()
    bound = 4 << max(0, *(-((top - 1 - c.bit_length()) // k) for k, c in enumerate(f[1:], 1)))
    out = _brackets([c * (n - i) for i, c in enumerate(f[:-1])])
    points = [-bound, *out, bound]
    values = [_value(f, x) for x in points]
    for a, b, fa, fb in zip(points, points[1:], values, values[1:]):
        if b - a > 1 and fa * fb < 0:
            while b - a > 1:
                mid = (a + b) // 2
                if (_value(f, mid) < 0) == (fa < 0):
                    a = mid
                else:
                    b = mid
            out += [a, b]
    return sorted(set(out))


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Distinct rational roots of a nonzero ℚ polynomial, ascending.

    The zero roots are split off and the denominators cleared, giving
    f = Σ a_k t^k over ℤ with a₀ ≠ 0.  Substituting t = s/aₙ turns
    aₙⁿ⁻¹·f into the monic g(s) = Σ a_k·aₙⁿ⁻¹⁻ᵏ·s^k, whose rational roots are
    integers (rational root theorem).  Each is among the brackets of g, and
    a repeated root is a root of g′ too, so no square-free part is taken.
    With b the bit length of the bound on the roots of g, which bounds those
    of its derivatives too, the brackets take O(n²·(n + b)) evaluations:
    O(n²) brackets for each derivative, and a bisection of O(b) steps for
    each real root of each.
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
    g = [1] + [a[k] * an ** (n - 1 - k) for k in reversed(range(n))]
    roots += [Fraction(s, an) for s in _brackets(g) if _value(g, s) == 0]
    return sorted(roots)


def _eigenvector_at(stalk: qlinalg.QMatrix, lam: Fraction) -> list[Fraction]:
    # for λ = p/q, q·(D·M) − p·D·I = q·D·(M − λI): the same RREF and kernel, over ints
    d, m = qlinalg.scaled(stalk)
    p, q = lam.numerator, lam.denominator
    kernel = qlinalg.kernel_basis(
        [[q * x - (p * d if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)])
    if not kernel:
        raise AssertionError("eigenvalue without eigenvector; root finding bug")
    v = kernel[0]
    lead = next(x for x in v if x != 0)
    return [x / lead for x in v]


class EigenPair(NamedTuple):
    """An eigenvalue section λ with a nowhere-zero eigenvector: M·s = λ·s."""

    lam: StructureSection
    vector: SectionVector


class EigenReport(NamedTuple):
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
    from .presheaf import glue_stalkwise
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


class ReciprocityReport(NamedTuple):
    palindromic: bool
    spectrum_closed: bool
    char: Polynomial
    spectra: dict  # point label -> tuple of rational eigenvalues


def reciprocal_spectrum_check(M: SectionMatrix,
                              form: Optional[SectionMatrix] = None) -> ReciprocityReport:
    """Verify P(t) = t^{2n}·P(1/t) for a symplectomorphism and that every
    pointwise rational spectrum is closed under λ ↦ 1/λ."""
    from .symplectic import is_symplectic_map, standard_J
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
