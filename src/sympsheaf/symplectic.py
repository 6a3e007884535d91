"""Skew-symmetric bilinear forms on free modules of sections and their
constructive normal forms: symplectic (Darboux) bases, the degenerate block
form, symplectomorphisms and the symplectic group, volume and orientation.

The reduction runs on each ℚ stalk: qlinalg.symplectic_reduce follows the
flag-splitting proof (find a pair (s, t̄) with nonzero pairing, normalize
t = ω(s,t̄)⁻¹·t̄ so ω(s,t) = 1, split every other generator into the
orthogonal complement via

    z  ↦  z + ω(z,s)·t − ω(z,t)·s,

and recurse), on ints: it reduces the integer Gram matrix D·Ω over the
common denominator D of the stalk, which scales every t by 1/D and leaves
the split unchanged, and multiplies the t columns by D at the end.
rank_normal_form glues the per-point changes of basis into one section
matrix P and the per-point pair counts into one section m.  This is
legitimate because A(U) = ∏_{x∈U} ℚ: the structure sheaf glues arbitrary
pointwise data, so a normal form found at every stalk is a normal form over
U, of rank 2m(x) at x, with no constant-rank hypothesis.  It checks ᵗPΩP
exactly against the rank-2m(x) block form at every point x; darboux_basis
and skew_normal_form are that reduction plus a check on m.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import qlinalg
from .errors import (
    Degenerate,
    DegenerateForm,
    DimensionMismatch,
    NonConstantRank,
    NotSkewSymmetric,
    NotSquare,
    NotSymplectic,
)
from .modules import ONE, ZERO, SectionMatrix, SectionVector, determinant, try_inverse_matrix
from .sections import StructureSection
from .site import OpenSet

# for annotations alone: random_symplectic's caller passes the generator, and
# the two k-form helpers import exterior when called, so darboux loads none of it
if TYPE_CHECKING:
    import random

    from .exterior import KForm


# -- the reference form -------------------------------------------------------


def standard_J(domain: OpenSet, m: int) -> SectionMatrix:
    """The 2m×2m matrix [[0, I_m], [−I_m, 0]] of the standard form."""
    return block_normal_form(domain, m, 2 * m)


def block_normal_form(domain: OpenSet, m: int, n: int) -> SectionMatrix:
    """The rank-2m degenerate normal form [[0,I_m,0],[−I_m,0,0],[0,0,0]] of size n."""
    return SectionMatrix.from_stalks(domain, n, n, [_block_stalk(m, n)] * domain.size)


def _block_stalk(m: int, n: int) -> qlinalg.QMatrix:
    """block_normal_form over ℚ: one point's stalk."""
    stalk = [[ZERO] * n for _ in range(n)]
    for i in range(m):
        stalk[i][m + i], stalk[m + i][i] = ONE, -ONE
    return stalk


def gram_two_form(omega: SectionMatrix) -> KForm:
    """The 2-form Σ_{i<j} Ω_ij ε^i*∧ε^j* whose Gram matrix is Ω."""
    from .exterior import KForm
    if not omega.is_square():
        raise NotSquare("Gram matrix must be square")
    n = omega.rows
    return KForm.from_stalks(omega.domain, n, 2, ({(i, j): s[i][j] for i in range(n)
                                                   for j in range(i + 1, n)}
                                                  for s in omega.stalks))


def standard_two_form(domain: OpenSet, m: int) -> KForm:
    """Σ_i ε^i*∧ε^{m+i}*, the coordinate form of the standard structure."""
    return gram_two_form(standard_J(domain, m))


# -- form classification ---------------------------------------------------------


class FormReport(NamedTuple):
    skew: bool
    ranks: dict  # point label -> pointwise rank (always even for skew forms)
    nondegenerate: bool

    @property
    def constant_rank(self) -> Optional[int]:
        values = set(self.ranks.values())
        if len(values) == 1:
            return values.pop()
        return 0 if not self.ranks else None


def check_form(omega: SectionMatrix) -> FormReport:
    """Classify a bilinear form, skew or not: skewness, pointwise ranks (the
    pivot count of qlinalg's fraction-free elimination), nondegeneracy.

    Nondegeneracy means det(Ω) is a unit section, i.e. nonzero at every
    point, equivalent to the section-level definition over the function
    sheaf.
    """
    skew = _is_skew(omega)
    ranks = dict(zip(omega.domain.labels, map(qlinalg.rank, omega.stalks)))
    nondeg = skew and all(r == omega.rows for r in ranks.values())
    return FormReport(skew=skew, ranks=ranks, nondegenerate=nondeg)


def _is_skew(omega: SectionMatrix) -> bool:
    """NotSquare unless Ω is square; then whether s[i][j] = −s[j][i] for all
    i, j at every stalk s (over ℚ the case i = j forces a zero diagonal).
    Entries are Fractions in lowest terms, so x = −y iff their numerators are
    opposite and their denominators equal; no negated Fraction is built."""
    if not omega.is_square():
        raise NotSquare(f"{omega.rows}x{omega.cols} form matrix")
    return all(x.numerator == -y.numerator and x.denominator == y.denominator
               for s in omega.stalks for row, column in zip(s, zip(*s))
               for x, y in zip(row, column))


# -- the constructive reduction -------------------------------------------------------


def rank_normal_form(omega: SectionMatrix) -> tuple[StructureSection, SectionMatrix]:
    """The normal form of any skew form Ω: (m, P), with m the section of
    per-point pair counts (the pointwise rank is 2m) and ᵗPΩP checked to be
    the rank-2m(x) block form at each point x, so its block coefficients are
    idempotent sections.  NotSquare or NotSkewSymmetric when Ω is not skew.
    At each point P's columns are s₁..s_m, t₁..t_m, then kernel vectors.
    On U = ∅ m is the empty section."""
    if not _is_skew(omega):
        raise NotSkewSymmetric("form matrix is not skew-symmetric")
    n = omega.rows
    reduced = [qlinalg.symplectic_reduce(s) for s in omega.stalks]
    for s, (m, C) in zip(omega.stalks, reduced):
        if qlinalg.mat_mul(qlinalg.mat_mul(list(zip(*C)), s), C) != _block_stalk(m, n):
            raise AssertionError("certificate ᵗPΩP failed; arithmetic bug")
    return (StructureSection(omega.domain, [m for m, _ in reduced]),
            SectionMatrix.from_stalks(omega.domain, n, n, (C for _, C in reduced)))


class DarbouxBasis(NamedTuple):
    """A certified symplectic basis s₁..s_m, t₁..t_m of a nondegenerate
    form.  P has the basis as columns and gram = ᵗPΩP = J is the certificate."""

    s: tuple[SectionVector, ...]
    t: tuple[SectionVector, ...]
    change_of_basis: SectionMatrix
    gram: SectionMatrix

    @property
    def m(self) -> int:
        return len(self.s)


def darboux_basis(omega: SectionMatrix) -> DarbouxBasis:
    """Symplectic basis of a nondegenerate skew form, ᵗPΩP = J exactly:
    rank_normal_form with the check that m = n/2 everywhere."""
    ms, P = rank_normal_form(omega)
    n = omega.rows
    if n % 2:
        raise Degenerate("odd rank cannot carry a nondegenerate skew form",
                         points=omega.domain.labels)
    bad = tuple(p for p, m in zip(omega.domain.labels, ms.stalks) if 2 * m < n)
    if bad:
        raise Degenerate("form is degenerate; use skew_normal_form", points=bad)
    m = n // 2
    columns = P.columns()
    return DarbouxBasis(tuple(columns[:m]), tuple(columns[m:]), P,
                        standard_J(omega.domain, m))


def skew_normal_form(omega: SectionMatrix) -> tuple[int, SectionMatrix]:
    """Normal form of constant rank: (m, P) with ᵗPΩP the three-block form.

    rank_normal_form with the check that m is constant; otherwise
    NonConstantRank names the points whose m is not the first point's
    (restrict and retry there, mirroring the local statement of the
    theorem).  On U = ∅ m is ⌊n/2⌋.
    """
    ms, P = rank_normal_form(omega)
    m = int(ms.stalks[0]) if ms.stalks else omega.rows // 2
    bad = tuple(p for p, k in zip(omega.domain.labels, ms.stalks) if k != m)
    if bad:
        raise NonConstantRank("pointwise rank is not constant", points=bad)
    return m, P


# -- symplectomorphisms ---------------------------------------------------------------


def is_symplectic_map(M: SectionMatrix, omega: SectionMatrix) -> bool:
    """True iff ᵗM·Ω·M = Ω entrywise-exactly."""
    if M.rows != M.cols or M.rows != omega.rows:
        raise DimensionMismatch("map and form dimensions disagree")
    if M.domain != omega.domain:
        raise DimensionMismatch("map and form over different open sets")
    return M.transpose() @ omega @ M == omega


class SymplecticMap:
    """A matrix certified against a reference form: ᵗMJM = J."""

    __slots__ = ("matrix", "form")
    matrix: SectionMatrix
    form: SectionMatrix

    def __init__(self, matrix: SectionMatrix, form: SectionMatrix):
        if not is_symplectic_map(matrix, form):
            raise NotSymplectic("matrix does not preserve the reference form")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "form", form)

    def __eq__(self, other):
        if other.__class__ is not SymplecticMap:
            return NotImplemented
        return self.matrix == other.matrix and self.form == other.form

    def __hash__(self):
        return hash((self.matrix, self.form))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"SymplecticMap(matrix={self.matrix!r}, form={self.form!r})"

    @classmethod
    def identity(cls, domain: OpenSet, m: int) -> "SymplecticMap":
        return cls(SectionMatrix.identity(domain, 2 * m), standard_J(domain, m))

    def compose(self, other: "SymplecticMap") -> "SymplecticMap":
        if self.form != other.form:
            raise NotSymplectic("composing maps with different reference forms")
        return SymplecticMap(self.matrix @ other.matrix, self.form)

    def invert(self) -> "SymplecticMap":
        """Inverse via M⁻¹ = J⁻¹·ᵗM·J, then re-certified."""
        J_inv = try_inverse_matrix(self.form)
        inv = J_inv @ self.matrix.transpose() @ self.form
        if inv @ self.matrix != SectionMatrix.identity(self.matrix.domain, self.matrix.rows):
            raise NotSymplectic("inverse certificate failed; arithmetic bug")
        return SymplecticMap(inv, self.form)

    def determinant(self) -> StructureSection:
        return determinant(self.matrix)


def symplectic_transvection(domain: OpenSet, m: int, v: SectionVector,
                            c) -> SectionMatrix:
    """The transvection x ↦ x + c·ω(x,v)·v, i.e. I − c·v·(ᵗv·J); symplectic
    for every section c and vector v."""
    J = standard_J(domain, m)
    n = 2 * m
    if len(v) != n:
        raise DimensionMismatch(f"transvection vector length {len(v)} vs rank {n}")
    V = SectionMatrix.from_columns([v])
    return SectionMatrix.identity(domain, n) - (V @ (J.transpose() @ V).transpose()).scale(c)


def random_symplectic(domain: OpenSet, m: int, rng: random.Random,
                      factors: int = 4, section_valued: bool = False) -> SectionMatrix:
    """A random product of symplectic transvections, exactly in the group
    by construction.  With section_valued the parameters vary per point."""
    n = 2 * m
    out = SectionMatrix.identity(domain, n)

    def scalar():
        if section_valued and domain.size:
            return StructureSection(domain,
                                    [Fraction(rng.randint(-2, 2)) for _ in domain.labels])
        return Fraction(rng.randint(-2, 2))

    for _ in range(factors):
        entries = [scalar() for _ in range(n)]
        v = SectionVector(domain, entries)
        c = scalar()
        out = out @ symplectic_transvection(domain, m, v, c)
    return out


# -- volume and orientation -----------------------------------------------------------------


def orientation_form(omega: KForm, m: int) -> KForm:
    """((−1)^⌊m/2⌋ / m!)·ωᵐ, the orientation attached to a symplectic form;
    DegenerateForm when ωᵐ vanishes."""
    from .exterior import form_power
    if omega.degree != 2:
        raise DimensionMismatch("orientation_form expects a 2-form")
    if 2 * m != omega.rank:
        raise DimensionMismatch(f"2m = {2 * m} does not match rank {omega.rank}")
    power = form_power(omega, m)
    if power.is_zero():
        raise DegenerateForm(f"ω^{m} vanishes; the form is degenerate")
    return power.scale(Fraction((-1) ** (m // 2), factorial(m)))
