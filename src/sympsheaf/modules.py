"""Free modules of sections: vectors and matrices over the function ring A(U).

Since A(U) = ∏_{x∈U} ℚ, a vector or matrix over A(U) is one ℚ vector or
matrix per point of U.  Both sit on the stalkwise base of `sections`:
`stalks` holds the stalk at each point of `domain.labels`, in that order, as
tuples of Fractions (tuple rows for a matrix), and restriction, entrywise
arithmetic and equality come from the base.  Products, determinants and
inverses run stalk by stalk on the qlinalg kernels (one fraction-free
elimination for determinants, ranks and kernels; the adjugate as the
Cayley–Hamilton polynomial in A), which keeps everything exact and makes
the Laplace identity A·adj(A) = det(A)·I hold on the nose.
StructureSection entries are built only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from . import qlinalg
from .errors import DimensionMismatch, DomainMismatch, NonUnitDeterminant, NotSquare
from .sections import Scalar, StructureSection, _Stalkwise, as_section, exact
from .site import OpenSet

Entry = Union[Scalar, StructureSection]
ZERO, ONE = Fraction(0), Fraction(1)


def _mat_vec(a: qlinalg.QMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    """a·v for a stalk a with len(v) columns, on the integer product kernel."""
    if not v:  # a has no columns
        return [ZERO] * len(a)
    return [x for (x,) in qlinalg.mat_mul(a, list(zip(v)))]


class SectionVector(_Stalkwise):
    """An element of A(U)^n, stored as one ℚ vector per point of U."""

    __slots__ = ("domain", "length", "stalks")

    def __init__(self, domain: OpenSet, entries: Iterable[Entry]):
        values = [as_section(domain, e).stalks for e in entries]
        self._freeze(domain=domain, length=len(values),
                     stalks=tuple(zip(*values)) if values else ((),) * domain.size)

    @classmethod
    def from_stalks(cls, domain: OpenSet, n: int, stalks: Iterable[Sequence[Fraction]]
                    ) -> "SectionVector":
        """The vector whose value vector at the k-th point of domain.labels is
        the k-th stalk; the stalks hold exact rationals."""
        stalks = tuple(map(tuple, stalks))
        if len(stalks) != domain.size or any(len(s) != n for s in stalks):
            raise DimensionMismatch(f"expected {domain.size} stalks of length {n}")
        return object.__new__(cls)._freeze(domain=domain, length=n, stalks=stalks)

    @classmethod
    def basis(cls, domain: OpenSet, n: int, i: int) -> "SectionVector":
        """The i-th vector of the Kronecker gauge of A(U)^n."""
        stalk = tuple(ONE if j == i else ZERO for j in range(n))
        return cls.from_stalks(domain, n, [stalk] * domain.size)

    @property
    def shape(self) -> tuple[int]:
        return (self.length,)

    @staticmethod
    def _entrywise(op, *stalks) -> tuple:
        return tuple(map(op, *stalks))

    def __len__(self):
        return self.length

    def __getitem__(self, i: int) -> StructureSection:
        i = range(self.length)[i]  # IndexError even on U = ∅, which ends iteration
        return StructureSection(self.domain, [s[i] for s in self.stalks])

    @property
    def entries(self) -> tuple[StructureSection, ...]:
        return tuple(self[i] for i in range(self.length))

    def at_point(self, label: str) -> list[Fraction]:
        return list(self.stalks[self.domain.position(label)])

    def is_nowhere_zero(self) -> bool:
        """True when the value vector is nonzero at every point of the domain."""
        return all(map(any, self.stalks))

    def pairing(self, other: "SectionVector") -> StructureSection:
        """Coordinate pairing ⟨u, v⟩ = Σ u_i v_i."""
        self._check(other)
        return StructureSection(self.domain, [_mat_vec([u], v)[0]
                                              for u, v in zip(self.stalks, other.stalks)])

    def __repr__(self):
        return f"{type(self).__name__}({list(self.entries)})"


class SectionMatrix(_Stalkwise):
    """A rows×cols matrix over A(U), stored as one ℚ matrix per point of U."""

    __slots__ = ("domain", "rows", "cols", "stalks")

    def __init__(self, domain: OpenSet, rows_data: Iterable[Iterable[Entry]]):
        grid = [[as_section(domain, e).stalks for e in row] for row in rows_data]
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("ragged rows")
        self._freeze(domain=domain, rows=len(grid), cols=len(grid[0]) if grid else 0,
                     stalks=tuple(tuple(tuple(e[k] for e in row) for row in grid)
                                  for k in range(domain.size)))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_stalks(cls, domain: OpenSet, rows: int, cols: int,
                    stalks: Iterable[qlinalg.QMatrix]) -> "SectionMatrix":
        """The matrix whose value at the k-th point of domain.labels is the k-th
        stalk; the stalks hold exact rationals."""
        stalks = tuple(tuple(map(tuple, s)) for s in stalks)
        if len(stalks) != domain.size or any(
                len(s) != rows or any(len(r) != cols for r in s) for s in stalks):
            raise DimensionMismatch(f"expected {domain.size} stalks of shape {rows}x{cols}")
        return object.__new__(cls)._freeze(domain=domain, rows=rows, cols=cols, stalks=stalks)

    @classmethod
    def identity(cls, domain: OpenSet, n: int) -> "SectionMatrix":
        stalk = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        return cls.from_stalks(domain, n, n, [stalk] * domain.size)

    @classmethod
    def zeros(cls, domain: OpenSet, rows: int, cols: int) -> "SectionMatrix":
        return cls.from_stalks(domain, rows, cols, [((ZERO,) * cols,) * rows] * domain.size)

    @classmethod
    def from_point_data(cls, domain: OpenSet, rows: int, cols: int,
                        at: Callable[[str], qlinalg.QMatrix]) -> "SectionMatrix":
        return cls.from_stalks(domain, rows, cols, ([[exact(x) for x in r] for r in at(p)]
                                                    for p in domain.labels))

    @classmethod
    def from_columns(cls, columns: Sequence[SectionVector]) -> "SectionMatrix":
        domain, n = columns[0].domain, len(columns[0])
        for c in columns[1:]:
            columns[0]._check(c)
        return cls.from_stalks(domain, n, len(columns),
                               (zip(*parts) for parts in zip(*(c.stalks for c in columns))))

    # -- access -----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @staticmethod
    def _entrywise(op, *stalks) -> tuple:
        return tuple(tuple(map(op, *rows)) for rows in zip(*stalks))

    def __getitem__(self, ij) -> StructureSection:
        i, j = range(self.rows)[ij[0]], range(self.cols)[ij[1]]
        return StructureSection(self.domain, [s[i][j] for s in self.stalks])

    @property
    def entries(self) -> tuple[tuple[StructureSection, ...], ...]:
        return tuple(tuple(self[i, j] for j in range(self.cols)) for i in range(self.rows))

    def column(self, j: int) -> SectionVector:
        return SectionVector.from_stalks(self.domain, self.rows,
                                         ([r[j] for r in s] for s in self.stalks))

    def columns(self) -> list[SectionVector]:
        return [self.column(j) for j in range(self.cols)]

    def at_point(self, label: str) -> qlinalg.QMatrix:
        return [list(r) for r in self.stalks[self.domain.position(label)]]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, (SectionVector, SectionMatrix)):
            return NotImplemented
        if other.domain != self.domain:
            raise DomainMismatch("matrices over different open sets")
        if other.shape[0] != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.shape}")
        if isinstance(other, SectionVector):
            return SectionVector.from_stalks(
                self.domain, self.rows,
                map(_mat_vec, self.stalks, other.stalks))
        if not self.cols:  # a stalk with no rows does not know its width
            return SectionMatrix.zeros(self.domain, self.rows, other.cols)
        return SectionMatrix.from_stalks(self.domain, self.rows, other.cols,
                                         map(qlinalg.mat_mul, self.stalks, other.stalks))

    def transpose(self) -> "SectionMatrix":
        """The transpose morphism: (ᵗA)_ij = A_ji, so ⟨ᵗA u, v⟩ = ⟨u, A v⟩."""
        return SectionMatrix.from_stalks(self.domain, self.cols, self.rows,
                                         ([[r[j] for r in s] for j in range(self.cols)]
                                          for s in self.stalks))

    def trace(self) -> StructureSection:
        if not self.is_square():
            raise NotSquare("trace of a non-square matrix")
        return StructureSection(self.domain, [sum(s[i][i] for i in range(self.rows))
                                              for s in self.stalks])

    def is_zero(self) -> bool:
        return not any(any(r) for s in self.stalks for r in s)

    def __repr__(self):
        return "SectionMatrix(" + ", ".join(repr(list(r)) for r in self.entries) + ")"


def determinant(a: SectionMatrix) -> StructureSection:
    """det(A), computed on the ℚ stalk at each point and glued into a section."""
    if not a.is_square():
        raise NotSquare(f"{a.rows}x{a.cols} matrix has no determinant")
    return StructureSection(a.domain, [qlinalg.det_bareiss(s) for s in a.stalks])


def determinant_adjugate(a: SectionMatrix) -> tuple[StructureSection, SectionMatrix]:
    """Determinant and adjugate, each computed on the ℚ stalk at each point,
    with A·adj = adj·A = det·I exactly, for singular A and n = 0 too."""
    det = determinant(a)
    adj = SectionMatrix.from_stalks(a.domain, a.rows, a.rows, map(qlinalg.adjugate, a.stalks))
    return det, adj


def try_inverse_matrix(a: SectionMatrix) -> SectionMatrix:
    """Inverse via det⁻¹·adjugate; NonUnitDeterminant lists the vanishing points."""
    det, adj = determinant_adjugate(a)
    if not det.is_unit():
        raise NonUnitDeterminant("determinant vanishes at some points",
                                 points=det.zero_points())
    return adj.scale(det.inverse())


def kronecker_product(a: SectionMatrix, b: SectionMatrix) -> SectionMatrix:
    """Block Kronecker product; realizes the tensor product on the product basis."""
    if a.domain != b.domain:
        raise DomainMismatch("Kronecker factors over different open sets")
    return SectionMatrix.from_stalks(
        a.domain, a.rows * b.rows, a.cols * b.cols,
        ([[x * y for x in ra for y in rb] for ra in sa for rb in sb]
         for sa, sb in zip(a.stalks, b.stalks)))


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    witness_point: Optional[str] = None
    relation: Optional[tuple[Fraction, ...]] = None


def linear_independence(vectors: Sequence[SectionVector]) -> IndependenceReport:
    """Decide A(U)-linear independence of section vectors.

    Over the function ring this holds iff the value vectors are
    ℚ-independent at every point; otherwise some point carries a nontrivial
    rational relation, which (extended by zero) is a nontrivial section
    relation.  The witness is the first such point with its relation.
    """
    if not vectors:
        return IndependenceReport(True)
    domain = vectors[0].domain
    for v in vectors[1:]:
        vectors[0]._check(v)
    for p, *stalks in zip(domain.labels, *(v.stalks for v in vectors)):
        kernel = qlinalg.kernel_basis(list(zip(*stalks)))  # the vectors as columns
        if kernel:
            return IndependenceReport(False, witness_point=p, relation=tuple(kernel[0]))
    return IndependenceReport(True)
