"""Free modules of sections: vectors and matrices over the function ring A(U).

Morphisms between free modules are section matrices.  Determinant-style
quantities are computed pointwise on the ℚ stalks and reassembled into
sections, which keeps everything exact and makes the Laplace identity
A·adj(A) = det(A)·I hold on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from . import qlinalg
from .errors import DimensionMismatch, DomainMismatch, NonUnitDeterminant, NotSquare
from .sections import Scalar, StructureSection, as_section
from .site import OpenSet

Entry = Union[Scalar, StructureSection]


class SectionVector:
    """An element of A(U)^n: a tuple of sections over a common open set."""

    __slots__ = ("domain", "entries")

    def __init__(self, domain: OpenSet, entries: Iterable[Entry]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", tuple(as_section(domain, e) for e in entries))

    def __setattr__(self, name, value):
        raise AttributeError("SectionVector is immutable")

    @classmethod
    def basis(cls, domain: OpenSet, n: int, i: int) -> "SectionVector":
        """The i-th vector of the Kronecker gauge of A(U)^n."""
        return cls(domain, [1 if j == i else 0 for j in range(n)])

    @classmethod
    def from_point_data(cls, domain: OpenSet, n: int,
                        at: Callable[[str], Sequence[Fraction]]) -> "SectionVector":
        cols = {p: at(p) for p in domain.labels}
        return cls(domain, [StructureSection(domain, [cols[p][i] for p in domain.labels])
                            for i in range(n)])

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> StructureSection:
        return self.entries[i]

    def at_point(self, label: str) -> list[Fraction]:
        return [e.at(label) for e in self.entries]

    def restrict(self, V: OpenSet) -> "SectionVector":
        return SectionVector(V, [e.restrict(V) for e in self.entries])

    def is_nowhere_zero(self) -> bool:
        """True when the value vector is nonzero at every point of the domain."""
        return all(any(v != 0 for v in self.at_point(p)) for p in self.domain.labels)

    def __add__(self, other: "SectionVector") -> "SectionVector":
        self._check(other)
        return SectionVector(self.domain, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "SectionVector") -> "SectionVector":
        self._check(other)
        return SectionVector(self.domain, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "SectionVector":
        return SectionVector(self.domain, [-a for a in self.entries])

    def scale(self, c: Entry) -> "SectionVector":
        c = as_section(self.domain, c)
        return SectionVector(self.domain, [c * a for a in self.entries])

    def pairing(self, other: "SectionVector") -> StructureSection:
        """Coordinate pairing ⟨u, v⟩ = Σ u_i v_i."""
        self._check(other)
        acc = StructureSection.zero(self.domain)
        for a, b in zip(self.entries, other.entries):
            acc = acc + a * b
        return acc

    def _check(self, other):
        if other.domain != self.domain:
            raise DomainMismatch("vectors over different open sets")
        if len(other) != len(self):
            raise DimensionMismatch(f"lengths {len(self)} vs {len(other)}")

    def __eq__(self, other):
        if not isinstance(other, SectionVector):
            return NotImplemented
        return self.domain == other.domain and self.entries == other.entries

    def __hash__(self):
        return hash((self.domain.mask, self.entries))

    def __repr__(self):
        return f"SectionVector({list(self.entries)})"


class SectionMatrix:
    """A rectangular array of sections over a common open set."""

    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, domain: OpenSet, rows_data: Iterable[Iterable[Entry]]):
        grid = tuple(tuple(as_section(domain, e) for e in row) for row in rows_data)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("SectionMatrix is immutable")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, domain: OpenSet, n: int) -> "SectionMatrix":
        return cls(domain, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, domain: OpenSet, rows: int, cols: int) -> "SectionMatrix":
        return cls(domain, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_point_data(cls, domain: OpenSet, rows: int, cols: int,
                        at: Callable[[str], qlinalg.QMatrix]) -> "SectionMatrix":
        data = {p: at(p) for p in domain.labels}
        return cls(domain, [[StructureSection(domain, [data[p][i][j] for p in domain.labels])
                             for j in range(cols)] for i in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[SectionVector]) -> "SectionMatrix":
        domain = columns[0].domain
        n = len(columns[0])
        return cls(domain, [[columns[j][i] for j in range(len(columns))] for i in range(n)])

    # -- access -----------------------------------------------------------------

    def __getitem__(self, ij) -> StructureSection:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> SectionVector:
        return SectionVector(self.domain, self.entries[i])

    def column(self, j: int) -> SectionVector:
        return SectionVector(self.domain, [self.entries[i][j] for i in range(self.rows)])

    def columns(self) -> list[SectionVector]:
        return [self.column(j) for j in range(self.cols)]

    def at_point(self, label: str) -> qlinalg.QMatrix:
        return [[e.at(label) for e in row] for row in self.entries]

    def restrict(self, V: OpenSet) -> "SectionMatrix":
        return SectionMatrix(V, [[e.restrict(V) for e in row] for row in self.entries])

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------------

    def _check_domain(self, other):
        if other.domain != self.domain:
            raise DomainMismatch("matrices over different open sets")

    def __add__(self, other: "SectionMatrix") -> "SectionMatrix":
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return SectionMatrix(self.domain, [[a + b for a, b in zip(r1, r2)]
                                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "SectionMatrix") -> "SectionMatrix":
        return self + (-other)

    def __neg__(self) -> "SectionMatrix":
        return SectionMatrix(self.domain, [[-e for e in row] for row in self.entries])

    def scale(self, c: Entry) -> "SectionMatrix":
        c = as_section(self.domain, c)
        return SectionMatrix(self.domain, [[c * e for e in row] for row in self.entries])

    def __matmul__(self, other):
        if isinstance(other, SectionVector):
            self._check_domain(other)
            if len(other) != self.cols:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times length {len(other)}")
            out = []
            for i in range(self.rows):
                acc = StructureSection.zero(self.domain)
                for j in range(self.cols):
                    acc = acc + self.entries[i][j] * other[j]
                out.append(acc)
            return SectionVector(self.domain, out)
        if isinstance(other, SectionMatrix):
            self._check_domain(other)
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = StructureSection.zero(self.domain)
                    for k in range(self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return SectionMatrix(self.domain, out)
        return NotImplemented

    def transpose(self) -> "SectionMatrix":
        """The transpose morphism: (ᵗA)_ij = A_ji, so ⟨ᵗA u, v⟩ = ⟨u, A v⟩."""
        return SectionMatrix(self.domain, [[self.entries[i][j] for i in range(self.rows)]
                                           for j in range(self.cols)])

    def trace(self) -> StructureSection:
        if not self.is_square():
            raise NotSquare("trace of a non-square matrix")
        acc = StructureSection.zero(self.domain)
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def __eq__(self, other):
        if not isinstance(other, SectionMatrix):
            return NotImplemented
        return (self.domain == other.domain and self.entries == other.entries)

    def __hash__(self):
        return hash((self.domain.mask, self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        return "SectionMatrix(" + ", ".join(repr(list(r)) for r in self.entries) + ")"


def mat_mul(a: SectionMatrix, b: SectionMatrix) -> SectionMatrix:
    return a @ b


def transpose_morphism(a: SectionMatrix) -> SectionMatrix:
    return a.transpose()


def determinant(a: SectionMatrix) -> StructureSection:
    """det(A), computed on the ℚ stalk at each point and glued into a section."""
    if not a.is_square():
        raise NotSquare(f"{a.rows}x{a.cols} matrix has no determinant")
    return StructureSection.from_function(a.domain,
                                          lambda p: qlinalg.det_bareiss(a.at_point(p)))


def determinant_adjugate(a: SectionMatrix) -> tuple[StructureSection, SectionMatrix]:
    """Determinant and adjugate with A·adj = adj·A = det·I exactly.

    Both are computed on the ℚ stalk at each point and reassembled into
    sections.
    """
    det = determinant(a)
    n = a.rows
    adj = SectionMatrix.from_point_data(
        a.domain, n, n, lambda p: qlinalg.adjugate(a.at_point(p)) if n else [])
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
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                for l in range(b.cols):
                    row.append(a[i, j] * b[k, l])
            out.append(row)
    return SectionMatrix(a.domain, out)


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
        if v.domain != domain:
            raise DomainMismatch("vectors over different open sets")
    for p in domain.labels:
        stacked = [[v.at_point(p)[i] for v in vectors] for i in range(len(vectors[0]))]
        kernel = qlinalg.kernel_basis(stacked)
        if kernel:
            return IndependenceReport(False, witness_point=p, relation=tuple(kernel[0]))
    return IndependenceReport(True)
