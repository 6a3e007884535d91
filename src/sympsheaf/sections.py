"""Sections of the structure sheaf: rational-valued functions on open sets.

The structure sheaf assigns to each open U the set of ALL functions
U → ℚ with pointwise ring operations, so A(U) = ∏_{x∈U} ℚ.  A section is a
unit exactly when it is nowhere zero; positivity, absolute value and the
partial square root act pointwise.  Scalars are fractions.Fraction: exact,
in canonical form, with decidable equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import DomainMismatch, NegativeInput, NonUnitSection, NotExact, UnknownPoint
from .site import OpenSet

Scalar = Union[int, Fraction]


def exact(value) -> Fraction:
    """The value as a Fraction; TypeError unless it is an int, a Fraction or a
    "p/q" string, so that no float is silently stored as its binary expansion."""
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rational_try_sqrt(a: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or NotExact.

    Succeeds exactly when numerator and denominator (in canonical form) are
    perfect squares.
    """
    a = Fraction(a)
    if a < 0:
        raise NegativeInput(f"sqrt of negative rational {a}")
    num, den = a.numerator, a.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NotExact(f"{a} has no rational square root", value=a)
    return Fraction(rn, rd)


class StructureSection:
    """A function from the points of an open set to exact rationals.

    Values are stored in the point order of the ambient space.  Sections are
    immutable; all arithmetic is pointwise and returns new sections.
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain: OpenSet, values):
        object.__setattr__(self, "domain", domain)
        vals = tuple(v if type(v) is Fraction else exact(v) for v in values)
        if len(vals) != domain.size:
            raise ValueError(f"expected {domain.size} values on {domain}, got {len(vals)}")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("StructureSection is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_mapping(cls, domain: OpenSet, mapping: Mapping[str, Scalar]) -> "StructureSection":
        if set(mapping) != set(domain.labels):
            raise UnknownPoint(f"assignment keys {sorted(mapping)} do not match {domain}")
        return cls(domain, [mapping[p] for p in domain.labels])

    @classmethod
    def constant(cls, domain: OpenSet, value: Scalar) -> "StructureSection":
        return cls(domain, [value] * domain.size)

    @classmethod
    def zero(cls, domain: OpenSet) -> "StructureSection":
        return cls.constant(domain, 0)

    @classmethod
    def one(cls, domain: OpenSet) -> "StructureSection":
        return cls.constant(domain, 1)

    # -- point access ---------------------------------------------------------

    def at(self, label: str) -> Fraction:
        return self.values[self.domain.position(label)]

    def as_mapping(self) -> dict[str, Fraction]:
        return dict(zip(self.domain.labels, self.values))

    # -- presheaf structure ----------------------------------------------------

    def restrict(self, V: OpenSet) -> "StructureSection":
        values = self.values
        return StructureSection(V, [values[k] for k in V.positions_in(self.domain)])

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other) -> Optional["StructureSection"]:
        if isinstance(other, StructureSection):
            if other.domain != self.domain:
                raise DomainMismatch(f"sections live on {self.domain} vs {other.domain}")
            return other
        if isinstance(other, (int, Fraction)):
            return StructureSection.constant(self.domain, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return StructureSection(self.domain, [a + b for a, b in zip(self.values, other.values)])

    __radd__ = __add__

    def __neg__(self):
        return StructureSection(self.domain, [-a for a in self.values])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return StructureSection(self.domain, [a - b for a, b in zip(self.values, other.values)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return StructureSection(self.domain, [a * b for a, b in zip(self.values, other.values)])

    __rmul__ = __mul__

    def __eq__(self, other):
        """A section equals a rational when it is that constant on a nonempty
        domain.  On U = ∅ it equals no rational: the empty function carries
        no value, and equality with every rational at once could not agree
        with one hash."""
        if isinstance(other, (int, Fraction)):
            return bool(self.values) and all(v == other for v in self.values)
        if not isinstance(other, StructureSection):
            return NotImplemented
        return self.domain == other.domain and self.values == other.values

    def __hash__(self):
        values = self.values
        if values and all(v == values[0] for v in values):
            return hash(values[0])  # consistent with equality to that rational
        return hash((self.domain.mask, values))

    # -- order structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def is_unit(self) -> bool:
        """Units of the function ring are the nowhere-zero sections."""
        return all(v != 0 for v in self.values)

    def zero_points(self) -> tuple[str, ...]:
        return tuple(p for p, v in zip(self.domain.labels, self.values) if v == 0)

    def is_strictly_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    def inverse(self) -> "StructureSection":
        if not self.is_unit():
            raise NonUnitSection("section vanishes somewhere", points=self.zero_points())
        return StructureSection(self.domain, [1 / v for v in self.values])

    def __abs__(self) -> "StructureSection":
        return StructureSection(self.domain, [abs(v) for v in self.values])

    def try_sqrt(self) -> "StructureSection":
        """Pointwise exact square root; NotExact if any value has none."""
        return StructureSection(self.domain, [rational_try_sqrt(v) for v in self.values])

    def __repr__(self):
        body = ", ".join(f"{p}: {v}" for p, v in zip(self.domain.labels, self.values))
        return "{" + body + "}"


def as_section(domain: OpenSet, value) -> StructureSection:
    """Promote a rational (or mapping) to a section over the domain."""
    if isinstance(value, StructureSection):
        if value.domain != domain:
            raise DomainMismatch(f"section on {value.domain} used over {domain}")
        return value
    if isinstance(value, Mapping):
        return StructureSection.from_mapping(domain, value)
    return StructureSection.constant(domain, value)
