"""The structure sheaf and the stalkwise base of every section-valued object.

The structure sheaf assigns to each open U the set of ALL functions
U → ℚ with pointwise ring operations, so A(U) = ∏_{x∈U} ℚ.  Everything built
over A(U) (a section, a vector, a matrix, a polynomial, a form, a tensor) is
therefore one ℚ object per point of U, glued; `_Stalkwise` is the one base
that stores such objects and restricts, adds, negates, scales, compares and
hashes them stalk by stalk.  A section is the scalar case: one Fraction per
point.  It is a unit exactly when it is nowhere zero; positivity, absolute
value and the partial square root act pointwise.  Scalars are
fractions.Fraction: exact, in canonical form, with decidable equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Optional, Union

from .errors import (DimensionMismatch, DomainMismatch, NegativeInput, NonUnitSection,
                     NotExact, UnknownPoint)
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
        raise NotExact(f"{a} has no rational square root", witness=a)
    return Fraction(rn, rd)


class _Stalkwise:
    """Storage and entrywise arithmetic shared by sections, section vectors,
    matrices, polynomials, k-forms and covariant tensors.

    `stalks` holds the value at each point of `domain.labels`, in that order:
    a Fraction for a section, a tuple of Fractions for a vector, a tuple of
    such rows for a matrix, a sorted tuple of (multi-index, Fraction) pairs
    for a form or tensor.  The shape is stored apart, since U = ∅ has no
    stalk.  Subclasses supply `shape`, `from_stalks(domain, *shape, stalks)`
    and `_entrywise(op, *stalks)`, which applies op entry by entry to stalks
    of one shape.
    """

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, stalks, domain: Optional[OpenSet] = None):
        return self.from_stalks(self.domain if domain is None else domain, *self.shape, stalks)

    def restrict(self, V: OpenSet):
        stalks = self.stalks
        return self._like([stalks[k] for k in V.positions_in(self.domain)], V)

    def _check(self, other):
        """The other operand of a binary operation, once it is known to be of
        this type, shape and domain."""
        if type(other) is not type(self):  # a form and a tensor can share a shape
            raise TypeError(f"{type(self).__name__} combined with {type(other).__name__}")
        if other.domain != self.domain:
            raise DomainMismatch(f"{type(self).__name__}s over different open sets")
        if other.shape != self.shape:
            raise DimensionMismatch(f"shapes {self.shape} vs {other.shape}")
        return other

    def __add__(self, other):
        return self._like(map(partial(self._entrywise, add), self.stalks,
                              self._check(other).stalks))

    __radd__ = __add__

    def __sub__(self, other):
        return self._like(map(partial(self._entrywise, sub), self.stalks,
                              self._check(other).stalks))

    def __neg__(self):
        return self._like(self._entrywise(neg, s) for s in self.stalks)

    def scale(self, c: Union[Scalar, StructureSection]):
        c = as_section(self.domain, c)
        return self._like(self._entrywise(partial(mul, x), s)
                          for x, s in zip(c.stalks, self.stalks))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.domain, self.shape, self.stalks) == (other.domain, other.shape, other.stalks)

    def __hash__(self):
        return hash((self.domain.mask, self.shape, self.stalks))


class StructureSection(_Stalkwise):
    """A function from the points of an open set to exact rationals: the
    scalar stalkwise object, with one Fraction per point of `domain.labels`.

    Sections are immutable; all arithmetic is pointwise and returns new
    sections.  Ints and Fractions combine with a section as constants.
    """

    __slots__ = ("domain", "stalks")
    shape = ()

    def __init__(self, domain: OpenSet, values):
        stalks = tuple(v if type(v) is Fraction else exact(v) for v in values)
        if len(stalks) != domain.size:
            raise ValueError(f"expected {domain.size} values on {domain}, got {len(stalks)}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "stalks", stalks)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_stalks(cls, domain: OpenSet, stalks: Iterable[Fraction]) -> "StructureSection":
        """The section whose value at the k-th point of domain.labels is the
        k-th stalk; the stalks are Fractions."""
        stalks = tuple(stalks)
        if len(stalks) != domain.size:
            raise DimensionMismatch(f"expected {domain.size} stalks on {domain}")
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "stalks", stalks)
        return self

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
        return self.stalks[self.domain.position(label)]

    def as_mapping(self) -> dict[str, Fraction]:
        return dict(zip(self.domain.labels, self.stalks))

    # -- ring operations --------------------------------------------------------

    # bound here, not only inherited: bench/probes.py patches StructureSection.restrict by name
    restrict = _Stalkwise.restrict

    @staticmethod
    def _entrywise(op, *xs):
        return op(*xs)

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            return self.constant(self.domain, other)
        return super()._check(other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        return self._like(map(mul, self.stalks, self._check(other).stalks))

    __rmul__ = __mul__

    def __eq__(self, other):
        """A section equals a rational when it is that constant on a nonempty
        domain.  On U = ∅ it equals no rational: the empty function carries
        no value, and equality with every rational at once could not agree
        with one hash."""
        if isinstance(other, (int, Fraction)):
            return bool(self.stalks) and all(v == other for v in self.stalks)
        if not isinstance(other, StructureSection):
            return NotImplemented
        return self.domain == other.domain and self.stalks == other.stalks

    def __hash__(self):
        stalks = self.stalks
        if stalks and all(v == stalks[0] for v in stalks):
            return hash(stalks[0])  # consistent with equality to that rational
        return hash((self.domain.mask, stalks))

    # -- order structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.stalks)

    def is_unit(self) -> bool:
        """Units of the function ring are the nowhere-zero sections."""
        return all(v != 0 for v in self.stalks)

    def zero_points(self) -> tuple[str, ...]:
        return tuple(p for p, v in zip(self.domain.labels, self.stalks) if v == 0)

    def is_strictly_positive(self) -> bool:
        return all(v > 0 for v in self.stalks)

    def inverse(self) -> "StructureSection":
        if not self.is_unit():
            raise NonUnitSection("section vanishes somewhere", points=self.zero_points())
        return self._like([1 / v for v in self.stalks])

    def __abs__(self) -> "StructureSection":
        return self._like(map(abs, self.stalks))

    def try_sqrt(self) -> "StructureSection":
        """Pointwise exact square root; NotExact if any value has none."""
        return self._like(map(rational_try_sqrt, self.stalks))

    def __repr__(self):
        body = ", ".join(f"{p}: {v}" for p, v in zip(self.domain.labels, self.stalks))
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
