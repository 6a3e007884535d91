"""Exterior algebra: covariant tensors, alternation, k-forms and the wedge.

Conventions (fixed by the m!·(−1)^⌊m/2⌋ top-power constant, which the tests
pin down):

  alternation   (A t)(s₁..s_k) = (1/k!) Σ_σ sign(σ) t(s_{σ(1)}..s_{σ(k)})
  wedge         ξ∧η = ((k+l)!/(k!l!))·A(ξ⊗η), i.e. the shuffle sum on
                coefficients, so a wedge of one-forms evaluates to the
                determinant of the pairing matrix with no extra factor.

Forms store coefficients on strictly increasing multi-indices only; the
full n^k tensor layout exists solely as the alternation map's domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    ArityMismatch,
    DegenerateMetric,
    DegreeOverflow,
    DegreeTooLarge,
    DimensionMismatch,
    DomainMismatch,
    NonUnitDeterminant,
)
from .modules import SectionMatrix, SectionVector, determinant
from .sections import Scalar, StructureSection, as_section
from .site import OpenSet

Entry = Union[Scalar, StructureSection]

ALTERNATION_ORDER_CAP = 8


def perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class CovariantTensor:
    """A covariant order-k tensor on A(U)^n, as a sparse coefficient array.

    Coefficients are indexed by arbitrary k-tuples of basis indices;
    evaluation is multilinear in each slot.
    """

    __slots__ = ("domain", "rank", "order", "coeffs")

    def __init__(self, domain: OpenSet, rank: int, order: int,
                 coeffs: Mapping[tuple[int, ...], Entry]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "order", order)
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != order or any(not 0 <= i < rank for i in idx):
                raise IndexError(f"bad multi-index {idx} for order {order}, rank {rank}")
            s = as_section(domain, c)
            if not s.is_zero():
                clean[idx] = s
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CovariantTensor is immutable")

    @classmethod
    def basis_dual(cls, domain: OpenSet, rank: int, i: int) -> "CovariantTensor":
        """The dual gauge covector ε^i* as an order-1 tensor."""
        return cls(domain, rank, 1, {(i,): 1})

    def evaluate(self, args: Sequence[SectionVector]) -> StructureSection:
        if len(args) != self.order:
            raise ArityMismatch(f"order {self.order} tensor applied to {len(args)} arguments")
        for v in args:
            if v.domain != self.domain:
                raise DomainMismatch("argument over a different open set")
            if len(v) != self.rank:
                raise DimensionMismatch(f"argument length {len(v)} vs rank {self.rank}")
        acc = StructureSection.zero(self.domain)
        for idx, c in self.coeffs.items():
            term = c
            for j, i in enumerate(idx):
                term = term * args[j][i]
            acc = acc + term
        return acc

    def __add__(self, other: "CovariantTensor") -> "CovariantTensor":
        self._check(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, StructureSection.zero(self.domain)) + c
        return CovariantTensor(self.domain, self.rank, self.order, out)

    def __neg__(self):
        return CovariantTensor(self.domain, self.rank, self.order,
                               {i: -c for i, c in self.coeffs.items()})

    def scale(self, a: Entry) -> "CovariantTensor":
        a = as_section(self.domain, a)
        return CovariantTensor(self.domain, self.rank, self.order,
                               {i: a * c for i, c in self.coeffs.items()})

    def _check(self, other):
        if not (self.domain == other.domain and self.rank == other.rank
                and self.order == other.order):
            raise DomainMismatch("tensors of different shape")

    def __eq__(self, other):
        if not isinstance(other, CovariantTensor):
            return NotImplemented
        return (self.domain == other.domain and self.rank == other.rank
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.domain.mask, self.rank, self.order, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"CovariantTensor(order={self.order}, coeffs={self.coeffs})"


def tensor_product(t1: CovariantTensor, t2: CovariantTensor) -> CovariantTensor:
    """t1⊗t2: evaluation on concatenated arguments is the product of the
    separate evaluations.  Order-0 tensors act as scalars."""
    if t1.domain != t2.domain or t1.rank != t2.rank:
        raise DomainMismatch("tensor factors of different shape")
    out = {}
    for i1, c1 in t1.coeffs.items():
        for i2, c2 in t2.coeffs.items():
            out[i1 + i2] = c1 * c2
    return CovariantTensor(t1.domain, t1.rank, t1.order + t2.order, out)


def alternation(t: CovariantTensor) -> CovariantTensor:
    """The anti-symmetrizer projection onto alternating tensors."""
    k = t.order
    if k > ALTERNATION_ORDER_CAP:
        raise DegreeTooLarge(f"alternation of order {k} exceeds the factorial guard")
    if k <= 1:
        return t
    inv_kfact = Fraction(1, factorial(k))
    out: dict[tuple[int, ...], StructureSection] = {}
    zero = StructureSection.zero(t.domain)
    for idx, c in t.coeffs.items():
        for sigma in permutations(range(k)):
            target = tuple(idx[s] for s in sigma)
            contrib = c * (perm_sign(sigma) * inv_kfact)
            out[target] = out.get(target, zero) + contrib
    return CovariantTensor(t.domain, t.rank, k, out)


class KForm:
    """A degree-k exterior form, coefficients on strictly increasing indices.

    Degree 0 is a plain section; degree 1 a dual vector.  Skew-symmetry is
    structural: evaluation repeats no index, and a repeated argument kills
    every minor.
    """

    __slots__ = ("domain", "rank", "degree", "coeffs")

    def __init__(self, domain: OpenSet, rank: int, degree: int,
                 coeffs: Mapping[tuple[int, ...], Entry]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or any(not 0 <= i < rank for i in idx):
                raise IndexError(f"bad multi-index {idx} for degree {degree}, rank {rank}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise IndexError(f"multi-index {idx} is not strictly increasing")
            s = as_section(domain, c)
            if not s.is_zero():
                clean[idx] = s
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("KForm is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, domain: OpenSet, rank: int, degree: int) -> "KForm":
        return cls(domain, rank, degree, {})

    @classmethod
    def scalar(cls, domain: OpenSet, rank: int, value: Entry) -> "KForm":
        return cls(domain, rank, 0, {(): value})

    @classmethod
    def one_form(cls, domain: OpenSet, coeffs: Sequence[Entry]) -> "KForm":
        return cls(domain, len(coeffs), 1, {(i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def basis_blade(cls, domain: OpenSet, rank: int, indices: Iterable[int]) -> "KForm":
        """ε^{i1}*∧…∧ε^{ik}* for strictly increasing indices, coefficient 1."""
        idx = tuple(indices)
        return cls(domain, rank, len(idx), {idx: 1})

    @classmethod
    def from_alternating_tensor(cls, t: CovariantTensor) -> "KForm":
        out = {}
        for idx, c in t.coeffs.items():
            if all(idx[i] < idx[i + 1] for i in range(len(idx) - 1)):
                out[idx] = c
        return cls(t.domain, t.rank, t.order, out)

    def to_tensor(self) -> CovariantTensor:
        out = {}
        for idx, c in self.coeffs.items():
            for sigma in permutations(range(len(idx))):
                out[tuple(idx[s] for s in sigma)] = c * perm_sign(sigma)
        return CovariantTensor(self.domain, self.rank, self.degree, out)

    # -- algebra ------------------------------------------------------------------

    def coefficient(self, idx: Iterable[int]) -> StructureSection:
        return self.coeffs.get(tuple(idx), StructureSection.zero(self.domain))

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, StructureSection.zero(self.domain)) + c
        return KForm(self.domain, self.rank, self.degree, out)

    def __neg__(self) -> "KForm":
        return KForm(self.domain, self.rank, self.degree,
                     {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def scale(self, a: Entry) -> "KForm":
        a = as_section(self.domain, a)
        return KForm(self.domain, self.rank, self.degree,
                     {i: a * c for i, c in self.coeffs.items()})

    def __xor__(self, other: "KForm") -> "KForm":
        return wedge(self, other)

    def _check(self, other):
        if not (self.domain == other.domain and self.rank == other.rank):
            raise DomainMismatch("forms on different modules")
        if self.degree != other.degree:
            raise DimensionMismatch(f"degrees {self.degree} vs {other.degree}")

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.domain == other.domain and self.rank == other.rank
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.domain.mask, self.rank, self.degree,
                     tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, args: Sequence[SectionVector]) -> StructureSection:
        return evaluate_form(self, args)

    def __repr__(self):
        if self.is_zero():
            return f"KForm(degree={self.degree}, 0)"
        body = " + ".join(f"({c})·e{'∧e'.join(str(i + 1) for i in idx)}*"
                          for idx, c in sorted(self.coeffs.items()))
        return f"KForm({body})"


def _shuffle_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


def wedge(xi: KForm, eta: KForm) -> KForm:
    """Exterior product.  Graded-commutative and associative; degree-0
    factors act as scalars.  If the degrees overflow the rank the result is
    the zero form of that (overflowing) degree, flagged by its degree, not
    an error."""
    if xi.domain != eta.domain or xi.rank != eta.rank:
        raise DomainMismatch("wedge factors on different modules")
    degree = xi.degree + eta.degree
    out: dict[tuple[int, ...], StructureSection] = {}
    zero = StructureSection.zero(xi.domain)
    for left, a in xi.coeffs.items():
        left_set = set(left)
        for right, b in eta.coeffs.items():
            if left_set & set(right):
                continue
            merged = tuple(sorted(left + right))
            contrib = (a * b) * _shuffle_sign(left, right)
            out[merged] = out.get(merged, zero) + contrib
    return KForm(xi.domain, xi.rank, degree, out)


def evaluate_form(form: KForm, args: Sequence[SectionVector]) -> StructureSection:
    """Evaluate on section vectors via the alternating permutation sum.

    For a wedge of one-forms this is exactly det[αᵢ(sⱼ)].
    """
    if len(args) != form.degree:
        raise ArityMismatch(f"degree {form.degree} form applied to {len(args)} arguments")
    for v in args:
        if v.domain != form.domain:
            raise DomainMismatch("argument over a different open set")
        if len(v) != form.rank:
            raise DimensionMismatch(f"argument length {len(v)} vs rank {form.rank}")
    acc = StructureSection.zero(form.domain)
    k = form.degree
    for idx, c in form.coeffs.items():
        minor = StructureSection.zero(form.domain)
        for sigma in permutations(range(k)):
            term = StructureSection.constant(form.domain, perm_sign(sigma))
            for j in range(k):
                term = term * args[j][idx[sigma[j]]]
            minor = minor + term
        acc = acc + c * minor
    return acc


def volume_element(metric: SectionMatrix, basis: Sequence[SectionVector]) -> KForm:
    """Volume element √|det ρ(sᵢ,sⱼ)|·s₁*∧…∧s_n* of a metric and basis.

    NotExact when the scaling square root is irrational; DegenerateMetric
    when the metric Gram determinant vanishes somewhere.
    """
    n = metric.rows
    if not metric.is_square():
        raise DimensionMismatch("metric must be square")
    if metric != metric.transpose():
        raise ValueError("metric is not symmetric")
    if len(basis) != n:
        raise DimensionMismatch(f"need {n} basis vectors, got {len(basis)}")
    S = SectionMatrix.from_columns(list(basis))
    det_s = determinant(S)
    if not det_s.is_unit():
        raise NonUnitDeterminant("the given vectors are not a basis",
                                 points=det_s.zero_points())
    gram = S.transpose() @ metric @ S
    det_g = determinant(gram)
    if not det_g.is_unit():
        raise DegenerateMetric("metric Gram determinant vanishes",
                               points=det_g.zero_points())
    scale = abs(det_g).try_sqrt()
    top = tuple(range(n))
    return KForm(metric.domain, n, n, {top: scale * det_s.inverse()})


def form_power(omega: KForm, m: int) -> KForm:
    """The m-fold wedge power of a 2-form."""
    if omega.degree != 2:
        raise DimensionMismatch(f"form_power expects a 2-form, got degree {omega.degree}")
    if 2 * m > omega.rank:
        raise DegreeOverflow(f"ω^{m} has degree {2 * m} > rank {omega.rank}")
    out = KForm.scalar(omega.domain, omega.rank, 1)
    for _ in range(m):
        out = wedge(out, omega)
    return out


@dataclass(frozen=True)
class GradedForm:
    """An element of the Grassmann algebra Ω* = Ω⁰⊕…⊕Ωⁿ: at most one
    component per degree."""

    domain: OpenSet
    rank: int
    components: tuple[KForm, ...]  # nonzero, strictly increasing degrees

    @classmethod
    def from_forms(cls, domain: OpenSet, rank: int, forms: Iterable[KForm]) -> "GradedForm":
        by_degree: dict[int, KForm] = {}
        for f in forms:
            if f.domain != domain or f.rank != rank:
                raise DomainMismatch("component on a different module")
            if f.degree in by_degree:
                by_degree[f.degree] = by_degree[f.degree] + f
            else:
                by_degree[f.degree] = f
        comps = tuple(by_degree[d] for d in sorted(by_degree) if not by_degree[d].is_zero())
        return cls(domain, rank, comps)

    def component(self, degree: int) -> KForm:
        for f in self.components:
            if f.degree == degree:
                return f
        return KForm.zero(self.domain, self.rank, degree)

    def __add__(self, other: "GradedForm") -> "GradedForm":
        return GradedForm.from_forms(self.domain, self.rank,
                                     self.components + other.components)

    def wedge(self, other: "GradedForm") -> "GradedForm":
        parts = [wedge(a, b) for a in self.components for b in other.components
                 if a.degree + b.degree <= self.rank]
        return GradedForm.from_forms(self.domain, self.rank, parts)

    def __eq__(self, other):
        if not isinstance(other, GradedForm):
            return NotImplemented
        return (self.domain == other.domain and self.rank == other.rank
                and self.components == other.components)
