"""Exterior algebra: covariant tensors, alternation, k-forms and the wedge.

Conventions (fixed by the m!·(−1)^⌊m/2⌋ top-power constant, which the tests
pin down):

  alternation   (A t)(s₁..s_k) = (1/k!) Σ_σ sign(σ) t(s_{σ(1)}..s_{σ(k)})
  wedge         ξ∧η = ((k+l)!/(k!l!))·A(ξ⊗η), i.e. the shuffle sum on
                coefficients, so a wedge of one-forms evaluates to the
                determinant of the pairing matrix with no extra factor.

Forms store coefficients on strictly increasing multi-indices only; the
full n^k tensor layout exists solely as the alternation map's domain.  The
wedge runs per stalk on ints: each factor over its common denominator
(`qlinalg.scaled`), each multi-index turned into a bitmask inside the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from typing import Iterable, Mapping, Sequence, Union

from . import qlinalg
from .errors import (
    ArityMismatch,
    DegreeOverflow,
    DegreeTooLarge,
    DimensionMismatch,
    DomainMismatch,
)
from .modules import SectionVector
from .sections import Scalar, StructureSection, _Stalkwise, as_section
from .site import OpenSet

Entry = Union[Scalar, StructureSection]
Stalk = tuple[tuple[tuple[int, ...], Fraction], ...]

ALTERNATION_ORDER_CAP = 8
ZERO = Fraction(0)


def perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class _Multilinear(_Stalkwise):
    """Coefficients on multi-indices of `arity` basis indices below `rank`.

    Since Ωᵏ(A(U)ⁿ) = ∏_{x∈U} Ωᵏ(ℚⁿ), they are stored as one sparse ℚ map per
    point of `domain.labels`: `stalks[k]` is a tuple of (multi-index,
    Fraction) pairs in index order with the zeros dropped, so equal objects
    have equal stalks.  StructureSection coefficients are built only when read.
    """

    __slots__ = ("domain", "rank", "arity", "stalks")

    def __init__(self, domain: OpenSet, rank: int, arity: int,
                 coeffs: Mapping[tuple[int, ...], Entry]):
        grid = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            self._check_index(idx, rank, arity)
            grid[idx] = as_section(domain, c).stalks
        support = sorted(grid)
        self._freeze(domain=domain, rank=rank, arity=arity,
                     stalks=tuple(tuple((i, grid[i][k]) for i in support if grid[i][k])
                                  for k in range(domain.size)))

    def _check_index(self, idx: tuple[int, ...], rank: int, arity: int) -> None:
        if len(idx) != arity or any(not 0 <= i < rank for i in idx):
            raise IndexError(f"bad multi-index {idx} for arity {arity}, rank {rank}")

    @classmethod
    def from_stalks(cls, domain: OpenSet, rank: int, arity: int,
                    stalks: Iterable[Mapping[tuple[int, ...], Fraction]]):
        """The object whose coefficients at the k-th point of domain.labels are
        the k-th stalk: a map (or pairs) from valid multi-indices to exact
        rationals.  Zero coefficients are dropped."""
        stalks = tuple(tuple(sorted((i, c) for i, c in dict(s).items() if c)) for s in stalks)
        if len(stalks) != domain.size:
            raise DimensionMismatch(f"expected {domain.size} stalks")
        return object.__new__(cls)._freeze(domain=domain, rank=rank, arity=arity, stalks=stalks)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rank, self.arity)

    @staticmethod
    def _entrywise(op, *stalks) -> dict:
        maps = [dict(s) for s in stalks]
        return {i: op(*(m.get(i, ZERO) for m in maps)) for i in set().union(*maps)}

    @property
    def coeffs(self) -> dict[tuple[int, ...], StructureSection]:
        """The coefficients that are nonzero somewhere, as sections, in index order."""
        maps = [dict(s) for s in self.stalks]
        return {i: StructureSection(self.domain, [m.get(i, ZERO) for m in maps])
                for i in sorted(set().union(*maps))}

    def coefficient(self, idx: Iterable[int]) -> StructureSection:
        idx = tuple(idx)
        return StructureSection(self.domain, [dict(s).get(idx, ZERO) for s in self.stalks])

    def is_zero(self) -> bool:
        return not any(self.stalks)

    def _with_args(self, args: Sequence[SectionVector]):
        """Per point, the coefficient stalk followed by the stalks of the arguments."""
        if len(args) != self.arity:
            raise ArityMismatch(f"arity {self.arity} applied to {len(args)} arguments")
        for v in args:
            if v.domain != self.domain:
                raise DomainMismatch("argument over a different open set")
            if len(v) != self.rank:
                raise DimensionMismatch(f"argument length {len(v)} vs rank {self.rank}")
        return zip(self.stalks, *(v.stalks for v in args))


class CovariantTensor(_Multilinear):
    """A covariant order-k tensor on A(U)^n, as a sparse coefficient array.

    Coefficients are indexed by arbitrary k-tuples of basis indices;
    evaluation is multilinear in each slot.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.arity

    @classmethod
    def basis_dual(cls, domain: OpenSet, rank: int, i: int) -> "CovariantTensor":
        """The dual gauge covector ε^i* as an order-1 tensor."""
        return cls(domain, rank, 1, {(i,): 1})

    def evaluate(self, args: Sequence[SectionVector]) -> StructureSection:
        return StructureSection(self.domain, [
            sum((c * prod(v[i] for v, i in zip(vs, idx)) for idx, c in stalk), ZERO)
            for stalk, *vs in self._with_args(args)])

    def __repr__(self):
        return f"CovariantTensor(order={self.order}, coeffs={self.coeffs})"


def tensor_product(t1: CovariantTensor, t2: CovariantTensor) -> CovariantTensor:
    """t1⊗t2: evaluation on concatenated arguments is the product of the
    separate evaluations.  Order-0 tensors act as scalars."""
    if t1.domain != t2.domain or t1.rank != t2.rank:
        raise DomainMismatch("tensor factors of different shape")
    return CovariantTensor.from_stalks(
        t1.domain, t1.rank, t1.order + t2.order,
        ({i1 + i2: x * y for i1, x in a for i2, y in b} for a, b in zip(t1.stalks, t2.stalks)))


def alternation(t: CovariantTensor) -> CovariantTensor:
    """The anti-symmetrizer projection onto alternating tensors."""
    k = t.order
    if k > ALTERNATION_ORDER_CAP:
        raise DegreeTooLarge(
            f"alternation of order {k} exceeds ALTERNATION_ORDER_CAP = {ALTERNATION_ORDER_CAP}")
    if k <= 1:
        return t
    weights = [(sigma, Fraction(perm_sign(sigma), factorial(k)))
               for sigma in permutations(range(k))]

    def alternate(stalk: Stalk) -> dict:
        out = {}
        for idx, c in stalk:
            for sigma, w in weights:
                target = tuple(idx[s] for s in sigma)
                out[target] = out.get(target, ZERO) + c * w
        return out

    return CovariantTensor.from_stalks(t.domain, t.rank, k, map(alternate, t.stalks))


class KForm(_Multilinear):
    """A degree-k exterior form, coefficients on strictly increasing indices.

    Degree 0 is a plain section; degree 1 a dual vector.  Skew-symmetry is
    structural: evaluation repeats no index, and a repeated argument kills
    every minor.
    """

    __slots__ = ()

    def _check_index(self, idx: tuple[int, ...], rank: int, degree: int) -> None:
        super()._check_index(idx, rank, degree)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise IndexError(f"multi-index {idx} is not strictly increasing")

    @property
    def degree(self) -> int:
        return self.arity

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

    # -- algebra ------------------------------------------------------------------

    def __xor__(self, other: "KForm") -> "KForm":
        return wedge(self, other)

    def evaluate(self, args: Sequence[SectionVector]) -> StructureSection:
        """At each point, Σ_I c_I·det of the k×k minor of the arguments on the
        columns I.  For a wedge of one-forms this is exactly det[αᵢ(sⱼ)]."""
        return StructureSection(self.domain, [
            sum((c * qlinalg.det_bareiss([[v[i] for i in idx] for v in vs]) for idx, c in stalk),
                ZERO)
            for stalk, *vs in self._with_args(args)])

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return f"KForm(degree={self.degree}, 0)"
        body = " + ".join(f"({c})·e{'∧e'.join(str(i + 1) for i in idx)}*"
                          for idx, c in coeffs.items())
        return f"KForm({body})"


def _masked(stalk: Stalk) -> tuple[int, list[tuple[int, int, int]]]:
    """(D, terms): the stalk over its common denominator D, one term
    (mask, P, D·c) per coefficient c on the multi-index I, where
    mask = Σ_{i∈I} 2ⁱ and P = XOR_{i∈I} (2ⁱ − 1) has bit j set iff an odd
    number of indices of I exceed j."""
    d, (ints,) = qlinalg.scaled([[c for _, c in stalk]])
    terms = []
    for (idx, _), v in zip(stalk, ints):
        mask = parity = 0
        for i in idx:
            mask |= 1 << i
            parity ^= (1 << i) - 1
        terms.append((mask, parity, v))
    return d, terms


def wedge(xi: KForm, eta: KForm) -> KForm:
    """Exterior product.  Graded-commutative and associative; degree-0
    factors act as scalars.  If the degrees overflow the rank the result is
    the zero form of that (overflowing) degree, flagged by its degree, not
    an error.

    Per stalk the product runs on ints, with multi-indices as bitmasks
    (Dorst, Fontijne and Mann, *Geometric Algebra for Computer Science*,
    2007): blades I and J meet iff I & J, merge to I | J, and the shuffle
    sign is the parity of the pairs i ∈ I, j ∈ J with i > j, that is of
    popcount(J & P(I)) (see `_masked`)."""
    if xi.domain != eta.domain or xi.rank != eta.rank:
        raise DomainMismatch("wedge factors on different modules")

    def product(a: Stalk, b: Stalk) -> dict:
        (da, left), (db, right) = _masked(a), _masked(b)
        out: dict[int, int] = {}
        for ma, pa, x in left:
            for mb, _, y in right:
                if not ma & mb:
                    term = -x * y if (mb & pa).bit_count() & 1 else x * y
                    out[ma | mb] = out.get(ma | mb, 0) + term
        d = da * db
        return {tuple(i for i in range(mask.bit_length()) if mask >> i & 1): Fraction(v, d)
                for mask, v in out.items() if v}

    return KForm.from_stalks(xi.domain, xi.rank, xi.degree + eta.degree,
                             map(product, xi.stalks, eta.stalks))


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
