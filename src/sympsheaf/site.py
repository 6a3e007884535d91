"""Finite topological spaces: the base sites all sheaves here live on.

Points carry string labels; open sets are bitmasks over the point list, so
lattice operations are single integer ops.  A space stores its full set of
opens explicitly.  Validation accepts a family by a test linear in the
number of opens: a finite topology is fixed by its minimal open
neighborhoods U_x, so the family is closed under union and intersection iff
m ∪ U_x is in it for every member m and point x.  Only a family that fails
is scanned pair by pair, for the first pair that witnesses the failure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import (
    MissingEmptyOrWhole,
    NotAnOpen,
    NotAnOpenCover,
    NotASubset,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UnknownPoint,
)


class FiniteSpace:
    """A validated finite topological space."""

    __slots__ = ("points", "opens")
    points: tuple[str, ...]
    opens: frozenset[int]

    def __init__(self, points: tuple[str, ...], opens: frozenset[int]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "opens", opens)

    def __eq__(self, other):
        if other.__class__ is not FiniteSpace:
            return NotImplemented
        return self.points == other.points and self.opens == other.opens

    def __hash__(self):
        return hash((self.points, self.opens))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise UnknownPoint(f"unknown point {label!r}") from None

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return mask

    def open_set(self, labels: Iterable[str]) -> "OpenSet":
        return self.open_from_mask(self.mask_of(labels))

    def open_from_mask(self, mask: int) -> "OpenSet":
        if mask not in self.opens:
            raise NotAnOpen(f"{self.labels_of(mask)} is not an open set of the space",
                            witness=self.labels_of(mask))
        return OpenSet(self, mask)

    @property
    def empty(self) -> "OpenSet":
        return OpenSet(self, 0)

    @property
    def whole(self) -> "OpenSet":
        return OpenSet(self, self.full_mask)

    def all_opens(self) -> list["OpenSet"]:
        return [OpenSet(self, m) for m in sorted(self.opens)]

    def __repr__(self):
        return f"FiniteSpace(points={list(self.points)}, opens={len(self.opens)})"


class OpenSet:
    """An open set of a finite space, identified by its member bitmask."""

    __slots__ = ("space", "mask")
    space: FiniteSpace
    mask: int

    def __init__(self, space: FiniteSpace, mask: int):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is not OpenSet:
            return NotImplemented
        return self.mask == other.mask and (self.space is other.space or self.space == other.space)

    def __hash__(self):
        return hash((self.space, self.mask))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels_of(self.mask)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.space.index(label) & 1)

    def position(self, label: str) -> int:
        """Where the point sits in `labels`; UnknownPoint when it is not in the set."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownPoint(f"point {label!r} not in {self}") from None

    def positions_in(self, U: "OpenSet") -> tuple[int, ...]:
        """Where the points of this set sit in `U.labels`: the index gather that
        restricts data stored point by point over U to this set."""
        if self.space != U.space or not self.is_subset(U):
            raise NotASubset(f"{self} is not an open subset of {U}")
        return _gather(U.mask, self.mask)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def is_subset(self, other: "OpenSet") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "OpenSet") -> "OpenSet":
        return self.space.open_from_mask(self.mask | other.mask)

    def intersection(self, other: "OpenSet") -> "OpenSet":
        return self.space.open_from_mask(self.mask & other.mask)

    def __repr__(self):
        return "{" + ",".join(self.labels) + "}"


@lru_cache(maxsize=4096)
def _gather(mask: int, sub: int) -> tuple[int, ...]:
    """Ranks, among the set bits of mask, of the set bits of sub ⊆ mask."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return tuple(rank for rank, i in enumerate(bits) if sub >> i & 1)


def _is_topology(masks: set[int], n: int) -> bool:
    """Whether a family of subsets of n points that holds ∅ and the whole set
    is closed under union and intersection, in O(n·|opens|).  Let U_x be the
    intersection of the members holding x, so every member holding x
    contains U_x.  The test is that m | U_x is a member for every member m
    and point x; with m = ∅ it says each U_x is one.  Then a ∪ b is a grown
    by the U_x, x ∈ b, and a ∩ b is ∅ grown by the U_x, x ∈ a ∩ b; the
    converse is the closure itself (Barmak, LNM 2032, ch. 1)."""
    nbhds = [(1 << n) - 1] * n
    for m in masks:
        for i in range(n):
            if m >> i & 1:
                nbhds[i] &= m
    return all(m | u in masks for u in set(nbhds) for m in masks)


def validate_topology(points: Sequence[str], opens: Iterable[Iterable[str]]) -> FiniteSpace:
    """Check the open-set axioms and return the validated space.

    The family is accepted by the linear test of _is_topology.  Only a
    family that fails it is scanned pair by pair, in sorted order, for the
    first pair whose union or intersection is not open.  Raises
    MissingEmptyOrWhole / NotClosedUnderUnion / NotClosedUnderIntersection
    with the witness sets on failure.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError(f"duplicate point labels in {points}")
    probe = FiniteSpace(points, frozenset())
    masks = set()
    for labels in opens:
        masks.add(probe.mask_of(labels))
    full = (1 << len(points)) - 1
    if 0 not in masks or full not in masks:
        missing = "empty set" if 0 not in masks else "whole set"
        raise MissingEmptyOrWhole(f"{missing} is not among the opens",
                                  witness=() if 0 not in masks else points)
    if not _is_topology(masks, len(points)):
        for a, b in combinations(sorted(masks), 2):
            if a | b not in masks:
                raise NotClosedUnderUnion(
                    f"union of {probe.labels_of(a)} and {probe.labels_of(b)} is not open",
                    witness=(probe.labels_of(a), probe.labels_of(b)))
            if a & b not in masks:
                raise NotClosedUnderIntersection(
                    f"intersection of {probe.labels_of(a)} and {probe.labels_of(b)} is not open",
                    witness=(probe.labels_of(a), probe.labels_of(b)))
    return FiniteSpace(points, frozenset(masks))


def minimal_open_neighborhood(space: FiniteSpace, label: str) -> OpenSet:
    """The smallest open set containing the point: the intersection of all
    opens containing it (itself open on a finite space)."""
    bit = 1 << space.index(label)
    mask = space.full_mask
    for m in space.opens:
        if m & bit:
            mask &= m
    return space.open_from_mask(mask)


def is_open_cover(target: OpenSet, family: Sequence[OpenSet]) -> bool:
    """True iff the family of opens (each contained in the target) unions to it."""
    union = 0
    for member in family:
        if member.space != target.space:
            raise NotASubset("cover member lives on a different space")
        if not member.is_subset(target):
            raise NotASubset(f"cover member {member} is not contained in {target}")
        union |= member.mask
    return union == target.mask


def require_open_cover(target: OpenSet, family: Sequence[OpenSet]) -> None:
    if not is_open_cover(target, family):
        raise NotAnOpenCover(f"family does not cover {target}")


def minimal_cover(U: OpenSet) -> list[OpenSet]:
    """The cover of U by the minimal open neighborhoods of its points,
    deduplicated, in point order."""
    seen, out = set(), []
    for label in U:
        nbhd = minimal_open_neighborhood(U.space, label)
        if nbhd.mask not in seen:
            seen.add(nbhd.mask)
            out.append(nbhd)
    return out


def enumerate_topologies(points: Sequence[str]) -> Iterator[FiniteSpace]:
    """All topologies on the given labels, via reflexive-transitive relations.

    Finite topologies correspond bijectively to preorders: the opens of a
    topology are exactly the up-sets of its specialization preorder.  A
    preorder is held as up-closure masks, up[i] the points above i, i
    included: it is transitive when up[i] holds up[j] for each j in up[i],
    and a mask is an up-set when it holds up[i] for each of its points.
    Each candidate space is still passed through validate_topology.
    """
    points = tuple(points)
    n = len(points)
    probe = FiniteSpace(points, frozenset())
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for choice in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                up[i] |= 1 << j
        if any(up[j] & ~up[i] for i in range(n) for j in range(n) if up[i] >> j & 1):
            continue
        masks = [m for m in range(1 << n)
                 if all(up[i] & ~m == 0 for i in range(n) if m >> i & 1)]
        yield validate_topology(points, [probe.labels_of(m) for m in masks])


def sierpinski() -> FiniteSpace:
    """The two-point space with opens ∅, {a}, {a,b}."""
    return validate_topology(("a", "b"), [[], ["a"], ["a", "b"]])


def discrete(points: Sequence[str]) -> FiniteSpace:
    points = tuple(points)
    probe = FiniteSpace(points, frozenset())
    return validate_topology(points, [probe.labels_of(m) for m in range(1 << len(points))])


def point_space(label: str = "x") -> FiniteSpace:
    return validate_topology((label,), [[], [label]])
