"""Finite topological spaces: the base sites all sheaves here live on.

Points carry string labels; open sets are bitmasks over the point list, so
lattice operations are single integer ops.  A space stores its full set of
opens explicitly, so validation transliterates the closure axioms directly.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class FiniteSpace:
    """A validated finite topological space."""

    points: tuple[str, ...]
    opens: frozenset[int]

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


@dataclass(frozen=True)
class OpenSet:
    """An open set of a finite space, identified by its member bitmask."""

    space: FiniteSpace
    mask: int

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


def validate_topology(points: Sequence[str], opens: Iterable[Iterable[str]]) -> FiniteSpace:
    """Check the open-set axioms and return the validated space.

    Raises MissingEmptyOrWhole / NotClosedUnderUnion /
    NotClosedUnderIntersection with the witness sets on failure.
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
