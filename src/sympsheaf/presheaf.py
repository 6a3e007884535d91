"""Presheaves on a finite site, the completeness axioms, and gluing.

A presheaf here is a finite *description*: it can enumerate a (possibly
grid-sampled) carrier of sections over each open set and restrict sections
along inclusions.  check_completeness transliterates the two axioms:

  S1 (locality): sections agreeing on every member of a cover are equal;
  S2 (gluing):   every compatible family over a cover comes from a section.

Both are decided by exhaustive enumeration over the carrier, so for
infinite section sets (all ℚ-valued functions) the carrier samples a
deterministic finite grid of rationals; within the sampled carrier the
verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Optional, Sequence

from .errors import IncompatibleFamily, NonEnumerableSections, NotAnOpenCover
from .modules import _Stalkwise
from .sections import StructureSection
from .site import FiniteSpace, OpenSet, is_open_cover, minimal_cover, minimal_open_neighborhood

CARRIER_CAP = 200_000

DEFAULT_GRID = (Fraction(0), Fraction(1))


def sample_grid(seed: int, size: int = 2) -> tuple[Fraction, ...]:
    """Deterministic rational grid used to sample infinite carriers."""
    base = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(-3), Fraction(1, 3)]
    picked = [base[(seed + i) % len(base)] for i in range(size)]
    out: list[Fraction] = []
    for q in picked:
        if q not in out:
            out.append(q)
    while len(out) < size:  # seed collisions; keep the grid at the requested size
        out.append(Fraction(len(out) + seed + 1))
    return tuple(out)


class Presheaf:
    """Base interface: enumerate sections over an open, restrict, and key them."""

    space: FiniteSpace

    def sections(self, U: OpenSet) -> list:
        raise NotImplementedError

    def restrict(self, s, V: OpenSet):
        return s.restrict(V)

    def key(self, s):
        return s


class FunctionPresheaf(Presheaf):
    """The structure sheaf A: all functions U → grid (a sampled slice of ℚ^U).

    The carrier over U is closed under restriction and pointwise gluing, so
    S1/S2 checks within it are exact.
    """

    def __init__(self, space: FiniteSpace, grid: Sequence[Fraction] = DEFAULT_GRID):
        self.space = space
        self.grid = tuple(Fraction(g) for g in grid)

    def sections(self, U: OpenSet) -> list[StructureSection]:
        count = len(self.grid) ** U.size
        if count > CARRIER_CAP:
            raise NonEnumerableSections(f"{count} sections over {U} exceed the enumeration cap")
        return [StructureSection(U, values) for values in product(self.grid, repeat=U.size)]

    def key(self, s: StructureSection):
        return (s.domain.mask, s.values)


class ConstantPresheaf(Presheaf):
    """The constant presheaf P(U) = grid with identity restrictions.

    Not a sheaf: compatible families over disjoint covers need not glue, and
    two constants agree vacuously over the empty cover of ∅.
    """

    def __init__(self, space: FiniteSpace, grid: Sequence[Fraction] = DEFAULT_GRID):
        self.space = space
        self.grid = tuple(Fraction(g) for g in grid)

    def sections(self, U: OpenSet) -> list[Fraction]:
        return list(self.grid)

    def restrict(self, s, V: OpenSet):
        return s


class GermSampledPresheaf(Presheaf):
    """Finite subpresheaf generated by global samples, closed under gluing.

    The carrier over U consists of every object whose germ on each minimal
    open neighborhood N(x), x ∈ U, is the germ of one of the samples.  Such
    mixes restrict and glue within the carrier, so completeness checks are
    meaningful for presheaves (symplectic maps, eigenpairs) whose full
    carrier is not enumerable.  Objects must expose restrict(V); ``merge``
    builds an object over U taking the data at each point from the chosen
    global sample.
    """

    def __init__(self, space: FiniteSpace, samples: Sequence[Any],
                 merge: Callable[[OpenSet, dict[str, Any]], Any],
                 key: Optional[Callable[[Any], Any]] = None):
        self.space = space
        self.samples = list(samples)
        self.merge = merge
        self._key = key or (lambda s: s)

    def key(self, s):
        return self._key(s)

    def sections(self, U: OpenSet) -> list:
        pts = U.labels
        if not pts:
            return [self.merge(U, {})]
        nbhds = {p: minimal_open_neighborhood(self.space, p) for p in pts}
        germ_keys = {p: {self._key(s.restrict(nbhds[p])) for s in self.samples} for p in pts}
        out, seen = [], set()
        for assign in product(self.samples, repeat=len(pts)):
            obj = self.merge(U, dict(zip(pts, assign)))
            if any(self._key(obj.restrict(nbhds[p])) not in germ_keys[p] for p in pts):
                continue
            k = self._key(obj)
            if k not in seen:
                seen.add(k)
                out.append(obj)
        return out


@dataclass(frozen=True)
class CompatibleFamily:
    """A choice of section over each cover member, agreeing on overlaps."""

    cover: tuple[OpenSet, ...]
    sections: tuple[Any, ...]

    def describe(self) -> list[tuple[tuple[str, ...], Any]]:
        return [(V.labels, s) for V, s in zip(self.cover, self.sections)]


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    status: str  # "pass" | "fail"
    witness: Any = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class CompletenessReport:
    s1: AxiomReport
    s2: AxiomReport

    @property
    def passed(self) -> bool:
        return self.s1.passed and self.s2.passed


def check_completeness(presheaf: Presheaf, U: OpenSet,
                       cover: Sequence[OpenSet]) -> CompletenessReport:
    """Decide S1 and S2 for the presheaf over U against the given cover."""
    cover = list(cover)
    if not is_open_cover(U, cover):
        raise NotAnOpenCover(f"family does not cover {U}")
    carrier = presheaf.sections(U)

    def restriction_key(s, V: OpenSet):
        return presheaf.key(presheaf.restrict(s, V))

    # S1: bucket carrier sections by their tuple of restrictions.
    buckets: dict[tuple, list] = {}
    for s in carrier:
        k = tuple(restriction_key(s, V) for V in cover)
        buckets.setdefault(k, []).append(s)
    s1 = AxiomReport("S1", "pass")
    for group in buckets.values():
        distinct = []
        for s in group:
            if all(presheaf.key(s) != presheaf.key(t) for t in distinct):
                distinct.append(s)
        if len(distinct) >= 2:
            s1 = AxiomReport("S1", "fail", witness=(distinct[0], distinct[1]))
            break

    # S2: enumerate compatible families by backtracking and look up a glue.
    member_sections = [presheaf.sections(V) for V in cover]
    overlaps = [[cover[i].intersection(cover[j]) for j in range(len(cover))]
                for i in range(len(cover))]
    s2_witness = _search_unglueable(presheaf, cover, member_sections, overlaps, buckets)
    s2 = (AxiomReport("S2", "fail", witness=s2_witness) if s2_witness is not None
          else AxiomReport("S2", "pass"))
    return CompletenessReport(s1, s2)


def _search_unglueable(presheaf, cover, member_sections, overlaps, buckets):
    """First compatible family with no glue in the carrier, else None.

    A family glues iff its tuple of member keys matches the restriction-key
    tuple of some carrier section, i.e. hits a bucket.
    """
    bucket_keys = set(buckets.keys())
    chosen: list = []
    chosen_overlap_keys: list[dict[int, Any]] = []

    def compatible(idx, candidate) -> bool:
        # compatibility is only required over nonempty overlaps
        for i in range(idx):
            o = overlaps[i][idx]
            if o.mask == 0:
                continue
            if presheaf.key(presheaf.restrict(candidate, o)) != chosen_overlap_keys[i][idx]:
                return False
        return True

    def extend(idx):
        if idx == len(cover):
            family_key = tuple(presheaf.key(s) for s in chosen)
            if family_key not in bucket_keys:
                return CompatibleFamily(tuple(cover), tuple(chosen))
            return None
        for candidate in member_sections[idx]:
            if not compatible(idx, candidate):
                continue
            chosen.append(candidate)
            chosen_overlap_keys.append(
                {j: presheaf.key(presheaf.restrict(candidate, overlaps[idx][j]))
                 for j in range(idx + 1, len(cover))})
            found = extend(idx + 1)
            chosen.pop()
            chosen_overlap_keys.pop()
            if found is not None:
                return found
        return None

    return extend(0)


def sheafify_sections(presheaf: Presheaf, U: OpenSet) -> list[CompatibleFamily]:
    """Sections of the generated sheaf over U, as compatible families over
    the minimal open neighborhoods of the points of U."""
    cover = minimal_cover(U)
    member_sections = [presheaf.sections(V) for V in cover]
    overlaps = [[cover[i].intersection(cover[j]) for j in range(len(cover))]
                for i in range(len(cover))]
    out: list[CompatibleFamily] = []
    chosen: list = []

    def compatible(idx, candidate) -> bool:
        for i in range(idx):
            o = overlaps[i][idx]
            if o.mask == 0:
                continue
            if presheaf.key(presheaf.restrict(candidate, o)) != \
               presheaf.key(presheaf.restrict(chosen[i], o)):
                return False
        return True

    def extend(idx):
        if idx == len(cover):
            out.append(CompatibleFamily(tuple(cover), tuple(chosen)))
            return
        for candidate in member_sections[idx]:
            if compatible(idx, candidate):
                chosen.append(candidate)
                extend(idx + 1)
                chosen.pop()

    extend(0)
    return out


def stalk_at(presheaf: Presheaf, label: str) -> list:
    """The stalk at a point: on a finite site the germ colimit is attained
    on the minimal open neighborhood."""
    return presheaf.sections(minimal_open_neighborhood(presheaf.space, label))


# -- gluing utilities ----------------------------------------------------------


def _glue_positions(U: OpenSet, cover: Sequence[OpenSet],
                    parts: Sequence) -> list[tuple[int, int]]:
    """Check that the family agrees on every nonempty overlap, and return for
    each point of U the first member containing it and the point's position
    there.  Raises IncompatibleFamily with the first disagreeing overlap."""
    cover = list(cover)
    if not is_open_cover(U, cover):
        raise NotAnOpenCover(f"family does not cover {U}")
    for i in range(len(cover)):
        for j in range(i + 1, len(cover)):
            o = cover[i].intersection(cover[j])
            if o.mask == 0:
                continue
            left, right = parts[i].restrict(o), parts[j].restrict(o)
            if left != right:
                raise IncompatibleFamily(
                    f"sections disagree on {o}",
                    witness={"members": (cover[i].labels, cover[j].labels),
                             "overlap": o.labels, "left": left, "right": right})
    return [next((k, parts[k].domain.position(p)) for k, V in enumerate(cover) if p in V)
            for p in U.labels]


def glue_sections(U: OpenSet, cover: Sequence[OpenSet],
                  parts: Sequence[StructureSection]) -> StructureSection:
    """Glue a compatible family of structure sections over a cover of U."""
    return StructureSection(U, [parts[k].values[i] for k, i in _glue_positions(U, cover, parts)])


def glue_stalkwise(U: OpenSet, cover: Sequence[OpenSet], parts: Sequence[_Stalkwise]):
    """Glue a compatible family of section vectors, matrices or k-forms of one
    shape over a cover of U, taking each point's stalk from the first member
    that contains it."""
    stalks = [parts[k].stalks[i] for k, i in _glue_positions(U, cover, parts)]
    return parts[0].from_stalks(U, *parts[0].shape, stalks)
