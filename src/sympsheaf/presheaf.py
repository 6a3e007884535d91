"""Presheaves on a finite site, the completeness axioms, and gluing.

A presheaf here is a finite *description*: it can enumerate a (possibly
grid-sampled) carrier of sections over each open set and restrict sections
along inclusions.  check_completeness transliterates the two axioms:

  S1 (locality): sections agreeing on every member of a cover are equal;
  S2 (gluing):   every compatible family over a cover comes from a section.

S1 buckets the carrier over U by each section's tuple of restrictions to
the cover members.  S2 and sheafify_sections walk the one compatible-family
enumerator, which joins the member carriers on their keys over the overlaps;
a family glues iff its member keys name an S1 bucket.  For infinite section
sets (all ℚ-valued functions) the carrier samples a deterministic finite
grid of rationals; within the sampled carrier the verdict is exact.

glue_stalkwise is the one gluing routine, for every stalkwise object
(section, vector, matrix, polynomial, form): it checks the overlaps and
takes each point's stalk from a member containing it.  The germ-sampled
carrier is built with it, from the compatible families of sample germs over
the minimal open neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Any, Sequence

from .errors import DimensionMismatch, IncompatibleFamily, NonEnumerableSections
from .sections import StructureSection, _Stalkwise
from .site import (FiniteSpace, OpenSet, minimal_cover, minimal_open_neighborhood,
                   require_open_cover)

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
        return (s.domain.mask, s.stalks)


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
    open neighborhood U_x, x ∈ U, is the germ of one of the samples.  On a
    finite space the U_x form the minimal basis, so these objects are exactly
    the gluings of compatible families of sample germs over the U_x inside U
    (Barmak, LNM 2032; Curry, "Sheaves, cosheaves and applications").  The
    carrier restricts and glues within itself, so completeness checks are
    meaningful for presheaves (symplectic maps, eigenpairs) whose full
    carrier is not enumerable.  The samples are stalkwise objects of one
    shape over the whole space.
    """

    def __init__(self, space: FiniteSpace, samples: Sequence[_Stalkwise]):
        self.space = space
        self.samples = list(samples)

    def sections(self, U: OpenSet) -> list[_Stalkwise]:
        cover = minimal_cover(U)
        if not U.mask or U in cover:  # ∅ or some U_x: the distinct sample germs
            return list(dict.fromkeys(s.restrict(U) for s in self.samples))
        return [glue_stalkwise(U, f.cover, f.sections)
                for f in _compatible_families(self, cover)]


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


def _restriction_key(presheaf: Presheaf, s, V: OpenSet):
    return presheaf.key(presheaf.restrict(s, V))


def check_completeness(presheaf: Presheaf, U: OpenSet,
                       cover: Sequence[OpenSet]) -> CompletenessReport:
    """Decide S1 and S2 for the presheaf over U against the given cover."""
    cover = list(cover)
    require_open_cover(U, cover)
    carrier = presheaf.sections(U)

    # S1: bucket carrier sections by their tuple of restrictions.
    buckets: dict[tuple, list] = {}
    for s in carrier:
        k = tuple(_restriction_key(presheaf, s, V) for V in cover)
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

    # S2: a family glues iff its tuple of member keys is the restriction-key
    # tuple of some carrier section, i.e. hits an S1 bucket.
    unglued = next((f for f in _compatible_families(presheaf, cover)
                    if tuple(presheaf.key(s) for s in f.sections) not in buckets), None)
    s2 = (AxiomReport("S2", "fail", witness=unglued) if unglued is not None
          else AxiomReport("S2", "pass"))
    return CompletenessReport(s1, s2)


def _compatible_families(presheaf: Presheaf, cover: Sequence[OpenSet]):
    """Yield every compatible family over the cover, in lexicographic carrier
    order.

    Each member's carrier is bucketed by its keys on the nonempty overlaps
    with the earlier members, so a partial family extends only through the
    bucket its chosen sections select (a hash join): no candidate is tried
    and rejected.
    """
    cover = tuple(cover)
    earlier = [[(i, cover[i].intersection(V)) for i in range(j) if cover[i].mask & V.mask]
               for j, V in enumerate(cover)]
    index: list[dict[tuple, list]] = []
    for V, overlaps in zip(cover, earlier):
        bucket: dict[tuple, list] = {}
        for s in presheaf.sections(V):
            bucket.setdefault(tuple(_restriction_key(presheaf, s, o) for _, o in overlaps),
                              []).append(s)
        index.append(bucket)
    chosen: list = []

    def extend(j):
        if j == len(cover):
            yield CompatibleFamily(cover, tuple(chosen))
            return
        wanted = tuple(_restriction_key(presheaf, chosen[i], o) for i, o in earlier[j])
        for s in index[j].get(wanted, ()):
            chosen.append(s)
            yield from extend(j + 1)
            chosen.pop()

    yield from extend(0)


def sheafify_sections(presheaf: Presheaf, U: OpenSet) -> list[CompatibleFamily]:
    """Sections of the generated sheaf over U, as compatible families over
    the minimal open neighborhoods of the points of U."""
    return list(_compatible_families(presheaf, minimal_cover(U)))


def stalk_at(presheaf: Presheaf, label: str) -> list:
    """The stalk at a point: on a finite site the germ colimit is attained
    on the minimal open neighborhood."""
    return presheaf.sections(minimal_open_neighborhood(presheaf.space, label))


# -- gluing utilities ----------------------------------------------------------


def glue_stalkwise(U: OpenSet, cover: Sequence[OpenSet], parts: Sequence[_Stalkwise]):
    """Glue a compatible family of sections, vectors, matrices, polynomials or
    k-forms of one shape over a cover of U, taking each point's stalk from the
    first member that contains it.  Raises IncompatibleFamily with the first
    disagreeing overlap, the two members and their restrictions to it, and
    DimensionMismatch unless there is one part per member: the empty family
    (on the empty cover of U = ∅) has no member to take the shape from."""
    cover = list(cover)
    require_open_cover(U, cover)
    if len(parts) != len(cover) or not parts:
        raise DimensionMismatch(
            f"{len(parts)} parts for {len(cover)} cover members; one each, at least one")
    for (i, V), (j, W) in combinations(enumerate(cover), 2):
        o = V.intersection(W)
        if not o.mask:
            continue
        left, right = parts[i].restrict(o), parts[j].restrict(o)
        if left != right:
            raise IncompatibleFamily(
                f"sections disagree on {o}",
                witness={"members": (V.labels, W.labels), "overlap": o.labels,
                         "left": left, "right": right})
    stalks = [next(parts[k].stalks[parts[k].domain.position(p)]
                   for k, V in enumerate(cover) if p in V) for p in U.labels]
    return parts[0].from_stalks(U, *parts[0].shape, stalks)
