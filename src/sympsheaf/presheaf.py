"""Presheaves on a finite site, the completeness axioms, and gluing.

A presheaf here is a finite *description*: it can enumerate a (possibly
grid-sampled) carrier of sections over each open set and restrict sections
along inclusions.  check_completeness transliterates the two axioms:

  S1 (locality): sections agreeing on every member of a cover are equal;
  S2 (gluing):   every compatible family over a cover comes from a section.

Both are decided on hashable *keys*: a presheaf names each carrier section
over U by a key, and restricts keys along inclusions with a restrictor
built once per pair of opens.  Since A(U) = ∏_{x∈U} ℚ, a function section
is named by its tuple of grid indices and restricts by an index gather.
S1 buckets the carrier keys over U by their tuple of restrictions to the
cover members.  S2 and sheafify_sections walk the one compatible-family
enumerator, a natural join of the member carriers on their keys over the
overlaps; a family glues iff its member keys name an S1 bucket.  Section
objects are built only for the S1/S2 witnesses and for public output.  For
infinite section sets (all ℚ-valued functions) the carrier samples a
deterministic finite grid of rationals; within the sampled carrier the
verdict is exact.

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
from operator import itemgetter
from typing import Any, Callable, Sequence

from .errors import DimensionMismatch, IncompatibleFamily, NonEnumerableSections
from .sections import StructureSection, _Stalkwise
from .site import (FiniteSpace, OpenSet, _gather, minimal_cover, minimal_open_neighborhood,
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


def _first_occurrences(grid: Sequence[Fraction]) -> tuple[int, ...]:
    """Each grid value as the index of its first occurrence, so that equal
    values (a repeated 0, or 1 and 2/2) get equal keys."""
    first: dict[Fraction, int] = {}
    return tuple(first.setdefault(g, i) for i, g in enumerate(grid))


def _identity(k):
    return k


class Presheaf:
    """Base interface: enumerate sections over an open, restrict, and key them.

    check_completeness and the compatible-family join run on keys alone:
    `_keys(U)` is the carrier over U as hashable keys, in carrier order;
    `_restrictor(U, V)` maps a key over U to the key of its restriction to
    an open V ⊆ U; `_section(k, U)` is the section the key k names.  The
    defaults key each section s by `key(s)`, which must then name s: by
    default it is s itself.
    """

    space: FiniteSpace

    def sections(self, U: OpenSet) -> list:
        raise NotImplementedError

    def restrict(self, s, V: OpenSet):
        return s.restrict(V)

    def key(self, s):
        return s

    def _keys(self, U: OpenSet) -> list:
        return [self.key(s) for s in self.sections(U)]

    def _restrictor(self, U: OpenSet, V: OpenSet) -> Callable:
        return lambda k: self.key(self.restrict(k, V))

    def _section(self, k, U: OpenSet):
        return k


class FunctionPresheaf(Presheaf):
    """The structure sheaf A: all functions U → grid (a sampled slice of ℚ^U).

    The carrier over U is closed under restriction and pointwise gluing, so
    S1/S2 checks within it are exact.  A carrier key is the tuple of grid
    indices of a section's values at the points of U, so restriction is an
    index gather.
    """

    def __init__(self, space: FiniteSpace, grid: Sequence[Fraction] = DEFAULT_GRID):
        self.space = space
        self.grid = tuple(Fraction(g) for g in grid)
        self._first = _first_occurrences(self.grid)

    def sections(self, U: OpenSet) -> list[StructureSection]:
        return [self._section(k, U) for k in self._keys(U)]

    def key(self, s: StructureSection):
        return (s.domain.mask, s.stalks)

    def _keys(self, U: OpenSet) -> list[tuple[int, ...]]:
        count = len(self.grid) ** U.size
        if count > CARRIER_CAP:
            raise NonEnumerableSections(f"{count} sections over {U} exceed the enumeration cap")
        return list(product(self._first, repeat=U.size))

    def _restrictor(self, U: OpenSet, V: OpenSet) -> Callable:
        gather = _gather(U.mask, V.mask)
        if not gather:
            return lambda k: ()
        if len(gather) == 1:  # itemgetter of one index returns the item, not a tuple
            i, = gather
            return lambda k: (k[i],)
        return itemgetter(*gather)

    def _section(self, k: tuple[int, ...], U: OpenSet) -> StructureSection:
        grid = self.grid
        return StructureSection.from_stalks(U, [grid[i] for i in k])


class ConstantPresheaf(Presheaf):
    """The constant presheaf P(U) = grid with identity restrictions.

    Not a sheaf: compatible families over disjoint covers need not glue, and
    two constants agree vacuously over the empty cover of ∅.  A carrier key
    is a grid index.
    """

    def __init__(self, space: FiniteSpace, grid: Sequence[Fraction] = DEFAULT_GRID):
        self.space = space
        self.grid = tuple(Fraction(g) for g in grid)
        self._first = _first_occurrences(self.grid)

    def sections(self, U: OpenSet) -> list[Fraction]:
        return list(self.grid)

    def restrict(self, s, V: OpenSet):
        return s

    def _keys(self, U: OpenSet) -> list[int]:
        return list(self._first)

    def _restrictor(self, U: OpenSet, V: OpenSet) -> Callable:
        return _identity

    def _section(self, k: int, U: OpenSet) -> Fraction:
        return self.grid[k]


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
    shape over the whole space.  Each carrier is built once per open.
    """

    def __init__(self, space: FiniteSpace, samples: Sequence[_Stalkwise]):
        self.space = space
        self.samples = tuple(samples)
        self._carriers: dict[int, tuple[_Stalkwise, ...]] = {}

    def sections(self, U: OpenSet) -> list[_Stalkwise]:
        carrier = self._carriers.get(U.mask)
        if carrier is None:
            carrier = self._carriers[U.mask] = tuple(self._carrier(U))
        return list(carrier)

    def _carrier(self, U: OpenSet):
        cover = minimal_cover(U)
        if not U.mask or U in cover:  # ∅ or some U_x: the distinct sample germs
            return dict.fromkeys(s.restrict(U) for s in self.samples)
        return (glue_stalkwise(U, f.cover, f.sections) for f in _compatible_families(self, cover))


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
    require_open_cover(U, cover)
    restrictors = [presheaf._restrictor(U, V) for V in cover]

    # S1: bucket the carrier keys by their tuple of restrictions.
    buckets: dict[tuple, list] = {}
    for k in presheaf._keys(U):
        buckets.setdefault(tuple(r(k) for r in restrictors), []).append(k)
    s1 = AxiomReport("S1", "pass")
    for group in buckets.values():
        if len(group) >= 2 and len(distinct := list(dict.fromkeys(group))) >= 2:
            s1 = AxiomReport("S1", "fail", witness=(presheaf._section(distinct[0], U),
                                                    presheaf._section(distinct[1], U)))
            break

    # S2: a family glues iff its tuple of member keys is the restriction tuple
    # of some carrier key, i.e. hits an S1 bucket.
    unglued = next((keys for keys in _compatible_keys(presheaf, cover)
                    if keys not in buckets), None)
    s2 = (AxiomReport("S2", "fail", witness=_family(presheaf, cover, unglued))
          if unglued is not None else AxiomReport("S2", "pass"))
    return CompletenessReport(s1, s2)


def _compatible_keys(presheaf: Presheaf, cover: Sequence[OpenSet]):
    """Yield the member keys of every compatible family over the cover, in
    lexicographic carrier order.

    Each member's carrier keys are bucketed by their restrictions to the
    nonempty overlaps with the earlier members, so a partial family extends
    only through the bucket its chosen keys select (a hash join): no
    candidate is tried and rejected.
    """
    cover = tuple(cover)
    index: list[dict[tuple, list]] = []
    lookups: list[list[tuple[int, Callable]]] = []
    for j, V in enumerate(cover):
        overlaps = [(i, cover[i].intersection(V)) for i in range(j) if cover[i].mask & V.mask]
        own = [presheaf._restrictor(V, o) for _, o in overlaps]
        bucket: dict[tuple, list] = {}
        for k in presheaf._keys(V):
            bucket.setdefault(tuple(r(k) for r in own), []).append(k)
        index.append(bucket)
        lookups.append([(i, presheaf._restrictor(cover[i], o)) for i, o in overlaps])
    chosen: list = []

    def extend(j):
        if j == len(cover):
            yield tuple(chosen)
            return
        wanted = tuple(r(chosen[i]) for i, r in lookups[j])
        for k in index[j].get(wanted, ()):
            chosen.append(k)
            yield from extend(j + 1)
            chosen.pop()

    yield from extend(0)


def _family(presheaf: Presheaf, cover: Sequence[OpenSet], keys: tuple) -> CompatibleFamily:
    return CompatibleFamily(tuple(cover), tuple(presheaf._section(k, V)
                                                for k, V in zip(keys, cover)))


def _compatible_families(presheaf: Presheaf, cover: Sequence[OpenSet]):
    """Yield every compatible family over the cover, in lexicographic carrier
    order: the key families of _compatible_keys, as sections."""
    cover = tuple(cover)
    return (_family(presheaf, cover, keys) for keys in _compatible_keys(presheaf, cover))


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
