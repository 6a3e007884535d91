"""Presheaves on a finite site, the completeness axioms, and gluing.

A presheaf here is a finite *description*: it can enumerate a (possibly
grid-sampled) carrier of sections over each open set and restrict sections
along inclusions.  check_completeness transliterates the two axioms:

  S1 (locality): sections agreeing on every member of a cover are equal;
  S2 (gluing):   every compatible family over a cover comes from a section.

A carrier is a set: a presheaf names each section over U once, by an
integer key, and restricts keys along inclusions with a restrictor built
once per pair of opens.  Since A(U) = ∏_{x∈U} ℚ, a function section is named
by its tuple of indices into the grid of distinct values and restricts by an
index gather; a constant by its grid index; a germ-sampled section by its
position in the carrier.  Over ∅ every presheaf here has one section.

Both axioms are decided on the maximal cover members: those inside no other
member, the first of equal members kept.  Restriction to a member inside a
kept one factors through it, and F(∅) is one section, so dropping the other
members changes neither the S1 partition nor the compatible families.  S1
buckets the carrier keys over U by their tuple of restrictions to the
maximal members, keeping the first key of each bucket and the second when
there is one, and fails on the first bucket with two keys.

A passing S2 is decided on one overlap plan of the maximal members.  Member
V_l of a plan checks only the maximal opens among its nonempty overlaps
V_i ∩ V_l, i < l; the smaller overlaps follow by functoriality.  A state
holds one key per open W that is live: W enters at the first member
containing it and leaves after the last member that checks it.  Each member
has one table from its keys' restrictions to the checked overlaps onto its
keys, with their restrictions to the opens entering there.  Counting walks
the members breadth first over states (bucket elimination, Dechter 1999) and
gives the number of distinct compatible families.  Every S1 bucket is one,
since carriers are closed under restriction, so S2 passes iff the count is
the number of buckets.  Otherwise the depth-first walk over the plan of the
whole cover, in carrier order, finds the first family whose keys on the
maximal members hit no bucket: the witness.  sheafify_sections lists the
families with the same walk.  Section objects are built only for the S1/S2
witnesses and for public output.  For infinite section sets (all ℚ-valued
functions) the carrier samples a deterministic finite grid of rationals;
within the sampled carrier the verdict is exact.

glue_stalkwise is the one gluing routine, for every stalkwise object
(section, vector, matrix, polynomial, form): it checks the overlaps and
takes each point's stalk from a member containing it.  The germ-sampled
carrier is built with it, from the compatible families of sample germs over
the minimal open neighborhoods.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

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
    filler = len(out) + seed + 1
    while len(out) < size:  # seed collisions; keep the grid at the requested size
        if filler not in out:  # step past the values already picked
            out.append(Fraction(filler))
        filler += 1
    return tuple(out)


def _identity(k):
    return k


def _to_empty(k):
    return 0


def _tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The tuple of the items at the given positions of a tuple."""
    if not positions:
        return lambda k: ()
    if len(positions) == 1:  # itemgetter of one index returns the item, not a tuple
        i, = positions
        return lambda k: (k[i],)
    return itemgetter(*positions)


class Presheaf:
    """Base interface: enumerate sections over an open, restrict, and key them.

    check_completeness and the compatible-family join run on keys alone, and
    a subclass supplies three methods for them.  `_keys(U)` names each
    carrier section over U once, in carrier order.  `_restrictor(U, V)` maps
    a key over U to the key of its restriction to an open V ⊆ U, which must
    be in `_keys(V)`: S2 counts the compatible families and relies on each
    S1 bucket being one.  `_keys(∅)` is one key, since check_completeness
    drops an empty member beside a nonempty one.  `_section(k, U)` is the
    section the key k names.
    """

    space: FiniteSpace

    def sections(self, U: OpenSet) -> list:
        raise NotImplementedError

    def restrict(self, s, V: OpenSet):
        return s.restrict(V)


def _distinct(grid: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The grid's values, each once, in first-occurrence order (1 and 2/2
    once); ValueError when it has none."""
    values = tuple(dict.fromkeys(map(Fraction, grid)))
    if not values:
        raise ValueError("a grid needs at least one value")
    return values


class FunctionPresheaf(Presheaf):
    """The structure sheaf A: all functions U → grid (a sampled slice of ℚ^U).

    The carrier over U is closed under restriction and pointwise gluing, so
    S1/S2 checks within it are exact.  `grid` holds each value once, and a
    carrier key is the tuple of grid indices of a section's values at the
    points of U, so restriction is an index gather.
    """

    def __init__(self, space: FiniteSpace, grid: Sequence[Fraction] = DEFAULT_GRID):
        self.space = space
        self.grid = _distinct(grid)

    def sections(self, U: OpenSet) -> list[StructureSection]:
        return [self._section(k, U) for k in self._keys(U)]

    def _keys(self, U: OpenSet) -> Iterator[tuple[int, ...]]:
        count = len(self.grid) ** U.size
        if count > CARRIER_CAP:
            raise NonEnumerableSections(
                f"{count} sections over {U} exceed CARRIER_CAP = {CARRIER_CAP}")
        return product(range(len(self.grid)), repeat=U.size)

    def _restrictor(self, U: OpenSet, V: OpenSet) -> Callable:
        return _tuple_getter(_gather(U.mask, V.mask))

    def _section(self, k: tuple[int, ...], U: OpenSet) -> StructureSection:
        grid = self.grid
        return StructureSection.from_stalks(U, [grid[i] for i in k])


class ConstantPresheaf(Presheaf):
    """The constant presheaf P(U) = grid for U ≠ ∅, with identity
    restrictions, and P(∅) one section, as for every presheaf here.

    Not a sheaf: compatible families over disjoint covers need not glue.
    `grid` holds each value once, and a carrier key is a grid index.  The
    one section over ∅ is key 0, written as the value grid[0], and every
    restriction to ∅ goes to it.
    """

    def __init__(self, space: FiniteSpace, grid: Sequence[Fraction] = DEFAULT_GRID):
        self.space = space
        self.grid = _distinct(grid)

    def sections(self, U: OpenSet) -> list[Fraction]:
        return list(self.grid) if U.mask else [self.grid[0]]

    def restrict(self, s, V: OpenSet):
        return s if V.mask else self.grid[0]

    def _keys(self, U: OpenSet) -> range:
        return range(len(self.grid) if U.mask else 1)

    def _restrictor(self, U: OpenSet, V: OpenSet) -> Callable:
        return _identity if V.mask else _to_empty

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
    shape over the whole space.  A carrier key is a position in the carrier;
    each carrier is built once per open, and each restriction of positions
    once per pair of opens.
    """

    def __init__(self, space: FiniteSpace, samples: Sequence[_Stalkwise]):
        self.space = space
        self.samples = tuple(samples)
        self._carriers: dict[int, tuple[_Stalkwise, ...]] = {}
        self._restrictions: dict[tuple[int, int], list[int]] = {}

    def sections(self, U: OpenSet) -> list[_Stalkwise]:
        return list(self._carrier(U))

    def _keys(self, U: OpenSet) -> range:
        return range(len(self._carrier(U)))

    def _restrictor(self, U: OpenSet, V: OpenSet) -> Callable[[int], int]:
        restricted = self._restrictions.get((U.mask, V.mask))
        if restricted is None:
            position = {s: k for k, s in enumerate(self._carrier(V))}
            restricted = self._restrictions[U.mask, V.mask] = [
                position[s.restrict(V)] for s in self._carrier(U)]
        return restricted.__getitem__

    def _section(self, k: int, U: OpenSet) -> _Stalkwise:
        return self._carrier(U)[k]

    def _carrier(self, U: OpenSet) -> tuple[_Stalkwise, ...]:
        carrier = self._carriers.get(U.mask)
        if carrier is None:
            carrier = self._carriers[U.mask] = tuple(self._build(U))
        return carrier

    def _build(self, U: OpenSet):
        cover = minimal_cover(U)
        if not U.mask or U in cover:  # ∅ or some U_x: the distinct sample germs
            return dict.fromkeys(s.restrict(U) for s in self.samples)
        return (glue_stalkwise(U, f.cover, f.sections) for f in _compatible_families(self, cover))


class CompatibleFamily(NamedTuple):
    """A choice of section over each cover member, agreeing on overlaps."""

    cover: tuple[OpenSet, ...]
    sections: tuple[Any, ...]

    def describe(self) -> list[tuple[tuple[str, ...], Any]]:
        return [(V.labels, s) for V, s in zip(self.cover, self.sections)]


class AxiomReport(NamedTuple):
    axiom: str
    status: str  # "pass" | "fail"
    witness: Any = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class CompletenessReport(NamedTuple):
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
    kept = _maximal_members(cover)
    members = [cover[i] for i in kept]
    restrictors = [presheaf._restrictor(U, V) for V in members]

    # S1: bucket the carrier keys by their tuple of restrictions to the
    # maximal members, keeping the first two keys of each bucket (setdefault
    # returns k itself when it opens the bucket).
    first: dict[tuple, Any] = {}
    second: dict[tuple, Any] = {}
    for k in presheaf._keys(U):
        restricted = tuple([r(k) for r in restrictors])
        if first.setdefault(restricted, k) is not k:
            second.setdefault(restricted, k)
    s1 = AxiomReport("S1", "pass")
    if second:  # the witness is the first bucket, in insertion order, with two keys
        clash = next(restricted for restricted in first if restricted in second)
        s1 = AxiomReport("S1", "fail", witness={"left": presheaf._section(first[clash], U),
                                                "right": presheaf._section(second[clash], U)})

    # S2: every bucket is a compatible family, so all of them glue iff there
    # are as many distinct families as buckets; else the first unglued
    # family over the whole cover, in carrier order, is the witness.
    unglued = None
    if _count_families(_overlap_plan(presheaf, members)) != len(first):
        pick = _tuple_getter(kept)
        unglued = next((keys for keys in _compatible_keys(_overlap_plan(presheaf, cover))
                        if pick(keys) not in first), None)
    s2 = (AxiomReport("S2", "fail", witness=_family(presheaf, cover, unglued))
          if unglued is not None else AxiomReport("S2", "pass"))
    return CompletenessReport(s1, s2)


def _maximal_members(cover: Sequence[OpenSet]) -> list[int]:
    """The positions, in cover order, of the members contained in no other
    member, the first of equal members kept.  Restriction to a dropped
    member factors through a kept one, and F(∅) is one section, so the
    kept members have the S1 buckets, in the same order, and the compatible
    families of the whole cover."""
    masks = [V.mask for V in cover]
    kept: list[int] = []
    # a member inside another is inside a kept one met earlier: larger first
    for i in sorted(range(len(masks)), key=lambda i: -masks[i].bit_count()):
        if all(masks[i] & ~masks[j] for j in kept):
            kept.append(i)
    return sorted(kept)


class _Step(NamedTuple):
    """One cover member V_l of an overlap plan.  `look` takes the state to its
    keys on V_l's checked overlaps, `keep` to its keys on the opens still
    live after V_l; `table` maps the restrictions of V_l's carrier keys to the
    checked overlaps onto the list of (key, restrictions to the opens that
    enter the state at V_l), in carrier order."""

    look: Callable[[tuple], tuple]
    keep: Callable[[tuple], tuple]
    table: dict[tuple, list[tuple[Any, tuple]]]


def _overlap_plan(presheaf: Presheaf, cover: Sequence[OpenSet]) -> list[_Step]:
    """The overlap plan of the cover: V_l checks the maximal opens among the
    nonempty V_i ∩ V_l, i < l.  Agreement there implies agreement on every
    smaller overlap, by functoriality and agreement among the earlier
    members.  The state holds one key per open W, from the first member that
    contains W until the last member that checks it."""
    masks = [V.mask for V in cover]
    checked: list[list[int]] = []
    entering: list[list[int]] = [[] for _ in masks]
    last: dict[int, int] = {}
    for l, v in enumerate(masks):
        maximal: list[int] = []
        for w in sorted({u & v for u in masks[:l]} - {0}, key=int.bit_count, reverse=True):
            if all(w & ~m for m in maximal):
                maximal.append(w)
                if w not in last:
                    entering[next(i for i, u in enumerate(masks) if not w & ~u)].append(w)
                last[w] = l
        checked.append(maximal)

    plan: list[_Step] = []
    live: list[int] = []  # the opens the state holds keys of, in state order
    for l, V in enumerate(cover):
        look = [live.index(w) for w in checked[l]]
        kept = [p for p, w in enumerate(live) if last[w] > l]
        live = [live[p] for p in kept] + entering[l]
        checks = [presheaf._restrictor(V, V.space.open_from_mask(w)) for w in checked[l]]
        enters = [presheaf._restrictor(V, V.space.open_from_mask(w)) for w in entering[l]]
        table: dict[tuple, list[tuple[Any, tuple]]] = {}
        for k in presheaf._keys(V):
            table.setdefault(tuple([r(k) for r in checks]), []).append(
                (k, tuple([r(k) for r in enters])))
        plan.append(_Step(_tuple_getter(look), _tuple_getter(kept), table))
    return plan


def _count_families(plan: Sequence[_Step]) -> int:
    """The number of compatible families over the plan's cover, without
    listing them: breadth first over the members, the number of partial
    families per state.  Keys of one member that agree on the opens entering
    the state there lead to the same next state, so each bucket is counted
    by its entering restrictions."""
    counts: dict[tuple, int] = {(): 1}
    for look, keep, table in plan:
        fanout: dict[tuple, dict[tuple, int]] = {}
        for wanted, bucket in table.items():
            keys = fanout[wanted] = {}
            for _, enters in bucket:
                keys[enters] = keys.get(enters, 0) + 1
        following: dict[tuple, int] = {}
        for state, n in counts.items():
            kept = keep(state)
            for enters, m in fanout.get(look(state), {}).items():
                after = kept + enters
                following[after] = following.get(after, 0) + n * m
        counts = following
    return sum(counts.values())


def _compatible_keys(plan: Sequence[_Step]):
    """Yield the member keys of every compatible family over the plan's
    cover, in lexicographic carrier order: depth first over the members,
    each extending a partial family only through the table bucket its state
    selects (a hash join), so no candidate is tried and rejected."""
    chosen: list = []

    def extend(l, state):
        if l == len(plan):
            yield tuple(chosen)
            return
        look, keep, table = plan[l]
        kept = keep(state)
        for k, enters in table.get(look(state), ()):
            chosen.append(k)
            yield from extend(l + 1, kept + enters)
            chosen.pop()

    yield from extend(0, ())


def _family(presheaf: Presheaf, cover: Sequence[OpenSet], keys: tuple) -> CompatibleFamily:
    return CompatibleFamily(tuple(cover), tuple(presheaf._section(k, V)
                                                for k, V in zip(keys, cover)))


def _compatible_families(presheaf: Presheaf, cover: Sequence[OpenSet]):
    """Yield every compatible family over the cover, in lexicographic carrier
    order: the key families of _compatible_keys, as sections."""
    cover = tuple(cover)
    return (_family(presheaf, cover, keys)
            for keys in _compatible_keys(_overlap_plan(presheaf, cover)))


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
