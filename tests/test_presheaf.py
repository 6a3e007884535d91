"""Presheaf axioms S1/S2, sheafification, stalks, gluing."""

import random
import time
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

from sympsheaf import (
    ConstantPresheaf,
    FunctionPresheaf,
    GermSampledPresheaf,
    KForm,
    SectionVector,
    StructureSection,
    check_completeness,
    discrete,
    enumerate_topologies,
    glue_stalkwise,
    is_open_cover,
    minimal_cover,
    minimal_open_neighborhood,
    sheafify_sections,
    sierpinski,
    validate_topology,
)
from sympsheaf.errors import (
    DimensionMismatch,
    IncompatibleFamily,
    NonEnumerableSections,
    NotAnOpenCover,
)
from sympsheaf import presheaf as presheaf_module
from sympsheaf.presheaf import (_compatible_families, _compatible_keys, _count_families,
                                _maximal_members, _overlap_plan, sample_grid)

from oracles import check_completeness_sections, compatible_families_sections


def three_point_site():
    return validate_topology(["a", "b", "c"],
                             [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])


GRID = (F(0), F(1), F(-1, 2))


def antichain_covers(U):
    """All irredundant covers of U: antichains of nonempty opens inside U
    whose union is U.  Any cover contains such a subcover, and S1/S2 for the
    subcover imply them for the whole cover."""
    inside = [V for V in U.space.all_opens() if V.mask and V.is_subset(U)]
    out = []

    def extend(start, chosen, union):
        if union == U.mask and chosen:
            out.append(list(chosen))
        for i in range(start, len(inside)):
            v = inside[i]
            if any(v.is_subset(w) or w.is_subset(v) for w in chosen):
                continue
            chosen.append(v)
            extend(i + 1, chosen, union | v.mask)
            chosen.pop()

    extend(0, [], 0)
    if U.mask == 0:
        out.append([])
    return out


def test_function_sheaf_two_member_cover():
    sp = three_point_site()
    U = sp.open_set(["a", "b"])
    cover = [sp.open_set(["a"]), sp.open_set(["b"])]
    report = check_completeness(FunctionPresheaf(sp, GRID), U, cover)
    assert report.s1.passed and report.s2.passed


def test_constant_presheaf_fails_s2_with_witness():
    sp = three_point_site()
    U = sp.open_set(["a", "b"])
    cover = [sp.open_set(["a"]), sp.open_set(["b"])]
    report = check_completeness(ConstantPresheaf(sp, (F(1), F(2))), U, cover)
    assert report.s1.passed
    assert not report.s2.passed
    witness = report.s2.witness.describe()
    assert witness == [(("a",), F(1)), (("b",), F(2))]


def test_single_member_cover_trivially_s1():
    sp = three_point_site()
    U = sp.open_set(["a", "b"])
    report = check_completeness(ConstantPresheaf(sp, GRID), U, [U])
    assert report.s1.passed and report.s2.passed


def test_constant_presheaf_has_one_section_over_empty():
    # P(∅) is one section, grid[0], so the empty cover of ∅ separates and glues
    sp = sierpinski()
    presheaf = ConstantPresheaf(sp, (F(1), F(2)))
    assert presheaf.sections(sp.empty) == [F(1)]
    assert presheaf.restrict(F(2), sp.empty) == F(1)
    for cover in ([], [sp.empty], [sp.empty, sp.empty]):
        assert check_completeness(presheaf, sp.empty, cover).passed, cover


@pytest.mark.parametrize("kind", [FunctionPresheaf, ConstantPresheaf])
def test_an_empty_grid_is_rejected(kind):
    # with no value the constant presheaf could not write its section over ∅
    with pytest.raises(ValueError, match="at least one value"):
        kind(sierpinski(), [])


def test_function_sheaf_all_three_point_topologies():
    for sp in enumerate_topologies(["a", "b", "c"]):
        presheaf = FunctionPresheaf(sp, (F(0), F(1)))
        for U in sp.all_opens():
            for cover in antichain_covers(U):
                report = check_completeness(presheaf, U, cover)
                assert report.passed, (sp, U, cover)


def brute_force_families(presheaf, cover):
    """The equalizer of ∏ F(V_i) ⇉ ∏ F(V_i ∩ V_j): every choice of one
    carrier section per member, in product order, kept when each pair of
    members restricts to the same section over its overlap, an empty
    overlap included."""
    carriers = [presheaf.sections(V) for V in cover]
    overlaps = [(i, j, cover[i].intersection(cover[j]))
                for j in range(len(cover)) for i in range(j)]
    keys = {(m, o): [presheaf.restrict(s, o) for s in carriers[m]]
            for i, j, o in overlaps for m in (i, j)}
    return [tuple(c[k] for c, k in zip(carriers, choice))
            for choice in product(*(range(len(c)) for c in carriers))
            if all(keys[i, o][choice[i]] == keys[j, o][choice[j]] for i, j, o in overlaps)]


def covers_up_to_three(U):
    """Every ordered cover of U by at most three opens inside it."""
    inside = [V for V in U.space.all_opens() if V.is_subset(U)]
    return [list(cover) for r in range(4) for cover in permutations(inside, r)
            if is_open_cover(U, cover)]


@pytest.mark.parametrize("grid", [(F(0), F(1)), (F(0), F(1), F(-1, 2)), (F(0), F(1), F(0))],
                         ids=["grid2", "grid3", "repeated"])
@pytest.mark.parametrize("kind", [FunctionPresheaf, ConstantPresheaf])
def test_compatible_families_match_brute_force_in_order(kind, grid):
    # pins the enumeration order, hence the S2 witnesses sheaf-check prints;
    # the key path and the section oracle skip empty overlaps, which the
    # equalizer checks, and covers_up_to_three has covers with ∅ members
    for sp in enumerate_topologies(["a", "b", "c"]):
        presheaf = kind(sp, grid)
        for U in sp.all_opens():
            carrier = presheaf.sections(U)
            for cover in covers_up_to_three(U):
                families = list(_compatible_families(presheaf, cover))
                expected = brute_force_families(presheaf, cover)
                assert [f.sections for f in families] == expected, (sp, U, cover)
                assert [f.sections for f in compatible_families_sections(presheaf, cover)] \
                    == expected, (sp, U, cover)
                assert all(f.cover == tuple(cover) for f in families)
                glued = {tuple(presheaf.restrict(s, V) for V in cover) for s in carrier}
                unglued = [f for f in expected if f not in glued]
                witness = check_completeness(presheaf, U, cover).s2.witness
                assert (witness and witness.sections) == next(iter(unglued), None), \
                    (sp, U, cover)


def germ_sampled(sp, grid):
    """Samples over the whole space: each cyclic shift of the grid, the first
    one twice."""
    n = len(grid)
    shifts = [StructureSection(sp.whole, [grid[(i + p) % n] for p in range(len(sp.points))])
              for i in range(n)]
    return GermSampledPresheaf(sp, shifts + shifts[:1])


GRIDS = pytest.mark.parametrize("grid", [(F(0), F(1)), (F(0), F(1), F(-1, 2)), (F(0), F(1), F(0)),
                                         (F(1), F(2, 2), F(2))],
                                ids=["grid2", "grid3", "repeated", "equal-values"])
KINDS = pytest.mark.parametrize("make", [FunctionPresheaf, ConstantPresheaf, germ_sampled],
                                ids=["functions", "constant", "germs"])


@KINDS
def test_a_cover_that_contains_the_open_glues(make):
    # S2 holds on any cover with U as a member: the family's section over U
    # restricts to the others.  On the Sierpiński space, [∅, {a}] covers {a}
    # and glues, since the constant presheaf has one section over ∅.
    for sp in [sierpinski(), *enumerate_topologies(["a", "b", "c"])]:
        presheaf = make(sp, (F(1), F(2)))
        for U in sp.all_opens():
            for cover in covers_up_to_three(U):
                if U in cover:
                    assert check_completeness(presheaf, U, cover).s2.passed, (sp, U, cover)
    sp = sierpinski()
    report = check_completeness(make(sp, (F(1), F(2))), sp.open_set(["a"]),
                                [sp.empty, sp.open_set(["a"])])
    assert report.passed


@GRIDS
@KINDS
def test_key_path_matches_section_oracle(make, grid):
    # S1/S2 decided on carrier keys give the statuses and witnesses that the
    # same decision on section objects gives
    failed = 0
    for sp in enumerate_topologies(["a", "b", "c"]):
        presheaf = make(sp, grid)
        for U in sp.all_opens():
            for cover in covers_up_to_three(U):
                report = check_completeness(presheaf, U, cover)
                assert report == check_completeness_sections(presheaf, U, cover), (sp, U, cover)
                failed += not report.passed
    assert bool(failed) == (make is ConstantPresheaf)


def s1_partition(presheaf, U, members):
    """The carrier keys over U grouped by their restrictions to the members,
    in the order S1 meets the groups."""
    restrictors = [presheaf._restrictor(U, V) for V in members]
    groups = {}
    for k in presheaf._keys(U):
        groups.setdefault(tuple(r(k) for r in restrictors), []).append(k)
    return groups


def assert_count_matches_enumeration(presheaf, U, cover):
    """The walk lists each family once, the count is the number it lists,
    and every S1 bucket is one of them: carriers are closed under
    restriction.  The maximal members are inside no other member, the first
    of equal members, and hold every member; they have the same count and
    the same S1 partition, in the same order, as the whole cover."""
    plan = _overlap_plan(presheaf, cover)
    walk = list(_compatible_keys(plan))
    families = set(walk)
    assert len(walk) == len(families), (U, cover)
    assert _count_families(plan) == len(families), (U, cover)
    buckets = s1_partition(presheaf, U, cover)
    assert set(buckets) <= families, (U, cover)
    kept = _maximal_members(cover)
    maximal = [cover[i] for i in kept]
    assert [cover.index(V) for V in maximal] == kept == sorted(kept), (U, cover)
    assert not any(V.is_subset(W) for V, W in permutations(maximal, 2)), (U, cover)
    assert all(any(V.is_subset(W) for W in maximal) for V in cover), (U, cover)
    assert _count_families(_overlap_plan(presheaf, maximal)) == len(families), (U, cover)
    assert list(s1_partition(presheaf, U, maximal).values()) == list(buckets.values()), \
        (U, cover)


@GRIDS
@KINDS
def test_family_count_matches_enumeration_on_three_points(make, grid):
    for sp in enumerate_topologies(["a", "b", "c"]):
        presheaf = make(sp, grid)
        for U in sp.all_opens():
            for cover in covers_up_to_three(U):
                assert_count_matches_enumeration(presheaf, U, cover)
                assert_count_matches_enumeration(presheaf, U, cover + cover[:1])  # repeated


@pytest.mark.parametrize("make", [FunctionPresheaf, ConstantPresheaf],
                         ids=["functions", "constant"])
def test_family_count_matches_enumeration_on_four_points(make):
    # covered by every nonempty open inside it, a member meets many earlier
    # members but checks only the maximal overlaps among them; a grid that
    # repeats a value gives the carriers and families of its distinct values
    for grid in [(F(0), F(1)), (F(0), F(1), F(0))]:
        for sp in enumerate_topologies(["a", "b", "c", "d"]):
            presheaf = make(sp, grid)
            for U in sp.all_opens():
                assert_count_matches_enumeration(
                    presheaf, U, [V for V in sp.all_opens() if V.mask and V.is_subset(U)])


def test_repeated_grid_value_families_are_counted_once():
    # 0 twice on the 3-point chain: the grid keeps 0 once, so the walk and
    # the count both give the 2**3 families of the grid (0, 1)
    points = ["p0", "p1", "p2"]
    sp = validate_topology(points, [points[k:] for k in range(4)])
    presheaf = FunctionPresheaf(sp, (F(0), F(1), F(0)))
    assert presheaf.grid == (F(0), F(1))
    plan = _overlap_plan(presheaf, minimal_cover(sp.whole))
    families = list(_compatible_keys(plan))
    assert (len(families), len(set(families)), _count_families(plan)) == (8, 8, 8)
    assert len(sheafify_sections(presheaf, sp.whole)) == len(presheaf.sections(sp.whole)) == 8


class Walked(Exception):
    pass


def test_passing_s2_does_not_walk_the_families(monkeypatch):
    def walk(plan):
        raise Walked

    monkeypatch.setattr(presheaf_module, "_compatible_keys", walk)
    points = [f"p{i}" for i in range(6)]
    chain = validate_topology(points, [points[k:] for k in range(7)])
    functions = FunctionPresheaf(chain, (F(0), F(1), F(-1, 2), F(2)))
    assert check_completeness(functions, chain.whole, minimal_cover(chain.whole)).passed
    antichain = discrete([f"q{i}" for i in range(7)])
    opens = [V for V in antichain.all_opens() if V.mask]
    assert len(opens) == 127
    constant = ConstantPresheaf(antichain, GRID)
    assert check_completeness(constant, antichain.whole, opens).passed
    # a failing S2 walks to its witness
    with pytest.raises(Walked):
        check_completeness(constant, antichain.whole,
                           [antichain.open_set([p]) for p in antichain.points])


def test_key_path_builds_sections_only_for_witnesses(monkeypatch):
    points = ["p0", "p1", "p2", "p3"]
    sp = validate_topology(points, [points[k:] for k in range(5)])
    presheaf = FunctionPresheaf(sp, (F(0), F(1), F(1, 2)))
    built = []
    inner = StructureSection.from_stalks.__func__

    def counted(cls, *args):
        built.append(1)
        return inner(cls, *args)

    monkeypatch.setattr(StructureSection, "from_stalks", classmethod(counted))
    cover = minimal_cover(sp.whole)
    assert check_completeness(presheaf, sp.whole, cover).passed
    assert not built
    assert len(sheafify_sections(presheaf, sp.whole)) == 3 ** 4
    assert len(built) == 3 ** 4 * len(cover)


def test_chain_six_by_four_values_scales():
    # the opens of a 6-point chain are its up-sets, so the minimal cover is
    # six nested opens; 4**6 families, found by a join over the overlaps
    points = [f"p{i}" for i in range(6)]
    sp = validate_topology(points, [points[k:] for k in range(7)])
    presheaf = FunctionPresheaf(sp, (F(0), F(1), F(-1, 2), F(2)))
    start = time.perf_counter()
    assert check_completeness(presheaf, sp.whole, minimal_cover(sp.whole)).passed
    assert len(sheafify_sections(presheaf, sp.whole)) == 4 ** 6
    assert time.perf_counter() - start < 10


def test_cover_must_cover():
    sp = three_point_site()
    with pytest.raises(NotAnOpenCover):
        check_completeness(FunctionPresheaf(sp, GRID), sp.open_set(["a", "b"]),
                           [sp.open_set(["a"])])


def test_sheafify_bijection_for_complete_presheaf():
    sp = three_point_site()
    presheaf = FunctionPresheaf(sp, (F(0), F(1)))
    for U in sp.all_opens():
        families = sheafify_sections(presheaf, U)
        carrier = presheaf.sections(U)
        assert len(families) == len(carrier)
        # each family glues to exactly one carrier section
        for fam in families:
            matches = [s for s in carrier
                       if all(s.restrict(V) == part for V, part in zip(fam.cover, fam.sections))]
            assert len(matches) == 1


def test_sheafify_constant_presheaf_on_discrete_space():
    # minimal neighborhoods are singletons; compatibility is vacuous, so the
    # sheafification over the whole space is grid², not grid
    d2 = discrete(["a", "b"])
    presheaf = ConstantPresheaf(d2, (F(1), F(2)))
    families = sheafify_sections(presheaf, d2.whole)
    assert len(families) == 4
    assert len(sheafify_sections(presheaf, d2.empty)) == 1


def test_stalks():
    sp = sierpinski()
    presheaf = FunctionPresheaf(sp, (F(0), F(1)))
    # on a finite site the stalk at a point is the carrier over its minimal
    # open neighborhood, where the germ colimit is attained
    a, b = (minimal_open_neighborhood(sp, p) for p in "ab")
    assert len(presheaf.sections(a)) == 2  # functions {a} → grid
    assert len(presheaf.sections(b)) == 4  # minimal neighborhood {a,b}
    assert len(ConstantPresheaf(sp, GRID).sections(b)) == len(GRID)


def test_carrier_cap():
    d4 = discrete(["a", "b", "c", "d"])
    with pytest.raises(NonEnumerableSections, match=r"exceed CARRIER_CAP = 200000$"):
        FunctionPresheaf(d4, tuple(F(i) for i in range(30))).sections(d4.whole)


def test_glue_sections_roundtrip():
    sp = three_point_site()
    U = sp.open_set(["a", "b"])
    cover = [sp.open_set(["a"]), sp.open_set(["a", "b"])]
    s = StructureSection.from_mapping(U, {"a": F(1, 3), "b": 7})
    glued = glue_stalkwise(U, cover, [s.restrict(cover[0]), s.restrict(cover[1])])
    assert glued == s
    form = KForm(U, 3, 2, {(0, 1): s, (1, 2): StructureSection.from_mapping(U, {"a": 0, "b": 2})})
    assert glue_stalkwise(U, cover, [form.restrict(V) for V in cover]) == form


def test_glue_needs_one_part_per_member():
    sp = three_point_site()
    U = sp.open_set(["a", "b"])
    cover = [sp.open_set(["a"]), U]
    s = StructureSection.from_mapping(U, {"a": 1, "b": 2})
    with pytest.raises(DimensionMismatch):
        glue_stalkwise(U, cover, [s.restrict(cover[0])])
    with pytest.raises(DimensionMismatch):
        glue_stalkwise(U, cover, [s.restrict(cover[0]), s, s])
    # the empty family on the empty cover of ∅ has no member to take a shape from
    with pytest.raises(DimensionMismatch):
        glue_stalkwise(sierpinski().empty, [], [])


def test_glue_incompatible_family_witness():
    sp = validate_topology(["a", "b", "c"],
                           [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    U = sp.whole
    cover = [sp.open_set(["a", "b"]), sp.open_set(["b", "c"])]
    left = StructureSection.from_mapping(cover[0], {"a": 1, "b": 1})
    right = StructureSection.from_mapping(cover[1], {"b": 2, "c": 2})
    with pytest.raises(IncompatibleFamily) as err:
        glue_stalkwise(U, cover, [left, right])
    assert err.value.witness["overlap"] == ("b",)
    forms = [KForm(V, 2, 1, {(0,): s}) for V, s in zip(cover, (left, right))]
    with pytest.raises(IncompatibleFamily) as err:
        glue_stalkwise(U, cover, forms)
    assert err.value.witness["overlap"] == ("b",)
    assert err.value.witness["left"] == forms[0].restrict(cover[0].intersection(cover[1]))


def germ_brute_force(presheaf, U):
    """Every pointwise merge of the samples over U, kept when its germ on the
    minimal open neighborhood of each point of U is the germ of a sample."""
    space, first = presheaf.space, presheaf.samples[0]
    nbhds = [minimal_open_neighborhood(space, p) for p in U.labels]
    germs = {V.mask: {s.restrict(V) for s in presheaf.samples} for V in nbhds}
    kept = set()
    for pick in product(presheaf.samples, repeat=U.size):
        merged = first.from_stalks(U, *first.shape, [s.stalks[space.whole.position(p)]
                                                     for s, p in zip(pick, U.labels)])
        if all(merged.restrict(V) in germs[V.mask] for V in nbhds):
            kept.add(merged)
    return kept


@pytest.mark.parametrize("kind", [StructureSection, SectionVector])
def test_germ_carrier_is_the_merged_germs(kind):
    rng = random.Random(21)
    for points in (["a", "b"], ["a", "b", "c"]):
        for sp in enumerate_topologies(points):
            def sample():
                rows = [[rng.randint(0, 2) for _ in points] for _ in range(2)]
                if kind is StructureSection:
                    return StructureSection(sp.whole, rows[0])
                return SectionVector(sp.whole, [StructureSection(sp.whole, r) for r in rows])

            samples = [sample() for _ in range(3)]
            presheaf = GermSampledPresheaf(sp, samples + samples[:1])  # a repeated sample
            for U in sp.all_opens():
                carrier = presheaf.sections(U)
                assert len(carrier) == len(set(carrier)), (sp, U)
                assert set(carrier) == germ_brute_force(presheaf, U), (sp, U)


def test_germ_carrier_scales_on_a_star():
    # a is open and the minimal neighborhood of each leaf is {a, leaf}; six
    # samples distinct at a glue only to themselves, where merging point by
    # point would try 6**9 candidates
    leaves = [f"l{i}" for i in range(8)]
    sp = validate_topology(["a", *leaves], [[]] + [["a", *c] for r in range(9)
                                                   for c in combinations(leaves, r)])
    rng = random.Random(22)
    samples = [StructureSection(sp.whole, [k] + [rng.randint(-2, 2) for _ in leaves])
               for k in range(6)]
    start = time.perf_counter()
    carrier = GermSampledPresheaf(sp, samples).sections(sp.whole)
    assert time.perf_counter() - start < 2
    assert len(carrier) == 6 and set(carrier) == set(samples)


def test_germ_carrier_is_built_once_per_open(monkeypatch):
    """A repeated sections(U) glues nothing again and hands out a fresh list."""
    sp = three_point_site()
    presheaf = germ_sampled(sp, (F(0), F(1), F(-1, 2)))
    glued = []

    def counting(*args):
        glued.append(args)
        return glue_stalkwise(*args)

    monkeypatch.setattr(presheaf_module, "glue_stalkwise", counting)
    for U in sp.all_opens():
        first = presheaf.sections(U)
        calls = len(glued)
        first.clear()
        again = presheaf.sections(U)
        assert len(glued) == calls, U
        assert again and again is not presheaf.sections(U)
    assert glued  # some carrier was glued from several germs
    check_completeness(presheaf, sp.whole, minimal_cover(sp.whole))
    assert len(glued) == calls


def test_sample_grid_has_the_requested_number_of_distinct_values():
    """The filler steps past values already picked: (-5, 7) once repeated 2."""
    for seed in range(-20, 20):
        for size in range(1, 9):
            assert len(set(sample_grid(seed, size))) == size, (seed, size)
    assert sample_grid(-5, 7)[-1] == 3


@pytest.mark.parametrize("seed, size, grid", [
    (0, 6, ("0", "1", "-1/2", "2", "-3", "1/3")),
    (-5, 6, ("1", "-1/2", "2", "-3", "1/3", "0")),
    (4, 5, ("-3", "1/3", "0", "1", "-1/2")),
    (7, 4, ("1", "-1/2", "2", "-3")),
    (-13, 3, ("1/3", "0", "1")),
    (1, 2, ("1", "-1/2")),
])
def test_sample_grid_without_collisions_is_unchanged(seed, size, grid):
    assert sample_grid(seed, size) == tuple(map(F, grid))
