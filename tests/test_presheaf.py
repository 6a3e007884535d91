"""Presheaf axioms S1/S2, sheafification, stalks, gluing."""

from fractions import Fraction as F

import pytest

from sympsheaf import (
    ConstantPresheaf,
    FunctionPresheaf,
    KForm,
    StructureSection,
    check_completeness,
    discrete,
    enumerate_topologies,
    glue_sections,
    glue_stalkwise,
    sheafify_sections,
    sierpinski,
    stalk_at,
    validate_topology,
)
from sympsheaf.errors import IncompatibleFamily, NonEnumerableSections, NotAnOpenCover


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


def test_constant_presheaf_not_separated_at_empty():
    # two constants agree vacuously over the empty cover of ∅ yet differ
    sp = sierpinski()
    report = check_completeness(ConstantPresheaf(sp, (F(1), F(2))), sp.empty, [])
    assert not report.s1.passed


def test_function_sheaf_all_three_point_topologies():
    for sp in enumerate_topologies(["a", "b", "c"]):
        presheaf = FunctionPresheaf(sp, (F(0), F(1)))
        for U in sp.all_opens():
            for cover in antichain_covers(U):
                report = check_completeness(presheaf, U, cover)
                assert report.passed, (sp, U, cover)


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
                       if all(presheaf.key(s.restrict(V)) == presheaf.key(part)
                              for V, part in zip(fam.cover, fam.sections))]
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
    assert len(stalk_at(presheaf, "a")) == 2  # functions {a} → grid
    assert len(stalk_at(presheaf, "b")) == 4  # minimal neighborhood {a,b}
    assert len(stalk_at(ConstantPresheaf(sp, GRID), "b")) == len(GRID)


def test_carrier_cap():
    d4 = discrete(["a", "b", "c", "d"])
    with pytest.raises(NonEnumerableSections):
        FunctionPresheaf(d4, tuple(F(i) for i in range(30))).sections(d4.whole)


def test_glue_sections_roundtrip():
    sp = three_point_site()
    U = sp.open_set(["a", "b"])
    cover = [sp.open_set(["a"]), sp.open_set(["a", "b"])]
    s = StructureSection.from_mapping(U, {"a": F(1, 3), "b": 7})
    glued = glue_sections(U, cover, [s.restrict(cover[0]), s.restrict(cover[1])])
    assert glued == s
    form = KForm(U, 3, 2, {(0, 1): s, (1, 2): StructureSection.from_mapping(U, {"a": 0, "b": 2})})
    assert glue_stalkwise(U, cover, [form.restrict(V) for V in cover]) == form


def test_glue_incompatible_family_witness():
    sp = validate_topology(["a", "b", "c"],
                           [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    U = sp.whole
    cover = [sp.open_set(["a", "b"]), sp.open_set(["b", "c"])]
    left = StructureSection.from_mapping(cover[0], {"a": 1, "b": 1})
    right = StructureSection.from_mapping(cover[1], {"b": 2, "c": 2})
    with pytest.raises(IncompatibleFamily) as err:
        glue_sections(U, cover, [left, right])
    assert err.value.witness["overlap"] == ("b",)
    forms = [KForm(V, 2, 1, {(0,): s}) for V, s in zip(cover, (left, right))]
    with pytest.raises(IncompatibleFamily) as err:
        glue_stalkwise(U, cover, forms)
    assert err.value.witness["overlap"] == ("b",)
    assert err.value.witness["left"] == forms[0].restrict(cover[0].intersection(cover[1]))
