"""Symplectic core: form classification, the constructive Darboux basis,
degenerate normal forms, symplectomorphisms, the group sheaf."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sympsheaf import (
    GermSampledPresheaf,
    KForm,
    SectionMatrix,
    SectionVector,
    StructureSection,
    SymplecticMap,
    block_normal_form,
    check_completeness,
    check_form,
    darboux_basis,
    determinant,
    determinant_adjugate,
    discrete,
    form_power,
    gram_two_form,
    is_symplectic_map,
    minimal_cover,
    orientation_form,
    point_space,
    random_symplectic,
    rank_normal_form,
    sierpinski,
    skew_normal_form,
    standard_J,
    standard_two_form,
    symplectic_transvection,
    validate_topology,
)
from sympsheaf.errors import (
    Degenerate,
    DegenerateForm,
    NonConstantRank,
    NotSkewSymmetric,
    NotSymplectic,
)
from sympsheaf import jsonio, qlinalg

from oracles import (
    congruence,
    rand_section,
    rand_skew_mixed,
    rand_skew_nondegenerate,
    rand_skew_of_rank,
    rand_vector,
)

PT = point_space().whole


# -- check_form -----------------------------------------------------------------


def test_check_form_standard_J():
    for m in (1, 2, 3):
        report = check_form(standard_J(PT, m))
        assert report.skew and report.nondegenerate
        assert report.constant_rank == 2 * m


def test_check_form_degenerate_block():
    omega = SectionMatrix(PT, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    report = check_form(omega)
    assert report.skew and not report.nondegenerate
    assert report.constant_rank == 2


NOT_SKEW = (
    [[0, 1], [1, 0]],  # symmetric
    [[0, F(1, 2)], [F(-1, 3), 0]],  # opposite numerators, different denominators
    [[1, 0], [0, 0]],  # a nonzero diagonal entry
)


def test_check_form_rejects_symmetric():
    for rows in NOT_SKEW:
        assert not check_form(SectionMatrix(PT, rows)).skew


def test_check_form_mixed_rank_reported_per_point():
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 1, "b": 0})
    zero = StructureSection.zero(sp.whole)
    omega = SectionMatrix(sp.whole, [[zero, f], [-f, zero]])
    report = check_form(omega)
    assert report.ranks == {"a": 2, "b": 0}
    assert report.constant_rank is None and not report.nondegenerate


def test_pointwise_rank_always_even_for_skew():
    rng = random.Random(0)
    sp = sierpinski()
    for _ in range(10):
        omega = rand_skew_of_rank(rng, sp.whole, 5, rng.randint(0, 2))
        report = check_form(omega)
        assert all(r % 2 == 0 for r in report.ranks.values())


def test_rank_invariant_under_congruence():
    from oracles import rand_invertible_qq
    rng = random.Random(1)
    for _ in range(5):
        omega = rand_skew_of_rank(rng, PT, 5, 2)
        q = SectionMatrix(PT, rand_invertible_qq(rng, 5))
        moved = q.transpose() @ omega @ q
        assert check_form(moved).ranks == check_form(omega).ranks


# -- darboux_basis -----------------------------------------------------------------


def test_darboux_on_J_returns_gauge():
    assert standard_J(PT, 1) == SectionMatrix(PT, [[0, 1], [-1, 0]])
    for m in (1, 2, 3):
        J = standard_J(PT, m)
        basis = darboux_basis(J)
        assert basis.m == m
        assert basis.change_of_basis == SectionMatrix.identity(PT, 2 * m)
        assert basis.gram == J


def test_darboux_two_by_two_scaling():
    omega = SectionMatrix(PT, [[0, 2], [-2, 0]])
    basis = darboux_basis(omega)
    assert basis.s[0] == SectionVector.basis(PT, 2, 0)
    assert basis.t[0] == SectionVector.basis(PT, 2, 1).scale(F(1, 2))
    assert basis.gram == standard_J(PT, 1)


def test_darboux_random_4x4_certified_by_congruence_oracle():
    rng = random.Random(2)
    for _ in range(10):
        omega = rand_skew_nondegenerate(rng, PT, 4)
        basis = darboux_basis(omega)
        p = basis.change_of_basis.at_point("x")
        target = standard_J(PT, 2).at_point("x")
        assert congruence(p, omega.at_point("x")) == target


def test_darboux_gram_conditions_hold():
    rng = random.Random(3)
    omega = rand_skew_nondegenerate(rng, PT, 6)
    basis = darboux_basis(omega)
    m = basis.m
    for i in range(m):
        for j in range(m):
            assert basis.s[i].pairing(omega @ basis.s[j]).is_zero()
            assert basis.t[i].pairing(omega @ basis.t[j]).is_zero()
            expected = 1 if i == j else 0
            assert basis.s[i].pairing(omega @ basis.t[j]) == expected


def test_darboux_rejects_degenerate():
    omega = SectionMatrix(PT, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(Degenerate):
        darboux_basis(omega)


def test_darboux_rejects_non_skew():
    for rows in NOT_SKEW:
        with pytest.raises(NotSkewSymmetric):
            darboux_basis(SectionMatrix(PT, rows))


def test_darboux_section_valued_with_moving_zeros():
    # no single generator pair pairs to a unit, forcing the stalkwise path
    sp = discrete(["a", "b"])
    U = sp.whole
    f = StructureSection.from_mapping(U, {"a": 1, "b": 0})
    g = StructureSection.from_mapping(U, {"a": 0, "b": 1})
    zero = StructureSection.zero(U)
    omega = SectionMatrix(U, [
        [zero, f, g, zero],
        [-f, zero, zero, g],
        [-g, zero, zero, f],
        [zero, -g, -f, zero],
    ])
    report = check_form(omega)
    assert report.skew and report.nondegenerate
    basis = darboux_basis(omega)
    assert basis.gram == standard_J(U, 2)
    for p in U.labels:
        assert congruence(basis.change_of_basis.at_point(p), omega.at_point(p)) \
            == standard_J(U, 2).at_point(p)


def test_darboux_random_section_forms_on_sites():
    rng = random.Random(4)
    sp = sierpinski()
    three = discrete(["a", "b", "c"])
    forms = [rand_skew_nondegenerate(rng, sp.whole, 4) for _ in range(5)]
    # unit pivots on the dense block, none on the moving-zero block
    forms += [rand_skew_mixed(rng, sp.whole, 4, 4, 2),
              rand_skew_mixed(rng, three.whole, 2, 4, 2)]
    for omega in forms:
        U = omega.domain
        m = omega.rows // 2
        basis = darboux_basis(omega)
        assert basis.m == m
        assert basis.gram == standard_J(U, m)
        assert determinant(basis.change_of_basis).is_unit()
        for p in U.labels:
            assert congruence(basis.change_of_basis.at_point(p), omega.at_point(p)) \
                == standard_J(U, m).at_point(p)


def test_darboux_on_one_point_is_the_stalk_reduction():
    rng = random.Random(15)
    for n in (2, 4, 6):
        omega = rand_skew_nondegenerate(rng, PT, n)
        _, C = qlinalg.symplectic_reduce(omega.at_point("x"))
        assert darboux_basis(omega).change_of_basis.at_point("x") == C


def test_darboux_on_empty_open_set_takes_half_the_size():
    E = sierpinski().empty
    basis = darboux_basis(SectionMatrix.zeros(E, 4, 4))
    assert basis.m == 2 and len(basis.t) == 2
    assert basis.change_of_basis.rows == basis.change_of_basis.cols == 4


# -- skew_normal_form ------------------------------------------------------------------


def test_normal_form_zero_form():
    omega = SectionMatrix.zeros(PT, 3, 3)
    m, P = skew_normal_form(omega)
    assert m == 0 and P == SectionMatrix.identity(PT, 3)


def test_normal_form_already_normal():
    omega = block_normal_form(PT, 1, 3)
    m, P = skew_normal_form(omega)
    assert m == 1 and P == SectionMatrix.identity(PT, 3)


def test_normal_form_random_rank2_4x4():
    rng = random.Random(5)
    for _ in range(10):
        omega = rand_skew_of_rank(rng, PT, 4, 1)
        m, P = skew_normal_form(omega)
        assert m == 1
        assert congruence(P.at_point("x"), omega.at_point("x")) \
            == block_normal_form(PT, 1, 4).at_point("x")


def test_normal_form_non_constant_rank_witness():
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 1, "b": 0})
    zero = StructureSection.zero(sp.whole)
    omega = SectionMatrix(sp.whole, [[zero, f], [-f, zero]])
    with pytest.raises(NonConstantRank) as err:
        skew_normal_form(omega)
    assert err.value.points == ("b",)


def test_normal_form_section_valued_constant_rank():
    # rank 2 at every point, but realized by different pairs per point
    sp = discrete(["a", "b"])
    U = sp.whole
    f = StructureSection.from_mapping(U, {"a": 1, "b": 0})
    g = StructureSection.from_mapping(U, {"a": 0, "b": 1})
    zero = StructureSection.zero(U)
    omega = SectionMatrix(U, [[zero, f, g], [-f, zero, zero], [-g, zero, zero]])
    m, P = skew_normal_form(omega)
    assert m == 1
    for p in U.labels:
        assert congruence(P.at_point(p), omega.at_point(p)) \
            == block_normal_form(U, 1, 3).at_point(p)


def test_normal_form_random_section_forms_on_sites():
    rng = random.Random(16)
    sp = sierpinski()
    three = discrete(["a", "b", "c"])
    cases = [(rand_skew_of_rank(rng, sp.whole, 5, 2), 2),
             (rand_skew_of_rank(rng, three.whole, 4, 1), 1),
             # unit pivots on the dense block, none on the moving-zero block
             (rand_skew_mixed(rng, sp.whole, 2, 5, 2), 3),
             (rand_skew_mixed(rng, three.whole, 4, 4, 1), 3)]
    for omega, expected_m in cases:
        U, n = omega.domain, omega.rows
        m, P = skew_normal_form(omega)
        assert m == expected_m
        assert P.transpose() @ omega @ P == block_normal_form(U, m, n)
        assert determinant(P).is_unit()
        for p in U.labels:
            assert congruence(P.at_point(p), omega.at_point(p)) \
                == block_normal_form(U, m, n).at_point(p)


def test_normal_form_on_one_point_is_the_stalk_reduction():
    rng = random.Random(17)
    for n, rank_half in ((3, 1), (5, 2), (6, 1)):
        omega = rand_skew_of_rank(rng, PT, n, rank_half)
        m_x, C = qlinalg.symplectic_reduce(omega.at_point("x"))
        m, P = skew_normal_form(omega)
        assert m == m_x == rank_half and P.at_point("x") == C


def test_normal_form_on_empty_open_set_takes_half_the_size():
    E = sierpinski().empty
    for n in (0, 1, 4, 5):
        m, P = skew_normal_form(SectionMatrix.zeros(E, n, n))
        assert m == n // 2 and P.rows == P.cols == n


# -- rank and degeneracy from the reduction ----------------------------------------------


def test_reductions_decide_rank_without_rref(monkeypatch):
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 1, "b": 0})
    zero = StructureSection.zero(sp.whole)
    mixed = SectionMatrix(sp.whole, [[zero, f], [-f, zero]])
    omega = rand_skew_nondegenerate(random.Random(18), sp.whole, 4)
    E = sp.empty

    def no_rref(a):
        raise AssertionError("the reductions must not run an RREF")

    monkeypatch.setattr(qlinalg, "rref", no_rref)
    assert darboux_basis(standard_J(PT, 2)).gram == standard_J(PT, 2)
    assert darboux_basis(omega).m == skew_normal_form(omega)[0] == 2
    assert darboux_basis(SectionMatrix.zeros(E, 4, 4)).m == 2
    assert skew_normal_form(SectionMatrix.zeros(E, 5, 5))[0] == 2
    for degenerate, points in ((block_normal_form(PT, 1, 4), ("x",)), (mixed, ("b",))):
        with pytest.raises(Degenerate) as err:
            darboux_basis(degenerate)
        assert err.value.points == points
    with pytest.raises(NonConstantRank) as err:
        skew_normal_form(mixed)
    assert err.value.points == ("b",)


def _rand_skew_per_point_rank(rng, domain, n):
    """A skew form whose pointwise rank is drawn independently per point."""
    stalks = {p: rand_skew_of_rank(rng, PT, n, rng.randint(0, n // 2)).at_point("x")
              for p in domain.labels}
    return SectionMatrix.from_point_data(domain, n, n, stalks.__getitem__)


def test_reduction_verdicts_match_check_form():
    rng = random.Random(19)
    domains = [sierpinski().whole, discrete(["a", "b", "c"]).whole]
    for _ in range(40):
        for U in domains:
            n = rng.randint(0, 6)
            omega = _rand_skew_per_point_rank(rng, U, n)
            report = check_form(omega)
            ranks = report.ranks
            if report.nondegenerate:
                assert darboux_basis(omega).m == n // 2
            else:
                with pytest.raises(Degenerate) as err:
                    darboux_basis(omega)
                assert err.value.points == tuple(p for p, r in ranks.items() if r < n)
            if report.constant_rank is not None:
                assert 2 * skew_normal_form(omega)[0] == report.constant_rank
            else:
                with pytest.raises(NonConstantRank) as err:
                    skew_normal_form(omega)
                first = ranks[U.labels[0]]
                assert err.value.points == tuple(p for p, r in ranks.items() if r != first)


# -- rank_normal_form: the normal form of every skew form -------------------------------


def assert_rank_normal_form(omega):
    """At each point x, ᵗPΩP is the rank-2m(x) block form (rechecked by the
    congruence oracle), P is invertible, and 2m(x) is the rank of Ω there."""
    m, P = rank_normal_form(omega)
    U, n = omega.domain, omega.rows
    assert m.domain == U and P.shape == (n, n)
    assert determinant(P).is_unit()
    ranks = check_form(omega).ranks
    for p in U.labels:
        k = m.at(p)
        assert k.denominator == 1 and 2 * k == qlinalg.rank(omega.at_point(p)) == ranks[p]
        assert congruence(P.at_point(p), omega.at_point(p)) \
            == block_normal_form(PT, int(k), n).at_point("x")
    return m, P


POINTS = ["a", "b", "c", "d"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 4), n=st.integers(0, 8))
def test_rank_normal_form_certifies_forms_of_any_rank_per_point(seed, size, n):
    omega = _rand_skew_per_point_rank(random.Random(seed), discrete(POINTS[:size]).whole, n)
    assert_rank_normal_form(omega)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 4),
       dense=st.sampled_from([0, 2, 4]), moving=st.integers(3, 5), m_moving=st.integers(1, 2))
def test_rank_normal_form_certifies_forms_with_no_unit_pairing(seed, size, dense, moving,
                                                               m_moving):
    omega = rand_skew_mixed(random.Random(seed), discrete(POINTS[:size]).whole, dense,
                            moving, min(m_moving, moving // 2))
    m, _ = assert_rank_normal_form(omega)
    assert m == dense // 2 + min(m_moving, moving // 2)


def test_rank_normal_form_commutes_with_restriction():
    rng = random.Random(21)
    for sp in (sierpinski(), discrete(["a", "b", "c"])):
        for _ in range(5):
            omega = _rand_skew_per_point_rank(rng, sp.whole, rng.randint(0, 6))
            m, P = rank_normal_form(omega)
            for V in sp.all_opens():
                assert rank_normal_form(omega.restrict(V)) == (m.restrict(V), P.restrict(V))


def test_rank_normal_form_on_empty_open_set_is_the_empty_section():
    E = sierpinski().empty
    for n in (0, 1, 4, 5):
        m, P = rank_normal_form(SectionMatrix.zeros(E, n, n))
        assert m == StructureSection(E, []) and m.stalks == ()
        assert P.shape == (n, n) and P.stalks == ()


def test_rank_normal_form_of_non_constant_rank_has_idempotent_blocks():
    data = (Path(__file__).parent / "data" / "form_nonconstant_rank.json").read_bytes()
    U, inputs = jsonio.problem_from_json(data, "normal-form")
    omega = inputs["form"]
    m, P = rank_normal_form(omega)
    assert m.as_mapping() == {"a": 1, "b": 0}
    e = StructureSection.from_mapping(U, {"a": 1, "b": 0})
    zero = StructureSection.zero(U)
    assert P.transpose() @ omega @ P == SectionMatrix(U, [[zero, e], [-e, zero]])


@pytest.mark.parametrize("reduce", [rank_normal_form, darboux_basis, skew_normal_form],
                         ids=["rank_normal_form", "darboux_basis", "skew_normal_form"])
def test_a_wrong_stalk_reduction_fails_the_certificate(monkeypatch, reduce):
    omega = rand_skew_nondegenerate(random.Random(22), sierpinski().whole, 4)
    assert_rank_normal_form(omega)
    original, calls = qlinalg.symplectic_reduce, []

    def wrong_at_b(gram):  # the second point, b: the first column doubled
        m, C = original(gram)
        calls.append(m)
        if len(calls) % 2 == 0:
            C = [[2 * row[0], *row[1:]] for row in C]
        return m, C

    monkeypatch.setattr(qlinalg, "symplectic_reduce", wrong_at_b)
    with pytest.raises(AssertionError, match="certificate"):
        reduce(omega)
    assert len(calls) == 2


def test_rand_skew_mixed_rejects_impossible_patterns_at_once():
    rng = random.Random(20)
    U = discrete(["a", "b"]).whole
    for dense, moving, m_moving in ((0, 2, 1), (2, 2, 1), (0, 3, 2)):
        with pytest.raises(ValueError):
            rand_skew_mixed(rng, U, dense, moving, m_moving)


# -- the standard decomposition ---------------------------------------------------------


def test_standard_sum_decomposition_reproduces_gram():
    # ω = Σᵢ sᵢ*∧tᵢ* over a Darboux basis: the 2-form of Ω evaluates to the
    # pairing uᵀΩv, and to the standard J on the basis vectors
    rng = random.Random(6)
    omega = rand_skew_nondegenerate(rng, PT, 4)
    form = gram_two_form(omega)
    for _ in range(20):
        u, v = rand_vector(rng, PT, 4), rand_vector(rng, PT, 4)
        assert form.evaluate([u, v]) == u.pairing(omega @ v)
    columns = darboux_basis(omega).change_of_basis.columns()
    assert SectionMatrix(PT, [[form.evaluate([u, v]) for v in columns] for u in columns]) \
        == standard_J(PT, 2)


# -- symplectomorphisms -----------------------------------------------------------------


def test_is_symplectic_identity():
    J = standard_J(PT, 2)
    assert is_symplectic_map(SectionMatrix.identity(PT, 4), J)


def test_is_symplectic_shear():
    J = standard_J(PT, 1)
    M = SectionMatrix(PT, [[1, 1], [0, 1]])
    # hand expansion: ᵗM J M = [[0,1],[-1,0]]
    assert is_symplectic_map(M, J)
    det, _ = determinant_adjugate(M)
    assert det == 1


def test_scaling_is_not_symplectic():
    J = standard_J(PT, 1)
    assert not is_symplectic_map(SectionMatrix.identity(PT, 2).scale(2), J)


def test_symplectic_map_type_enforces_invariant():
    with pytest.raises(NotSymplectic):
        SymplecticMap(SectionMatrix.identity(PT, 2).scale(2), standard_J(PT, 1))


def test_compose_with_inverse_is_identity():
    rng = random.Random(7)
    J = standard_J(PT, 2)
    f = SymplecticMap(random_symplectic(PT, 2, rng), J)
    assert f.compose(f.invert()).matrix == SectionMatrix.identity(PT, 4)


def test_invert_shear():
    f = SymplecticMap(SectionMatrix(PT, [[1, 1], [0, 1]]), standard_J(PT, 1))
    inv = f.invert()
    assert inv.matrix == SectionMatrix(PT, [[1, -1], [0, 1]])
    assert is_symplectic_map(inv.matrix, standard_J(PT, 1))


def test_transvections_are_symplectic_for_any_parameters():
    rng = random.Random(8)
    J = standard_J(PT, 2)
    for _ in range(10):
        v = rand_vector(rng, PT, 4)
        c = rand_section(rng, PT)
        M = symplectic_transvection(PT, 2, v, c)
        assert is_symplectic_map(M, J)
        det, _ = determinant_adjugate(M)
        assert det == 1


def test_transvections_section_valued_over_site():
    rng = random.Random(9)
    sp = sierpinski()
    J = standard_J(sp.whole, 1)
    for _ in range(5):
        M = random_symplectic(sp.whole, 1, rng, section_valued=True)
        assert is_symplectic_map(M, J)


def test_random_symplectic_products_closed():
    rng = random.Random(10)
    J = standard_J(PT, 2)
    f = SymplecticMap(random_symplectic(PT, 2, rng), J)
    g = SymplecticMap(random_symplectic(PT, 2, rng), J)
    h = f.compose(g)
    assert is_symplectic_map(h.matrix, J)
    assert h.determinant() == 1


def test_symplectic_maps_are_injective():
    # det is a unit, so the pointwise kernel is trivial
    rng = random.Random(11)
    sp = sierpinski()
    M = random_symplectic(sp.whole, 2, rng, section_valued=True)
    det, _ = determinant_adjugate(M)
    assert det.is_unit()
    for p in sp.whole.labels:
        assert not qlinalg.kernel_basis(M.at_point(p))


# -- volume / orientation corollaries -------------------------------------------------------


def test_orientation_form_m1():
    assert orientation_form(standard_two_form(PT, 1), 1) == KForm.basis_blade(PT, 2, [0, 1])


def test_orientation_form_m2_cancellation():
    assert orientation_form(standard_two_form(PT, 2), 2) \
        == KForm.basis_blade(PT, 4, range(4))


def test_orientation_form_degenerate():
    w = KForm(PT, 4, 2, {(0, 1): 1})
    with pytest.raises(DegenerateForm):
        orientation_form(w, 2)


def test_nondegenerate_iff_top_power_unit():
    rng = random.Random(12)
    sp = sierpinski()
    for _ in range(6):
        m = rng.randint(1, 2)
        n = 2 * m + (0 if rng.random() < 0.5 else 2)
        if n > 4:
            n = 4
        omega = rand_skew_of_rank(rng, sp.whole, n, m) if 2 * m < n \
            else rand_skew_nondegenerate(rng, sp.whole, n)
        report = check_form(omega)
        top = form_power(gram_two_form(omega), n // 2)
        coeff = top.coefficient(tuple(range(n)))
        assert report.nondegenerate == coeff.is_unit()


# -- Sp presheaf completeness -----------------------------------------------------------------


def test_sp_presheaf_completeness_on_small_sites():
    rng = random.Random(13)
    for sp in [sierpinski(), discrete(["a", "b"]),
               validate_topology(["a", "b", "c"],
                                 [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]),
               validate_topology(["a", "b", "c", "d"],
                                 [[], ["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"],
                                  ["a", "b", "c", "d"]])]:
        samples = [random_symplectic(sp.whole, 1, rng, section_valued=True)
                   for _ in range(3)]
        presheaf = GermSampledPresheaf(sp, samples)
        J = {U.mask: standard_J(U, 1) for U in sp.all_opens()}
        for U in sp.all_opens():
            for M in presheaf.sections(U):
                assert is_symplectic_map(M, J[U.mask])
            report = check_completeness(presheaf, U, minimal_cover(U))
            assert report.passed, (sp, U)


def test_sp_presheaf_glue_stays_symplectic():
    # compatible families of symplectic maps glue to symplectic maps
    from sympsheaf import glue_stalkwise
    rng = random.Random(14)
    sp = validate_topology(["a", "b", "c"],
                           [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    U = sp.whole
    cover = [sp.open_set(["a", "b"]), sp.open_set(["b", "c"])]
    M1 = random_symplectic(U, 1, rng, section_valued=True)
    M2 = random_symplectic(U, 1, rng, section_valued=True)
    # mix M1 on {a}, M2 on {b, c}: restrictions to the cover stay compatible
    mix = SectionMatrix.from_point_data(
        U, 2, 2, lambda p: (M1 if p == "a" else M2).at_point(p))
    family = [mix.restrict(V) for V in cover]
    glued = glue_stalkwise(U, cover, family)
    assert glued == mix
    assert is_symplectic_map(glued, standard_J(U, 1))
