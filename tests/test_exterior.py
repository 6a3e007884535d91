"""Exterior algebra: alternation, tensor products, wedge laws, evaluation,
volume elements, powers of 2-forms."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial

import pytest

from sympsheaf import (
    CovariantTensor,
    GradedForm,
    KForm,
    SectionMatrix,
    SectionVector,
    StructureSection,
    alternation,
    determinant_adjugate,
    discrete,
    form_power,
    point_space,
    sierpinski,
    standard_two_form,
    tensor_product,
    volume_element,
    wedge,
)
from sympsheaf.errors import (
    ArityMismatch,
    DegenerateMetric,
    DegreeOverflow,
    DegreeTooLarge,
    NonUnitDeterminant,
    NotExact,
)

from oracles import rand_frac, rand_section, rand_vector, wedge_eval_oracle

PT = point_space().whole
# multi-point sites, where a coefficient can vanish at some points only
SITES = [PT, sierpinski().whole, discrete(["a", "b", "c"]).whole]


def rand_tensor(rng, domain, rank, order, fill=3):
    coeffs = {}
    for _ in range(fill):
        idx = tuple(rng.randrange(rank) for _ in range(order))
        coeffs[idx] = rand_frac(rng)
    return CovariantTensor(domain, rank, order, coeffs)


def rand_form(rng, domain, rank, degree, holes=False):
    """Random coefficients; with holes, each vanishes at about a third of the points."""
    def coefficient():
        s = rand_section(rng, domain)
        if not holes:
            return s
        return StructureSection(domain, [v if rng.random() < 2 / 3 else 0 for v in s.stalks])
    coeffs = {idx: coefficient() for idx in combinations(range(rank), degree)}
    return KForm(domain, rank, degree, coeffs)


# -- alternation ------------------------------------------------------------------


def test_alternation_kills_symmetric_tensor():
    t = tensor_product(CovariantTensor.basis_dual(PT, 2, 0),
                       CovariantTensor.basis_dual(PT, 2, 0))
    assert alternation(t).is_zero()


def test_alternation_two_permutation_sum():
    t = tensor_product(CovariantTensor.basis_dual(PT, 2, 0),
                       CovariantTensor.basis_dual(PT, 2, 1))
    out = alternation(t)
    expected = CovariantTensor(PT, 2, 2, {(0, 1): F(1, 2), (1, 0): F(-1, 2)})
    assert out == expected


def test_alternation_fixes_antisymmetric():
    t = CovariantTensor(PT, 3, 2, {(0, 1): 2, (1, 0): -2, (0, 2): F(1, 3), (2, 0): F(-1, 3)})
    assert alternation(t) == t


def test_alternation_idempotent_random():
    rng = random.Random(0)
    for _ in range(10):
        t = rand_tensor(rng, PT, 3, 3)
        once = alternation(t)
        assert alternation(once) == once


def test_alternation_output_antisymmetric_in_arguments():
    rng = random.Random(1)
    t = alternation(rand_tensor(rng, PT, 3, 2, fill=5))
    u, v = rand_vector(rng, PT, 3), rand_vector(rng, PT, 3)
    assert t.evaluate([u, v]) == -t.evaluate([v, u])
    assert t.evaluate([u, u]).is_zero()


def test_alternation_factorial_guard():
    with pytest.raises(DegreeTooLarge, match=r"exceeds ALTERNATION_ORDER_CAP = 8$"):
        alternation(CovariantTensor(PT, 2, 9, {(0,) * 9: 1}))


# -- tensor product ------------------------------------------------------------------


def test_tensor_product_dual_pairing():
    e1s = CovariantTensor.basis_dual(PT, 2, 0)
    e2s = CovariantTensor.basis_dual(PT, 2, 1)
    prod = tensor_product(e1s, e2s)
    basis = [SectionVector.basis(PT, 2, i) for i in range(2)]
    assert prod.evaluate([basis[0], basis[1]]) == 1
    assert prod.evaluate([basis[1], basis[0]]).is_zero()


def test_tensor_product_with_scalar():
    rng = random.Random(2)
    t = rand_tensor(rng, PT, 3, 2)
    s = rand_section(rng, PT)
    scalar = CovariantTensor(PT, 3, 0, {(): s})
    assert tensor_product(t, scalar) == t.scale(s)


def test_tensor_product_rule_random():
    rng = random.Random(3)
    for _ in range(20):
        t1 = rand_tensor(rng, PT, 3, 1)
        t2 = rand_tensor(rng, PT, 3, 1)
        u, v = rand_vector(rng, PT, 3), rand_vector(rng, PT, 3)
        assert tensor_product(t1, t2).evaluate([u, v]) == t1.evaluate([u]) * t2.evaluate([v])


# -- wedge ---------------------------------------------------------------------------


def test_wedge_one_forms_basis_values():
    e1s = KForm.basis_blade(PT, 2, [0])
    e2s = KForm.basis_blade(PT, 2, [1])
    w = wedge(e1s, e2s)
    basis = [SectionVector.basis(PT, 2, i) for i in range(2)]
    assert w.evaluate([basis[0], basis[1]]) == 1
    assert w.evaluate([basis[1], basis[0]]) == -1
    # against the defining 1/(k!l!) permutation sum
    assert w.evaluate([basis[0], basis[1]]) == wedge_eval_oracle(e1s, e2s, basis)


def test_wedge_matches_permutation_oracle_random():
    rng = random.Random(4)
    for U in SITES:
        for _ in range(10):
            k, l = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            xi, eta = rand_form(rng, U, 4, k, holes=True), rand_form(rng, U, 4, l, holes=True)
            args = [rand_vector(rng, U, 4) for _ in range(k + l)]
            assert wedge(xi, eta).evaluate(args) == wedge_eval_oracle(xi, eta, args)


def test_wedge_odd_degree_squares_to_zero():
    rng = random.Random(5)
    xi = rand_form(rng, PT, 4, 1)
    assert wedge(xi, xi).is_zero()
    eta = rand_form(rng, PT, 5, 3)
    assert wedge(eta, eta).is_zero()


def test_wedge_associativity_s3_example():
    blades = [KForm.basis_blade(PT, 3, [i]) for i in range(3)]
    left = wedge(wedge(blades[0], blades[1]), blades[2])
    right = wedge(blades[0], wedge(blades[1], blades[2]))
    assert left == right
    args = [SectionVector.basis(PT, 3, i) for i in range(3)]
    # full S₃ expansion of the triple wedge evaluation
    total = wedge_eval_oracle(wedge(blades[0], blades[1]), blades[2], args)
    assert left.evaluate(args) == total == 1


def test_wedge_graded_commutativity_random():
    rng = random.Random(6)
    n = 6
    for k in range(0, 4):
        for l in range(0, n - k + 1):
            if k + l > n:
                continue
            xi, eta = rand_form(rng, PT, n, k), rand_form(rng, PT, n, l)
            sign = (-1) ** (k * l)
            rhs = wedge(eta, xi)
            assert wedge(xi, eta) == (rhs if sign == 1 else -rhs)


def test_wedge_associativity_random():
    rng = random.Random(7)
    for U in SITES:
        for _ in range(10):
            n = 6
            a, b, c = (rand_form(rng, U, n, rng.randint(0, 2), holes=True) for _ in range(3))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_restrict_commutes_with_wedge():
    rng = random.Random(13)
    sp = discrete(["a", "b", "c"])
    for _ in range(10):
        xi = rand_form(rng, sp.whole, 5, rng.randint(0, 3), holes=True)
        eta = rand_form(rng, sp.whole, 5, rng.randint(0, 2), holes=True)
        for V in sp.all_opens():
            assert wedge(xi, eta).restrict(V) == wedge(xi.restrict(V), eta.restrict(V))


def test_wedge_and_alternation_build_no_sections(monkeypatch):
    from sympsheaf import sections

    rng = random.Random(14)
    U = discrete(["a", "b", "c"]).whole
    xi, eta = rand_form(rng, U, 5, 2, holes=True), rand_form(rng, U, 5, 2, holes=True)
    t = tensor_product(rand_tensor(rng, U, 3, 2), rand_tensor(rng, U, 3, 1))
    calls = []
    inner = sections.StructureSection.__init__

    def counted(self, *args):
        calls.append(1)
        inner(self, *args)

    monkeypatch.setattr(sections.StructureSection, "__init__", counted)
    assert not wedge(xi, eta).is_zero()
    assert not alternation(t).is_zero()
    assert not calls


def test_wedge_degree_zero_is_scalar_multiplication():
    rng = random.Random(8)
    xi = rand_form(rng, PT, 4, 2)
    s = rand_section(rng, PT)
    alpha = KForm.scalar(PT, 4, s)
    assert wedge(alpha, xi) == xi.scale(s) == wedge(xi, alpha)


def test_wedge_overflow_flagged_as_zero_form():
    xi = KForm.basis_blade(PT, 2, [0, 1])
    out = wedge(xi, xi)
    assert out.is_zero() and out.degree == 4 and out.degree > out.rank


def test_wedge_bilinear():
    rng = random.Random(9)
    xi, xi2 = rand_form(rng, PT, 4, 2), rand_form(rng, PT, 4, 2)
    eta = rand_form(rng, PT, 4, 1)
    assert wedge(xi + xi2, eta) == wedge(xi, eta) + wedge(xi2, eta)


# -- storage -----------------------------------------------------------------------------


def test_grid_and_stalk_constructors_agree():
    U = sierpinski().whole
    f = StructureSection.from_mapping(U, {"a": 2, "b": 0})
    grid = KForm(U, 3, 2, {(0, 1): f, (0, 2): F(1, 2), (1, 2): 0})
    stalks = KForm.from_stalks(U, 3, 2, [{(0, 2): F(1, 2), (0, 1): F(2)},
                                         {(0, 2): F(1, 2), (1, 2): F(0)}])
    assert grid == stalks and hash(grid) == hash(stalks)
    assert grid.stalks == (((((0, 1), 2), ((0, 2), F(1, 2)))), (((0, 2), F(1, 2)),))
    # the coefficients nonzero somewhere, built as sections on read
    assert grid.coeffs == {(0, 1): f, (0, 2): StructureSection.constant(U, F(1, 2))}
    assert grid.coefficient([1, 2]) == StructureSection.zero(U)
    t = CovariantTensor(U, 2, 2, {(1, 0): f, (0, 0): 0})
    t2 = CovariantTensor.from_stalks(U, 2, 2, [{(1, 0): F(2)}, {}])
    assert t == t2 and hash(t) == hash(t2) and len({t, t2, t.scale(1)}) == 1
    assert t != KForm.from_stalks(U, 2, 2, [{(0, 1): F(2)}, {}])
    with pytest.raises(TypeError):
        t + KForm.from_stalks(U, 2, 2, [{(0, 1): F(2)}, {}])


def test_forms_on_the_empty_open_set():
    E = sierpinski().empty
    xi = KForm(E, 3, 1, {(0,): 2})  # the empty function: no coefficient survives
    assert xi.is_zero() and xi.stalks == () and xi.coeffs == {}
    assert xi == KForm.zero(E, 3, 1) == KForm.from_stalks(E, 3, 1, [])
    w = wedge(xi, KForm.basis_blade(E, 3, [1, 2]))
    assert w == KForm.zero(E, 3, 3) and w.degree == 3
    assert (xi + xi - xi.scale(5)).is_zero()
    assert xi.evaluate([SectionVector.basis(E, 3, 0)]) == StructureSection.zero(E)
    t = tensor_product(CovariantTensor.basis_dual(E, 2, 0), CovariantTensor.basis_dual(E, 2, 1))
    assert alternation(t).is_zero() and t.order == 2
    assert t.evaluate([SectionVector.basis(E, 2, 0)] * 2) == StructureSection.zero(E)


# -- evaluation -------------------------------------------------------------------------


def test_evaluate_top_form_at_gauge():
    n = 4
    top = KForm.basis_blade(PT, n, range(n))
    gauge = [SectionVector.basis(PT, n, i) for i in range(n)]
    assert top.evaluate(gauge) == 1


def test_evaluate_repeated_argument_is_zero():
    rng = random.Random(10)
    form = rand_form(rng, PT, 4, 3)
    u, v = rand_vector(rng, PT, 4), rand_vector(rng, PT, 4)
    assert form.evaluate([u, v, u]).is_zero()


def test_evaluate_against_determinant_of_pairings():
    # wedge of one-forms = det[αᵢ(sⱼ)], det computed by the matrix route
    rng = random.Random(11)
    sp = sierpinski()
    U = sp.whole
    for _ in range(10):
        alphas = [rand_form(rng, U, 4, 1) for _ in range(3)]
        args = [rand_vector(rng, U, 4) for _ in range(3)]
        w = wedge(wedge(alphas[0], alphas[1]), alphas[2])
        pairing = SectionMatrix(U, [[a.evaluate([s]) for s in args] for a in alphas])
        det, _ = determinant_adjugate(pairing)
        assert w.evaluate(args) == det


def test_evaluate_arity_mismatch():
    form = KForm.basis_blade(PT, 3, [0, 1])
    with pytest.raises(ArityMismatch):
        form.evaluate([SectionVector.basis(PT, 3, 0)])


# -- volume elements -------------------------------------------------------------------


def test_volume_identity_metric_kronecker_gauge():
    n = 3
    metric = SectionMatrix.identity(PT, n)
    gauge = [SectionVector.basis(PT, n, i) for i in range(n)]
    assert volume_element(metric, gauge) == KForm.basis_blade(PT, n, range(n))


def test_volume_diagonal_metric():
    metric = SectionMatrix(PT, [[4, 0], [0, 9]])
    gauge = [SectionVector.basis(PT, 2, i) for i in range(2)]
    assert volume_element(metric, gauge) == KForm.basis_blade(PT, 2, [0, 1]).scale(6)


def test_volume_not_exact():
    metric = SectionMatrix(PT, [[2, 0], [0, 1]])
    gauge = [SectionVector.basis(PT, 2, i) for i in range(2)]
    with pytest.raises(NotExact):
        volume_element(metric, gauge)


def test_volume_degenerate_metric():
    metric = SectionMatrix(PT, [[1, 0], [0, 0]])
    gauge = [SectionVector.basis(PT, 2, i) for i in range(2)]
    with pytest.raises(DegenerateMetric):
        volume_element(metric, gauge)


def test_volume_needs_a_basis():
    metric = SectionMatrix.identity(PT, 2)
    v = SectionVector.basis(PT, 2, 0)
    with pytest.raises(NonUnitDeterminant):
        volume_element(metric, [v, v.scale(2)])


def test_volume_respects_basis_change():
    # with basis columns S: Ω = √|det(ᵗS·g·S)| · (1/det S)·ε-top
    metric = SectionMatrix.identity(PT, 2)
    basis = [SectionVector(PT, [1, 1]), SectionVector(PT, [0, 2])]
    out = volume_element(metric, basis)
    # Gram det = (det S)² = 4, scale 2, dual top form = (1/2)·ε-top
    assert out == KForm.basis_blade(PT, 2, [0, 1])


# -- powers of 2-forms -------------------------------------------------------------------


def test_form_power_single_factor():
    w = standard_two_form(PT, 1)
    assert form_power(w, 1) == w == KForm.basis_blade(PT, 2, [0, 1])


def test_form_power_rank4_constant():
    w = standard_two_form(PT, 2)
    assert w == KForm(PT, 4, 2, {(0, 2): 1, (1, 3): 1})
    assert form_power(w, 2) == KForm.basis_blade(PT, 4, range(4)).scale(-2)


def test_form_power_factorial_constant_up_to_m4():
    for m in (1, 2, 3, 4):
        w = standard_two_form(PT, m)
        top = KForm.basis_blade(PT, 2 * m, range(2 * m))
        expected = top.scale(factorial(m) * (-1) ** (m // 2))
        assert form_power(w, m) == expected


def test_form_power_degenerate_is_zero():
    w = KForm(PT, 4, 2, {(0, 1): 1})  # decomposable, rank 2
    assert form_power(w, 2).is_zero()


def test_form_power_overflow():
    w = standard_two_form(PT, 1)
    with pytest.raises(DegreeOverflow):
        form_power(w, 2)


# -- graded forms ---------------------------------------------------------------------


def test_graded_form_dimension():
    n = 4
    rng = random.Random(12)
    full = GradedForm.from_forms(PT, n, [rand_form(rng, PT, n, k) for k in range(n + 1)])
    slots = sum(comb(n, f.degree) for f in full.components)
    assert slots == 2 ** n


def test_graded_form_wedge_collects_degrees():
    a = GradedForm.from_forms(PT, 3, [KForm.scalar(PT, 3, 2), KForm.basis_blade(PT, 3, [0])])
    b = GradedForm.from_forms(PT, 3, [KForm.basis_blade(PT, 3, [1])])
    out = a.wedge(b)
    assert out.component(1) == KForm.basis_blade(PT, 3, [1]).scale(2)
    assert out.component(2) == KForm.basis_blade(PT, 3, [0, 1])
