"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality.

Each test prints a PASS/FAIL line with its elapsed time and asserts the
stated runtime budget.  Every expected value is either computed by an
independent oracle (cofactor determinants, plain-ℚ congruence, permutation
sums) or pinned from the underlying constants (m!·(−1)^⌊m/2⌋, block forms).
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import factorial

from sympsheaf import (
    ConstantPresheaf,
    CovariantTensor,
    FunctionPresheaf,
    KForm,
    SectionMatrix,
    StructureSection,
    SymplecticMap,
    alternation,
    block_normal_form,
    check_completeness,
    char_poly,
    determinant_adjugate,
    discrete,
    eigen_presheaf_glue,
    eigen_sections,
    enumerate_topologies,
    form_power,
    glue_stalkwise,
    is_symplectic_map,
    orientation_form,
    point_space,
    poly_apply,
    random_symplectic,
    reciprocal_spectrum_check,
    sample_grid,
    sierpinski,
    skew_normal_form,
    standard_J,
    standard_two_form,
    darboux_basis,
    try_inverse_matrix,
    validate_topology,
    wedge,
)

from oracles import (
    cofactor_det,
    congruence,
    rand_frac,
    rand_matrix,
    rand_skew_nondegenerate,
    rand_skew_of_rank,
    rand_vector,
)
from test_cli import CASES as CLI_CASES, GOLDEN, run_cli
from test_presheaf import antichain_covers

PT = point_space().whole


def report_line(number, name, started, budget):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


SITES = [
    point_space(),
    sierpinski(),
    discrete(["a", "b"]),
    validate_topology(["a", "b", "c"],
                      [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]),
    validate_topology(["a", "b", "c", "d"],
                      [[], ["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"],
                       ["a", "b", "c", "d"]]),
]


def test_criterion_1_darboux_theorem():
    started = time.time()
    for seed in range(50):
        rng = random.Random(seed)
        n = (2, 4, 6, 8)[seed % 4]
        omega = rand_skew_nondegenerate(rng, PT, n)
        basis = darboux_basis(omega)
        assert basis.m == n // 2
        target = standard_J(PT, n // 2)
        assert basis.gram == target
        assert congruence(basis.change_of_basis.at_point("x"), omega.at_point("x")) \
            == target.at_point("x")
    report_line(1, "darboux-theorem", started, 5)


def test_criterion_2_degenerate_normal_form():
    started = time.time()
    shapes = [(n, m) for n in range(2, 9) for m in range(0, n // 2 + 1) if 2 * m < n]
    for seed in range(50):
        rng = random.Random(1000 + seed)
        n, m = shapes[seed % len(shapes)]
        omega = rand_skew_of_rank(rng, PT, n, m)
        got_m, P = skew_normal_form(omega)
        assert got_m == m
        assert congruence(P.at_point("x"), omega.at_point("x")) \
            == block_normal_form(PT, m, n).at_point("x")
    report_line(2, "degenerate-normal-form", started, 5)


def test_criterion_3_cayley_hamilton():
    started = time.time()
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(1, 6)
        m = rand_matrix(rng, PT, n, n)
        assert poly_apply(char_poly(m), m).is_zero()
    for seed in range(20):
        rng = random.Random(2500 + seed)
        site = SITES[seed % len(SITES)]
        n = rng.randint(1, 4)
        m = rand_matrix(rng, site.whole, n, n)
        assert poly_apply(char_poly(m), m).is_zero()
    report_line(3, "cayley-hamilton", started, 10)


def test_criterion_4_laplace_decomposition():
    started = time.time()
    for seed in range(100):
        rng = random.Random(3000 + seed)
        n = rng.randint(1, 5)
        site = SITES[seed % 2]  # plain rationals and 2-point sections
        a = rand_matrix(rng, site.whole, n, n)
        det, adj = determinant_adjugate(a)
        det_id = SectionMatrix.identity(site.whole, n).scale(det)
        assert a @ adj == det_id and adj @ a == det_id
        for p in site.whole.labels:
            assert det.at(p) == cofactor_det(a.at_point(p))
        if det.is_unit():
            inv = adj.scale(det.inverse())
            assert a @ inv == SectionMatrix.identity(site.whole, n)
            assert inv == try_inverse_matrix(a)
    report_line(4, "laplace-decomposition", started, 5)


def test_criterion_5_symplectic_group():
    started = time.time()
    maps = []
    for seed in range(50):
        rng = random.Random(4000 + seed)
        m = (1, 2, 3, 4)[seed % 4]
        J = standard_J(PT, m)
        M = random_symplectic(PT, m, rng, factors=5)
        assert M.transpose() @ J @ M == J
        det, _ = determinant_adjugate(M)
        assert det == 1
        maps.append(SymplecticMap(M, J))
    by_rank = {}
    for f in maps:
        by_rank.setdefault(f.matrix.rows, []).append(f)
    for rank_maps in by_rank.values():
        f, g = rank_maps[0], rank_maps[-1]
        for h in (f.compose(g), f.invert(), g.invert().compose(f)):
            assert is_symplectic_map(h.matrix, h.form)
            assert h.determinant() == 1
    report_line(5, "symplectic-group", started, 5)


def test_criterion_6_form_power_constant():
    started = time.time()
    for m in (1, 2, 3, 4):
        omega = standard_two_form(PT, m)
        top = KForm.basis_blade(PT, 2 * m, range(2 * m))
        assert form_power(omega, m) == top.scale(factorial(m) * (-1) ** (m // 2))
        assert orientation_form(omega, m) == top
    report_line(6, "form-power-constant", started, 2)


def test_criterion_7_exterior_algebra_laws():
    started = time.time()

    def rand_form(rng, n, k):
        return KForm(PT, n, k, {idx: rand_frac(rng) for idx in combinations(range(n), k)})

    for seed in range(100):
        rng = random.Random(5000 + seed)
        n = rng.randint(2, 5)
        k = rng.randint(0, n)
        l = rng.randint(0, n - k)
        xi, eta = rand_form(rng, n, k), rand_form(rng, n, l)
        # graded commutativity
        rhs = wedge(eta, xi)
        assert wedge(xi, eta) == (rhs if (-1) ** (k * l) == 1 else -rhs)
        # associativity
        j = rng.randint(0, n - k - l)
        zeta = rand_form(rng, n, j)
        assert wedge(wedge(xi, eta), zeta) == wedge(xi, wedge(eta, zeta))
        # alternation idempotence
        order = rng.randint(1, 3)
        coeffs = {tuple(rng.randrange(n) for _ in range(order)): rand_frac(rng)
                  for _ in range(4)}
        t = CovariantTensor(PT, n, order, coeffs)
        once = alternation(t)
        assert alternation(once) == once
        # determinant evaluation formula for wedges of one-forms
        d = rng.randint(1, min(3, n))
        alphas = [KForm.one_form(PT, [rand_frac(rng) for _ in range(n)]) for _ in range(d)]
        args = [rand_vector(rng, PT, n) for _ in range(d)]
        w = alphas[0]
        for a in alphas[1:]:
            w = wedge(w, a)
        pairing = [[a.evaluate([s]).stalks[0] for s in args] for a in alphas]
        assert w.evaluate(args).stalks[0] == cofactor_det(pairing)
    report_line(7, "exterior-algebra-laws", started, 10)


def test_criterion_8_sheaf_axioms():
    started = time.time()
    labels = ["a", "b", "c", "d"]
    for n in (1, 2, 3, 4):
        grid = sample_grid(seed=n, size=3 if n <= 3 else 2)
        for sp in enumerate_topologies(labels[:n]):
            presheaf = FunctionPresheaf(sp, grid)
            for U in sp.all_opens():
                for cover in antichain_covers(U):
                    rep = check_completeness(presheaf, U, cover)
                    assert rep.passed, (sp, U, cover)
    # the constant presheaf fails S2 with a reproducible witness
    sp = validate_topology(["a", "b", "c"],
                           [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    U = sp.open_set(["a", "b"])
    cover = [sp.open_set(["a"]), sp.open_set(["b"])]
    for _ in range(2):
        rep = check_completeness(ConstantPresheaf(sp, (F(1), F(2))), U, cover)
        assert rep.s1.passed and not rep.s2.passed
        assert rep.s2.witness.describe() == [(("a",), F(1)), (("b",), F(2))]
    report_line(8, "sheaf-axioms", started, 30)


def test_criterion_9_sp_and_eigen_presheaf_gluing():
    started = time.time()
    glue_sites = [s for s in SITES if len(s.points) >= 2]
    # symplectic maps: compatible families over covers glue uniquely and stay in Sp
    for seed in range(20):
        rng = random.Random(6000 + seed)
        sp = glue_sites[seed % len(glue_sites)]
        U = sp.whole
        covers = [c for c in antichain_covers(U) if c]
        cover = covers[rng.randrange(len(covers))]
        m = rng.randint(1, 2)
        M1 = random_symplectic(U, m, rng, section_valued=True)
        M2 = random_symplectic(U, m, rng, section_valued=True)
        split = set(rng.sample(sp.points, rng.randint(0, len(sp.points))))
        mix = SectionMatrix.from_point_data(
            U, 2 * m, 2 * m,
            lambda p: (M1 if p in split else M2).at_point(p))
        family = [mix.restrict(V) for V in cover]
        glued = glue_stalkwise(U, cover, family)
        assert glued == mix  # gluing is unique: every entry is pointwise forced
        assert is_symplectic_map(glued, standard_J(U, m))
    # eigenpairs: per-member eigenpairs glue to an eigenpair over U
    for seed in range(20):
        rng = random.Random(6500 + seed)
        sp = glue_sites[seed % len(glue_sites)]
        U = sp.whole
        covers = [c for c in antichain_covers(U) if c]
        cover = covers[rng.randrange(len(covers))]
        lam = StructureSection(U, [F(rng.randint(-3, 3)) for _ in sp.points])
        other = lam + StructureSection.constant(U, rng.randint(1, 3))
        M = SectionMatrix(U, [[lam, 0], [0, other]])
        pairs = [eigen_sections(M.restrict(V)).pairs[0] for V in cover]
        glued = eigen_presheaf_glue(M, cover, pairs)
        assert (M @ glued.vector) == glued.vector.scale(glued.lam)
        assert glued.vector.is_nowhere_zero()
        reference = eigen_sections(M).pairs[0]
        assert glued.lam == reference.lam and glued.vector == reference.vector
    report_line(9, "presheaf-gluing", started, 10)


def test_criterion_10_eigenvalue_reciprocity():
    started = time.time()
    for seed in range(20):
        rng = random.Random(7000 + seed)
        m = rng.randint(1, 3)
        site = SITES[seed % 2]
        U = site.whole
        # plant a rational spectrum λᵢ, 1/λᵢ (section-valued on 2-point sites)
        lams = []
        for _ in range(m):
            lams.append(StructureSection(
                U, [F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2])) for _ in U.labels]))
        diag = lams + [lam.inverse() for lam in lams]
        D = SectionMatrix(U, [[diag[i] if i == j else 0 for j in range(2 * m)]
                              for i in range(2 * m)])
        T = random_symplectic(U, m, rng)
        M = T @ D @ try_inverse_matrix(T)
        rep = reciprocal_spectrum_check(M, standard_J(U, m))
        assert rep.palindromic
        assert rep.spectrum_closed
        for p in U.labels:
            spectrum = set(rep.spectra[p])
            assert {lam.at(p) for lam in lams} <= spectrum
            assert spectrum == {1 / v for v in spectrum}
    report_line(10, "eigenvalue-reciprocity", started, 5)


def test_criterion_11_cli_contract():
    started = time.time()
    for command, case, expected_code in CLI_CASES:
        code, out = run_cli(command, case)
        assert code == expected_code, (command, case)
        golden = (GOLDEN / f"{command}_{case}.json").read_text()
        assert out == golden, (command, case)
        code2, out2 = run_cli(command, case)
        assert (code2, out2) == (code, out)  # byte-stable
    reread = json.loads((GOLDEN / "charpoly_rot.json").read_text())
    assert reread["result"]["coeffs"] == [1, 0, 1]
    report_line(11, "cli-contract", started, 5)
