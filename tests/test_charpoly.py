"""Characteristic polynomial sections, Cayley–Hamilton, eigen-sections,
gluing, and symplectic eigenvalue reciprocity."""

import random
from fractions import Fraction as F

import pytest

from sympsheaf import (
    EigenPair,
    Polynomial,
    SectionMatrix,
    SectionVector,
    StructureSection,
    cayley_hamilton_check,
    char_poly,
    determinant_adjugate,
    discrete,
    eigen_presheaf_glue,
    eigen_sections,
    point_space,
    poly_apply,
    random_symplectic,
    rational_roots,
    reciprocal_spectrum_check,
    sierpinski,
    standard_J,
    try_inverse_matrix,
    validate_topology,
)
from sympsheaf.errors import (
    DegreeTooLarge,
    DimensionMismatch,
    DomainMismatch,
    IncompatibleFamily,
    NotSquare,
    NotSymplectic,
)

from sympsheaf.charpoly import _eigenvector_at

from oracles import (charpoly_cofactor, cofactor_adjugate, cofactor_det, kernel_from_rref,
                     qq_matmul, rand_matrix)

PT = point_space().whole


# -- the polynomial type -----------------------------------------------------------


def test_polynomial_degree_and_monic():
    t = Polynomial(PT, [0, 1])
    assert t.is_monic() and t.degree == 1
    # the degree is the stored one: a vanishing leading coefficient is kept
    p = Polynomial(PT, [1, 2, 0])
    assert p.degree == 2 and not p.is_monic() and p.coeffs[2] == 0
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 1, "b": 0})
    assert not Polynomial(sp.whole, [0, f]).is_monic()  # monic at a only
    glued = Polynomial.from_stalks(sp.whole, 2, [(F(3), F(1)), (F(-1), F(1))])
    grid = Polynomial(sp.whole, [StructureSection.from_mapping(sp.whole, {"a": 3, "b": -1}), 1])
    assert glued == grid and hash(glued) == hash(grid) and glued.is_monic()
    assert glued.restrict(sp.open_set(["a"])) == Polynomial(sp.open_set(["a"]), [3, 1])


# -- char_poly ---------------------------------------------------------------------


def test_charpoly_zero_matrix():
    p = char_poly(SectionMatrix.zeros(PT, 2, 2))
    assert [c.stalks[0] for c in p.coeffs] == [0, 0, 1]  # t²


def test_charpoly_rotation():
    p = char_poly(SectionMatrix(PT, [[0, 1], [-1, 0]]))
    assert [c.stalks[0] for c in p.coeffs] == [1, 0, 1]  # t² + 1
    assert [c.stalks[0] for c in p.coeffs] == charpoly_cofactor([[F(0), F(1)], [F(-1), F(0)]])


def test_charpoly_non_constant_diagonal():
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 5})
    p = char_poly(SectionMatrix(sp.whole, [[f]]))
    assert p.degree == 1 and p.is_monic()
    assert p.coeffs[0] == -f  # t − f


def test_charpoly_monic_trace_det_identities():
    rng = random.Random(0)

    def wide(bits):  # a (bits + 8)-bit numerator over an odd denominator below 2**bits
        return F(rng.getrandbits(bits + 8) - 2 ** (bits + 7), rng.getrandbits(bits) | 1)

    repeated = rand_matrix(rng, PT, 4, 4).at_point("x")
    repeated[3] = repeated[1]
    low = rand_matrix(rng, PT, 6, 2) @ rand_matrix(rng, PT, 2, 6)  # rank ≤ 2
    inputs = [rand_matrix(rng, PT, n, n) for n in range(1, 9)] + [
        SectionMatrix(PT, repeated), low, SectionMatrix.zeros(PT, 3, 3),
        SectionMatrix(PT, [[wide(80) for _ in range(6)] for _ in range(6)]),
        SectionMatrix(PT, [[wide(120) for _ in range(4)] for _ in range(4)])]
    for m in inputs:
        n = m.rows
        p = char_poly(m)
        assert p.degree == n and p.is_monic()
        assert p.coeffs[n - 1] == -m.trace()
        det, _ = determinant_adjugate(m)
        assert p.coeffs[0] == det * ((-1) ** n)
        assert [c.stalks[0] for c in p.coeffs] == charpoly_cofactor(m.at_point("x"))
    empty = char_poly(SectionMatrix.zeros(PT, 0, 0))  # det of the 0×0 matrix tI is 1
    assert [c.stalks[0] for c in empty.coeffs] == charpoly_cofactor([]) == [1]


def test_charpoly_restriction_compatible():
    rng = random.Random(1)
    sp = sierpinski()
    m = rand_matrix(rng, sp.whole, 3, 3)
    V = sp.open_set(["a"])
    restricted = char_poly(m.restrict(V))
    assert [c.restrict(V) for c in char_poly(m).coeffs] == list(restricted.coeffs)
    assert char_poly(m).restrict(V) == restricted


def test_charpoly_on_empty_open_keeps_degree():
    # A(∅) is the zero ring: det(tI − M) has n + 1 coefficients, all equal to 0 = 1
    sp = sierpinski()
    m = SectionMatrix.zeros(sp.empty, 2, 2)
    p = char_poly(m)
    assert p.degree == 2 and p.is_monic() and p.stalks == ()
    assert len(p.coeffs) == 3 and all(c.stalks == () for c in p.coeffs)
    assert cayley_hamilton_check(m, p).is_zero()
    report = reciprocal_spectrum_check(m)
    assert report.palindromic and report.spectrum_closed and report.spectra == {}


def test_charpoly_guards():
    with pytest.raises(NotSquare):
        char_poly(SectionMatrix.zeros(PT, 2, 3))
    with pytest.raises(DegreeTooLarge, match=r"^a 9x9 matrix exceeds CHARPOLY_SIZE_CAP = 8$"):
        char_poly(SectionMatrix.identity(PT, 9))


# -- poly_apply -----------------------------------------------------------------------


def test_poly_apply_variable_and_constant():
    m = SectionMatrix(PT, [[1, 2], [0, 1]])
    t = Polynomial(PT, [0, 1])
    assert poly_apply(t, m) == m
    assert poly_apply(Polynomial(PT, [1]), m) == SectionMatrix.identity(PT, 2)
    with pytest.raises(DomainMismatch):
        poly_apply(Polynomial(sierpinski().whole, [0, 1]), m)


def test_poly_apply_rotation_annihilated():
    m = SectionMatrix(PT, [[0, 1], [-1, 0]])
    assert poly_apply(Polynomial(PT, [1, 0, 1]), m).is_zero()  # M² + I = 0


def test_poly_apply_module_action_is_horner():
    rng = random.Random(2)
    m = rand_matrix(rng, PT, 3, 3)
    p = Polynomial(PT, [2, -1, 0, 3])
    direct = SectionMatrix.identity(PT, 3).scale(2) - m + (m @ m @ m).scale(3)
    assert poly_apply(p, m) == direct


# -- Cayley–Hamilton --------------------------------------------------------------------


def test_cayley_hamilton_shear():
    m = SectionMatrix(PT, [[1, 1], [0, 1]])
    p = char_poly(m)
    assert [c.stalks[0] for c in p.coeffs] == [1, -2, 1]  # (t−1)²
    assert cayley_hamilton_check(m, char_poly(m)).is_zero()


def test_cayley_hamilton_section_diagonal():
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 5})
    g = StructureSection.from_mapping(sp.whole, {"a": -1, "b": F(1, 3)})
    m = SectionMatrix(sp.whole, [[f, 0], [0, g]])
    assert cayley_hamilton_check(m, char_poly(m)).is_zero()


def test_cayley_hamilton_random_5x5():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, PT, 5, 5)
        assert cayley_hamilton_check(m, char_poly(m)).is_zero()


def test_cayley_hamilton_inverse_matches_adjugate_route():
    # from P(M)=0: M⁻¹ = −c₀⁻¹·(M^{n−1} + c_{n−1}M^{n−2} + … + c₁I)
    rng = random.Random(4)
    for _ in range(5):
        m = rand_matrix(rng, PT, 4, 4)
        det, _ = determinant_adjugate(m)
        if not det.is_unit():
            continue
        p = char_poly(m)
        horner = Polynomial(PT, p.coeffs[1:])
        inv = poly_apply(horner, m).scale(p.coeffs[0].inverse()).scale(-1)
        assert inv == try_inverse_matrix(m)


# -- rational roots ----------------------------------------------------------------------


def test_rational_roots_examples():
    assert rational_roots([F(1), F(0), F(1)]) == []  # t² + 1
    assert rational_roots([F(1), F(-5, 2), F(1)]) == [F(1, 2), F(2)]
    assert rational_roots([F(0), F(0), F(-1), F(1)]) == [F(0), F(1)]  # t³ − t²
    # denominators cleared: t² − (5/6)t + 1/6 = (t−1/3)(t−1/2)
    assert rational_roots([F(1, 6), F(-5, 6), F(1)]) == [F(1, 3), F(1, 2)]


def test_rational_roots_zero_poly_rejected():
    with pytest.raises(ValueError):
        rational_roots([F(0)])


# -- eigen sections -----------------------------------------------------------------------


def test_eigen_diagonal():
    m = SectionMatrix(PT, [[2, 0], [0, 3]])
    report = eigen_sections(m)
    assert not report.omitted_points
    assert [(p.lam.stalks[0], tuple(e.stalks[0] for e in p.vector.entries))
            for p in report.pairs] == [(F(2), (F(1), F(0))), (F(3), (F(0), F(1)))]


def test_eigen_section_valued_scalar():
    sp = discrete(["a", "b"])
    f = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 5})
    report = eigen_sections(SectionMatrix(sp.whole, [[f]]))
    assert len(report.pairs) == 1 and not report.omitted_points
    pair = report.pairs[0]
    assert pair.lam == f
    assert pair.vector[0] == 1


def test_eigen_no_rational_eigenvalue_reported():
    report = eigen_sections(SectionMatrix(PT, [[0, 1], [-1, 0]]))
    assert report.pairs == () and report.omitted_points == ("x",)


def test_eigen_partial_branch_omission():
    # two eigenvalues at a, one at b: only one branch survives
    sp = discrete(["a", "b"])
    f = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 1})
    g = StructureSection.from_mapping(sp.whole, {"a": 3, "b": 1})
    m = SectionMatrix(sp.whole, [[f, 0], [0, g]])
    report = eigen_sections(m)
    assert len(report.pairs) == 1
    assert report.omitted_points == ("b",)


def test_eigen_pairs_satisfy_equation_exactly():
    rng = random.Random(5)
    sp = sierpinski()
    for _ in range(10):
        m = rand_matrix(rng, sp.whole, 3, 3)
        for pair in eigen_sections(m).pairs:
            assert (m @ pair.vector) == pair.vector.scale(pair.lam)
            assert pair.vector.is_nowhere_zero()


def test_eigenvector_on_the_integer_stalk_matches_the_fraction_shift():
    """_eigenvector_at eliminates q·(D·M) − p·D·I, a nonzero multiple of
    M − λI for λ = p/q: its vector is the one the kernel of M − λI gives."""
    rng = random.Random(12)
    frac = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    for n in (2, 3, 4, 5):
        for _ in range(8):
            lams = [frac() for _ in range(n)]
            lams[-1] = lams[0]  # a repeated eigenvalue, whose eigenspace may have dimension 2
            T = [[lams[i] if i == j else frac() if j > i else F(0) for j in range(n)]
                 for i in range(n)]
            P = [[frac() for _ in range(n)] for _ in range(n)]
            if cofactor_det(P) == 0:
                continue
            inverse = [[x / cofactor_det(P) for x in row] for row in cofactor_adjugate(P)]
            M = qq_matmul(qq_matmul(P, T), inverse)
            for lam in set(lams):
                v = kernel_from_rref([[x - (lam if i == j else 0) for j, x in enumerate(row)]
                                      for i, row in enumerate(M)])[0]
                lead = next(x for x in v if x)
                assert _eigenvector_at(M, lam) == [x / lead for x in v]


# -- eigen presheaf gluing ---------------------------------------------------------------------


def test_eigen_glue_two_point_cover():
    sp = discrete(["a", "b"])
    f = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 5})
    m = SectionMatrix(sp.whole, [[f]])
    cover = [sp.open_set(["a"]), sp.open_set(["b"])]
    pairs = [
        EigenPair(StructureSection.constant(cover[0], 2),
                  SectionVector(cover[0], [1])),
        EigenPair(StructureSection.constant(cover[1], 5),
                  SectionVector(cover[1], [1])),
    ]
    glued = eigen_presheaf_glue(m, cover, pairs)
    assert glued.lam == f and glued.vector[0] == 1


def test_eigen_glue_incompatible_on_overlap():
    sp = validate_topology(["a", "b", "c"],
                           [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    U = sp.whole
    m = SectionMatrix.identity(U, 1).scale(3)
    cover = [sp.open_set(["a", "b"]), sp.open_set(["b", "c"])]
    pairs = [
        EigenPair(StructureSection.constant(cover[0], 3),
                  SectionVector(cover[0], [StructureSection.from_mapping(cover[0], {"a": 1, "b": 1})])),
        EigenPair(StructureSection.constant(cover[1], 3),
                  SectionVector(cover[1], [StructureSection.from_mapping(cover[1], {"b": 2, "c": 2})])),
    ]
    with pytest.raises(IncompatibleFamily) as err:
        eigen_presheaf_glue(m, cover, pairs)
    assert err.value.witness["overlap"] == ("b",)


def test_eigen_glue_witness_names_both_restrictions():
    sp = validate_topology(["a", "b", "c"],
                           [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    U = sp.whole
    cover = [sp.open_set(["a", "b"]), sp.open_set(["b", "c"])]
    overlap = cover[0].intersection(cover[1])
    # eigenvalues agree, eigenvectors do not
    vectors = [SectionVector(cover[0], [StructureSection.from_mapping(cover[0], {"a": 1, "b": 1})]),
               SectionVector(cover[1], [StructureSection.from_mapping(cover[1], {"b": 2, "c": 2})])]
    with pytest.raises(IncompatibleFamily) as err:
        eigen_presheaf_glue(SectionMatrix.identity(U, 1).scale(3), cover,
                            [EigenPair(StructureSection.constant(V, 3), v)
                             for V, v in zip(cover, vectors)])
    witness = err.value.witness
    assert witness["members"] == (("a", "b"), ("b", "c")) and witness["overlap"] == ("b",)
    assert witness["left"] == vectors[0].restrict(overlap)
    assert witness["right"] == vectors[1].restrict(overlap)
    # eigenvalues disagree: they are glued first
    pairs = [EigenPair(StructureSection.constant(cover[0], 2), SectionVector(cover[0], [1, 0])),
             EigenPair(StructureSection.constant(cover[1], 3), SectionVector(cover[1], [0, 1]))]
    with pytest.raises(IncompatibleFamily) as err:
        eigen_presheaf_glue(SectionMatrix(U, [[2, 0], [0, 3]]), cover, pairs)
    witness = err.value.witness
    assert witness["left"] == StructureSection.constant(overlap, 2)
    assert witness["right"] == StructureSection.constant(overlap, 3)


def test_eigen_glue_single_member_cover():
    m = SectionMatrix(PT, [[2, 0], [0, 3]])
    pair = eigen_sections(m).pairs[0]
    glued = eigen_presheaf_glue(m, [PT], [pair])
    assert glued.lam == pair.lam and glued.vector == pair.vector


def test_eigen_glue_empty_cover_of_the_empty_open():
    empty = sierpinski().empty
    m = SectionMatrix(empty, [[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    glued = eigen_presheaf_glue(m, [], [])
    assert glued.lam == StructureSection(empty, [])
    assert glued.vector == SectionVector.from_stalks(empty, 3, [])
    with pytest.raises(DimensionMismatch):
        eigen_presheaf_glue(m, [], [EigenPair(glued.lam, glued.vector)])


def test_eigen_glue_rejects_non_eigenpair():
    m = SectionMatrix(PT, [[2, 0], [0, 3]])
    bogus = EigenPair(StructureSection.constant(PT, 7), SectionVector(PT, [1, 1]))
    with pytest.raises(ValueError):
        eigen_presheaf_glue(m, [PT], [bogus])


# -- reciprocity ------------------------------------------------------------------------------


def planted_symplectic(rng, m, spectrum):
    """T·D·T⁻¹ with D = diag(λ…, 1/λ…): symplectic with known spectrum."""
    domain = PT
    diag = list(spectrum) + [1 / lam for lam in spectrum]
    D = SectionMatrix(domain, [[diag[i] if i == j else 0 for j in range(2 * m)]
                               for i in range(2 * m)])
    J = standard_J(domain, m)
    assert is_symplectic_map_local(D, J)
    T = random_symplectic(domain, m, rng)
    return T @ D @ try_inverse_matrix(T)


def is_symplectic_map_local(M, J):
    return M.transpose() @ J @ M == J


def test_reciprocity_diag_example():
    m = SectionMatrix(PT, [[2, 0], [0, F(1, 2)]])
    report = reciprocal_spectrum_check(m)
    assert report.palindromic and report.spectrum_closed
    assert [c.stalks[0] for c in report.char.coeffs] == [1, F(-5, 2), 1]
    assert report.spectra["x"] == (F(1, 2), F(2))


def test_reciprocity_identity():
    m = SectionMatrix.identity(PT, 4)
    report = reciprocal_spectrum_check(m)
    assert report.palindromic and report.spectrum_closed
    # (t−1)⁴ reversed is itself
    assert [c.stalks[0] for c in report.char.coeffs] == [1, -4, 6, -4, 1]


def test_reciprocity_random_transvection_products():
    rng = random.Random(6)
    for _ in range(5):
        m = random_symplectic(PT, 2, rng)
        report = reciprocal_spectrum_check(m)
        assert report.palindromic
        # reversal oracle: coefficient list reversed equals itself
        coeffs = [c.stalks[0] for c in report.char.coeffs]
        assert coeffs == coeffs[::-1]
        assert report.spectrum_closed


def test_reciprocity_planted_spectrum():
    rng = random.Random(7)
    m = planted_symplectic(rng, 2, [F(2), F(3)])
    report = reciprocal_spectrum_check(m)
    assert report.palindromic and report.spectrum_closed
    assert report.spectra["x"] == (F(1, 3), F(1, 2), F(2), F(3))


def test_reciprocity_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        reciprocal_spectrum_check(SectionMatrix.identity(PT, 2).scale(2))


def test_section_valued_symplectic_reciprocity():
    rng = random.Random(8)
    sp = sierpinski()
    m = random_symplectic(sp.whole, 1, rng, section_valued=True)
    report = reciprocal_spectrum_check(m, standard_J(sp.whole, 1))
    assert report.palindromic and report.spectrum_closed


def counting_qq_charpoly(monkeypatch):
    from sympsheaf import charpoly

    calls = []
    inner = charpoly.qq_charpoly

    def counted(mat):
        calls.append(1)
        return inner(mat)

    monkeypatch.setattr(charpoly, "qq_charpoly", counted)
    return calls


def test_cli_charpoly_computes_each_stalk_polynomial_once(monkeypatch):
    import io
    from contextlib import redirect_stdout
    from pathlib import Path

    from sympsheaf.cli import main

    calls = counting_qq_charpoly(monkeypatch)
    rot = Path(__file__).parent / "data" / "rot.json"  # one point
    with redirect_stdout(io.StringIO()):
        assert main(["charpoly", "--input", str(rot), "--output", "json"]) == 0
    assert len(calls) == 1


def test_charpoly_checks_build_no_sections(monkeypatch):
    from sympsheaf import sections

    U = discrete(["a", "b", "c"]).whole
    m = random_symplectic(U, 2, random.Random(10), section_valued=True)
    calls = []
    inner = sections.StructureSection.__init__

    def counted(self, *args):
        calls.append(1)
        inner(self, *args)

    monkeypatch.setattr(sections.StructureSection, "__init__", counted)
    p = char_poly(m)
    assert cayley_hamilton_check(m, p).is_zero()
    assert reciprocal_spectrum_check(m).palindromic
    assert not calls
    assert len(p.coeffs) == len(calls) == 5  # built when read


def test_reciprocity_computes_each_stalk_polynomial_once(monkeypatch):
    U = discrete(["a", "b", "c"]).whole
    m = random_symplectic(U, 2, random.Random(9), section_valued=True)
    calls = counting_qq_charpoly(monkeypatch)
    assert reciprocal_spectrum_check(m).palindromic
    assert len(calls) == U.size
