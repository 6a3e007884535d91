"""Free modules: matrix algebra, determinant/adjugate, inverses, vectors,
all checked against brute-force ℚ oracles."""

import random
from fractions import Fraction as F

import pytest

from sympsheaf import (
    SectionMatrix,
    SectionVector,
    StructureSection,
    determinant_adjugate,
    point_space,
    sierpinski,
    standard_J,
    try_inverse_matrix,
)
from sympsheaf.errors import DimensionMismatch, DomainMismatch, NonUnitDeterminant, NotSquare
from sympsheaf import qlinalg

from oracles import (
    cofactor_adjugate,
    cofactor_det,
    qq_matmul,
    rand_matrix,
    rand_section,
    rand_vector,
    rref_fraction,
)

PT = point_space().whole


def test_mat_mul_identity():
    rng = random.Random(0)
    a = rand_matrix(rng, PT, 3, 3)
    assert SectionMatrix.identity(PT, 3) @ a == a


def test_mat_mul_rotation_squares_to_minus_identity():
    j = SectionMatrix(PT, [[0, 1], [-1, 0]])
    assert j @ j == -SectionMatrix.identity(PT, 2)


def test_mat_mul_pointwise_against_qq_oracle():
    sp = sierpinski()
    U = sp.whole
    m = SectionMatrix(U, [[1, 2], [3, 4]])
    v = SectionVector(U, [StructureSection.from_mapping(U, {"a": 1, "b": 2}),
                          StructureSection.from_mapping(U, {"a": 0, "b": 1})])
    out = m @ v
    for p in U.labels:
        stalk = qq_matmul(m.at_point(p), [[x] for x in v.at_point(p)])
        assert out.at_point(p) == [row[0] for row in stalk]


def test_mat_mul_shape_checks():
    a = SectionMatrix.identity(PT, 2)
    b = SectionMatrix.zeros(PT, 3, 3)
    with pytest.raises(DimensionMismatch):
        a @ b
    sp = sierpinski()
    with pytest.raises(DomainMismatch):
        a @ SectionMatrix.identity(sp.whole, 2)


def test_transpose_examples():
    assert SectionMatrix.identity(PT, 3).transpose() == SectionMatrix.identity(PT, 3)
    m = SectionMatrix(PT, [[1, 2], [3, 4]])
    assert m.transpose() == SectionMatrix(PT, [[1, 3], [2, 4]])


def test_transpose_pairing_identity():
    # ⟨ᵗA u, v⟩ = ⟨u, A v⟩ on random instances, length-0 vectors and 0-column
    # matrices (A·v = 0, and an empty pairing is 0) among them
    rng = random.Random(1)
    for rows, cols in [(3, 3)] * 10 + [(2, 4), (3, 0), (0, 3), (0, 0)]:
        a = rand_matrix(rng, PT, rows, cols) if rows else SectionMatrix.zeros(PT, 0, cols)
        u, v = rand_vector(rng, PT, rows), rand_vector(rng, PT, cols)
        assert (a.transpose() @ u).pairing(v) == u.pairing(a @ v)
        if not cols:
            assert a @ v == SectionVector(PT, [0] * rows) and v.pairing(v) == 0


def test_determinant_2x2_closed_form():
    m = SectionMatrix(PT, [[1, 2], [3, 4]])
    det, adj = determinant_adjugate(m)
    assert det == -2
    assert adj == SectionMatrix(PT, [[4, -2], [-3, 1]])


def test_determinant_identity():
    det, adj = determinant_adjugate(SectionMatrix.identity(PT, 4))
    assert det == 1 and adj == SectionMatrix.identity(PT, 4)


def singular_inputs(rng, domain, n):
    """Inputs random square matrices miss: products of pointwise rank n − 1
    (adj ≠ 0) and n − 2 (adj = 0), whose adjugate A·adj = det·I = 0 does not
    pin, the zero matrix, and the sizes 0 and 1."""
    low = [rand_matrix(rng, domain, n, r) @ rand_matrix(rng, domain, r, n) for r in (n - 1, n - 2)]
    for m, r in zip(low, (n - 1, n - 2)):
        assert all(len(rref_fraction(s)[1]) == r for s in m.stalks)
    return low + [SectionMatrix.zeros(domain, n, n), SectionMatrix.zeros(domain, 0, 0),
                  rand_matrix(rng, domain, 1, 1), SectionMatrix.zeros(domain, 1, 1)]


def test_laplace_identity_against_cofactor_oracle():
    rng = random.Random(2)
    for m in [rand_matrix(rng, PT, 4, 4) for _ in range(10)] + singular_inputs(rng, PT, 4):
        det, adj = determinant_adjugate(m)
        assert det.stalks[0] == cofactor_det(m.at_point("x"))
        assert adj.at_point("x") == cofactor_adjugate(m.at_point("x"))
        n = m.rows
        det_id = SectionMatrix.identity(PT, n).scale(det)
        assert m @ adj == det_id and adj @ m == det_id


def test_laplace_identity_for_section_matrices():
    sp = sierpinski()
    rng = random.Random(3)
    inputs = [rand_matrix(rng, sp.whole, 3, 3) for _ in range(5)]
    for m in inputs + singular_inputs(rng, sp.whole, 3):
        det, adj = determinant_adjugate(m)
        for p in sp.whole.labels:
            assert det.at(p) == cofactor_det(m.at_point(p))
            assert adj.at_point(p) == cofactor_adjugate(m.at_point(p))
        assert m @ adj == SectionMatrix.identity(sp.whole, m.rows).scale(det)


def test_det_multiplicative_and_transpose_laws():
    rng = random.Random(4)
    for n in (2, 3, 5):
        a, b = rand_matrix(rng, PT, n, n), rand_matrix(rng, PT, n, n)
        det_a, _ = determinant_adjugate(a)
        det_b, _ = determinant_adjugate(b)
        det_ab, _ = determinant_adjugate(a @ b)
        assert det_ab == det_a * det_b
        det_at, _ = determinant_adjugate(a.transpose())
        assert det_at == det_a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_try_inverse_examples():
    m = SectionMatrix(PT, [[2, 0], [0, 3]])
    assert try_inverse_matrix(m) == SectionMatrix(PT, [[F(1, 2), 0], [0, F(1, 3)]])
    j = SectionMatrix(PT, [[0, 1], [-1, 0]])
    assert try_inverse_matrix(j) == -j  # J² = −I


def test_try_inverse_detects_vanishing_points():
    sp = sierpinski()
    f = StructureSection.from_mapping(sp.whole, {"a": 1, "b": 0})
    m = SectionMatrix(sp.whole, [[f, 0], [0, 1]])
    with pytest.raises(NonUnitDeterminant) as err:
        try_inverse_matrix(m)
    assert err.value.points == ("b",)


def test_inverse_succeeds_iff_pointwise_nonsingular():
    rng = random.Random(5)
    sp = sierpinski()
    for _ in range(10):
        m = rand_matrix(rng, sp.whole, 3, 3)
        singular = [p for p in sp.whole.labels if cofactor_det(m.at_point(p)) == 0]
        if singular:
            with pytest.raises(NonUnitDeterminant):
                try_inverse_matrix(m)
        else:
            assert m @ try_inverse_matrix(m) == SectionMatrix.identity(sp.whole, 3)


def test_not_square():
    with pytest.raises(NotSquare):
        determinant_adjugate(SectionMatrix.zeros(PT, 2, 3))


def test_single_nowhere_zero_vector_independent():
    sp = sierpinski()
    v = SectionVector(sp.whole, [StructureSection.from_mapping(sp.whole, {"a": 1, "b": 0}),
                                 StructureSection.from_mapping(sp.whole, {"a": 0, "b": 3})])
    assert v.is_nowhere_zero()
    assert all(qlinalg.rank([[x] for x in v.at_point(p)]) == 1 for p in sp.whole.labels)


def test_vector_restrict_and_scale():
    sp = sierpinski()
    rng = random.Random(9)
    v = rand_vector(rng, sp.whole, 3)
    s = rand_section(rng, sp.whole)
    V = sp.open_set(["a"])
    assert v.scale(s).restrict(V) == v.restrict(V).scale(s.restrict(V))


# -- the stalk representation ------------------------------------------------------


def test_empty_domain_keeps_shapes():
    empty = sierpinski().empty
    J = standard_J(empty, 2)
    assert (J.rows, J.cols) == (4, 4) and J.stalks == ()
    prod = SectionMatrix.zeros(empty, 2, 3) @ SectionMatrix.zeros(empty, 3, 1)
    assert (prod.rows, prod.cols) == (2, 1)
    assert SectionMatrix.identity(empty, 2) != SectionMatrix.identity(empty, 3)
    v = SectionMatrix.identity(empty, 3) @ SectionVector(empty, [0, 0, 0])
    assert len(v) == 3 and len(list(v)) == 3
    with pytest.raises(IndexError):
        J[4, 0]


def test_round_trips_through_entries_and_point_data():
    rng = random.Random(10)
    U = sierpinski().whole
    for rows, cols in ((1, 1), (2, 3), (3, 2), (4, 4)):
        m = rand_matrix(rng, U, rows, cols)
        assert SectionMatrix(U, m.entries) == m
        assert SectionMatrix.from_point_data(U, rows, cols, m.at_point) == m
        v = rand_vector(rng, U, rows)
        assert SectionVector(U, v.entries) == v


def test_equal_matrices_hash_equal_across_constructors():
    U = sierpinski().whole
    f = StructureSection.from_mapping(U, {"a": 1, "b": F(1, 2)})
    from_entries = SectionMatrix(U, [[f, 0], [2, "3/4"]])
    from_stalks = SectionMatrix.from_stalks(
        U, 2, 2, [[[F(1), F(0)], [F(2), F(3, 4)]], [[F(1, 2), F(0)], [F(2), F(3, 4)]]])
    assert from_entries == from_stalks and hash(from_entries) == hash(from_stalks)
    assert len({from_entries, from_stalks, from_entries.transpose().transpose()}) == 1


def test_at_point_returns_a_fresh_copy():
    U = sierpinski().whole
    m = SectionMatrix(U, [[1, 2], [3, 4]])
    stalk = m.at_point("a")
    stalk[0][0] = F(99)
    stalk.append([F(0), F(0)])
    v = m.column(0)
    v.at_point("b")[0] = F(99)
    assert m == SectionMatrix(U, [[1, 2], [3, 4]]) and v == SectionVector(U, [1, 3])


def test_section_matrix_rejects_inexact_entries():
    with pytest.raises(TypeError):
        SectionMatrix(PT, [[0.5]])
    with pytest.raises(TypeError):
        SectionVector(PT, [1, 0.25])
    assert SectionMatrix(PT, [["1/2"]]) == SectionMatrix(PT, [[F(1, 2)]])
