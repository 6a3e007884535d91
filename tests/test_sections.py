"""Structure-sheaf sections: exact rationals, pointwise ring structure,
units, restriction."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sympsheaf import (
    StructureSection,
    point_space,
    sierpinski,
    validate_topology,
)
from sympsheaf.errors import NonUnitSection, NotASubset, UnknownPoint

from oracles import rand_section

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def chain_space():
    # a < b < c: opens are the up-sets of the chain
    return validate_topology(["a", "b", "c"], [[], ["a"], ["a", "b"], ["a", "b", "c"]])


def test_restrict_examples():
    sp = sierpinski()
    U = sp.whole
    s = StructureSection.from_mapping(U, {"a": 1, "b": 2})
    assert s.restrict(sp.open_set(["a"])).as_mapping() == {"a": F(1)}
    assert s.restrict(U) == s
    empty = s.restrict(sp.empty)
    assert empty.stalks == () and empty == StructureSection.zero(sp.empty)


def test_from_stalks_roundtrip():
    sp = chain_space()
    rng = random.Random(9)
    for U in sp.all_opens():
        s = rand_section(rng, U)
        assert StructureSection.from_stalks(U, s.stalks) == s
        assert hash(StructureSection.from_stalks(U, s.stalks)) == hash(s)


def test_restrict_requires_subset():
    sp = sierpinski()
    s = StructureSection.from_mapping(sp.open_set(["a"]), {"a": 1})
    with pytest.raises(NotASubset):
        s.restrict(sp.whole)


def test_restriction_functoriality_random_chains():
    sp = chain_space()
    U, V, W = sp.whole, sp.open_set(["a", "b"]), sp.open_set(["a"])
    rng = random.Random(7)
    for _ in range(25):
        s = rand_section(rng, U)
        assert s.restrict(V).restrict(W) == s.restrict(W)
        assert s.restrict(U) == s


def test_pointwise_ring_ops():
    sp = sierpinski()
    s = StructureSection.from_mapping(sp.whole, {"a": F(1, 2), "b": 3})
    t = StructureSection.from_mapping(sp.whole, {"a": 2, "b": -1})
    assert (s + t).as_mapping() == {"a": F(5, 2), "b": F(2)}
    assert (s * t).as_mapping() == {"a": F(1), "b": F(-3)}
    assert (s - s).is_zero()
    assert (2 * s).as_mapping() == {"a": F(1), "b": F(6)}
    assert s == s and s != t


def test_constant_comparison():
    sp = sierpinski()
    assert StructureSection.constant(sp.whole, 5) == 5
    assert StructureSection.from_mapping(sp.whole, {"a": 5, "b": 4}) != 5


def test_constant_hashes_like_its_value():
    sp = sierpinski()
    three = StructureSection.constant(sp.whole, 3)
    assert len({three, 3}) == 1 and len({three, F(3)}) == 1
    assert len({three, StructureSection.from_mapping(sp.whole, {"a": 3, "b": 2})}) == 2
    # on ∅ a section equals no rational, rather than every rational at once
    empty = StructureSection.zero(sp.empty)
    assert empty != 0 and empty != 1
    assert len({empty, 0}) == 2
    assert empty == StructureSection.one(sp.empty)  # sections on ∅ all agree


def test_units_are_nowhere_zero():
    sp = sierpinski()
    s = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 0})
    assert not s.is_unit() and s.zero_points() == ("b",)
    with pytest.raises(NonUnitSection) as err:
        s.inverse()
    assert err.value.points == ("b",)
    u = StructureSection.from_mapping(sp.whole, {"a": 2, "b": -3})
    assert u.is_unit() and (u * u.inverse()) == 1


def test_inverse_positive_section_condition():
    # strictly positive sections are invertible, with s·s⁻¹ = 1_U
    sp = sierpinski()
    rng = random.Random(3)
    for _ in range(25):
        s = StructureSection(sp.whole, [abs(rand_section(rng, sp.whole).stalks[i]) + 1
                                        for i in range(2)])
        assert all(v > 0 for v in s.stalks)
        assert s.is_unit()
        inv = s.inverse()
        assert s * inv == StructureSection.one(sp.whole)
        assert all(v > 0 for v in inv.stalks)


def test_mapping_must_match_domain():
    sp = sierpinski()
    with pytest.raises(UnknownPoint):
        StructureSection.from_mapping(sp.whole, {"a": 1})


def test_section_ring_axioms_sampled():
    rng = random.Random(5)
    U = chain_space().open_set(["a", "b"])
    for _ in range(20):
        a, b, c = (rand_section(rng, U) for _ in range(3))
        assert a + (b + c) == (a + b) + c
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == StructureSection.zero(U)


def test_constructor_rejects_inexact_values():
    U = sierpinski().open_set(["a"])
    for bad in (0.1, 1.5, complex(1, 0), None):
        with pytest.raises(TypeError):
            StructureSection(U, [bad])
    assert StructureSection(U, ["1/3"]) == F(1, 3)
    assert StructureSection(U, [F(2, 4)]).stalks == (F(1, 2),)


# -- scalars: exact rationals -------------------------------------------------------


def test_rational_ops_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)  # cross-multiplication: (3+2)/6
    assert 1 / F(1) == 1
    assert abs(F(-3, 4)) == F(3, 4)


def test_canonical_form():
    q = F(6, -4)
    assert (q.numerator, q.denominator) == (-3, 2)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals, rationals)
def test_absolute_value_multiplicative(a, b):
    assert abs(a * b) == abs(a) * abs(b)
    assert abs(a) in (a, -a)


@given(rationals)
def test_strictly_positive_invertible(a):
    # inverse-positive-section condition on a one-point space
    s = StructureSection.constant(point_space().whole, a)
    if all(v > 0 for v in s.stalks):
        assert s.is_unit() and s * s.inverse() == 1
