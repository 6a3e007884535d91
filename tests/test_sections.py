"""Structure-sheaf sections: pointwise ring structure, units, restriction."""

import random
from fractions import Fraction as F

import pytest

from sympsheaf import StructureSection, section_ring, sierpinski, validate_topology
from sympsheaf.errors import NonUnitSection, NotASubset, NotExact, UnknownPoint

from oracles import rand_section


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
    assert empty.values == () and empty == StructureSection.zero(sp.empty)


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
    ring = section_ring(sp.whole)
    rng = random.Random(3)
    for _ in range(25):
        s = StructureSection(sp.whole, [abs(rand_section(rng, sp.whole).values[i]) + 1
                                        for i in range(2)])
        assert ring.is_strictly_positive(s)
        inv = ring.try_inverse(s)
        assert inv is not None and s * inv == ring.one
        assert ring.is_strictly_positive(inv)


def test_absolute_value_and_sqrt():
    sp = sierpinski()
    rng = random.Random(11)
    for _ in range(25):
        s, t = rand_section(rng, sp.whole), rand_section(rng, sp.whole)
        assert abs(s * t) == abs(s) * abs(t)
        r = (s * s).try_sqrt()
        assert r * r == s * s and r == abs(s)
    bad = StructureSection.from_mapping(sp.whole, {"a": 2, "b": 1})
    with pytest.raises(NotExact):
        bad.try_sqrt()


def test_mapping_must_match_domain():
    sp = sierpinski()
    with pytest.raises(UnknownPoint):
        StructureSection.from_mapping(sp.whole, {"a": 1})


def test_section_ring_axioms_sampled():
    sp = chain_space()
    ring = section_ring(sp.open_set(["a", "b"]))
    rng = random.Random(5)
    U = sp.open_set(["a", "b"])
    for _ in range(20):
        a, b, c = (rand_section(rng, U) for _ in range(3))
        assert ring.add(a, ring.add(b, c)) == ring.add(ring.add(a, b), c)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(a, ring.neg(a)) == ring.zero


def test_constructor_rejects_inexact_values():
    U = sierpinski().open_set(["a"])
    for bad in (0.1, 1.5, complex(1, 0), None):
        with pytest.raises(TypeError):
            StructureSection(U, [bad])
    assert StructureSection(U, ["1/3"]) == F(1, 3)
    assert StructureSection(U, [F(2, 4)]).values == (F(1, 2),)
