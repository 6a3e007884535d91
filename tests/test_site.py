"""Finite spaces: validation, minimal neighborhoods, covers, enumeration."""

import pytest

from sympsheaf import (
    discrete,
    enumerate_topologies,
    is_open_cover,
    minimal_cover,
    minimal_open_neighborhood,
    sierpinski,
    validate_topology,
)
from sympsheaf.errors import (
    MissingEmptyOrWhole,
    NotAnOpen,
    NotASubset,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UnknownPoint,
)
from sympsheaf.jsonio import space_from_json, space_to_json


def test_sierpinski_valid():
    sp = sierpinski()
    assert len(sp.opens) == 3


def test_three_point_example_valid():
    opens = [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]
    sp = validate_topology(["a", "b", "c"], opens)
    # exhaustive pairwise closure, checked independently on label sets
    sets = [frozenset(o) for o in opens]
    for x in sets:
        for y in sets:
            assert frozenset(x | y) in sets and frozenset(x & y) in sets
    assert len(sp.opens) == 5


def test_missing_whole():
    with pytest.raises(MissingEmptyOrWhole):
        validate_topology(["a", "b"], [[], ["a"], ["b"]])


def test_union_violation_witness():
    with pytest.raises(NotClosedUnderUnion) as err:
        validate_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])
    assert set(err.value.witness) == {("a",), ("b",)}


def test_intersection_violation():
    with pytest.raises(NotClosedUnderIntersection):
        validate_topology(["a", "b", "c"],
                          [[], ["a", "b"], ["b", "c"], ["a", "b", "c"],
                           ["a"], ["c"], ["a", "c"]])


def test_minimal_neighborhoods():
    sp = sierpinski()
    assert minimal_open_neighborhood(sp, "a").labels == ("a",)
    assert minimal_open_neighborhood(sp, "b").labels == ("a", "b")
    d3 = discrete(["a", "b", "c"])
    assert minimal_open_neighborhood(d3, "c").labels == ("c",)
    with pytest.raises(UnknownPoint):
        minimal_open_neighborhood(sp, "z")


def test_minimal_neighborhood_is_least():
    for sp in enumerate_topologies(["a", "b", "c"]):
        for p in sp.points:
            nbhd = minimal_open_neighborhood(sp, p)
            for candidate in sp.all_opens():
                if p in candidate:
                    assert nbhd.is_subset(candidate)


def test_minimal_cover_covers_every_open():
    for sp in enumerate_topologies(["a", "b", "c"]):
        for U in sp.all_opens():
            assert is_open_cover(U, minimal_cover(U))


def test_is_open_cover_examples():
    sp = validate_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    U = sp.open_set(["a", "b"])
    assert is_open_cover(U, [sp.open_set(["a"]), sp.open_set(["b"])])
    assert not is_open_cover(U, [sp.open_set(["a"])])
    assert is_open_cover(sp.empty, [])


def test_cover_member_must_be_inside():
    sp = sierpinski()
    with pytest.raises(NotASubset):
        is_open_cover(sp.open_set(["a"]), [sp.whole])


def test_open_set_must_be_open():
    sp = sierpinski()
    with pytest.raises(NotAnOpen):
        sp.open_set(["b"])


def test_lattice_operations():
    sp = validate_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    a, b = sp.open_set(["a"]), sp.open_set(["b"])
    assert a.union(b).labels == ("a", "b")
    assert a.intersection(b).mask == 0
    assert a.is_subset(sp.whole) and not sp.whole.is_subset(a)


def test_enumerate_topology_counts():
    # number of labeled topologies: 1, 4, 29 on 1..3 points
    assert sum(1 for _ in enumerate_topologies(["a"])) == 1
    assert sum(1 for _ in enumerate_topologies(["a", "b"])) == 4
    assert sum(1 for _ in enumerate_topologies(["a", "b", "c"])) == 29


def test_four_points_carry_355_distinct_topologies():
    # OEIS A000798: 355 labeled topologies on 4 points, each listed once
    spaces = list(enumerate_topologies(["a", "b", "c", "d"]))
    assert len(spaces) == len({sp.opens for sp in spaces}) == 355


def test_space_json_roundtrip():
    sp = validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])
    blob = space_to_json(sp)
    assert blob == {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
    assert space_from_json(blob) == sp


def test_validation_order_insensitive():
    sp = validate_topology(["a", "b"], [["b", "a"], ["a"], []])
    assert sp == validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])
