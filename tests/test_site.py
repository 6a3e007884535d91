"""Finite spaces: validation, minimal neighborhoods, covers, enumeration."""

import random
from itertools import combinations

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
from sympsheaf.jsonio import space_from_json
from sympsheaf.site import _is_topology


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
    blob = {"points": list(sp.points),
            "opens": [list(sp.labels_of(m)) for m in sorted(sp.opens)]}
    assert blob == {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
    assert space_from_json(blob) == sp


def test_validation_order_insensitive():
    sp = validate_topology(["a", "b"], [["b", "a"], ["a"], []])
    assert sp == validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])


def first_unclosed_pair(masks):
    """The pairwise scan: the first pair, in sorted order, whose union or
    intersection is not in the family, with the error it raises; None when
    the family is closed under both."""
    for a, b in combinations(sorted(masks), 2):
        if a | b not in masks:
            return NotClosedUnderUnion, (a, b)
        if a & b not in masks:
            return NotClosedUnderIntersection, (a, b)
    return None


def families_with_empty_and_whole():
    """Every such family on 3 points; on 4 points, seeded random families of
    three densities and every topology with one proper open removed."""
    for choice in range(1 << 6):
        yield 3, {0, 7} | {m for m in range(1, 7) if choice >> (m - 1) & 1}
    rng = random.Random(27)
    for density in (0.2, 0.5, 0.8):
        for _ in range(200):
            yield 4, {0, 15} | {m for m in range(1, 15) if rng.random() < density}
    for sp in enumerate_topologies(["a", "b", "c", "d"]):
        yield 4, set(sp.opens)
        for m in sp.opens - {0, 15}:
            yield 4, set(sp.opens) - {m}


def test_linear_topology_test_matches_the_pairwise_scan():
    verdicts = set()
    for n, masks in families_with_empty_and_whole():
        points = "abcd"[:n]
        labels = discrete(points).labels_of
        first = first_unclosed_pair(masks)
        assert _is_topology(masks, n) == (first is None), masks
        verdicts.add(first is None)
        opens = [labels(m) for m in masks]
        if first is None:
            assert validate_topology(points, opens).opens == masks
        else:
            error, (a, b) = first
            with pytest.raises(error) as err:
                validate_topology(points, opens)
            assert type(err.value) is error
            assert err.value.witness == (labels(a), labels(b))
    assert verdicts == {True, False}
