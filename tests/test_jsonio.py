"""The JSON boundary: round trips through stalks, and a fuzz test of the loader."""

import copy
import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sympsheaf import KForm, SectionMatrix, SectionVector, enumerate_topologies, sierpinski
from sympsheaf.charpoly import Polynomial
from sympsheaf.cli import main
from sympsheaf.jsonio import (entry_to_json, fraction_to_json, kform_from_json, kform_to_json,
                              matrix_from_json, matrix_to_json, polynomial_to_json,
                              section_from_json, vector_from_json, vector_to_json)

from test_cli import CASES, DATA

SPACES = [sierpinski(), *enumerate_topologies(["a", "b", "c"])]
opens = st.sampled_from(SPACES).flatmap(lambda sp: st.sampled_from(sp.all_opens()))
# integers and "p/q" values, zero among them
rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def stalks_of(U, n):
    """n values at each point of U, as n per-entry tuples: some entries constant."""
    entry = st.one_of(rationals.map(lambda q: (q,) * U.size),
                      st.tuples(*[rationals] * U.size))
    return st.lists(entry, min_size=n, max_size=n)


@st.composite
def matrices(draw):
    U = draw(opens)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entries = draw(stalks_of(U, rows * cols))
    return SectionMatrix.from_stalks(
        U, rows, cols, ([[entries[i * cols + j][k] for j in range(cols)] for i in range(rows)]
                        for k in range(U.size)))


@st.composite
def vectors(draw, cls=SectionVector):
    U = draw(opens)
    n = draw(st.integers(0, 4))
    entries = draw(stalks_of(U, n))
    return cls.from_stalks(U, n, ([e[k] for e in entries] for k in range(U.size)))


@st.composite
def kforms(draw):
    U = draw(opens)
    rank = draw(st.integers(0, 4))
    degree = draw(st.integers(0, rank))
    support = draw(st.lists(st.sampled_from(list(combinations(range(rank), degree))),
                            unique=True))
    coeffs = draw(stalks_of(U, len(support)))  # a zero at some points, or at all
    return KForm.from_stalks(U, rank, degree, ({idx: c[k] for idx, c in zip(support, coeffs)}
                                               for k in range(U.size)))


def decoded(U, entry):
    """The values at U.labels that an encoded entry names."""
    if isinstance(entry, dict):
        assert entry["open"] == list(U.labels)
        return tuple(F(entry["values"][p]) for p in U.labels)
    return (F(entry),) * U.size


def assert_entry_form(U, entry, values):
    """A constant entry is a bare rational, and every entry is 0 on U = ∅."""
    if not U.size:
        assert entry == 0
    elif len(set(values)) == 1:
        assert entry == fraction_to_json(values[0]) and not isinstance(entry, dict)
    else:
        assert isinstance(entry, dict)
    assert decoded(U, entry) == tuple(values)


@given(matrices())
def test_matrix_round_trip(M):
    encoded = matrix_to_json(M)
    assert matrix_from_json(M.domain, encoded) == M
    for i, row in enumerate(encoded):
        for j, entry in enumerate(row):
            assert_entry_form(M.domain, entry, [s[i][j] for s in M.stalks])


@given(vectors())
def test_vector_round_trip(v):
    encoded = vector_to_json(v)
    assert vector_from_json(v.domain, encoded) == v
    for i, entry in enumerate(encoded):
        assert_entry_form(v.domain, entry, [s[i] for s in v.stalks])
        assert section_from_json(v.domain, entry, "s") == v[i]
        assert entry_to_json(v[i]) == entry


@given(vectors(Polynomial))
def test_polynomial_encodes_as_its_coefficient_vector(p):
    assert polynomial_to_json(p) == vector_to_json(
        SectionVector.from_stalks(p.domain, p.length, p.stalks))


@given(kforms())
def test_kform_round_trip(f):
    encoded = kform_to_json(f)
    assert kform_from_json(f.domain, encoded, "f") == f
    assert list(encoded["coeffs"]) == sorted(encoded["coeffs"], key=json.loads)
    for key, entry in encoded["coeffs"].items():
        idx = tuple(i - 1 for i in json.loads(key))
        assert_entry_form(f.domain, entry, [dict(s).get(idx, 0) for s in f.stalks])
        assert any(decoded(f.domain, entry))  # only coefficients nonzero somewhere


# -- fuzzing the loader through the CLI ---------------------------------------------

def _parsed_cases():
    for command, name, _ in CASES:
        try:
            yield command, json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        except ValueError:  # malformed.json is not JSON
            pass


DOCS = list(_parsed_cases())
# what a scalar is swapped for, and what else a container may become
ODD_SCALARS = [None, True, False, 1.5, 2.0, -0.0, 1e300, "1/0", "x", "", "1/-2", 10 ** 40,
               "1e3", "0.5", " 3 ", "+3", "1_000", "٣"]
ODD = ODD_SCALARS + [-7, "3/4", [], {}, [[0]], [1, "a"], {"values": {}},
                     {"open": [], "values": {}}]
LABELS = ["a", "b", "c", "z", "", "x"]


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(doc, path, kind, draw):
    """doc with one mutation at path: a key dropped, a type swapped, a row made
    ragged or a point renamed."""
    if not path:
        return copy.deepcopy(draw(st.sampled_from(ODD))) if kind == "swap" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        odd = ODD if isinstance(node, (dict, list)) else ODD_SCALARS
        parent[key] = copy.deepcopy(draw(st.sampled_from(odd)))
    elif kind == "ragged" and isinstance(node, list):
        if node and draw(st.booleans()):
            node.pop()
        else:
            node.append(draw(st.sampled_from([0, "1/2", [0], "a"])))
    elif kind == "rename" and isinstance(node, dict) and node:
        old = draw(st.sampled_from(sorted(node)))
        node[draw(st.sampled_from(LABELS))] = node.pop(old)
    elif kind == "rename" and isinstance(node, str):
        parent[key] = draw(st.sampled_from(LABELS))
    return doc


@st.composite
def mutants(draw):
    command, doc = draw(st.sampled_from(DOCS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _mutate(doc, path, draw(st.sampled_from(["drop", "swap", "ragged", "rename"])), draw)
    return command, doc


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@settings(max_examples=500)
@given(mutants())
def test_mutated_inputs_get_a_report(problem_file, mutant):
    """Every mutant of a test input ends in a report with exit code 0, 1 or 2,
    never in a traceback, and exit code 2 means MalformedInput: a rejection
    by the loader or by the JSON decoder, not an exception from elsewhere."""
    command, doc = mutant
    problem_file.write_text(json.dumps(doc), encoding="utf-8")
    for output in ("json", "text"):
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf):
            code = main([command, "--input", str(problem_file), "--output", output])
        assert time.perf_counter() - start < 2
        assert code in (0, 1, 2)
        if output == "json":
            report = json.loads(buf.getvalue())
            assert report["command"] == command
            status = report["status"]
            assert (code == 2) == (status == "MalformedInput")
            if code == 2:
                assert report["error"]["name"] == "MalformedInput"
                assert report["error"]["message"].startswith(("MalformedInput:",
                                                              "JSONDecodeError:"))
        else:
            assert buf.getvalue().startswith(f"{command}: {status}\n")
