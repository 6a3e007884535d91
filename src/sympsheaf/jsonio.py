"""JSON encoding/decoding for the data the CLI and tests exchange.

Rationals serialize as integers when integral and "p/q" strings otherwise;
sections as {"open": [...], "values": {point: rational}}; matrices as
arrays of arrays whose entries are bare rationals (constant sections) or
section objects; k-forms with 1-based strictly increasing multi-indices.
Input that breaks these rules raises MalformedInput naming the field.

Since A(U) = ∏_{x∈U} ℚ, every entry is read into, and written from, its
tuple of values at the points of U: matrices, vectors and forms go to and
from their `stalks` directly, with no section object per entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from .charpoly import Polynomial
from .errors import MalformedInput, NotAnOpen, TopologyError, UnknownPoint
from .exterior import KForm
from .modules import SectionMatrix, SectionVector
from .sections import StructureSection
from .site import FiniteSpace, OpenSet, validate_topology


def fraction_to_json(q: Fraction) -> Any:
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fraction_from_json(obj: Any, field: str) -> Fraction:
    if type(obj) is int:  # bool is an int subclass
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except ZeroDivisionError:
            raise MalformedInput(f"{field}: zero denominator: {obj!r}") from None
        except ValueError:
            pass
    raise MalformedInput(f"{field}: not a rational: {obj!r}")


def space_to_json(space: FiniteSpace) -> dict:
    return {"points": list(space.points),
            "opens": [list(space.labels_of(m)) for m in sorted(space.opens)]}


def space_from_json(obj: Any) -> FiniteSpace:
    if not isinstance(obj, dict):
        raise MalformedInput(f"space: not an object: {obj!r}")
    for key in ("points", "opens"):
        if key not in obj:
            raise MalformedInput(f"space.{key}: missing")
        if not isinstance(obj[key], list):
            raise MalformedInput(f"space.{key}: not an array: {obj[key]!r}")
    points, opens = obj["points"], obj["opens"]
    for i, p in enumerate(points):
        if not isinstance(p, str):
            raise MalformedInput(f"space.points[{i}]: not a string: {p!r}")
        if p in points[:i]:
            raise MalformedInput(f"space.points[{i}]: duplicate point label {p!r}")
    for i, labels in enumerate(opens):
        if not isinstance(labels, list):
            raise MalformedInput(f"space.opens[{i}]: not an array: {labels!r}")
        for j, p in enumerate(labels):
            if not isinstance(p, str):
                raise MalformedInput(f"space.opens[{i}][{j}]: not a string: {p!r}")
    try:
        return validate_topology(points, opens)
    except (TopologyError, UnknownPoint) as exc:
        raise MalformedInput(f"space.opens: {exc}") from None


def open_from_json(space: FiniteSpace, labels: Any, field: str) -> OpenSet:
    if not isinstance(labels, list) or not all(isinstance(p, str) for p in labels):
        raise MalformedInput(f"{field}: not an array of point labels: {labels!r}")
    try:
        return space.open_set(labels)
    except (NotAnOpen, UnknownPoint) as exc:
        raise MalformedInput(f"{field}: {exc}") from None


def section_to_json(s: StructureSection) -> dict:
    return {"open": list(s.domain.labels),
            "values": {p: fraction_to_json(v) for p, v in zip(s.domain.labels, s.stalks)}}


def _values_from_json(domain: OpenSet, obj: Any, field: str) -> tuple[Fraction, ...]:
    """The values at domain.labels of an entry: a bare rational is constant,
    a section object must be declared over domain and name each of its points."""
    if isinstance(obj, dict) and "values" in obj:
        declared = open_from_json(domain.space, obj["open"], f"{field}.open") \
            if "open" in obj else domain
        if declared != domain:
            raise MalformedInput(
                f"{field}.open: section declared over {declared}, expected {domain}")
        values = obj["values"]
        if not isinstance(values, dict):
            raise MalformedInput(f"{field}.values: not an object: {values!r}")
        odd = sorted(set(values) ^ set(domain.labels), key=lambda p: (p not in values, p))
        if odd:
            where = "not in" if odd[0] in values else "missing from"
            raise MalformedInput(f"{field}.values.{odd[0]}: point {odd[0]!r} is {where} {domain}")
        return tuple(fraction_from_json(values[p], f"{field}.values.{p}") for p in domain.labels)
    return (fraction_from_json(obj, field),) * domain.size


def section_from_json(domain: OpenSet, obj: Any, field: str) -> StructureSection:
    return StructureSection.from_stalks(domain, _values_from_json(domain, obj, field))


def _entry(labels: Sequence[str], values: Sequence[Fraction]) -> Any:
    """An entry with these values at the points labels: a bare rational when
    they are all equal, 0 on U = ∅, a section object otherwise.  A Fraction is
    in lowest terms, so equal values encode to equal ints or "p/q" strings."""
    encoded = [fraction_to_json(v) for v in values]
    if not encoded:
        return 0
    if encoded.count(encoded[0]) == len(encoded):
        return encoded[0]
    return {"open": list(labels), "values": dict(zip(labels, encoded))}


def entry_to_json(s: StructureSection) -> Any:
    """Bare rational for constant sections, full section object otherwise."""
    return _entry(s.domain.labels, s.stalks)


def matrix_to_json(m: SectionMatrix) -> list:
    labels, stalks = m.domain.labels, m.stalks
    return [[_entry(labels, [s[i][j] for s in stalks]) for j in range(m.cols)]
            for i in range(m.rows)]


def matrix_from_json(domain: OpenSet, obj: Any, field: str = "matrix") -> SectionMatrix:
    if not isinstance(obj, list):
        raise MalformedInput(f"{field}: not an array of arrays: {obj!r}")
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise MalformedInput(f"{field}[{i}]: not an array: {row!r}")
        if len(row) != len(obj[0]):
            raise MalformedInput(f"{field}[{i}]: {len(row)} entries where row 0 has {len(obj[0])}")
    grid = [[_values_from_json(domain, e, f"{field}[{i}][{j}]") for j, e in enumerate(row)]
            for i, row in enumerate(obj)]
    return SectionMatrix.from_stalks(
        domain, len(grid), len(grid[0]) if grid else 0,
        ([[e[k] for e in row] for row in grid] for k in range(domain.size)))


def vector_to_json(v: SectionVector) -> list:
    labels, stalks = v.domain.labels, v.stalks
    return [_entry(labels, [s[i] for s in stalks]) for i in range(v.length)]


def vector_from_json(domain: OpenSet, obj: Sequence) -> SectionVector:
    entries = [_values_from_json(domain, e, f"vector[{i}]") for i, e in enumerate(obj)]
    return SectionVector.from_stalks(domain, len(entries),
                                     ([e[k] for e in entries] for k in range(domain.size)))


def kform_to_json(f: KForm) -> dict:
    labels, maps = f.domain.labels, [dict(s) for s in f.stalks]
    coeffs = {"[" + ",".join(str(i + 1) for i in idx) + "]":
              _entry(labels, [m.get(idx, 0) for m in maps])
              for idx in sorted(set().union(*maps))}  # in index order
    return {"degree": f.degree, "rank": f.rank, "coeffs": coeffs}


def _multi_index_from_json(key: str, degree: int, rank: int, field: str) -> tuple[int, ...]:
    """The 0-based indices of a key "[i1,…,ik]", k = degree, 1 ≤ i1 < … < ik ≤ rank."""
    body = key.strip()
    if body.startswith("[") and body.endswith("]"):
        parts = [p.strip() for p in body[1:-1].split(",")] if body[1:-1].strip() else []
        if all(map(str.isdecimal, parts)):
            idx = tuple(int(p) - 1 for p in parts)
            if len(idx) == degree and all(a < b for a, b in zip((-1,) + idx, idx + (rank,))):
                return idx
    raise MalformedInput(f"{field}: not a multi-index for degree {degree}, rank {rank}: {key!r}")


def _size_from_json(obj: dict, key: str, field: str) -> int:
    """The nonnegative integer obj[key]: the degree or the rank of a form."""
    if key not in obj:
        raise MalformedInput(f"{field}: missing")
    value = obj[key]
    if type(value) is not int:  # bool is an int subclass, and int() truncates floats
        raise MalformedInput(f"{field}: not an integer: {value!r}")
    if value < 0:
        raise MalformedInput(f"{field}: negative: {value}")
    return value


def kform_from_json(domain: OpenSet, obj: Any, field: str) -> KForm:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{field}: not an object: {obj!r}")
    degree = _size_from_json(obj, "degree", f"{field}.degree")
    rank = _size_from_json(obj, "rank", f"{field}.rank")
    coeffs = obj.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise MalformedInput(f"{field}.coeffs: not an object: {coeffs!r}")
    values = {_multi_index_from_json(k, degree, rank, f"{field}.coeffs.{k}"):
              _values_from_json(domain, v, f"{field}.coeffs.{k}") for k, v in coeffs.items()}
    # from_stalks runs no _check_index: _multi_index_from_json has checked every key
    return KForm.from_stalks(domain, rank, degree,
                             ({idx: c[k] for idx, c in values.items()} for k in range(domain.size)))


def polynomial_to_json(p: Polynomial) -> list:
    return vector_to_json(p)
