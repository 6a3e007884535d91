"""JSON encoding/decoding for the data the CLI and tests exchange: the one
owner of the problem file format.

Rationals serialize as integers when integral and "p/q" strings otherwise;
sections as {"open": [...], "values": {point: rational}}; matrices as
arrays of arrays whose entries are bare rationals (constant sections) or
section objects; k-forms with 1-based strictly increasing multi-indices.
problem_from_json decodes a problem file's bytes and checks every field its
command uses before any algebra runs: input that breaks these rules raises
MalformedInput naming the field.  witness_to_json encodes report witnesses.
Input stays within Python's int→str digit limit and within the nesting
that its recursion limit lets the JSON decoder follow.

Since A(U) = ∏_{x∈U} ℚ, every entry is read into, and written from, its
tuple of values at the points of U: matrices, vectors and forms go to and
from their `stalks` directly, with no section object per entry.  Each
reader imports the class it builds once its input has been checked, so
malformed input loads no algebra module.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import MalformedInput, NotAnOpen, TopologyError, UnknownPoint
from .site import FiniteSpace, OpenSet, validate_topology

if TYPE_CHECKING:  # for annotations alone: each reader imports the class it builds
    from .charpoly import Polynomial
    from .exterior import KForm
    from .modules import SectionMatrix, SectionVector
    from .sections import StructureSection

_MISSING = object()  # what a reader is given for an absent key
_NOT = {list: "not an array", dict: "not an object"}
_PRESHEAVES = {"functions": "FunctionPresheaf", "constant": "ConstantPresheaf"}


def _checked(value: Any, field: str, kind: type = object) -> Any:
    """value, the JSON found at field: MalformedInput naming field when it is
    _MISSING or, for kind list or dict, not a JSON array or object."""
    if value is _MISSING:
        raise MalformedInput(f"{field}: missing")
    if not isinstance(value, kind):
        raise MalformedInput(f"{field}: {_NOT[kind]}: {value!r}")
    return value


def fraction_to_json(q: Fraction) -> Any:
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # "p" or "p/q", ASCII digits


def fraction_from_json(obj: Any, field: str) -> Fraction:
    if type(obj) is int:  # bool is an int subclass
        return Fraction(obj)
    match = _RATIONAL.fullmatch(obj) if isinstance(obj, str) else None
    if match is None:
        raise MalformedInput(f"{field}: not a rational: {obj!r}")
    p, q = match.groups()
    try:
        return Fraction(int(p), int(q or 1))
    except ZeroDivisionError:
        raise MalformedInput(f"{field}: zero denominator: {obj!r}") from None
    except ValueError:  # a run of digits past the int→str digit limit
        raise _past_digit_limit(field) from None


def _past_digit_limit(field: str) -> MalformedInput:
    limit = sys.get_int_max_str_digits()
    return MalformedInput(f"{field}: a number of more than {limit} digits, "
                          "past the input digit limit")


def space_to_json(space: FiniteSpace) -> dict:
    return {"points": list(space.points),
            "opens": [list(space.labels_of(m)) for m in sorted(space.opens)]}


def space_from_json(obj: Any) -> FiniteSpace:
    _checked(obj, "space", dict)
    points, opens = (_checked(obj.get(key, _MISSING), f"space.{key}", list)
                     for key in ("points", "opens"))
    for i, p in enumerate(points):
        if not isinstance(p, str):
            raise MalformedInput(f"space.points[{i}]: not a string: {p!r}")
        if p in points[:i]:
            raise MalformedInput(f"space.points[{i}]: duplicate point label {p!r}")
    for i, labels in enumerate(opens):
        for j, p in enumerate(_checked(labels, f"space.opens[{i}]", list)):
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
        values = _checked(obj["values"], f"{field}.values", dict)
        odd = sorted(set(values) ^ set(domain.labels), key=lambda p: (p not in values, p))
        if odd:
            where = "not in" if odd[0] in values else "missing from"
            raise MalformedInput(f"{field}.values.{odd[0]}: point {odd[0]!r} is {where} {domain}")
        return tuple(fraction_from_json(values[p], f"{field}.values.{p}") for p in domain.labels)
    return (fraction_from_json(obj, field),) * domain.size


def section_from_json(domain: OpenSet, obj: Any, field: str) -> StructureSection:
    values = _values_from_json(domain, obj, field)
    from .sections import StructureSection
    return StructureSection.from_stalks(domain, values)


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
    if not isinstance(_checked(obj, field), list):
        raise MalformedInput(f"{field}: not an array of arrays: {obj!r}")
    for i, row in enumerate(obj):
        if len(_checked(row, f"{field}[{i}]", list)) != len(obj[0]):
            raise MalformedInput(f"{field}[{i}]: {len(row)} entries where row 0 has {len(obj[0])}")
    grid = [[_values_from_json(domain, e, f"{field}[{i}][{j}]") for j, e in enumerate(row)]
            for i, row in enumerate(obj)]
    from .modules import SectionMatrix
    return SectionMatrix.from_stalks(
        domain, len(grid), len(grid[0]) if grid else 0,
        ([[e[k] for e in row] for row in grid] for k in range(domain.size)))


def vector_to_json(v: SectionVector) -> list:
    labels, stalks = v.domain.labels, v.stalks
    return [_entry(labels, [s[i] for s in stalks]) for i in range(v.length)]


def vector_from_json(domain: OpenSet, obj: Sequence) -> SectionVector:
    entries = [_values_from_json(domain, e, f"vector[{i}]") for i, e in enumerate(obj)]
    from .modules import SectionVector
    return SectionVector.from_stalks(domain, len(entries),
                                     ([e[k] for e in entries] for k in range(domain.size)))


def kform_to_json(f: KForm) -> dict:
    labels, maps = f.domain.labels, [dict(s) for s in f.stalks]
    coeffs = {"[" + ",".join(str(i + 1) for i in idx) + "]":
              _entry(labels, [m.get(idx, 0) for m in maps])
              for idx in sorted(set().union(*maps))}  # in index order
    return {"degree": f.degree, "rank": f.rank, "coeffs": coeffs}


def _multi_index_from_json(key: str, degree: int, rank: int, field: str) -> tuple[int, ...]:
    """The 0-based indices of a key "[i1,…,ik]", k = degree, 1 ≤ i1 < … < ik ≤ rank.
    An index written with more digits than rank is rejected unread, so none
    reaches int() past its digit limit."""
    body = key.strip()
    width = len(str(rank))
    if body.startswith("[") and body.endswith("]"):
        parts = [p.strip() for p in body[1:-1].split(",")] if body[1:-1].strip() else []
        if all(p.isascii() and p.isdecimal() and len(p) <= width for p in parts):
            idx = tuple(int(p) - 1 for p in parts)
            if len(idx) == degree and all(a < b for a, b in zip((-1,) + idx, idx + (rank,))):
                return idx
    raise MalformedInput(f"{field}: not a multi-index for degree {degree}, rank {rank}: {key!r}")


def _size_from_json(obj: dict, key: str, field: str) -> int:
    """The nonnegative integer obj[key]: the degree or the rank of a form."""
    value = _checked(obj.get(key, _MISSING), field)
    if type(value) is not int:  # bool is an int subclass, and int() truncates floats
        raise MalformedInput(f"{field}: not an integer: {value!r}")
    if value < 0:
        raise MalformedInput(f"{field}: negative: {value}")
    return value


def kform_from_json(domain: OpenSet, obj: Any, field: str) -> KForm:
    _checked(obj, field, dict)
    degree = _size_from_json(obj, "degree", f"{field}.degree")
    rank = _size_from_json(obj, "rank", f"{field}.rank")
    coeffs = _checked(obj.get("coeffs", {}), f"{field}.coeffs", dict)
    values = {_multi_index_from_json(k, degree, rank, f"{field}.coeffs.{k}"):
              _values_from_json(domain, v, f"{field}.coeffs.{k}") for k, v in coeffs.items()}
    from .exterior import KForm
    # from_stalks runs no _check_index: _multi_index_from_json has checked every key
    return KForm.from_stalks(domain, rank, degree,
                             ({idx: c[k] for idx, c in values.items()} for k in range(domain.size)))


def polynomial_to_json(p: Polynomial) -> list:
    return vector_to_json(p)


def problem_from_json(data: bytes, command: str) -> tuple[OpenSet, dict[str, Any]]:
    """The open set U that a problem file's bytes, UTF-8 text, pose command
    over, and the inputs command reads from it, by field name, every one of
    them checked.  A byte order mark is left for the JSON decoder to reject."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"problem: not UTF-8: byte {data[exc.start]:#04x} at offset "
                             f"{exc.start} ({exc.reason})") from None
    try:
        problem = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other: an integer literal past the digit limit
        raise _past_digit_limit("problem") from None
    except RecursionError:
        raise MalformedInput(f"problem: nested deeper than the recursion limit "
                             f"({sys.getrecursionlimit()}) allows") from None
    if not isinstance(problem, dict):
        raise MalformedInput("problem: not a JSON object")
    space = space_from_json(problem.get("space", _MISSING))
    labels = problem.get("open")
    U = space.whole if labels is None else open_from_json(space, labels, "open")
    inputs = {key: read(U, problem.get(key, _MISSING), key)
              for key, read in _INPUTS[command].items()}
    # a reference form, as check-symplectic takes, is square of the matrix's size
    M, omega = inputs.get("matrix"), inputs.get("form")
    if M is not None and omega is not None and (omega.rows != M.rows or omega.cols != M.rows):
        raise MalformedInput(f"form: {omega.rows}x{omega.cols} where the matrix "
                             f"has {M.rows} rows; the form must be {M.rows}x{M.rows}")
    return U, inputs


def _optional(read: Callable) -> Callable:
    """read, giving None for an absent field."""
    return lambda U, obj, field: None if obj is _MISSING else read(U, obj, field)


def _array_of(read: Callable) -> Callable:
    """The reader of an array whose i-th element read reads at field[i]."""
    return lambda U, obj, field: [read(U, x, f"{field}[{i}]")
                                  for i, x in enumerate(_checked(obj, field, list))]


def _grid_from_json(U: OpenSet, obj: Any, field: str) -> list[Fraction]:
    """A sampled grid: a nonempty array of rationals."""
    grid = _array_of(lambda U, x, field: fraction_from_json(x, field))(U, obj, field)
    if not grid:
        raise MalformedInput(f"{field}: empty; a grid needs at least one value")
    return grid


def _presheaf_from_json(U: OpenSet, obj: Any, field: str) -> type:
    """The presheaf class that a kind names, "functions" when none is given."""
    kind = "functions" if obj is _MISSING else obj
    if not isinstance(kind, str) or kind not in _PRESHEAVES:
        raise MalformedInput(f"{field}: unknown presheaf kind {kind!r}")
    from . import presheaf
    return getattr(presheaf, _PRESHEAVES[kind])


# command -> the fields it reads, each with its reader, in the order they are checked
_INPUTS: dict[str, dict[str, Callable[[OpenSet, Any, str], Any]]] = {
    "darboux": {"form": matrix_from_json},
    "normal-form": {"form": matrix_from_json},
    "check-symplectic": {"matrix": matrix_from_json, "form": _optional(matrix_from_json)},
    "charpoly": {"matrix": matrix_from_json},
    "eigen": {"matrix": matrix_from_json},
    "sheaf-check": {
        "grid": _optional(_grid_from_json),
        "presheaf": _presheaf_from_json,
        "cover": _array_of(lambda U, x, field: open_from_json(U.space, x, field))},
    "wedge": {"xi": kform_from_json, "eta": kform_from_json},
}


def witness_to_json(witness: Any) -> Any:
    """An error's or a failed axiom's witness: a compatible family as
    {"family": [{"open", "section"}, …]}, rationals and sections as above,
    containers entry by entry and anything else by its repr."""
    from .sections import StructureSection
    # a compatible family exists only once presheaf is loaded: other commands'
    # witnesses are encoded without loading it
    presheaf = sys.modules.get(f"{__package__}.presheaf")
    CompatibleFamily = presheaf.CompatibleFamily if presheaf else ()

    def encode(w):  # imports nothing, since it recurses
        if isinstance(w, CompatibleFamily):
            return {"family": [{"open": list(V.labels), "section": encode(s)}
                               for V, s in zip(w.cover, w.sections)]}
        if isinstance(w, (list, tuple)):
            return [encode(v) for v in w]
        if isinstance(w, dict):
            return {str(k): encode(v) for k, v in w.items()}
        if isinstance(w, Fraction):
            return fraction_to_json(w)
        if isinstance(w, StructureSection):
            return section_to_json(w)
        if isinstance(w, (str, int, bool)) or w is None:
            return w
        return repr(w)

    return encode(witness)
