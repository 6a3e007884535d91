"""The library's immutable records: construction, defaults, equality, hash,
repr and immutability, and the names the package exports."""

import sys
from fractions import Fraction as F

import pytest

import sympsheaf
from sympsheaf import (
    CompatibleFamily,
    CompletenessReport,
    DarbouxBasis,
    EigenPair,
    EigenReport,
    FiniteSpace,
    FormReport,
    OpenSet,
    ReciprocityReport,
    SectionMatrix,
    SectionVector,
    StructureSection,
    SymplecticMap,
    char_poly,
    sierpinski,
    standard_J,
)
from sympsheaf.errors import NotSymplectic
from sympsheaf.presheaf import AxiomReport

S = sierpinski()
U, A = S.whole, S.open_set(["a"])
LAM = StructureSection(U, [1, 2])
V = SectionVector(U, [1, 2])
I2, J = SectionMatrix.identity(U, 2), standard_J(U, 1)

# each record class with a value for each of its fields, in field order
RECORDS = {
    FiniteSpace: {"points": ("a", "b"), "opens": frozenset({0, 1, 3})},
    OpenSet: {"space": S, "mask": 1},
    EigenPair: {"lam": LAM, "vector": V},
    EigenReport: {"pairs": (EigenPair(LAM, V),), "omitted_points": ("b",)},
    ReciprocityReport: {"palindromic": True, "spectrum_closed": True, "char": char_poly(I2),
                        "spectra": {"a": (F(1),), "b": (F(1),)}},
    CompatibleFamily: {"cover": (A,), "sections": (LAM.restrict(A),)},
    AxiomReport: {"axiom": "S2", "status": "fail", "witness": {"left": LAM}},
    CompletenessReport: {"s1": AxiomReport("S1", "pass"), "s2": AxiomReport("S2", "pass")},
    FormReport: {"skew": True, "ranks": {"a": 2, "b": 0}, "nondegenerate": False},
    DarbouxBasis: {"s": (SectionVector.basis(U, 2, 0),), "t": (SectionVector.basis(U, 2, 1),),
                   "change_of_basis": I2, "gram": J},
    SymplecticMap: {"matrix": I2, "form": J},
}
CLASSES = list(RECORDS)
# the records that are not tuples: they equal only records of their own class
PLAIN = [FiniteSpace, OpenSet, SymplecticMap]


def build(cls):
    return cls(*RECORDS[cls].values())


def hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    fields = RECORDS[cls]
    record = build(cls)
    assert record == cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) is value


def test_defaults():
    assert AxiomReport("S1", "pass").witness is None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    fields = RECORDS[cls]
    record, again = build(cls), cls(**fields)
    assert record == again and not record != again
    if hashable(fields.values()):
        assert hash(record) == hash(again) and len({record, again}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    if cls is SymplecticMap:  # any other value of a field must pass the check
        assert record != SymplecticMap(J, J)
        return
    for name in fields:
        assert record != cls(**{**fields, name: object()})


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_plain_records_equal_only_their_own_class(cls):
    record = build(cls)
    assert record != tuple(RECORDS[cls].values())
    assert cls.__eq__(record, tuple(RECORDS[cls].values())) is NotImplemented


def test_open_sets_compare_by_mask_and_space():
    twin = sympsheaf.validate_topology(("a", "b"), [[], ["a"], ["a", "b"]])
    assert twin is not S and twin == S
    assert OpenSet(twin, 1) == A and hash(OpenSet(twin, 1)) == hash(A)
    assert OpenSet(S, 3) != A
    assert OpenSet(sympsheaf.discrete(["a", "b"]), 1) != A


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr(cls):
    fields = RECORDS[cls]
    if cls is FiniteSpace:
        expected = "FiniteSpace(points=['a', 'b'], opens=3)"
    elif cls is OpenSet:
        expected = "{a}"
    else:  # name(field=repr, …), in field order
        expected = f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert repr(build(cls)) == expected


def test_repr_text():
    assert repr(AxiomReport("S1", "pass")) == \
        "AxiomReport(axiom='S1', status='pass', witness=None)"
    assert repr(FormReport(skew=True, ranks={"a": 2}, nondegenerate=True)) == \
        "FormReport(skew=True, ranks={'a': 2}, nondegenerate=True)"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    record = build(cls)
    for name, value in RECORDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_symplectic_map_is_checked_when_built():
    with pytest.raises(NotSymplectic, match="does not preserve the reference form"):
        SymplecticMap(I2.scale(2), J)
    with pytest.raises(NotSymplectic):
        SymplecticMap(matrix=I2.scale(2), form=J)


def test_properties_and_methods():
    assert build(DarbouxBasis).m == 1
    assert build(FormReport).constant_rank is None
    assert FormReport(True, {"a": 2, "b": 2}, True).constant_rank == 2
    assert FormReport(True, {}, True).constant_rank == 0
    assert not build(AxiomReport).passed and build(CompletenessReport).passed
    assert build(CompatibleFamily).describe() == [(("a",), LAM.restrict(A))]
    assert SymplecticMap.identity(U, 1) == build(SymplecticMap)


# the package's public names: its __all__, so what `from sympsheaf import *` binds
EXPORTED = {
    "CompatibleFamily", "CompletenessReport", "ConstantPresheaf", "CovariantTensor",
    "DarbouxBasis", "EigenPair", "EigenReport", "FiniteSpace", "FormReport",
    "FunctionPresheaf", "GermSampledPresheaf", "KForm", "OpenSet", "Polynomial",
    "ReciprocityReport", "SectionMatrix", "SectionVector", "StructureSection", "SymplecticMap",
    "alternation", "as_section", "block_normal_form", "cayley_hamilton_check", "char_poly",
    "check_completeness", "check_form", "darboux_basis", "determinant", "determinant_adjugate",
    "discrete", "eigen_presheaf_glue", "eigen_sections", "enumerate_topologies", "form_power",
    "glue_stalkwise", "gram_two_form", "is_open_cover", "is_symplectic_map", "minimal_cover",
    "minimal_open_neighborhood", "orientation_form", "point_space", "poly_apply",
    "random_symplectic", "rank_normal_form", "rational_roots", "reciprocal_spectrum_check",
    "sample_grid", "sheafify_sections", "sierpinski", "skew_normal_form", "standard_J",
    "standard_two_form", "symplectic_transvection", "tensor_product", "try_inverse_matrix",
    "validate_topology", "wedge",
}


def test_star_import_exports_the_public_names():
    namespace = {}
    exec("from sympsheaf import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == EXPORTED


def test_all_lists_the_public_names_once():
    assert sorted(sympsheaf.__all__) == sorted(EXPORTED)


def test_each_public_name_is_its_submodules_object():
    assert EXPORTED <= set(dir(sympsheaf))
    for name in EXPORTED:
        value = getattr(sympsheaf, name)
        assert value.__module__.rpartition(".")[0] == "sympsheaf", name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sympsheaf.no_such_name
    assert not hasattr(sympsheaf, "no_such_name")
    assert "no_such_name" not in dir(sympsheaf)
