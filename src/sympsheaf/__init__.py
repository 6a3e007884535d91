"""sympsheaf: exact symplectic linear algebra over sheaves of rational-valued
functions on finite topological spaces.

Everything is exact: scalars are arbitrary-precision rationals, sections are
rational-valued functions on open sets, and every certified identity
(ᵗPΩP = J, A·adj = det·I, P_M(M) = 0, …) holds with zero tolerance.

``import sympsheaf`` loads no submodule.  Each public name below is imported
from its submodule on first use (PEP 562) and then kept in the package
namespace, so a CLI command loads only the modules it calls.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "charpoly": (
        "EigenPair", "EigenReport", "Polynomial", "ReciprocityReport",
        "cayley_hamilton_check", "char_poly", "eigen_presheaf_glue", "eigen_sections",
        "poly_apply", "rational_roots", "reciprocal_spectrum_check",
    ),
    "exterior": (
        "CovariantTensor", "KForm", "alternation", "form_power", "tensor_product", "wedge",
    ),
    "modules": (
        "SectionMatrix", "SectionVector", "determinant", "determinant_adjugate",
        "try_inverse_matrix",
    ),
    "presheaf": (
        "CompatibleFamily", "CompletenessReport", "ConstantPresheaf", "FunctionPresheaf",
        "GermSampledPresheaf", "check_completeness", "glue_stalkwise", "sample_grid",
        "sheafify_sections",
    ),
    "sections": ("StructureSection", "as_section"),
    "site": (
        "FiniteSpace", "OpenSet", "discrete", "enumerate_topologies", "is_open_cover",
        "minimal_cover", "minimal_open_neighborhood", "point_space", "sierpinski",
        "validate_topology",
    ),
    "symplectic": (
        "DarbouxBasis", "FormReport", "SymplecticMap", "block_normal_form", "check_form",
        "darboux_basis", "gram_two_form", "is_symplectic_map", "orientation_form",
        "random_symplectic", "rank_normal_form", "skew_normal_form", "standard_J",
        "standard_two_form", "symplectic_transvection",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
