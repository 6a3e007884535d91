"""sympsheaf: exact symplectic linear algebra over sheaves of rational-valued
functions on finite topological spaces.

Everything is exact: scalars are arbitrary-precision rationals, sections are
rational-valued functions on open sets, and every certified identity
(ᵗPΩP = J, A·adj = det·I, P_M(M) = 0, …) holds with zero tolerance.
"""

from .charpoly import (
    EigenPair,
    EigenReport,
    Polynomial,
    ReciprocityReport,
    cayley_hamilton_check,
    char_poly,
    eigen_presheaf_glue,
    eigen_sections,
    poly_apply,
    rational_roots,
    reciprocal_spectrum_check,
)
from .exterior import (
    CovariantTensor,
    GradedForm,
    KForm,
    alternation,
    evaluate_form,
    form_power,
    tensor_product,
    volume_element,
    wedge,
)
from .modules import (
    IndependenceReport,
    SectionMatrix,
    SectionVector,
    determinant,
    determinant_adjugate,
    kronecker_product,
    linear_independence,
    try_inverse_matrix,
)
from .presheaf import (
    CompatibleFamily,
    CompletenessReport,
    ConstantPresheaf,
    FunctionPresheaf,
    GermSampledPresheaf,
    check_completeness,
    glue_stalkwise,
    sample_grid,
    sheafify_sections,
    stalk_at,
)
from .sections import StructureSection, as_section, rational_try_sqrt
from .site import (
    FiniteSpace,
    OpenSet,
    discrete,
    enumerate_topologies,
    is_open_cover,
    minimal_cover,
    minimal_open_neighborhood,
    point_space,
    sierpinski,
    validate_topology,
)
from .symplectic import (
    DarbouxBasis,
    FormReport,
    SymplecticMap,
    block_normal_form,
    check_form,
    darboux_basis,
    form_pairing,
    gram_two_form,
    hyperbolic_sum_form,
    is_symplectic_map,
    orientation_form,
    random_symplectic,
    skew_normal_form,
    standard_J,
    standard_sum_decomposition,
    standard_two_form,
    symplectic_transvection,
)

__version__ = "0.1.0"
