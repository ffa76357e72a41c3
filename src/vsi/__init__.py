"""Semi-invariants of quiver representations.

Euler forms and projective presentations, generic decompositions via Fitting
splitting, determinantal semi-invariants C_V, the support cones D(beta), and
simplicial complexes of compatible roots realizing spheres for Dynkin quivers.
"""

from .cluster import (
    ComplexVertex,
    SphereReport,
    TiltingComplex,
    build_complex,
    compatible,
    complex_to_json,
    complex_vertices,
    export_complex,
    lambda_point,
    linear_type_a_facet_count,
    locate,
    polygon_triangulation_count,
    positive_roots,
    primitive_ray,
    ridge_cone_contains,
    truncated_compatibility,
    verify_sphere,
    walk_locate,
    wall_labels,
)
from .decomposition import (
    GenericDecomposition,
    HalfSpaceSystem,
    cached_generic_ext,
    d_beta_halfspaces,
    d_membership,
    generic_decomposition,
    is_schur_root,
    subrep_test,
    supp_test_randomized,
)
from .errors import (
    DecompositionUnstableError,
    DimensionMismatchError,
    EmptyLabelError,
    FieldMismatchError,
    FieldTooSmallError,
    InvariantViolationError,
    NegativeDimensionError,
    NonSquareWeightError,
    NotASimplexError,
    NotDynkinError,
    OrientedCycleError,
    ParseError,
    QuiverMismatchError,
    SplitFailureError,
    UnknownVertexError,
    UnsupportedDimensionError,
    VsiError,
    ZeroCoefficientsError,
    ZeroVectorError,
)
from .fields import (
    GF,
    QQ,
    Field,
    PrimeField,
    Rationals,
    derive_rng,
    mix_seed,
    parse_field,
    prime_field,
)
from .presentations import (
    Presentation,
    ProjDecomp,
    apply_action,
    canonical_decomp,
    canonical_presentation,
    canonical_proj_decomp,
    chi_value,
    cokernel,
    compose,
    cv_value,
    hom_matrix,
    identity_presentation,
    minimal_decomp,
    random_aut,
    random_presentation,
    stabilize,
    zeta,
)
from .quiver import (
    EulerData,
    Quiver,
    euler_data,
    euler_form,
    euler_matrix,
    example_quiver,
    inj_vector,
    is_dynkin,
    load_quiver,
    path_count,
    proj_vector,
    symmetrized_euler,
    tau,
    tau_inverse,
    tits_form,
)
from .reps import (
    HomSpace,
    Representation,
    conjugate_rep,
    direct_sum,
    end_dim,
    ext_dim,
    fitting_decompose,
    generic_ext,
    generic_hom,
    hom_dim,
    hom_space,
    random_glpoint,
    random_rep,
    zero_rep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
