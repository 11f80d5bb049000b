"""Exact invariants of isolated hypersurface singularities.

Sparse polynomial germs over the Gaussian rationals, a local
standard-basis engine with an independent truncated-dimension oracle,
Milnor numbers, monodromy zeta arithmetic from resolution data,
equisingularity screening for germ pairs, sampled deformation profiles,
and vector field indices.  Everything is exact; no floats anywhere.
"""

from .equising import (
    CheckRecord,
    DiscriminationReport,
    EQUIMULTIPLE_IF_EQUISINGULAR,
    INCONCLUSIVE,
    NOT_EQUISINGULAR,
    check_cone_chi_criterion,
    check_mixed_class_pair,
    check_mu_mismatch,
    check_regular_singular_mismatch,
    check_window_obstruction,
    discriminate,
)
from .errors import (
    ConventionViolationError,
    EngineError,
    InputError,
    IterationLimitError,
    ParseError,
    ZeroPolynomialError,
)
from .families import (
    FamilyPiece,
    GermFamily,
    MuProfile,
    find_alpha,
    find_transverse_line,
    line_order_profile,
    mu_profile,
    rescaling_family,
)
from .gaussian import GaussianRational
from .localring import (
    StandardBasisResult,
    standard_basis,
)
from .milnor import (
    GermInvariants,
    MilnorResult,
    germ_invariants,
    is_semihomogeneous,
    local_milnor_at,
    milnor_number,
    milnor_oracle,
    truncated_dim_oracle,
)
from .monodromy import (
    CharPoly,
    ResolutionData,
    SSequence,
    ZetaFunction,
    char_poly,
    chi_tangent_cone_complement,
    homogeneous_resolution,
    invert_lefschetz,
    lefschetz_from_s,
    milnor_from_s,
    multiplicity_bound,
    s_sequence,
    zeta,
)
from .poly import Poly, fermat, format_poly, parse_poly, parse_scalar, variable_names
from .vectorfields import (
    VectorField,
    hamiltonian_field,
    vf_milnor,
    vf_multiplicity,
)

__version__ = "0.1.0"
