"""flagdyn: exact geometry of pointed projective lines, classification
oracles for the transitive subalgebras of sl(3), and simulation of the two
associated dynamical families (nilmanifold affine automorphisms, frame rates
of the diagonal flow)."""

from .lie_core import (
    GroupElem,
    LieVec,
    Subalgebra,
    ad_matrix,
    bracket,
    centralizer,
    exp_group,
    grade_decompose,
    normalizer,
    quotient_adjoint,
    theta_group,
    theta_involution,
)
from .flag_space import (
    Flag,
    ProjLine,
    ProjPoint,
    Region,
    act,
    affine_chart,
    circle_boundary_points,
    flip,
    fundamental_vector,
    region_classify,
)
from .curvature import NormalCurvature, contact_test, curvature_action, is_harmonic
from .models import (
    HeisAuto,
    HeisElem,
    equivariance_a,
    equivariance_t,
    flat_structure_iso,
    frame_at,
    theta_affine,
)
from .classification import (
    degeneration_limit,
    flatness_holonomy_predicate,
    invariant_transverse_line_search,
    isotropy_eigenvalue_table,
    tresse_bracket_suite,
    verify_subalgebra_table,
)
from .dynamics import (
    NilMap,
    hyperbolicity_report,
    iterate,
    reduce_point,
    sl2_frame_rates,
    tangent_rates,
    volume_obstruction_check,
)

__version__ = "0.1.0"
