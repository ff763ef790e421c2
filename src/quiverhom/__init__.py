"""Homological invariants of path coalgebras and their completed dual algebras."""

from .exactlin import Field, Matrix, rank
from .pathcoalg import AlgElement, PathCoalgebra, TruncatedDualAlgebra, bigraded_dims, comultiply
from .quiver import (
    GrowthVerdict,
    Path,
    Quiver,
    enumerate_paths,
    growth_gate,
    opposite,
    parse_quiver,
)
from .repmod import (
    GradedPresentation,
    Rep,
    VertexTwist,
    euler_pairing,
    graded_form,
    hom_dim,
    hom_ext1_dims,
    hom_space,
    linear_dual,
    presentation_of_rep,
    random_graded_rep,
    rep_from_matrices,
    simple,
    truncated_free_rep,
    truncated_injective,
    twist,
    uniserial,
)
from .homology import (
    ExtReport,
    LocalCohReport,
    StabilizationError,
    duality_roundtrip_injective,
    ext_comodule_C,
    ext_fd,
    ext_model,
    ext_vs_algebra,
    hom_into_C,
    local_cohomology,
    rational_part,
    standard_resolution,
)
from .regularity import (
    NakayamaReport,
    RegularityVerdict,
    as_regular_check,
    chi_probe,
    cy_check,
    dualizing_report,
    global_dimension,
    inner_test,
    nakayama,
    serre_twist,
)

__version__ = "0.1.0"
