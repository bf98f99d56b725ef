"""Exact-integer workbench for the arc ring of crossingless matchings.

The package builds the convolution ring H_n on crossingless matchings
of 2n points over the rank-two Frobenius algebra Z[X]/(X^2), computes
its center as an equalizer lattice, constructs two ideal presentations
of the cohomology of the (n, n) Springer variety, and cross-checks the
structural facts connecting them, all in exact integer arithmetic.
"""

from .combinatorics import (
    Matching,
    admissible_subsets,
    arrows,
    bottom_arc_count,
    catalan,
    distance,
    enumerate_matchings,
    find_sink,
    glue,
    matching_graph,
    total_order,
)
from .arc_ring import (
    ArcRing,
    BasisVector,
    RingElement,
    commutator_quotient_rank,
    degree,
    get_ring,
    idempotent,
    unit,
    verify_ring_integrity,
)
from .presentations import (
    SquareFreePoly,
    elem_sym,
    ideal_R1,
    ideal_R2,
    ideals_equal,
    quotient_graded_ranks,
    r1_generators,
    r2_generators,
    reduce_to_admissible,
    admissible_coordinates,
    reduction_identities_vanish,
)
from .center import (
    CenterBasis,
    CenterPresentation,
    center_basis,
    central_X,
    is_central,
    presentation_map,
    symmetric_action,
    total_order_independence,
    verify_presentation_iso,
    verify_symmetric_action,
)
from .braid_homotopy import (
    BimoduleElement,
    FlatComposite,
    UiBimodule,
    compose_ui,
    get_bimodule,
    verify_bimodule_axioms,
    verify_null_homotopy,
)
from .cache import load_or_build, load_ring, store_ring

__all__ = [
    "Matching",
    "admissible_subsets",
    "arrows",
    "bottom_arc_count",
    "catalan",
    "distance",
    "enumerate_matchings",
    "find_sink",
    "glue",
    "matching_graph",
    "total_order",
    "ArcRing",
    "BasisVector",
    "RingElement",
    "commutator_quotient_rank",
    "degree",
    "get_ring",
    "idempotent",
    "unit",
    "verify_ring_integrity",
    "SquareFreePoly",
    "elem_sym",
    "ideal_R1",
    "ideal_R2",
    "ideals_equal",
    "quotient_graded_ranks",
    "r1_generators",
    "r2_generators",
    "reduce_to_admissible",
    "admissible_coordinates",
    "reduction_identities_vanish",
    "CenterBasis",
    "CenterPresentation",
    "center_basis",
    "central_X",
    "is_central",
    "presentation_map",
    "symmetric_action",
    "total_order_independence",
    "verify_presentation_iso",
    "verify_symmetric_action",
    "BimoduleElement",
    "FlatComposite",
    "UiBimodule",
    "compose_ui",
    "get_bimodule",
    "verify_bimodule_axioms",
    "verify_null_homotopy",
    "load_or_build",
    "load_ring",
    "store_ring",
]

__version__ = "0.1.0"
