"""Efficient domination (perfect 1-codes) on lattice graphs.

Exact constructions, audits and solvers for maximum-influence 2-packings
of rectangular, triangular and hexagonal lattices, bounded or toroidal.
"""

from .constructions import (
    AugmentedLattice,
    Pendant,
    eds_pn_p2,
    fset_pn_p2_even,
    fset_pn_p3,
    fset_square_small,
    knight_construction,
    lower_bound_F,
    near_grid_augment,
    predicted_voids,
)
from .lattice import Coord, InvalidCoordError, Lattice, LatticeKind, hexa, rect, tri
from .packing import (
    DominationReport,
    audit,
    normalize_set,
    report_to_json,
    transpose_set,
)
from .periodic import (
    Motif,
    expand_motif,
    hex_code_motif,
    rect_code_motif,
    tri_code_motif,
    verify_perfect,
    window_lattice,
)
from .solver import (
    BRUTE_FORCE_LIMIT,
    DP_WIDTH_LIMIT,
    SolveResult,
    brute_force_F,
    check_conjecture,
    dp_F_rect,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedLattice",
    "BRUTE_FORCE_LIMIT",
    "Coord",
    "DP_WIDTH_LIMIT",
    "DominationReport",
    "InvalidCoordError",
    "Lattice",
    "LatticeKind",
    "Motif",
    "Pendant",
    "SolveResult",
    "audit",
    "brute_force_F",
    "check_conjecture",
    "dp_F_rect",
    "eds_pn_p2",
    "expand_motif",
    "fset_pn_p2_even",
    "fset_pn_p3",
    "fset_square_small",
    "hex_code_motif",
    "hexa",
    "knight_construction",
    "lower_bound_F",
    "near_grid_augment",
    "normalize_set",
    "predicted_voids",
    "rect",
    "report_to_json",
    "rect_code_motif",
    "transpose_set",
    "tri",
    "tri_code_motif",
    "verify_perfect",
    "window_lattice",
]
