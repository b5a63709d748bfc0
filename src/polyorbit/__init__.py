"""polyorbit: exact rational polyhedral computations up to symmetry.

The package covers the classic polyhedral workflows in which symmetry makes
otherwise intractable desk-scale computations cheap: representation
conversion up to symmetry (orbit ledgers of facets/vertices), affine symmetry
detection, symmetric integer feasibility via core points, and lattice-point
counting / Ehrhart / volume with slice decompositions.  The symmetric LP and
ILP routines take groups that act by permuting coordinates.

All arithmetic is exact over Q (fractions.Fraction); everything runs on one
thread, and results are deterministic.
"""

from .polycore import (
    AffineHull,
    AffineMap,
    EmptyPolyhedronError,
    HPolyhedron,
    IncidenceData,
    LPResult,
    PolyhedronError,
    Rational,
    VerificationError,
    VPolyhedron,
    affine_hull,
    convert_dd,
    incidence,
    rank,
    remove_redundancy,
    solve_lp,
)
from .permgrp import (
    OrbitBudgetExceeded,
    Permutation,
    PermutationGroup,
    SetOrbit,
    orbit_of_set,
    schreier_sims,
    set_stabilizer,
)
from .symdetect import (
    affine_symmetry_group,
    are_affine_symmetries,
    realize_row_permutation,
    realize_vertex_permutation,
    restricted_symmetries_H,
)
from .repconv import (
    AdjacencyGraphUpToSymmetry,
    FacetOrbit,
    OrbitLedger,
    adjacency_decomposition,
    adjacency_graph,
    incidence_decomposition,
    shortest_path,
    write_dot,
)
from .symilp import (
    CorePoint,
    InvariantSubspace,
    LinearProgram,
    block_group,
    canonical_core_point,
    check_invariance,
    invariant_subspace,
    is_core_point,
    orbit_barycenter,
    solve_lp_reduced,
    symmetric_ilp,
    symmetric_ilp_feasible,
    symmetric_ilp_optimize,
)

from .cli import (
    PolyFile,
    PolyFileError,
    parse_polyfile,
    write_polyfile,
)
from .latcount import (
    FiberOrbit,
    QuasiPolynomial,
    SliceDecomposition,
    count_lattice_points,
    count_with_symmetry,
    ehrhart,
    slice_decomposition,
    volume,
)

__all__ = [
    "AdjacencyGraphUpToSymmetry",
    "AffineHull",
    "AffineMap",
    "CorePoint",
    "EmptyPolyhedronError",
    "FacetOrbit",
    "FiberOrbit",
    "HPolyhedron",
    "IncidenceData",
    "InvariantSubspace",
    "LPResult",
    "LinearProgram",
    "OrbitBudgetExceeded",
    "OrbitLedger",
    "Permutation",
    "PolyFile",
    "PolyFileError",
    "PermutationGroup",
    "PolyhedronError",
    "QuasiPolynomial",
    "Rational",
    "SetOrbit",
    "SliceDecomposition",
    "VPolyhedron",
    "VerificationError",
    "adjacency_decomposition",
    "adjacency_graph",
    "affine_hull",
    "affine_symmetry_group",
    "are_affine_symmetries",
    "block_group",
    "canonical_core_point",
    "check_invariance",
    "convert_dd",
    "count_lattice_points",
    "count_with_symmetry",
    "ehrhart",
    "incidence",
    "incidence_decomposition",
    "invariant_subspace",
    "is_core_point",
    "orbit_barycenter",
    "orbit_of_set",
    "parse_polyfile",
    "rank",
    "realize_row_permutation",
    "realize_vertex_permutation",
    "remove_redundancy",
    "restricted_symmetries_H",
    "schreier_sims",
    "set_stabilizer",
    "shortest_path",
    "slice_decomposition",
    "solve_lp",
    "solve_lp_reduced",
    "symmetric_ilp",
    "symmetric_ilp_feasible",
    "symmetric_ilp_optimize",
    "volume",
    "write_dot",
    "write_polyfile",
]

__version__ = "0.1.0"
