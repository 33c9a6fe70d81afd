"""Stokes flow and permeability in binary voxel geometries.

The toolkit discretizes the Stokes equations on a staggered grid over a
periodic voxel image, reduces them to the pressure Schur complement, and
solves that system with preconditioned conjugate gradients. It also
assembles small Schur complements densely for spectral studies.
"""

from .geometry import (
    GeometryStats,
    PackingParams,
    VoxelGrid,
    connected_components,
    enforce_connectivity,
    generate_packing,
    periodize,
    read_grid,
    stats,
    write_grid,
)
from .krylov import (
    PcgConfig,
    PcgResult,
    jacobi_prec,
    lanczos_condition_estimate,
    pcg,
)
from .operators import DofMap, StaggeredSystem, assemble, axis_index
from .schur import (
    SchurConfig,
    SolveReport,
    TOLERANCE_PROFILES,
    apply_schur,
    apply_simple_inverse,
    permeability,
    profile_config,
    schur_rhs,
    solve_schur,
)
from .spectra import (
    DENSE_CAP,
    SpectrumReport,
    analyze_spectrum,
    classify_eigenvalues,
    dense_schur,
    dense_simple,
    eig_sym,
    nev_formula_check,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryStats",
    "PackingParams",
    "VoxelGrid",
    "connected_components",
    "enforce_connectivity",
    "generate_packing",
    "periodize",
    "read_grid",
    "stats",
    "write_grid",
    "PcgConfig",
    "PcgResult",
    "jacobi_prec",
    "lanczos_condition_estimate",
    "pcg",
    "DofMap",
    "StaggeredSystem",
    "assemble",
    "axis_index",
    "SchurConfig",
    "SolveReport",
    "TOLERANCE_PROFILES",
    "apply_schur",
    "apply_simple_inverse",
    "permeability",
    "profile_config",
    "schur_rhs",
    "solve_schur",
    "DENSE_CAP",
    "SpectrumReport",
    "analyze_spectrum",
    "classify_eigenvalues",
    "dense_schur",
    "dense_simple",
    "eig_sym",
    "nev_formula_check",
    "__version__",
]
