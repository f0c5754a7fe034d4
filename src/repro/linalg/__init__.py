"""Linear-algebra substrate: block inversion, Neumann series, iterative solvers."""

from repro.linalg.block import BlockMatrix, block_inverse, schur_complement
from repro.linalg.coarsen import (
    CoarseningHierarchy,
    MultigridPreconditioner,
    build_hierarchy,
    coarsen_weights,
    heavy_edge_matching,
)
from repro.linalg.iterative import (
    IterativeResult,
    conjugate_gradient,
    gauss_seidel,
    jacobi,
    jacobi_preconditioner,
    preconditioned_conjugate_gradient,
    sor,
)
from repro.linalg.neumann import NeumannDiagnostics, neumann_inverse, neumann_partial_sums
from repro.linalg.solvers import (
    SolveInfo,
    SPDFactorization,
    factorize_spd,
    solve_spd,
    solve_square,
)

# Imported after solvers: workspace builds on the factorization layer.
from repro.linalg.workspace import (  # noqa: E402
    SWEEP_BACKENDS,
    SolveWorkspace,
    WorkspaceStats,
)

__all__ = [
    "BlockMatrix",
    "block_inverse",
    "schur_complement",
    "neumann_partial_sums",
    "neumann_inverse",
    "NeumannDiagnostics",
    "jacobi",
    "gauss_seidel",
    "conjugate_gradient",
    "IterativeResult",
    "solve_spd",
    "solve_square",
    "SolveInfo",
    "SPDFactorization",
    "factorize_spd",
    "sor",
    "preconditioned_conjugate_gradient",
    "jacobi_preconditioner",
    "SolveWorkspace",
    "WorkspaceStats",
    "SWEEP_BACKENDS",
    "CoarseningHierarchy",
    "MultigridPreconditioner",
    "build_hierarchy",
    "coarsen_weights",
    "heavy_edge_matching",
]
