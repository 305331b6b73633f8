"""Geometric multigrid substrate (the paper's Section 4.1 experiment).

V-cycles on the 2D Poisson problem with pluggable smoothers: Gauss-Seidel
(baseline) versus Distributed Southwell at an exactly equal — or halved —
relaxation budget.  The paper's headline: Distributed Southwell smoothing
gives grid-size-independent convergence even at half a sweep, and beats
Gauss-Seidel per relaxation.

The front door is ``solve(A, method="mg", ...)`` (DESIGN.md §5.16),
which drives :class:`MultigridExecutor` — V-cycles with block-DS/PS/BJ
smoothing through the real distributed runtime, per-level message
accounting, and optional Galerkin-coarse-operator sparsification.
"""

from repro.multigrid.block_smoothers import (
    BLOCK_SMOOTHER_METHODS,
    BlockSmoother,
    LevelRunner,
)
from repro.multigrid.grid import (
    GridLevel,
    build_operator_hierarchy,
    fine_dim_of,
    valid_grid_dims,
)
from repro.multigrid.mg_exec import (
    LevelStats,
    MultigridExecutor,
    make_smoother,
)
from repro.multigrid.smoothers import (
    ChebyshevSmoother,
    DistributedSouthwellSmoother,
    GaussSeidelSmoother,
    ParallelSouthwellSmoother,
    RedBlackGaussSeidelSmoother,
    Smoother,
    WeightedJacobiSmoother,
)
from repro.multigrid.transfer import (
    bilinear_prolongation,
    full_weighting,
    prolongation_matrix,
    restriction_matrix,
    sparsify,
)

__all__ = [
    "BLOCK_SMOOTHER_METHODS",
    "BlockSmoother",
    "ChebyshevSmoother",
    "DistributedSouthwellSmoother",
    "GaussSeidelSmoother",
    "GridLevel",
    "LevelRunner",
    "LevelStats",
    "MultigridExecutor",
    "ParallelSouthwellSmoother",
    "RedBlackGaussSeidelSmoother",
    "Smoother",
    "WeightedJacobiSmoother",
    "bilinear_prolongation",
    "build_operator_hierarchy",
    "fine_dim_of",
    "full_weighting",
    "make_smoother",
    "prolongation_matrix",
    "restriction_matrix",
    "sparsify",
    "valid_grid_dims",
]
