"""Test-problem generators.

The paper evaluates on (a) a small irregular finite-element Poisson problem
(Figures 2 and 5), (b) regular-grid 2D Poisson for multigrid smoothing
(Figure 6), and (c) fourteen large SPD matrices from the SuiteSparse
collection (Table 1, all other experiments).  SuiteSparse is not available
offline, so :mod:`repro.matrices.suite` provides a named synthetic analog
for each matrix, built from the generators here:

- :mod:`repro.matrices.poisson` — finite-difference Laplacians (1D and
  the 2D 5-point stencil) and a jump-coefficient variant.
- :mod:`repro.matrices.fem` — P1 finite elements on irregular triangular
  meshes (scalar Poisson), matching the paper's Figure 2 problem.
- :mod:`repro.matrices.elasticity` — P1 plane-strain linear elasticity,
  giving the strongly non-diagonally-dominant SPD matrices on which Block
  Jacobi misbehaves (the Flan/audikw/bone class).
- :mod:`repro.matrices.random_spd` — random SPD matrices for tests.
- :mod:`repro.matrices.stream` — chunked/streamed CSR builders used by
  the generators above at million-row scale (bit-identical to the seed
  whole-COO paths; DESIGN.md §5.13).
"""

from repro.matrices.elasticity import elasticity_fem_2d
from repro.matrices.fem import (
    fem_poisson_2d,
    fem_rotated_anisotropic,
    triangular_mesh,
)
from repro.matrices.poisson import (
    poisson_1d,
    poisson_2d,
    poisson_2d_jump,
)
from repro.matrices.problem import Problem
from repro.matrices.random_spd import random_spd, random_sparse_spd
from repro.matrices.stream import (
    grid2d_stream,
    stream_coo_to_csr,
)
from repro.matrices.suite import SUITE_NAMES, load_problem, load_suite, suite_table

__all__ = [
    "Problem",
    "SUITE_NAMES",
    "elasticity_fem_2d",
    "fem_poisson_2d",
    "fem_rotated_anisotropic",
    "grid2d_stream",
    "load_problem",
    "load_suite",
    "poisson_1d",
    "poisson_2d",
    "poisson_2d_jump",
    "random_sparse_spd",
    "random_spd",
    "stream_coo_to_csr",
    "suite_table",
    "triangular_mesh",
]
