"""From-scratch sparse linear algebra substrate.

The paper's implementation stores matrices in CSR and works with
unit-diagonal symmetrically scaled SPD systems.  This package provides:

- :class:`COOMatrix` / :class:`CSRMatrix` — numpy-backed sparse containers
  built from scratch (construction, matvec, transpose, slicing, block
  extraction).
- :mod:`repro.sparsela.scaling` — symmetric diagonal scaling to unit diagonal
  (the paper scales every test matrix this way).
- :mod:`repro.sparsela.kernels` — relaxation kernels (Jacobi and
  Gauss-Seidel sweeps) and residuals.
- :mod:`repro.sparsela.primitives` — the compiled scipy matvec,
  triangular solve and Gauss-Seidel sweep every kernel runs on
  (the seed's pure-python loops are their test oracles).
- :mod:`repro.sparsela.io` — Matrix Market and a compact binary format
  (mirroring the artifact's ``.mtx.bin`` files).
- :mod:`repro.sparsela.ordering` — the BFS ordering multicoloring uses.
"""

from repro.sparsela.coo import COOMatrix
from repro.sparsela.csr import CSRMatrix
from repro.sparsela.io import (
    read_binary,
    read_matrix_market,
    write_binary,
    write_matrix_market,
)
from repro.sparsela.kernels import (
    gauss_seidel_sweep,
    jacobi_sweep,
    residual,
)
from repro.sparsela.ordering import bfs_order
from repro.sparsela.scaling import symmetric_unit_diagonal_scale

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "bfs_order",
    "gauss_seidel_sweep",
    "jacobi_sweep",
    "read_binary",
    "read_matrix_market",
    "residual",
    "symmetric_unit_diagonal_scale",
    "write_binary",
    "write_matrix_market",
]
