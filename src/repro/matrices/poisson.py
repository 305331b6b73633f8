"""Finite-difference Laplacians on regular grids.

All generators return the raw (unscaled) stiffness matrix as a
:class:`CSRMatrix` with homogeneous Dirichlet boundary eliminated; callers
scale with :func:`repro.sparsela.symmetric_unit_diagonal_scale` when they
need the paper's unit-diagonal convention.  Grid unknowns are ordered
lexicographically (x fastest).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.matrices.stream import grid2d_stream
from repro.sparsela import COOMatrix, CSRMatrix

__all__ = [
    "poisson_1d",
    "poisson_2d",
    "poisson_2d_jump",
]


def poisson_1d(n: int) -> CSRMatrix:
    """Tridiagonal ``[-1, 2, -1]`` operator of order ``n``."""
    if n < 1:
        raise ValueError("n must be positive")
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, 2.0), np.full(2 * (n - 1), -1.0)])
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


def _grid2d_entries(nx: int, ny: int,
                    coeff: Callable[[np.ndarray, np.ndarray], tuple]):
    """Assemble a 5-point operator with per-cell coefficients.

    ``coeff(i, j)`` returns ``(cx, cy)`` — conductivities of the west and
    south links of cell ``(i, j)`` (harmonic-mean style flux coefficients).

    This is the reference (whole-COO) implementation; the public 5-point
    generators below delegate to the bit-identical streamed builder
    :func:`repro.matrices.stream.grid2d_stream`, which writes the CSR in
    row blocks and is the one exercised at million-row scale.
    """
    idx = np.arange(nx * ny).reshape(ny, nx)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    cx, cy = coeff(i, j)

    rows, cols, vals = [], [], []

    def link(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> None:
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-w, -w])

    # horizontal links between (i, j) and (i+1, j)
    wx = 0.5 * (cx[:, :-1] + cx[:, 1:])
    link(idx[:, :-1].ravel(), idx[:, 1:].ravel(), wx.ravel())
    # vertical links between (i, j) and (i, j+1)
    wy = 0.5 * (cy[:-1, :] + cy[1:, :])
    link(idx[:-1, :].ravel(), idx[1:, :].ravel(), wy.ravel())

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    # Dirichlet boundary: the diagonal is (sum of interior link weights)
    # plus the weight of links to the eliminated boundary, which for a
    # uniform-coefficient row equals the full stencil weight.  We use the
    # standard form diag = sum |offdiag| + boundary contribution; assembling
    # via the graph Laplacian plus boundary mass keeps the matrix SPD.
    n = nx * ny
    diag = np.bincount(rows, weights=-vals, minlength=n)
    # boundary faces contribute their coefficient to the diagonal
    cx_pad = cx
    cy_pad = cy
    boundary = np.zeros((ny, nx))
    boundary[:, 0] += cx_pad[:, 0]
    boundary[:, -1] += cx_pad[:, -1]
    boundary[0, :] += cy_pad[0, :]
    boundary[-1, :] += cy_pad[-1, :]
    diag += boundary.ravel()
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


def poisson_2d(nx: int, ny: int | None = None) -> CSRMatrix:
    """Standard 5-point 2D Laplacian on an ``nx × ny`` interior grid.

    Homogeneous Dirichlet boundary; diagonal 4, off-diagonal -1 (before any
    scaling).  This is the paper's Figure 6 test operator.
    """
    ny = nx if ny is None else ny
    return grid2d_stream(nx, ny,
                         lambda i, j: (np.ones(i.shape), np.ones(i.shape)))


def poisson_2d_jump(nx: int, ny: int | None = None, contrast: float = 1e3,
                    seed: int = 0, n_islands: int = 6) -> CSRMatrix:
    """Jump-coefficient diffusion: random high-contrast rectangular islands.

    The coefficient is 1 in the background and ``contrast`` inside
    ``n_islands`` random axis-aligned rectangles — the "jumps in
    coefficients" setting Rüde's adaptive smoothers target (Section 5).
    """
    ny = nx if ny is None else ny
    rng = np.random.default_rng(seed)
    field = np.ones((ny, nx))
    for _ in range(n_islands):
        x0, y0 = rng.integers(0, nx), rng.integers(0, ny)
        w = int(rng.integers(nx // 8 + 1, nx // 3 + 2))
        h = int(rng.integers(ny // 8 + 1, ny // 3 + 2))
        field[y0:y0 + h, x0:x0 + w] = contrast
    return grid2d_stream(nx, ny, lambda i, j: (field, field))

