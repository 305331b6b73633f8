"""Geometric grid hierarchy for the 2D Poisson multigrid (Figure 6).

The paper's smoothing experiment solves the 2D Poisson equation on square
grids from 15×15 up to 255×255, coarsening each V-cycle level by standard
2:1 coarsening until the coarsest level is 3×3 (solved exactly).  Grid
sizes are therefore ``2^k - 1`` per side; this module builds the level
structure and the per-level operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.matrices.poisson import poisson_2d
from repro.sparsela import CSRMatrix

__all__ = ["GridLevel", "build_operator_hierarchy", "fine_dim_of",
           "valid_grid_dims"]


@dataclass(frozen=True)
class GridLevel:
    """One level: an ``n × n`` interior grid and its 5-point operator."""

    n: int                  # points per side
    matrix: CSRMatrix       # 5-point Laplacian scaled by 1/h^2, h = 1/(n+1)

    @property
    def n_unknowns(self) -> int:
        return self.n * self.n


def valid_grid_dims(max_dim: int = 255, min_dim: int = 15) -> list[int]:
    """The paper's grid dimensions: ``2^k - 1`` from 15 to ``max_dim``."""
    dims = []
    d = 3
    while d <= max_dim:
        if d >= min_dim:
            dims.append(d)
        d = 2 * d + 1
    return dims


def coarse_dim(n: int) -> int:
    """Standard 2:1 coarsening of a ``2^k - 1`` grid: ``(n - 1) // 2``."""
    if n < 3 or (n + 1) & n != 0:
        raise ValueError(f"grid dimension {n} is not of the form 2^k - 1")
    return (n - 1) // 2


def fine_dim_of(n_unknowns: int) -> int:
    """Grid side ``d`` with ``d² == n_unknowns`` and ``d = 2^k - 1``.

    The validation gate for ``solve(A, method="mg")``: the geometric
    hierarchy only exists for square ``2^k - 1`` grids, so any other
    operator size is rejected with a clear error instead of a shape
    mismatch deep inside the transfer operators.
    """
    d = round(n_unknowns ** 0.5)
    if d * d != n_unknowns or d < 3 or (d + 1) & d != 0:
        raise ValueError(
            f"multigrid needs n = d² with d = 2^k - 1 >= 3 (a 2D Poisson "
            f"grid); got n = {n_unknowns}")
    return d


def build_operator_hierarchy(A: CSRMatrix, coarsest_dim: int = 3,
                             n_levels: int | None = None,
                             hierarchy: str = "geometric",
                             drop_tol: float = 0.0,
                             ) -> tuple[list[GridLevel], list[int]]:
    """Level structure for an arbitrary fine operator ``A`` (finest first).

    ``hierarchy="geometric"`` keeps ``A`` at the fine level and
    rediscretizes the Laplacian below it, each coarse level scaled by
    ``1/h²`` so the hierarchy is dimensionally consistent with
    full-weighting restriction and bilinear prolongation (``A`` must
    then *be* the scaled 5-point Laplacian for the correction to be
    consistent, which is the Figure 6 setting).  ``hierarchy="galerkin"``
    forms each coarse operator variationally, ``A_c = R A_f P``, and —
    with ``drop_tol`` positive — passes it through
    :func:`~repro.multigrid.transfer.sparsify` to drop weak couplings
    (arXiv 1512.04629).

    ``n_levels`` truncates the hierarchy (``None`` = coarsen all the way
    to ``coarsest_dim``); the last level is always solved exactly, so a
    truncated hierarchy just solves a bigger coarsest system.

    Returns ``(levels, nnz_dropped)`` with one dropped-entry count per
    level (always 0 at the fine level and for geometric/dense levels).
    """
    if hierarchy not in ("geometric", "galerkin"):
        raise ValueError(f"unknown hierarchy {hierarchy!r}")
    if coarsest_dim < 3:
        raise ValueError("coarsest grid must be at least 3x3")
    if drop_tol > 0.0 and hierarchy != "galerkin":
        raise ValueError(
            "drop_tol sparsification applies to Galerkin coarse "
            "operators; pass hierarchy='galerkin'")
    fine_dim = fine_dim_of(A.n_rows)
    if n_levels is not None and n_levels < 2:
        raise ValueError("a multigrid hierarchy needs at least 2 levels")
    levels = [GridLevel(n=fine_dim, matrix=A)]
    dropped = [0]
    from repro.multigrid.transfer import (
        prolongation_matrix,
        restriction_matrix,
        sparsify,
    )

    while levels[-1].n > coarsest_dim:
        if n_levels is not None and len(levels) >= n_levels:
            break
        n_f = levels[-1].n
        n_c = coarse_dim(n_f)
        if hierarchy == "galerkin":
            A_f = levels[-1].matrix
            A_c = (restriction_matrix(n_f).matmat(A_f)
                   .matmat(prolongation_matrix(n_c)).prune(1e-14))
            A_c, n_drop = sparsify(A_c, drop_tol)
        else:
            h_c = 1.0 / (n_c + 1)
            A_c = poisson_2d(n_c).scale(1.0 / h_c ** 2)
            n_drop = 0
        levels.append(GridLevel(n=n_c, matrix=A_c))
        dropped.append(n_drop)
    return levels, dropped
