"""Figure 6: multigrid smoothing — GS vs Distributed Southwell smoothers.

Relative residual norm after 9 V-cycles on the 2D Poisson equation, grid
dimensions 15 → 255, for three smoother configurations: Gauss-Seidel
(1 sweep), Distributed Southwell at half Gauss-Seidel's relaxation budget
("1/2 sweep"), and at the same budget ("1 sweep").  Expected shape:
grid-size-independent convergence in all three cases, with DS (1 sweep)
beating GS per relaxation.

Runs on :class:`~repro.multigrid.mg_exec.MultigridExecutor` (the
``solve(method="mg")`` engine).
"""

from __future__ import annotations

import numpy as np

from repro.matrices.poisson import poisson_2d
from repro.multigrid import MultigridExecutor, make_smoother

__all__ = ["run_fig6"]


def _rel_resid(fine_dim: int, smoother_name: str, budget: float,
               n_cycles: int, seed: int) -> float:
    """Figure 6 protocol for one grid size: ``n_cycles`` V-cycles from
    ``x0 = 0`` with a seeded random RHS in ``[-1, 1]``; returns the
    relative residual norm ``‖r_N‖/‖r_0‖``."""
    h = 1.0 / (fine_dim + 1)
    A = poisson_2d(fine_dim).scale(1.0 / h ** 2)
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, fine_dim * fine_dim)
    mg = MultigridExecutor(
        A, make_smoother(smoother_name, budget=budget, seed=seed))
    hist = mg.run(b, n_cycles=n_cycles)
    return hist.final_norm / hist.initial_norm


def run_fig6(grid_dims: tuple[int, ...] = (15, 31, 63, 127, 255),
             n_cycles: int = 9, seed: int = 0) -> list[dict]:
    """One row per grid dimension with the three smoother results."""
    rows = []
    for dim in grid_dims:
        rows.append({
            "grid_dim": dim,
            "GS, 1 sweep": _rel_resid(dim, "gs", 1.0, n_cycles, seed),
            "Dist SW, 1/2 sweep": _rel_resid(dim, "scalar-ds", 0.5,
                                             n_cycles, seed),
            "Dist SW, 1 sweep": _rel_resid(dim, "scalar-ds", 1.0,
                                           n_cycles, seed),
        })
    return rows
