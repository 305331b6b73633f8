"""Relaxation kernels: Jacobi, Gauss-Seidel and SOR sweeps, residuals.

The sweeps run on the compiled scipy primitives
(:mod:`repro.sparsela.primitives`); the seed's textbook per-row loops are
the test oracles they are checked against (``tests/oracles.py``).

A forward Gauss-Seidel sweep on ``A x = b`` from iterate ``x`` with residual
``r = b - A x`` is exactly::

    x_new = x + (L + D)^{-1} r

where ``L + D`` is the lower triangle of ``A`` — the identity the
compiled sweep uses.  The ``L + D`` factor (and the per-``omega``
SOR factor ``D/omega + L``) is built **once per matrix** and cached on the
:class:`CSRMatrix` (:meth:`CSRMatrix.ld_factor` /
:meth:`CSRMatrix.sor_factor`), so repeated sweeps do zero structural work.
The paper's local subdomain solver is one such sweep (``-loc_solver gs``
in the SC17 artifact).
"""

from __future__ import annotations

import numpy as np

from repro.sparsela.csr import CSRMatrix
from repro.sparsela.primitives import gauss_seidel_sweep, solve_lower

__all__ = [
    "gauss_seidel_sweep",
    "jacobi_sweep",
    "residual",
    "sor_sweep",
]


def residual(A: CSRMatrix, x: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """``r = b - A x``; with ``out`` given, no array is allocated."""
    if out is None:
        return np.asarray(b, dtype=np.float64) - A.matvec(x)
    A.matvec(x, out=out)
    np.subtract(b, out, out=out)
    return out


def jacobi_sweep(A: CSRMatrix, x: np.ndarray, b: np.ndarray,
                 omega: float = 1.0) -> np.ndarray:
    """One (damped) Jacobi sweep; returns the new iterate.

    ``x_new = x + omega * D^{-1} (b - A x)``.  The diagonal and its
    zero check are cached on the matrix, so repeated sweeps pay neither.
    """
    if A.has_zero_diagonal:
        raise ZeroDivisionError("Jacobi sweep requires a nonzero diagonal")
    return x + omega * residual(A, x, b) / A.diagonal()


def sor_sweep(A: CSRMatrix, x: np.ndarray, b: np.ndarray,
              omega: float) -> np.ndarray:
    """One forward SOR sweep with relaxation factor ``omega``.

    ``x_new = x + (D/omega + L)^{-1} r``; ``omega = 1`` reduces to
    Gauss-Seidel.  The factor is cached per (matrix, omega), so repeated
    sweeps only pay the triangular solve.
    """
    if not 0.0 < omega < 2.0:
        raise ValueError("SOR requires 0 < omega < 2 for SPD convergence")
    r = residual(A, x, b)
    dx = solve_lower(A.sor_factor(omega), r)
    return np.asarray(x, dtype=np.float64) + dx
