"""Smoothers for the multigrid V-cycle (Figure 6).

The paper compares Gauss-Seidel smoothing against Distributed Southwell
smoothing at an *exactly equal relaxation budget*: "1 sweep" = as many
relaxations as the level has unknowns, "1/2 sweep" = half that, with a
random subset of the final parallel step's selected rows relaxed to hit
the budget exactly.  Smoothers here implement that contract.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.config import require_int
from repro.core.scalar import (
    ScalarDistributedSouthwell,
    ScalarParallelSouthwell,
)
from repro.sparsela import CSRMatrix
from repro.sparsela.kernels import gauss_seidel_sweep, jacobi_sweep, residual

__all__ = ["ChebyshevSmoother", "DistributedSouthwellSmoother",
           "GaussSeidelSmoother", "ParallelSouthwellSmoother",
           "RedBlackGaussSeidelSmoother", "Smoother",
           "WeightedJacobiSmoother"]


def per_operator(cache: dict, A: CSRMatrix, build):
    """``build(A)``, computed once per operator *object*.

    The smoothers key their per-level plans on ``id(A)``.  An entry holds
    ``A`` only weakly and leaves the cache when ``A`` dies, before its id
    can be handed to another object; a hit is still verified by
    identity.  A built value must not hold ``A`` itself, or the entry
    would keep ``A`` alive.
    """
    key = id(A)
    hit = cache.get(key)
    if hit is None or hit[0]() is not A:
        hit = cache[key] = (weakref.ref(A, _dropper(cache, key)), build(A))
    return hit[1]


def _dropper(cache: dict, key: int):
    """The weakref callback that removes entry ``key`` of ``cache`` if it
    is still the dying operator's.  (An operator does not own its
    weakrefs, so a live operator keeps no cache alive.)"""
    def drop(ref) -> None:
        if cache.get(key, (None,))[0] is ref:
            del cache[key]
    return drop


class Smoother:
    """Interface: ``smooth(A, x, b) -> x_new`` (one smoothing application)."""

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Return the smoothed iterate for ``A x = b``."""
        raise NotImplementedError


class GaussSeidelSmoother(Smoother):
    """``n_sweeps`` forward Gauss-Seidel sweeps (the paper's baseline)."""

    name = "gauss-seidel"

    def __init__(self, n_sweeps: int = 1):
        self.n_sweeps = require_int("n_sweeps", n_sweeps, 1)

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
        """``n_sweeps`` forward GS sweeps."""
        out = np.asarray(x, dtype=np.float64)
        for _ in range(self.n_sweeps):
            out = gauss_seidel_sweep(A, out, b)
        return out

    def relaxations(self, n: int) -> int:
        """Relaxation budget this smoother spends on an ``n``-row level."""
        return self.n_sweeps * n


class _SouthwellSmoother(Smoother):
    """Budget-driven Southwell smoothing (scalar form, Section 4.1).

    Runs parallel steps until exactly ``fraction * n`` relaxations have
    been performed; the final step relaxes a random subset of the selected
    rows to hit the budget exactly, as the paper specifies.
    """

    method_cls: type

    def __init__(self, fraction: float = 1.0, seed: int = 0):
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        self.fraction = fraction
        self.seed = seed
        self._cache: dict[int, tuple] = {}

    def _solver_for(self, A: CSRMatrix):
        return per_operator(self._cache, A, self.method_cls)

    def relaxations(self, n: int) -> int:
        return max(1, int(round(self.fraction * n)))

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
        solver = self._solver_for(A)
        budget = self.relaxations(A.n_rows)
        solver.run(x, b, max_relaxations=budget, exact_relaxations=True,
                   seed=self.seed)
        return solver.x.copy()


class DistributedSouthwellSmoother(_SouthwellSmoother):
    """Scalar Distributed Southwell as a smoother (the paper's Figure 6)."""

    name = "distributed-southwell"
    method_cls = ScalarDistributedSouthwell


class ParallelSouthwellSmoother(_SouthwellSmoother):
    """Scalar Parallel Southwell as a smoother (extension experiment)."""

    name = "parallel-southwell"
    method_cls = ScalarParallelSouthwell


class WeightedJacobiSmoother(Smoother):
    """Damped Jacobi, the classic embarrassingly-parallel smoother.

    ``omega = 4/5`` is optimal for the 5-point Laplacian's high
    frequencies; plain Jacobi (``omega = 1``) does not damp the highest
    modes and makes a poor smoother — a useful contrast baseline.
    """

    name = "weighted-jacobi"

    def __init__(self, omega: float = 0.8, n_sweeps: int = 1):
        if not 0.0 < omega <= 1.0:
            raise ValueError("omega must be in (0, 1]")
        self.omega = omega
        self.n_sweeps = require_int("n_sweeps", n_sweeps, 1)

    def relaxations(self, n: int) -> int:
        """Relaxation budget on an ``n``-row level."""
        return self.n_sweeps * n

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
        """``n_sweeps`` damped-Jacobi updates (cached-diagonal kernel)."""
        out = np.asarray(x, dtype=np.float64)
        for _ in range(self.n_sweeps):
            out = jacobi_sweep(A, out, b, omega=self.omega)
        return out


class ChebyshevSmoother(Smoother):
    """Chebyshev polynomial smoother (Adams et al. [2] in the paper).

    The classic massively-parallel alternative to Gauss-Seidel smoothing:
    a degree-``k`` Chebyshev polynomial in ``D^{-1}A`` targeting the upper
    part ``[lambda_max/alpha, lambda_max]`` of the spectrum.  Needs only
    matvecs (no ordering, no colors), which is why the multigrid community
    reaches for it at scale — the same motivation as Distributed
    Southwell.

    ``lambda_max`` of ``D^{-1}A`` is estimated once per operator with a
    few power-method iterations and cached.
    """

    name = "chebyshev"

    def __init__(self, degree: int = 2, eig_ratio: float = 30.0,
                 power_iterations: int = 15, seed: int = 0):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if eig_ratio <= 1.0:
            raise ValueError("eig_ratio must exceed 1")
        self.degree = degree
        self.eig_ratio = eig_ratio
        self.power_iterations = power_iterations
        self.seed = seed
        self._lmax_cache: dict[int, tuple] = {}

    def relaxations(self, n: int) -> int:
        """Budget analog: one matvec-wide update per polynomial degree."""
        return self.degree * n

    def _lambda_max(self, A: CSRMatrix) -> float:
        return per_operator(self._lmax_cache, A, self._estimate_lambda_max)

    def _estimate_lambda_max(self, A: CSRMatrix) -> float:
        rng = np.random.default_rng(self.seed)
        diag = A.diagonal()
        v = rng.standard_normal(A.n_rows)
        lam = 1.0
        for _ in range(self.power_iterations):
            w = A.matvec(v) / diag
            lam = float(np.linalg.norm(w))
            if lam == 0.0:
                break
            v = w / lam
        # small safety margin so the polynomial covers lambda_max
        return 1.1 * lam

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
        """One degree-``k`` Chebyshev application."""
        diag = A.diagonal()
        lmax = self._lambda_max(A)
        lmin = lmax / self.eig_ratio
        theta = 0.5 * (lmax + lmin)
        delta = 0.5 * (lmax - lmin)
        x = np.array(x, dtype=np.float64)
        sigma = theta / delta
        # standard three-term Chebyshev recurrence (Saad, Alg. 12.1) on
        # the Jacobi-preconditioned system
        r = residual(A, x, b) / diag
        p = r / theta
        x = x + p
        rho_old = 1.0 / sigma
        for _ in range(self.degree - 1):
            r = residual(A, x, b) / diag
            rho = 1.0 / (2.0 * sigma - rho_old)
            p = (2.0 * rho / delta) * r + rho * rho_old * p
            x = x + p
            rho_old = rho
        return x


class RedBlackGaussSeidelSmoother(Smoother):
    """Red-black Gauss-Seidel: two half-sweeps of independent sets.

    The standard parallel GS smoother on bipartite (5-point) grids: all
    "red" rows relax simultaneously, then all "black" rows.  Falls back
    to a general greedy coloring for non-bipartite patterns, caching the
    color classes per operator.
    """

    name = "red-black-gauss-seidel"

    def __init__(self, n_sweeps: int = 1):
        self.n_sweeps = require_int("n_sweeps", n_sweeps, 1)
        self._classes_cache: dict[int, tuple] = {}

    def relaxations(self, n: int) -> int:
        """Relaxation budget on an ``n``-row level."""
        return self.n_sweeps * n

    def _classes(self, A: CSRMatrix) -> list[np.ndarray]:
        from repro.partition.coloring import color_classes, greedy_coloring

        return per_operator(self._classes_cache, A,
                            lambda M: color_classes(greedy_coloring(M)))

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
        """``n_sweeps`` color-ordered GS sweeps."""
        out = np.array(x, dtype=np.float64)
        diag = A.diagonal()
        r = np.empty(A.n_rows)
        for _ in range(self.n_sweeps):
            for cls in self._classes(A):
                residual(A, out, b, out=r)
                out[cls] += r[cls] / diag[cls]
        return out
