"""Tests for the relaxation kernels (run-time kernels vs the oracles)."""

import numpy as np
import pytest

from repro.sparsela import CSRMatrix, gauss_seidel_sweep, jacobi_sweep
from repro.sparsela.kernels import residual

from tests import oracles


def test_residual(poisson_100, rng):
    x = rng.standard_normal(100)
    b = rng.standard_normal(100)
    r = residual(poisson_100, x, b)
    assert np.allclose(r, b - poisson_100.to_dense() @ x)


def test_jacobi_sweep_matches_formula(poisson_100, rng):
    x = rng.standard_normal(100)
    b = rng.standard_normal(100)
    out = jacobi_sweep(poisson_100, x, b)
    d = poisson_100.diagonal()
    expected = x + (b - poisson_100.to_dense() @ x) / d
    assert np.allclose(out, expected)


def test_jacobi_rejects_zero_diagonal():
    A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ZeroDivisionError):
        jacobi_sweep(A, np.zeros(2), np.ones(2))


def test_lower_triangular_solve_reference(rng):
    L = np.tril(rng.standard_normal((10, 10)))
    np.fill_diagonal(L, np.abs(np.diag(L)) + 1.0)
    b = rng.standard_normal(10)
    y = oracles.solve_lower(CSRMatrix.from_dense(L), b)
    assert np.allclose(y, np.linalg.solve(L, b))


def test_lower_triangular_solve_rejects_upper_entries():
    A = CSRMatrix.from_dense(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        oracles.solve_lower(A, np.ones(2))


def test_gs_fast_equals_reference(poisson_100, rng):
    x = rng.standard_normal(100)
    b = rng.standard_normal(100)
    ref = oracles.gauss_seidel_sweep(poisson_100, x, b)
    fast = gauss_seidel_sweep(poisson_100, x, b)
    assert np.allclose(ref, fast, atol=1e-12)


def test_gs_fast_equals_reference_fem(fem_300, rng):
    n = fem_300.n_rows
    x = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ref = oracles.gauss_seidel_sweep(fem_300, x, b)
    fast = gauss_seidel_sweep(fem_300, x, b)
    assert np.allclose(ref, fast, atol=1e-12)


def test_gs_with_precomputed_residual(poisson_100, rng):
    x = rng.standard_normal(100)
    b = rng.standard_normal(100)
    r = residual(poisson_100, x, b)
    assert np.allclose(gauss_seidel_sweep(poisson_100, x, b, r=r),
                       gauss_seidel_sweep(poisson_100, x, b))


def test_gs_reduces_energy_norm(poisson_100, rng):
    """GS is a descent method in the A-norm for SPD systems."""
    x = rng.standard_normal(100)
    b = rng.standard_normal(100)
    dense = poisson_100.to_dense()
    x_star = np.linalg.solve(dense, b)

    def energy(v):
        e = v - x_star
        return e @ dense @ e

    x1 = gauss_seidel_sweep(poisson_100, x, b)
    assert energy(x1) < energy(x)


def test_gs_fixed_point_is_solution(poisson_100):
    b = np.ones(100)
    x_star = np.linalg.solve(poisson_100.to_dense(), b)
    out = gauss_seidel_sweep(poisson_100, x_star, b)
    assert np.allclose(out, x_star, atol=1e-10)

