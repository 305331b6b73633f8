"""Tests for the relaxation kernels (run-time kernels vs the oracles)."""

import numpy as np
import pytest

from repro.sparsela import CSRMatrix, gauss_seidel_sweep, jacobi_sweep
from repro.sparsela.kernels import residual, sor_sweep

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


def test_sor_omega_one_is_gs(poisson_100, rng):
    x = rng.standard_normal(100)
    b = rng.standard_normal(100)
    assert np.allclose(sor_sweep(poisson_100, x, b, omega=1.0),
                       gauss_seidel_sweep(poisson_100, x, b), atol=1e-10)


def test_sor_rejects_bad_omega(poisson_100):
    with pytest.raises(ValueError):
        sor_sweep(poisson_100, np.zeros(100), np.ones(100), omega=2.5)


def test_sor_converges_faster_than_gs_for_good_omega(poisson_100):
    """On the model Poisson problem, SOR with near-optimal omega beats GS."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal(100)
    x_gs = np.zeros(100)
    x_sor = np.zeros(100)
    omega = 2.0 / (1.0 + np.sin(np.pi / 11))     # optimal for 10x10 grid
    for _ in range(20):
        x_gs = gauss_seidel_sweep(poisson_100, x_gs, b)
        x_sor = sor_sweep(poisson_100, x_sor, b, omega=omega)
    r_gs = np.linalg.norm(residual(poisson_100, x_gs, b))
    r_sor = np.linalg.norm(residual(poisson_100, x_sor, b))
    assert r_sor < r_gs
