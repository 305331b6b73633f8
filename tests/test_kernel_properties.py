"""Property-based tests for the relaxation kernels on random SPD systems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices.random_spd import random_sparse_spd
from repro.sparsela import (
    CSRMatrix,
    gauss_seidel_sweep,
    jacobi_sweep,
    symmetric_unit_diagonal_scale,
)
from repro.sparsela.kernels import residual

from tests import oracles


def _system(n, seed):
    A = random_sparse_spd(n, density=0.1, seed=seed, shift=0.5)
    A = symmetric_unit_diagonal_scale(A).matrix
    rng = np.random.default_rng(seed + 7)
    return A, rng.standard_normal(n), rng.standard_normal(n)


@given(st.integers(5, 40), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gs_fast_path_equals_reference(n, seed):
    A, x, b = _system(n, seed)
    assert np.allclose(gauss_seidel_sweep(A, x, b),
                       oracles.gauss_seidel_sweep(A, x, b), atol=1e-10)


@given(st.integers(5, 30), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gs_energy_descent_random_spd(n, seed):
    A, x, b = _system(n, seed)
    dense = A.to_dense()
    x_star = np.linalg.solve(dense, b)

    def energy(v):
        e = v - x_star
        return float(e @ dense @ e)

    x1 = gauss_seidel_sweep(A, x, b)
    assert energy(x1) <= energy(x) + 1e-12


@given(st.integers(5, 30), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fixed_point_is_invariant(n, seed):
    A, _, b = _system(n, seed)
    x_star = np.linalg.solve(A.to_dense(), b)
    for sweep in (gauss_seidel_sweep, jacobi_sweep):
        out = sweep(A, x_star, b)
        assert np.allclose(out, x_star, atol=1e-8)


@given(st.integers(5, 30), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_residual_definition(n, seed):
    A, x, b = _system(n, seed)
    assert np.allclose(residual(A, x, b), b - A.to_dense() @ x, atol=1e-10)


@given(st.integers(4, 25), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_unit_scaling_congruence(n, seed):
    A = random_sparse_spd(n, density=0.15, seed=seed, shift=0.5)
    scaled = symmetric_unit_diagonal_scale(A)
    assert np.allclose(scaled.matrix.diagonal(), 1.0)
    d = scaled.scale
    assert np.allclose(scaled.matrix.to_dense() * np.outer(d, d),
                       A.to_dense(), atol=1e-10)
