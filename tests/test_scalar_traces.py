"""Tests for the classic-method traces (GS, Jacobi, Multicolor GS)."""

import numpy as np
import pytest

from repro.partition import greedy_coloring
from repro.solvers.scalar import (
    gauss_seidel_trace,
    jacobi_trace,
    multicolor_gs_trace,
)

from tests import oracles


@pytest.fixture
def state(poisson_100):
    rng = np.random.default_rng(21)
    n = poisson_100.n_rows
    b = rng.uniform(-1, 1, n)
    b /= np.linalg.norm(b)
    return poisson_100, np.zeros(n), b


def test_gs_trace_endpoints_match_sweep_kernel(state):
    A, x0, b = state
    hist = gauss_seidel_trace(A, x0, b, 2)
    x = oracles.gauss_seidel_sweep(A, x0, b)
    x = oracles.gauss_seidel_sweep(A, x, b)
    assert np.isclose(hist.residual_norms[-1],
                      np.linalg.norm(b - A.matvec(x)), atol=1e-10)
    assert hist.relaxations[-1] == 200


def test_gs_trace_record_every(state):
    A, x0, b = state
    full = gauss_seidel_trace(A, x0, b, 1)
    thin = gauss_seidel_trace(A, x0, b, 1, record_every=10)
    assert len(full) == 101
    assert len(thin) == 11
    assert np.isclose(full.residual_norms[-1], thin.residual_norms[-1])


def test_gs_incremental_norm_is_exact_mid_trace(state):
    """The per-relaxation norm tracking must agree with recomputation at an
    arbitrary point inside the sweep, not just at sweep boundaries."""
    A, x0, b = state
    hist = gauss_seidel_trace(A, x0, b, 1)
    stop = 37
    x = np.array(x0)
    diag = A.diagonal()
    for i in range(stop):
        r_i = b[i] - float(A.to_dense()[i] @ x)
        x[i] += r_i / diag[i]
    assert np.isclose(hist.residual_norms[stop],
                      np.linalg.norm(b - A.matvec(x)), atol=1e-10)


def test_jacobi_trace_matches_formula(state):
    A, x0, b = state
    hist = jacobi_trace(A, x0, b, 3)
    x = np.array(x0)
    d = A.diagonal()
    for _ in range(3):
        x = x + (b - A.matvec(x)) / d
    assert np.isclose(hist.residual_norms[-1],
                      np.linalg.norm(b - A.matvec(x)), atol=1e-12)
    assert hist.parallel_steps == [0, 1, 2, 3]
    assert hist.relaxations == [0, 100, 200, 300]


def test_damped_jacobi(state):
    A, x0, b = state
    plain = jacobi_trace(A, x0, b, 5)
    damped = jacobi_trace(A, x0, b, 5, omega=0.67)
    assert plain.residual_norms[-1] != damped.residual_norms[-1]


def test_mcgs_equivalent_accuracy_to_gs_class_structure(state):
    """MC GS relaxes every row once per sweep, in color order; the result
    is a valid GS sweep in the color-permuted order."""
    A, x0, b = state
    colors = greedy_coloring(A)
    hist = multicolor_gs_trace(A, x0, b, 1, colors=colors)
    order = np.argsort(colors, kind="stable")
    x = oracles.gauss_seidel_sweep(A, x0, b, order=order)
    assert np.isclose(hist.residual_norms[-1],
                      np.linalg.norm(b - A.matvec(x)), atol=1e-10)


def test_mcgs_parallel_steps_count_color_classes(state):
    A, x0, b = state
    colors = greedy_coloring(A)
    n_colors = int(colors.max()) + 1
    hist = multicolor_gs_trace(A, x0, b, 2, colors=colors)
    assert hist.parallel_steps[-1] == 2 * n_colors
    assert hist.relaxations[-1] == 2 * A.n_rows


def test_all_methods_reduce_residual(state):
    A, x0, b = state
    for hist in (gauss_seidel_trace(A, x0, b, 1),
                 jacobi_trace(A, x0, b, 1),
                 multicolor_gs_trace(A, x0, b, 1)):
        assert hist.residual_norms[-1] < hist.residual_norms[0]
