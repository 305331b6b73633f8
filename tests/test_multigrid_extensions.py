"""Tests for the multigrid extensions: explicit transfer matrices,
Galerkin coarse operators, and the extra smoothers."""

import numpy as np
import pytest

from repro.matrices.poisson import poisson_2d
from repro.multigrid import (
    ChebyshevSmoother,
    GaussSeidelSmoother,
    MultigridExecutor,
    RedBlackGaussSeidelSmoother,
    WeightedJacobiSmoother,
    bilinear_prolongation,
    full_weighting,
    prolongation_matrix,
    restriction_matrix,
)
from repro.sparsela import CSRMatrix


def scaled_laplacian(dim):
    h = 1.0 / (dim + 1)
    return poisson_2d(dim).scale(1.0 / h ** 2)


def vcycles(dim, smoother, b, n_cycles=9, hierarchy="geometric"):
    """``n_cycles`` V-cycles from zero on the ``dim``² grid."""
    mg = MultigridExecutor(scaled_laplacian(dim), smoother,
                           hierarchy=hierarchy)
    return mg.run(b, n_cycles=n_cycles)


# ------------------------------------------------------- transfer matrices
def test_restriction_matrix_matches_array_form(rng):
    n_fine = 15
    R = restriction_matrix(n_fine)
    for _ in range(4):
        f = rng.standard_normal(n_fine * n_fine)
        assert np.allclose(R.matvec(f), full_weighting(f, n_fine))


def test_prolongation_matrix_matches_array_form(rng):
    n_coarse = 7
    P = prolongation_matrix(n_coarse)
    for _ in range(4):
        c = rng.standard_normal(n_coarse * n_coarse)
        assert np.allclose(P.matvec(c), bilinear_prolongation(c, n_coarse))


def test_transfer_matrices_adjoint_relation():
    R = restriction_matrix(15)
    P = prolongation_matrix(7)
    assert np.allclose(P.to_dense(), 4.0 * R.to_dense().T)


def test_restriction_row_sums_one():
    """Full weighting preserves constants up to the boundary effect: each
    row of R sums to 1 (interior coarse points see a full stencil)."""
    R = restriction_matrix(15)
    sums = R.to_dense().sum(axis=1)
    interior = sums[sums > 0.99]
    assert interior.size > 0
    assert np.allclose(interior, 1.0)


# ------------------------------------------------------------- matmat
def test_matmat_matches_dense(rng):
    a = rng.standard_normal((8, 6))
    a[rng.random((8, 6)) > 0.4] = 0
    b = rng.standard_normal((6, 9))
    b[rng.random((6, 9)) > 0.4] = 0
    A = CSRMatrix.from_dense(a)
    B = CSRMatrix.from_dense(b)
    assert np.allclose(A.matmat(B).to_dense(), a @ b)
    with pytest.raises(ValueError):
        B.matmat(B)


# ------------------------------------------------------------- galerkin
def test_galerkin_coarse_operator_is_spd():
    mg = MultigridExecutor(scaled_laplacian(15), GaussSeidelSmoother(1),
                           hierarchy="galerkin")
    for level in mg.levels:
        d = level.matrix.to_dense()
        assert np.allclose(d, d.T, atol=1e-10)
        assert np.linalg.eigvalsh(d).min() > 0


def test_galerkin_vcycle_grid_independent():
    rng = np.random.default_rng(5)
    rels = []
    for dim in (15, 31, 63):
        b = rng.uniform(-1, 1, dim * dim)
        hist = vcycles(dim, GaussSeidelSmoother(1), b, hierarchy="galerkin")
        rels.append(hist.final_norm / hist.initial_norm)
    assert max(rels) < 1e-6
    assert max(rels) / min(rels) < 30.0


def test_galerkin_matches_rediscretized_accuracy():
    rng = np.random.default_rng(6)
    b = rng.uniform(-1, 1, 31 * 31)
    h1 = vcycles(31, GaussSeidelSmoother(1), b)
    h2 = vcycles(31, GaussSeidelSmoother(1), b, hierarchy="galerkin")
    # both reach deep convergence; neither is catastrophically worse
    assert h1.final_norm < 1e-6 and h2.final_norm < 1e-6


# ------------------------------------------------------------- smoothers
def test_weighted_jacobi_smoother_vcycle_converges():
    rng = np.random.default_rng(7)
    b = rng.uniform(-1, 1, 31 * 31)
    hist = vcycles(31, WeightedJacobiSmoother(0.8), b, n_cycles=12)
    assert hist.final_norm / hist.initial_norm < 1e-6


def test_plain_jacobi_is_a_worse_smoother_than_damped():
    rng = np.random.default_rng(8)
    b = rng.uniform(-1, 1, 31 * 31)
    plain = vcycles(31, WeightedJacobiSmoother(1.0), b)
    damped = vcycles(31, WeightedJacobiSmoother(0.8), b)
    assert damped.final_norm < plain.final_norm


def test_red_black_gs_smoother_vcycle():
    rng = np.random.default_rng(9)
    b = rng.uniform(-1, 1, 31 * 31)
    hist = vcycles(31, RedBlackGaussSeidelSmoother(), b)
    assert hist.final_norm / hist.initial_norm < 1e-6


def test_red_black_uses_two_colors_on_grid(poisson_100):
    sm = RedBlackGaussSeidelSmoother()
    classes = sm._classes(poisson_100)
    assert len(classes) == 2
    assert sum(c.size for c in classes) == 100


def test_red_black_matches_multicolor_gs(poisson_100, rng):
    from repro.solvers.scalar import multicolor_gs_trace

    b = rng.standard_normal(100)
    x0 = np.zeros(100)
    sm = RedBlackGaussSeidelSmoother()
    out = sm.smooth(poisson_100, x0, b)
    hist = multicolor_gs_trace(poisson_100, x0, b, 1)
    assert np.isclose(np.linalg.norm(b - poisson_100.matvec(out)),
                      hist.final_norm, atol=1e-12)


def test_smoother_validation_extras():
    with pytest.raises(ValueError):
        WeightedJacobiSmoother(omega=0.0)
    with pytest.raises(ValueError):
        WeightedJacobiSmoother(n_sweeps=0)
    with pytest.raises(ValueError):
        RedBlackGaussSeidelSmoother(n_sweeps=0)
    for bad_sweeps in (2.5, "2", True):
        with pytest.raises(ValueError, match="n_sweeps"):
            WeightedJacobiSmoother(n_sweeps=bad_sweeps)
        with pytest.raises(ValueError, match="n_sweeps"):
            RedBlackGaussSeidelSmoother(n_sweeps=bad_sweeps)


# ------------------------------------------------------------- chebyshev
def test_chebyshev_smoother_vcycle_grid_independent():
    rels = []
    for d in (15, 31, 63):
        b = np.random.default_rng(0).uniform(-1.0, 1.0, d * d)
        hist = vcycles(d, ChebyshevSmoother(degree=2), b)
        rels.append(hist.final_norm / hist.initial_norm)
    assert max(rels) < 1e-2
    assert max(rels) / min(rels) < 10.0


def test_chebyshev_as_solver_with_full_spectrum(poisson_100, rng):
    """With the polynomial covering the whole spectrum and high degree,
    Chebyshev converges as a standalone solver."""
    b = rng.standard_normal(100)
    sm = ChebyshevSmoother(degree=120, eig_ratio=5000.0)
    x = sm.smooth(poisson_100, np.zeros(100), b)
    rel = np.linalg.norm(b - poisson_100.matvec(x)) / np.linalg.norm(b)
    assert rel < 0.05


def test_chebyshev_caches_eigenvalue_estimate(poisson_100, rng):
    sm = ChebyshevSmoother(degree=2)
    b = rng.standard_normal(100)
    sm.smooth(poisson_100, np.zeros(100), b)
    pinned, lmax1 = sm._lmax_cache[id(poisson_100)]
    assert pinned is poisson_100                 # the entry keeps its key alive
    sm.smooth(poisson_100, np.zeros(100), b)
    assert sm._lmax_cache[id(poisson_100)][1] == lmax1
    # the estimate brackets the true value (D=I after scaling)
    true_lmax = np.linalg.eigvalsh(poisson_100.to_dense()).max()
    assert true_lmax <= lmax1 <= 1.35 * true_lmax


def test_chebyshev_validation():
    with pytest.raises(ValueError):
        ChebyshevSmoother(degree=0)
    with pytest.raises(ValueError):
        ChebyshevSmoother(eig_ratio=1.0)
