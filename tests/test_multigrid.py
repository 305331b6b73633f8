"""Tests for the geometric multigrid substrate and smoothers."""

import numpy as np
import pytest

from repro.matrices.poisson import poisson_2d
from repro.multigrid import (
    DistributedSouthwellSmoother,
    GaussSeidelSmoother,
    MultigridExecutor,
    ParallelSouthwellSmoother,
    bilinear_prolongation,
    build_operator_hierarchy,
    full_weighting,
    valid_grid_dims,
)
from repro.multigrid.grid import coarse_dim


def scaled_laplacian(dim):
    h = 1.0 / (dim + 1)
    return poisson_2d(dim).scale(1.0 / h ** 2)


def rel_resid(dim, smoother, seed=0, n_cycles=9):
    """Figure 6 protocol for one grid: ``n_cycles`` V-cycles from zero
    with a seeded RHS in [-1, 1]; returns ``‖r_N‖ / ‖r_0‖``."""
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, dim * dim)
    hist = MultigridExecutor(scaled_laplacian(dim), smoother).run(
        b, n_cycles=n_cycles)
    return hist.final_norm / hist.initial_norm


# ------------------------------------------------------------------ grid
def test_valid_grid_dims_are_paper_dims():
    assert valid_grid_dims() == [15, 31, 63, 127, 255]


def test_coarse_dim():
    assert coarse_dim(15) == 7
    assert coarse_dim(3) == 1
    with pytest.raises(ValueError):
        coarse_dim(10)


def test_hierarchy_structure():
    levels, dropped = build_operator_hierarchy(scaled_laplacian(31))
    assert [lv.n for lv in levels] == [31, 15, 7, 3]
    assert dropped == [0, 0, 0, 0]
    for lv in levels:
        assert lv.matrix.n_rows == lv.n * lv.n
    with pytest.raises(ValueError):
        build_operator_hierarchy(scaled_laplacian(31), coarsest_dim=2)


def test_hierarchy_operator_scaling():
    levels, _ = build_operator_hierarchy(scaled_laplacian(15))
    # diag = 4 / h^2
    for lv in levels:
        h = 1.0 / (lv.n + 1)
        assert np.allclose(lv.matrix.diagonal(), 4.0 / h ** 2)


# -------------------------------------------------------------- transfer
def test_restriction_of_constant_is_constant():
    n_fine = 7
    fine = np.ones(n_fine * n_fine)
    coarse = full_weighting(fine, n_fine)
    # interior coarse points average a full 3x3 of ones -> exactly 1
    assert coarse.shape == (9,)
    assert np.allclose(coarse.reshape(3, 3)[1, 1], 1.0)


def test_prolongation_of_constant_inside():
    coarse = np.ones(9)
    fine = bilinear_prolongation(coarse, 3).reshape(7, 7)
    # coincident + interior edge points are exactly 1
    assert np.allclose(fine[1::2, 1::2], 1.0)
    assert np.allclose(fine[3, 2], 1.0)


def test_transfer_adjointness():
    """Full weighting and bilinear prolongation satisfy P = 4 R^T:
    ⟨P c, f⟩ = 4 ⟨c, R f⟩ for all c, f."""
    rng = np.random.default_rng(0)
    n_coarse, n_fine = 7, 15
    for _ in range(5):
        c = rng.standard_normal(n_coarse * n_coarse)
        f = rng.standard_normal(n_fine * n_fine)
        lhs = bilinear_prolongation(c, n_coarse) @ f
        rhs = 4.0 * (c @ full_weighting(f, n_fine))
        assert np.isclose(lhs, rhs, rtol=1e-12)


def test_transfer_shape_validation():
    with pytest.raises(ValueError):
        full_weighting(np.zeros(10), 7)
    with pytest.raises(ValueError):
        bilinear_prolongation(np.zeros(10), 7)


# ---------------------------------------------------------------- vcycle
def test_vcycle_converges_fast():
    rng = np.random.default_rng(1)
    mg = MultigridExecutor(scaled_laplacian(31), GaussSeidelSmoother(1))
    b = rng.uniform(-1, 1, 31 * 31)
    hist = mg.run(b, n_cycles=9)
    assert hist.final_norm / hist.initial_norm < 1e-6
    # roughly constant per-cycle contraction
    rates = np.array(hist.residual_norms[1:]) / np.array(
        hist.residual_norms[:-1])
    assert rates.max() < 0.35


def test_vcycle_solution_is_accurate():
    rng = np.random.default_rng(2)
    A = scaled_laplacian(15)
    mg = MultigridExecutor(A, GaussSeidelSmoother(1))
    b = rng.uniform(-1, 1, 225)
    mg.run(b, n_cycles=12)
    x_star = np.linalg.solve(A.to_dense(), b)
    assert np.allclose(mg.x, x_star, atol=1e-8)


def test_grid_independent_convergence_gs():
    rels = [rel_resid(d, GaussSeidelSmoother(1), seed=3)
            for d in (15, 31, 63)]
    assert max(rels) / min(rels) < 25.0     # same order across grids
    assert max(rels) < 1e-6


def test_grid_independent_convergence_ds_smoother():
    rels = [rel_resid(d, DistributedSouthwellSmoother(1.0), seed=3)
            for d in (15, 31, 63)]
    assert max(rels) / min(rels) < 25.0
    assert max(rels) < 1e-7


def test_ds_smoother_beats_gs_per_relaxation():
    """The paper's Figure 6 claim at equal relaxation budgets."""
    gs = rel_resid(31, GaussSeidelSmoother(1))
    ds = rel_resid(31, DistributedSouthwellSmoother(1.0))
    assert ds < gs


def test_half_sweep_ds_still_converges():
    rel = rel_resid(31, DistributedSouthwellSmoother(0.5))
    assert rel < 1e-5


def test_parallel_southwell_smoother_works():
    rel = rel_resid(31, ParallelSouthwellSmoother(1.0))
    assert rel < 1e-7


# -------------------------------------------------------------- smoothers
def test_gs_smoother_budget_accounting(poisson_100):
    assert GaussSeidelSmoother(2).relaxations(100) == 200
    assert DistributedSouthwellSmoother(0.5).relaxations(100) == 50


def test_smoother_validation():
    with pytest.raises(ValueError):
        GaussSeidelSmoother(0)
    for bad_sweeps in (2.5, "2", True):
        with pytest.raises(ValueError, match="n_sweeps"):
            GaussSeidelSmoother(bad_sweeps)
    with pytest.raises(ValueError):
        DistributedSouthwellSmoother(0.0)


def test_ds_smoother_spends_exact_budget(poisson_100, rng):
    sm = DistributedSouthwellSmoother(0.5, seed=1)
    b = rng.uniform(-1, 1, 100)
    sm.smooth(poisson_100, np.zeros(100), b)
    solver = sm._solver_for(poisson_100)
    assert solver.total_relaxations == 50
