"""Tests for asynchronous (chaotic) Block Jacobi on the event executor."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import AsyncConfig, solve
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.faults import FaultPlan
from repro.matrices import fem_poisson_2d
from repro.matrices.poisson import poisson_2d
from repro.matrices.suite import load_problem
from repro.partition import partition, partition_from_parts
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import CSRMatrix


@pytest.fixture(scope="module")
def m_matrix_setup():
    prob = fem_poisson_2d(target_rows=800, seed=0)
    part = partition(prob.matrix, 10, seed=0)
    system = build_block_system(prob.matrix, part)
    x0, b = prob.initial_state(seed=0)
    return prob.matrix, system, x0, b


def run_async_bj(system, x0, b, max_turns, speed_factors=None):
    """Async BJ for a fixed turn budget; returns (executor, history)."""
    ex = AsyncExecutor(BlockJacobi(system), speed_factors=speed_factors,
                       record_every=50)
    return ex, ex.run(x0, b, max_turns=max_turns)


def test_async_bj_converges_on_m_matrix(m_matrix_setup):
    A, system, x0, b = m_matrix_setup
    _, hist = run_async_bj(system, x0, b, max_turns=30_000)
    assert hist.final_norm <= 0.01


def test_async_bj_straggler_tolerance(m_matrix_setup):
    A, system, x0, b = m_matrix_setup
    slow = np.ones(system.n_parts)
    slow[1] = 0.25
    _, uniform = run_async_bj(system, x0, b, max_turns=10_000)
    _, straggled = run_async_bj(system, x0, b, max_turns=10_000,
                                speed_factors=slow)
    assert straggled.final_norm <= 0.05
    # asynchronous Jacobi shrugs the straggler off (< 2.5x penalty versus
    # the near-4x a lockstep all-active method would pay compute-bound)
    assert (straggled.cost_to_reach(0.05, axis="times")
            < 2.5 * uniform.cost_to_reach(0.05, axis="times"))


def test_async_bj_single_rank_converges(m_matrix_setup):
    """A rank with no neighbours has nothing to wait for: it keeps
    relaxing until converged instead of parking after one sweep."""
    A, _, x0, b = m_matrix_setup
    res = solve(A, b, method="block-jacobi", x0=x0, n_parts=1,
                runtime="async", async_config=AsyncConfig(max_turns=600))
    assert res.final_norm <= 1e-6
    assert not res.degraded


def test_async_bj_cut_off_block_converges():
    """A block with no couplings converges alongside coupled ones."""
    A = CSRMatrix.from_scipy(sp.block_diag(
        [poisson_2d(12).to_scipy(), poisson_2d(6).to_scipy()]))
    parts = np.repeat([0, 1, 2], [72, 72, 36])
    system = build_block_system(A, partition_from_parts(A, parts, 3))
    assert system.neighbors_of(2).size == 0
    x0 = np.random.default_rng(0).uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    ex, hist = run_async_bj(system, x0, b, max_turns=20_000)
    assert hist.final_norm <= 1e-6 * np.linalg.norm(A.matvec(x0))
    assert np.linalg.norm(ex.runner.r_blocks[2]) <= 1e-8


@pytest.mark.parametrize("drop", [0.2, 0.8])
def test_async_bj_converges_under_drops(m_matrix_setup, drop):
    """Payloads are cumulative, so a rank whose send lost a message
    re-sends on its next turn and the drops heal without a deadlock."""
    A, _, x0, b = m_matrix_setup
    res = solve(A, b, method="block-jacobi", x0=x0, n_parts=10,
                runtime="async", faults=FaultPlan.uniform(drop=drop, seed=3),
                async_config=AsyncConfig(max_turns=30_000))
    assert sum(res.faults_injected.values()) > 0
    assert res.final_norm <= 1e-4
    assert not res.degraded


def test_async_bj_trails_ds_on_small_hard_blocks():
    """On a calibrated hard suite member cut into small blocks, chaotic
    Block Jacobi spends more relaxations and messages than async
    Distributed Southwell and still ends an order of magnitude behind."""
    prob = load_problem("bone010", size_scale=0.5)
    x0, b = prob.initial_state(seed=0)
    res = {method: solve(prob.matrix, b, method=method, x0=x0, n_parts=128,
                         runtime="async",
                         async_config=AsyncConfig(max_turns=60_000,
                                                  record_every=256))
           for method in ("block-jacobi", "distributed-southwell")}
    bj, ds = res["block-jacobi"], res["distributed-southwell"]
    assert bj.final_norm > 5.0 * ds.final_norm
    assert bj.relaxations > ds.relaxations
    assert bj.comm_cost > ds.comm_cost


def test_async_bj_validation(m_matrix_setup):
    _, system, x0, b = m_matrix_setup
    with pytest.raises(ValueError):
        AsyncExecutor(BlockJacobi(system), poll_interval=0.0)
    with pytest.raises(ValueError):
        AsyncExecutor(BlockJacobi(system)).run()


def test_async_bj_solution_assembly(m_matrix_setup):
    A, system, x0, b = m_matrix_setup
    ex, hist = run_async_bj(system, x0, b, max_turns=500)
    x = ex.runner.solution()
    assert x.shape == (A.n_rows,)
    assert np.all(np.isfinite(x))
    # after the end-of-run drain the reported norm is the true one
    assert np.isclose(np.linalg.norm(b - A.matvec(x)), hist.final_norm)
