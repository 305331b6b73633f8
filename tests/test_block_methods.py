"""Tests for the three distributed block methods (Algorithms 1-3).

These check the paper-critical properties: exact residual bookkeeping
through the message traffic, the Parallel Southwell criterion, PS's
exact-Γ invariant, DS's Γ̃ mirror invariant, message categories, and the
relative communication behaviour the paper reports.
"""

import numpy as np
import pytest

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.partition import partition
from repro.runtime import CATEGORY_RESIDUAL, CATEGORY_SOLVE
from repro.solvers.block_jacobi import BlockJacobi

METHODS = [BlockJacobi, ParallelSouthwell, DistributedSouthwell]


@pytest.fixture(scope="module")
def fem_system(fem_300):
    part = partition(fem_300, 8, seed=0)
    return build_block_system(fem_300, part)


@pytest.fixture(scope="module")
def fem_state(fem_300):
    rng = np.random.default_rng(5)
    n = fem_300.n_rows
    x0 = rng.uniform(-1, 1, n)
    b = np.zeros(n)
    x0 = x0 / np.linalg.norm(fem_300.matvec(x0))
    return x0, b


@pytest.mark.parametrize("cls", METHODS)
def test_residual_bookkeeping_exact(cls, fem_system, fem_state, fem_300):
    """After any number of steps, the stored residual blocks equal
    b - A x for the assembled x, to rounding."""
    x0, b = fem_state
    method = cls(fem_system)
    method.run(x0, b, max_steps=12)
    x = method.solution()
    r_true = b - fem_300.matvec(x)
    r_stored = method.residual_vector()
    assert np.allclose(r_stored, r_true, atol=1e-12)
    assert np.isclose(method.global_norm(), np.linalg.norm(r_true),
                      atol=1e-12)


@pytest.mark.parametrize("cls", METHODS)
def test_history_is_recorded(cls, fem_system, fem_state):
    x0, b = fem_state
    method = cls(fem_system)
    hist = method.run(x0, b, max_steps=10)
    assert len(hist) == 11                      # initial + 10 steps
    assert np.isclose(hist.residual_norms[0], 1.0, atol=1e-12)
    assert hist.parallel_steps == list(range(11))
    assert all(np.diff(hist.comm_costs) >= 0)


def test_block_jacobi_all_active(fem_system, fem_state):
    x0, b = fem_state
    bj = BlockJacobi(fem_system)
    hist = bj.run(x0, b, max_steps=5)
    assert all(f == 1.0 for f in hist.active_fractions[1:])
    # one message per neighbor edge per step, no residual messages
    stats = bj.engine.stats
    n_edges = sum(len(fem_system.neighbors_of(p)) for p in range(8))
    assert stats.category_msgs[CATEGORY_SOLVE] == 5 * n_edges
    assert CATEGORY_RESIDUAL not in stats.category_msgs


def test_southwell_criterion_no_adjacent_relaxers_ps(fem_system, fem_state):
    """PS with exact norms never relaxes two neighbors simultaneously."""
    x0, b = fem_state
    ps = ParallelSouthwell(fem_system)
    ps.setup(x0, b)
    for _ in range(10):
        before = [np.array(x, copy=True) for x in ps.x_blocks]
        ps.step()
        relaxed = {p for p in range(8)
                   if not np.array_equal(before[p], ps.x_blocks[p])}
        for p in relaxed:
            assert not relaxed & {int(q) for q in
                                  fem_system.neighbors_of(p)}


def test_ps_gamma_always_exact(fem_system, fem_state):
    x0, b = fem_state
    ps = ParallelSouthwell(fem_system)
    ps.setup(x0, b)
    for _ in range(12):
        ps.step()
        for p in range(8):
            nbrs = fem_system.neighbors_of(p)
            expected = np.array([float(ps.norms[int(q)])
                                 * float(ps.norms[int(q)]) for q in nbrs])
            assert np.array_equal(ps.gamma_sq[p], expected)


def test_ds_tilde_mirror_invariant(fem_system, fem_state):
    """Γ̃ is bit-exact: what p thinks q believes about p equals what q
    actually believes — the paper's 'always exactly known' claim."""
    x0, b = fem_state
    ds = DistributedSouthwell(fem_system)
    ds.setup(x0, b)
    pos = [{int(t): j for j, t in enumerate(fem_system.neighbors_of(q))}
           for q in range(8)]
    for _ in range(15):
        ds.step()
        for p in range(8):
            for i, q in enumerate(fem_system.neighbors_of(p)):
                q = int(q)
                assert ds.tilde_sq[p][i] == ds.gamma_sq[q][pos[q][p]]


def test_ds_estimates_bounded_below_by_ghost(fem_system, fem_state):
    """The norm estimate of a neighbor never falls below the part of its
    residual the ghost layer can see."""
    x0, b = fem_state
    ds = DistributedSouthwell(fem_system)
    ds.setup(x0, b)
    for _ in range(10):
        ds.step()
        for p in range(8):
            for i, z in enumerate(ds._ghost_views[p]):
                assert ds.gamma_sq[p][i] >= float(z @ z) - 1e-12


def test_ds_sends_fewer_residual_messages_than_ps(fem_system, fem_state):
    x0, b = fem_state
    ps = ParallelSouthwell(fem_system)
    ps.run(*fem_state, max_steps=20)
    ds = DistributedSouthwell(fem_system)
    ds.run(*fem_state, max_steps=20)
    ps_res = ps.engine.stats.category_msgs.get(CATEGORY_RESIDUAL, 0)
    ds_res = ds.engine.stats.category_msgs.get(CATEGORY_RESIDUAL, 0)
    assert ds_res < ps_res
    # and fewer messages overall — the headline claim
    assert (ds.engine.stats.total_messages
            < ps.engine.stats.total_messages)


def test_ds_no_deadlock_progress(fem_system, fem_state):
    """Distributed Southwell keeps relaxing (never all-idle stall) until
    convergence territory."""
    x0, b = fem_state
    ds = DistributedSouthwell(fem_system)
    ds.setup(x0, b)
    for _ in range(25):
        active = ds.step()
        if ds.global_norm() < 1e-8:
            break
        assert active > 0, "deadlock: no process relaxed"


@pytest.mark.parametrize("cls", METHODS)
def test_methods_converge_on_easy_problem(cls, poisson_100):
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, 100)
    b = np.zeros(100)
    x0 /= np.linalg.norm(poisson_100.matvec(x0))
    part = partition(poisson_100, 4, seed=0)
    system = build_block_system(poisson_100, part)
    method = cls(system)
    hist = method.run(x0, b, max_steps=40)
    assert hist.final_norm < 0.05


def test_stop_at_target(fem_system, fem_state):
    x0, b = fem_state
    bj = BlockJacobi(fem_system)
    hist = bj.run(x0, b, max_steps=50, target_norm=0.1, stop_at_target=True)
    assert hist.final_norm <= 0.1
    assert len(hist) < 51


def test_run_requires_matching_sizes(fem_system):
    bj = BlockJacobi(fem_system)
    with pytest.raises(ValueError):
        bj.setup(np.zeros(5), np.zeros(5))


def test_solution_permutation_roundtrip(fem_system, fem_state, fem_300):
    """solution() undoes the partition permutation."""
    x0, b = fem_state
    bj = BlockJacobi(fem_system)
    bj.run(x0, b, max_steps=0)
    assert np.allclose(bj.solution(), x0, atol=1e-15)
