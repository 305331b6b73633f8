"""Tests for the Section 5 related-work methods and the thresholded DS."""

import numpy as np
import pytest

from repro.core import (
    DistributedSouthwell,
    SimultaneousAdaptiveRelaxation,
    ThresholdedDistributedSouthwell,
    greedy_multiplicative_schwarz,
    sequential_adaptive_relaxation,
    sequential_southwell,
)
from repro.core.blockdata import build_block_system
from repro.partition import partition

from tests.plane_pins import PINS, run_fingerprint, trace_pin


@pytest.fixture
def state(poisson_100):
    rng = np.random.default_rng(31)
    n = poisson_100.n_rows
    b = rng.uniform(-1, 1, n)
    b /= np.linalg.norm(b)
    return poisson_100, np.zeros(n), b


# --------------------------------------------- sequential adaptive (Rüde)
def test_sequential_adaptive_converges(state):
    A, x0, b = state
    hist = sequential_adaptive_relaxation(A, x0, b, 400, tolerance=1e-6)
    assert hist.final_norm < 0.2 * hist.initial_norm


def test_sequential_adaptive_with_loose_tolerance_stops_early(state):
    A, x0, b = state
    hist = sequential_adaptive_relaxation(A, x0, b, 10_000, tolerance=0.5)
    # a huge significance threshold deactivates everything quickly
    assert hist.relaxations[-1] < 10_000


def test_sequential_adaptive_tight_tolerance_tracks_southwell(state):
    """With tolerance -> 0 and a full initial active set, the active-set
    method relaxes the same first row as Sequential Southwell."""
    A, x0, b = state
    a1 = sequential_adaptive_relaxation(A, x0, b, 1, tolerance=0.0)
    s1 = sequential_southwell(A, x0, b, 1)
    assert np.isclose(a1.residual_norms[-1], s1.residual_norms[-1])


def test_sequential_adaptive_restricted_active_set(state):
    A, x0, b = state
    hist = sequential_adaptive_relaxation(
        A, x0, b, 50, tolerance=1e-8,
        initial_active=np.arange(10))
    # relaxations happen (the set grows through neighbors)
    assert hist.relaxations[-1] > 0


def test_sequential_adaptive_rejects_zero_diag():
    from repro.sparsela import CSRMatrix

    A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        sequential_adaptive_relaxation(A, np.zeros(2), np.ones(2), 5)


# ---------------------------------------------- simultaneous (threshold)
def test_simultaneous_adaptive_converges_on_poisson(state):
    A, x0, b = state
    sar = SimultaneousAdaptiveRelaxation(A, theta_factor=0.5)
    hist = sar.run(x0, b, max_steps=100)
    assert hist.final_norm < 0.05
    # residual bookkeeping
    assert np.allclose(sar.r, b - A.matvec(sar.x), atol=1e-12)


def test_simultaneous_adaptive_zero_threshold_is_jacobi(state):
    """theta_factor=0 relaxes every nonzero-residual row: plain Jacobi."""
    from repro.solvers.scalar import jacobi_trace

    A, x0, b = state
    sar = SimultaneousAdaptiveRelaxation(A, theta_factor=0.0)
    hist = sar.run(x0, b, max_steps=5)
    ref = jacobi_trace(A, x0, b, 5)
    assert np.allclose(hist.residual_norms, ref.residual_norms, atol=1e-12)


def test_simultaneous_adaptive_can_diverge_where_southwell_does_not():
    """Like Jacobi, the threshold scheme is not convergence-safe: on a
    strongly non-dominant SPD elasticity matrix, relaxing coupled rows
    together diverges while (sequential) Southwell descends."""
    from repro.matrices.elasticity import elasticity_fem_2d

    prob = elasticity_fem_2d(target_rows=200, nu=0.49, seed=4)
    A = prob.matrix
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, A.n_rows)
    b /= np.linalg.norm(b)
    x0 = np.zeros(A.n_rows)
    sar = SimultaneousAdaptiveRelaxation(A, theta_factor=0.0)
    hist = sar.run(x0, b, max_steps=60)
    sw = sequential_southwell(A, x0, b, 60 * A.n_rows // 10)
    assert hist.final_norm > 1.0          # diverged
    assert sw.final_norm < 1.0            # Southwell is fine


def test_simultaneous_adaptive_validation(poisson_100):
    with pytest.raises(ValueError):
        SimultaneousAdaptiveRelaxation(poisson_100, theta_factor=1.0)


# --------------------------------------------- greedy mult. Schwarz [10]
def test_greedy_schwarz_converges(fem_300, rng):
    part = partition(fem_300, 8, seed=0)
    system = build_block_system(fem_300, part, local_solver="direct")
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    hist = greedy_multiplicative_schwarz(system, x0, b, n_solves=40)
    assert hist.final_norm < 0.05
    assert hist.parallel_steps[-1] <= 40


def test_greedy_schwarz_single_block_is_direct_solve(fem_300, rng):
    part = partition(fem_300, 1, method="strided")
    system = build_block_system(fem_300, part, local_solver="direct")
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    hist = greedy_multiplicative_schwarz(system, x0, b, n_solves=1)
    assert hist.final_norm < 1e-8


def test_greedy_schwarz_monotone_residual(fem_300, rng):
    """Exact subdomain solves never increase the global residual norm on
    the solved block, and in practice descend monotonically here."""
    part = partition(fem_300, 6, seed=1)
    system = build_block_system(fem_300, part, local_solver="direct")
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    hist = greedy_multiplicative_schwarz(system, x0, b, n_solves=30)
    norms = np.array(hist.residual_norms)
    assert norms[-1] < norms[0]


# ------------------------------------------------------- thresholded DS
@pytest.fixture(scope="module")
def block_state(fem_300):
    part = partition(fem_300, 10, seed=0)
    system = build_block_system(fem_300, part)
    rng = np.random.default_rng(77)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    return system, x0, b


def _threshold_pin(thr, hist, flushed):
    """``thr``'s run, shaped like its ``tests/plane_pins.py`` record."""
    return {**run_fingerprint(thr, hist), "suppressed": thr.suppressed_sends,
            "flushed": flushed,
            "solve_msgs": thr.engine.stats.category_msgs.get("solve", 0)}


def _threshold_run(system, x0, b, threshold, steps):
    thr = ThresholdedDistributedSouthwell(system, threshold=threshold)
    flushed = []
    flush = thr.flush_pending
    thr.flush_pending = lambda: flushed.append(flush()) or flushed[-1]
    hist = thr.run(x0, b, max_steps=steps)
    return thr, _threshold_pin(thr, hist, flushed[0])


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("steps", [15, 20, 25])
def test_threshold_reproduces_the_recorded_runs(block_state, threshold,
                                                steps):
    """The flat-plane variant (held deltas in a mailbox-shaped store)
    reproduces the per-message plane's recorded runs bit for bit —
    suppressed and flushed counts included."""
    system, x0, b = block_state
    _, got = _threshold_run(system, x0, b, threshold, steps)
    assert got == PINS[f"threshold:{threshold}:{steps}"]


def test_threshold_trace_reproduces_the_recorded_events(block_state):
    from repro.trace import RunTracer

    system, x0, b = block_state
    for threshold in (0.0, 0.3, 0.5):
        thr = ThresholdedDistributedSouthwell(system, threshold=threshold,
                                              tracer=RunTracer())
        thr.run(x0, b, max_steps=25)
        assert trace_pin(list(thr.tracer.iter_events())) == \
            PINS[f"threshold-trace:{threshold}"], threshold


def test_threshold_trace_reconciles_with_its_footer(block_state):
    """The end-of-run flush is sent before the trace's stats footer is
    written, so the footer counts every send the trace holds."""
    from repro.analysis.traceagg import summarize_trace
    from repro.trace import RunTracer

    system, x0, b = block_state
    thr = ThresholdedDistributedSouthwell(system, threshold=0.3,
                                          tracer=RunTracer())
    flushed = []
    flush = thr.flush_pending
    thr.flush_pending = lambda: flushed.append(flush()) or flushed[-1]
    thr.run(x0, b, max_steps=25)
    assert flushed[0] > 0                   # the flush sent something
    assert summarize_trace(list(thr.tracer.iter_events())).reconciles()


def test_threshold_rejects_a_lossy_plan(block_state):
    from repro.faults import FaultPlan

    system, x0, b = block_state
    thr = ThresholdedDistributedSouthwell(
        system, threshold=0.3, faults=FaultPlan.uniform(drop=0.1, seed=1))
    with pytest.raises(ValueError, match="thresholded-distributed-"
                                         "southwell with a lossy"):
        thr.run(x0, b, max_steps=5)


def test_threshold_zero_is_plain_ds(block_state):
    system, x0, b = block_state
    plain = DistributedSouthwell(system)
    plain.run(x0, b, max_steps=15)
    thr = ThresholdedDistributedSouthwell(system, threshold=0.0)
    thr.run(x0, b, max_steps=15)
    assert np.allclose(plain.history.residual_norms,
                       thr.history.residual_norms, rtol=1e-12)
    assert thr.suppressed_sends == 0
    assert (plain.engine.stats.total_messages
            == thr.engine.stats.total_messages)


def test_threshold_reduces_solve_messages(block_state):
    from repro.runtime import CATEGORY_SOLVE

    system, x0, b = block_state
    plain = DistributedSouthwell(system)
    plain.run(x0, b, max_steps=25)
    thr = ThresholdedDistributedSouthwell(system, threshold=0.3)
    thr.run(x0, b, max_steps=25)
    assert thr.suppressed_sends > 0
    assert (thr.engine.stats.category_msgs[CATEGORY_SOLVE]
            < plain.engine.stats.category_msgs[CATEGORY_SOLVE])
    # and still converges usefully
    assert thr.history.final_norm < 0.1


def test_threshold_flush_restores_exact_residual(block_state, fem_300):
    system, x0, b = block_state
    thr = ThresholdedDistributedSouthwell(system, threshold=0.3)
    thr.run(x0, b, max_steps=20)       # run() flushes
    r_true = b - fem_300.matvec(thr.solution())
    assert np.allclose(thr.residual_vector(), r_true, atol=1e-12)


def test_threshold_validation(block_state):
    system, _, _ = block_state
    with pytest.raises(ValueError):
        ThresholdedDistributedSouthwell(system, threshold=-0.1)
