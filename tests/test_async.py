"""Tests for the event-driven async plane and async DS on the executor."""

import numpy as np
import pytest

from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.partition import partition
from repro.runtime import (
    CATEGORY_SOLVE,
    AsyncFlatPlane,
    CostModel,
    FlatEdgePlane,
    MessageStats,
)


def make_plane(n_procs, cost_model, latency=0.0, speed_factors=None):
    """An async plane over the complete digraph on ``n_procs`` ranks,
    one value per solve payload."""
    stats = MessageStats(n_procs)
    edges = [(s, d, 1, 0) for s in range(n_procs)
             for d in range(n_procs) if s != d]
    flat = FlatEdgePlane(n_procs, stats, edges)
    return AsyncFlatPlane(flat, stats, cost_model=cost_model,
                          latency=latency, speed_factors=speed_factors)


def sid(aplane, src, dst, kind=0):
    """Slot-id of the ``(src, dst)`` edge's solve (0) / residual (1) slot."""
    return np.array([2 * aplane.plane.edge_index[(src, dst)] + kind])


def send(aplane, src, dst, kind=0, nbytes=0):
    return aplane.send(src, sid(aplane, src, dst, kind), 0.0, 0.0, nbytes,
                       CATEGORY_SOLVE)


# -------------------------------------------------------------- plane
def test_clocks_advance_with_compute_and_sends():
    cm = CostModel(alpha=1.0, alpha_recv=0.5, beta=0.0, gamma=2.0)
    ap = make_plane(2, cm, latency=10.0)
    ap.advance_compute(0, 3.0)
    assert ap.clocks[0] == 6.0
    send(ap, 0, 1)
    assert ap.clocks[0] == 7.0
    # not delivered yet: receiver clock is 0 < 7 + 10
    assert ap.deliver(1) == []
    ap.advance_idle(1, 17.0)
    assert len(ap.deliver(1)) == 1
    assert ap.clocks[1] == 17.5          # + alpha_recv


def test_message_visibility_respects_latency():
    ap = make_plane(2, CostModel(alpha=0.0, alpha_recv=0.0, beta=0.0,
                                 gamma=0.0), latency=100.0)
    send(ap, 0, 1)
    ap.advance_idle(1, 99.9)
    assert ap.deliver(1) == []
    ap.advance_idle(1, 0.2)
    assert len(ap.deliver(1)) == 1


def test_scheduler_picks_smallest_clock():
    ap = make_plane(3, CostModel())
    p0 = ap.next_process()
    ap.advance_idle(p0, 1.0)
    ap.reschedule(p0)
    p1 = ap.next_process()
    assert p1 != p0
    ap.advance_idle(p1, 2.0)
    ap.reschedule(p1)
    p2 = ap.next_process()
    assert p2 not in (p0, p1)
    ap.advance_idle(p2, 3.0)
    ap.reschedule(p2)
    assert ap.next_process() == p0       # smallest clock again


def test_speed_factors_scale_compute_only():
    cm = CostModel(alpha=1.0, alpha_recv=0.0, beta=0.0, gamma=1.0)
    ap = make_plane(2, cm, speed_factors=np.array([1.0, 0.5]))
    ap.advance_compute(0, 4.0)
    ap.advance_compute(1, 4.0)
    assert ap.clocks[0] == 4.0
    assert ap.clocks[1] == 8.0           # half speed
    send(ap, 1, 0)
    assert ap.clocks[1] == 9.0           # wire time not scaled


def test_engine_validation():
    for latency in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="latency"):
            make_plane(2, CostModel(), latency=latency)
    for factor in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="speed_factors"):
            make_plane(2, CostModel(),
                       speed_factors=np.array([1.0, factor]))
    with pytest.raises(ValueError):
        make_plane(2, CostModel(), speed_factors=np.ones(3))
    with pytest.raises(ValueError):      # a rank does not message itself
        FlatEdgePlane(2, MessageStats(2), [(0, 0, 1, 0)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 0\)"):
        FlatEdgePlane(3, MessageStats(3), [(0, 1, 1, 0), (1, 0, 1, 0),
                                           (1, 2, 1, 0), (1, 0, 2, 0)])
    for bad in ((0, 3, 1, 0), (-1, 0, 1, 0)):
        with pytest.raises(IndexError, match="out of range"):
            FlatEdgePlane(3, MessageStats(3), [(0, 1, 1, 0), bad])


def test_fifo_per_sender_preserved():
    """One sender's messages to one receiver land in send order, whichever
    slot each travelled in."""
    cm = CostModel(alpha=1.0, alpha_recv=0.0, beta=0.0, gamma=0.0)
    for kinds in ((0, 1), (1, 0)):
        ap = make_plane(2, cm)
        for kind in kinds:
            send(ap, 0, 1, kind)
        ap.advance_idle(1, 100.0)
        assert [s & 1 for s in ap.deliver(1)] == list(kinds)


# ------------------------------------------------------------ async DS
@pytest.fixture(scope="module")
def async_setup(fem_300):
    part = partition(fem_300, 8, seed=0)
    system = build_block_system(fem_300, part)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    return system, x0, b


def run_async(system, x0, b, max_turns, speed_factors=None):
    """Async DS for a fixed turn budget; returns (executor, history)."""
    ex = AsyncExecutor(DistributedSouthwell(system),
                       speed_factors=speed_factors)
    return ex, ex.run(x0, b, max_turns=max_turns)


def test_async_ds_converges(async_setup):
    system, x0, b = async_setup
    _, hist = run_async(system, x0, b, max_turns=10_000)
    assert hist.final_norm <= 0.02


def test_async_ds_residual_exact_after_drain(async_setup, fem_300):
    system, x0, b = async_setup
    ex, _ = run_async(system, x0, b, max_turns=3_000)
    assert ex.aplane.in_flight == 0
    r_true = b - fem_300.matvec(ex.runner.solution())
    assert np.allclose(ex.runner.residual_vector(), r_true, atol=1e-11)


def test_async_ds_time_comparable_to_lockstep(async_setup):
    """Same algorithm, two execution models: time-to-target should land
    in the same ballpark (within 3x either way)."""
    system, x0, b = async_setup
    _, ha = run_async(system, x0, b, max_turns=5_000)
    t_async = ha.cost_to_reach(0.05, axis="times")
    ds = DistributedSouthwell(system)
    ds.run(x0, b, max_steps=200, target_norm=0.05, stop_at_target=True)
    t_sync = ds.engine.stats.elapsed_time()
    assert ha.final_norm <= 0.05 and ds.global_norm() <= 0.05
    assert t_async < 3.0 * t_sync
    assert t_sync < 3.0 * t_async


def test_async_absorbs_straggler(async_setup):
    """A 4x-slower process barely affects async time-to-target."""
    system, x0, b = async_setup
    slow = np.ones(system.n_parts)
    slow[2] = 0.25
    _, uniform = run_async(system, x0, b, max_turns=5_000)
    _, straggled = run_async(system, x0, b, max_turns=5_000,
                             speed_factors=slow)
    assert straggled.final_norm <= 0.05
    assert (straggled.cost_to_reach(0.05, axis="times")
            < 2.0 * uniform.cost_to_reach(0.05, axis="times"))


def test_async_ds_validation(async_setup):
    system, x0, b = async_setup
    with pytest.raises(ValueError):
        AsyncExecutor(DistributedSouthwell(system), poll_interval=0.0)
    with pytest.raises(ValueError):
        AsyncExecutor(DistributedSouthwell(system), poll_interval=-1e-6)
    with pytest.raises(ValueError):
        AsyncExecutor(DistributedSouthwell(system)).run()
    for bad in (2.5, -1, True, "0"):
        with pytest.raises(ValueError, match="^seed must be"):
            DistributedSouthwell(system, seed=bad)


def test_lockstep_straggler_support(async_setup):
    """The lockstep engine's speed_factors stretch priced steps."""
    system, x0, b = async_setup
    P = system.n_parts
    slow = np.ones(P)
    slow[0] = 0.1
    fast = DistributedSouthwell(system)
    fast.run(x0, b, max_steps=10)
    slowed = DistributedSouthwell(system, speed_factors=slow)
    slowed.run(x0, b, max_steps=10)
    # identical mathematics, strictly more simulated time
    assert (slowed.history.residual_norms == fast.history.residual_norms)
    assert (slowed.engine.stats.elapsed_time()
            > fast.engine.stats.elapsed_time())
