"""Tests for the event-driven async plane and async DS on the executor."""

import numpy as np
import pytest

from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.faults import FaultPlan, SlowdownWindow, StallWindow
from repro.partition import partition
from repro.runtime import (
    CATEGORY_SOLVE,
    AsyncFlatPlane,
    CostModel,
    FlatEdgePlane,
    MessageStats,
)

from tests.oracles import edge_id


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
    return np.array([2 * edge_id(aplane.plane, src, dst) + kind])


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


def scheduler_turns(system, speed_factors, turns):
    """The executor's turn order on ``system``: ``(rank, clocks)`` at
    every turn's start, every clock a copy.

    Free receives (``alpha_recv=0``) keep the delivery from moving the
    rank's clock before the observation point, and a slowdown window
    that never opens makes the executor consult the fault runtime at
    every turn (and never park a rank), which is where it is watched."""
    plan = FaultPlan(seed=1, slowdowns=(SlowdownWindow(0, 10**9,
                                                       10**9 + 1, 0.5),))
    ds = DistributedSouthwell(system, faults=plan,
                              cost_model=CostModel(alpha_recv=0.0))
    ex = AsyncExecutor(ds, speed_factors=speed_factors)
    ex.prepare(*_start(system.n))
    fr, clocks = ds._faults, ex.aplane.clocks
    seen = []
    real_slowdown = fr.rank_slowdown

    def rank_slowdown(p, t):        # the first hook of every turn
        seen.append((p, list(clocks)))
        return real_slowdown(p, t)

    fr.rank_slowdown = rank_slowdown
    ex.run(max_turns=turns)
    assert len(seen) == ex.turns == turns
    return seen


def assert_smallest_clock_first(seen):
    """Every turn runs the rank with the smallest clock, ties to the
    lower rank; the turn clocks never go back."""
    for p, clocks in seen:
        assert min(zip(clocks, range(len(clocks)))) == (clocks[p], p)
    starts = [clocks[p] for p, clocks in seen]
    assert starts == sorted(starts)


def _start(n):
    rng = np.random.default_rng(3)
    return rng.uniform(-1.0, 1.0, n), np.zeros(n)


def test_scheduler_picks_smallest_clock(fem_300):
    system = build_block_system(fem_300, partition(fem_300, 6, seed=0))
    seen = scheduler_turns(system, ((1, 0.5), (4, 0.25)), 400)
    assert_smallest_clock_first(seen)
    # the opening round: every clock is 0, so ranks go in rank order
    assert [p for p, _ in seen[:6]] == list(range(6))


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


@pytest.mark.parametrize("straggler", [None, 2])
def test_async_ds_tilde_mirror_exact_after_drain(async_setup, straggler):
    """Once nothing is in flight, what p thinks q believes about p (Γ̃)
    is bit for bit what q believes (Γ): a message q composed before p's
    latest one reached it carries a stale belief, and p must not take
    it into Γ̃ (the crossing the lockstep phase 3 settles)."""
    system, x0, b = async_setup
    slow = None
    if straggler is not None:
        slow = np.ones(system.n_parts)
        slow[straggler] = 0.5
    for turns in (200, 1_000, 3_000):
        ex, _ = run_async(system, x0, b, max_turns=turns,
                          speed_factors=slow)
        ds = ex.runner
        assert ex.aplane.in_flight == 0
        mirrored = ds._gamma_flat[ds._sid_slabpos[0::2]]
        assert np.array_equal(ds._tilde_flat, mirrored)


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


@pytest.mark.parametrize("field, bad", [
    ("max_turns", 2.5), ("max_turns", -3), ("max_turns", 0),
    ("max_turns", True), ("max_turns", "7"),
    ("max_steps", 0.5), ("max_steps", -1), ("max_steps", True),
])
def test_async_run_rejects_bad_budgets(async_setup, field, bad):
    """A turn budget is an integer >= 1 and a step budget an integer
    >= 0, as at the front door: anything else raises a ValueError naming
    the field before a single turn runs."""
    system, x0, b = async_setup
    ds = DistributedSouthwell(system)
    ex = AsyncExecutor(ds)
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ex.run(x0, b, **{field: bad})
    assert ex.turns == 0 and ds.total_relaxations == 0
    assert ex.run(x0, b, max_turns=5) is ds.history and ex.turns == 5


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


def test_async_quiescence_above_target_degrades(async_setup):
    """Every rank parked with nothing in flight and ‖r‖ above target is
    a stall, reported like a patience-exhausted one.  Forged mirrors —
    every Γ above its owner's norm, every Γ̃ at 0 — leave no rank a
    decide or a repair to fire, so the run quiesces on its first turns."""
    system, x0, b = async_setup
    ds = DistributedSouthwell(system)
    ex = AsyncExecutor(ds)
    ex.prepare(x0, b)
    ds._gamma_flat[:] = 2.0 * float(np.max(ds.norms)) ** 2 + 1.0
    ds._tilde_flat[:] = 0.0
    hist = ex.run(max_turns=10_000)
    assert ex.turns == system.n_parts           # one no-op turn each
    assert ds.total_relaxations == 0 and ex.aplane.in_flight == 0
    assert hist.final_norm > 0.0
    assert ds.degraded
    assert "quiesced" in ds.degraded_reason
    assert (f"{ds._slab_owner.size} neighbor records hold a Γ estimate"
            in ds.degraded_reason)


def test_async_stall_and_slowdown_windows(async_setup):
    """A StallWindow silences one rank's relaxations for exactly its own
    turns ``start <= turn < stop``; a SlowdownWindow makes another
    rank's clock advance by ``1/factor`` as much for the same flops."""
    system, x0, b = async_setup
    stalled_rank, slow_rank, factor = 2, 5, 0.25
    plan = FaultPlan(seed=1, stalls=(StallWindow(stalled_rank, 3, 40),),
                     slowdowns=(SlowdownWindow(slow_rank, 3, 40, factor),))
    ds = DistributedSouthwell(system, faults=plan)
    ex = AsyncExecutor(ds)
    ex.prepare(x0, b)
    fr, aplane = ds._faults, ex.aplane
    turn = {}                   # rank -> its current 1-based turn
    relaxed = []                # (rank, turn) of every relaxation
    charges = []                # (rank, turn, flops, clock advance)
    real_slowdown = fr.rank_slowdown
    real_relax = ds._relax_one_flat
    real_advance = aplane.advance_compute

    def rank_slowdown(p, t):    # consulted first in every rank turn
        turn[p] = t
        return real_slowdown(p, t)

    def relax(p):
        relaxed.append((p, turn[p]))
        real_relax(p)

    def advance_compute(p, flops, slowdown=1.0):
        before = aplane.clocks[p]
        real_advance(p, flops, slowdown)
        charges.append((p, turn[p], flops, aplane.clocks[p] - before))

    fr.rank_slowdown = rank_slowdown
    ds._relax_one_flat = relax
    aplane.advance_compute = advance_compute
    ex.run(max_turns=3_000)

    mine = [t for p, t in relaxed if p == stalled_rank]
    assert not [t for t in mine if 3 <= t < 40]
    assert any(t >= 40 for t in mine)           # it resumes afterwards
    assert fr.summary()["stall"] == 40 - 3      # each stalled turn once
    base = aplane._gamma / aplane.speed[slow_rank]
    inside = [adv / f for p, t, f, adv in charges
              if p == slow_rank and f > 0 and 3 <= t < 40]
    outside = [adv / f for p, t, f, adv in charges
               if p == slow_rank and f > 0 and not 3 <= t < 40]
    assert inside and outside
    np.testing.assert_allclose(inside, base / factor, rtol=1e-12)
    np.testing.assert_allclose(outside, base, rtol=1e-12)
