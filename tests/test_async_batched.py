"""Batched event-horizon scheduler ≡ scalar oracle (DESIGN.md §5.15).

The ISSUE-9 tentpole contract: ``AsyncConfig(scheduler="batched")``
must reproduce the scalar heap loop *bit for bit* — solution digests,
``rank_idle`` / ``rank_clocks`` / ``virtual_time``, and every
time-indexed history channel — across straggler mixes, latencies,
seeded fault drops and partition counts.  Hypothesis drives the
configuration space; the explicit tests pin the corner the property
search cannot name (horizon ties, the env knob, the PR-8 pinned
digest).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AsyncConfig, RunConfig, solve
from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.faults import FaultPlan
from repro.matrices.fem import fem_poisson_2d
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.sparsela import symmetric_unit_diagonal_scale
from repro.trace import NULL_TRACER
from tests.test_async_plane import PINNED_DS_DIGEST

_A = poisson_2d(20)


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _solve_pair(method="distributed-southwell", n_parts=8, max_steps=25,
                seed=0, *, latency=None, poll_interval=2.0e-6,
                speed_factors=None, record_every=8, drop=0.0,
                fault_seed=11, matrix=None, target_norm=None):
    """Run the same scenario under both schedulers, return both results."""
    plan = FaultPlan.uniform(drop=drop, seed=fault_seed) if drop else None
    out = []
    for sched in ("scalar", "batched"):
        acfg = AsyncConfig(latency=latency, poll_interval=poll_interval,
                           speed_factors=speed_factors,
                           record_every=record_every, scheduler=sched)
        out.append(solve(_A if matrix is None else matrix, method=method,
                         config=RunConfig(n_parts=n_parts,
                                          max_steps=max_steps, seed=seed,
                                          faults=plan, runtime="async",
                                          async_config=acfg,
                                          target_norm=target_norm,
                                          stop_at_target=target_norm
                                          is not None)))
    return out


def _assert_bit_identical(rs, rb):
    assert _digest(rs.x) == _digest(rb.x)
    assert rs.parallel_steps == rb.parallel_steps
    assert rs.virtual_time == rb.virtual_time
    np.testing.assert_array_equal(rs.rank_clocks, rb.rank_clocks)
    np.testing.assert_array_equal(rs.rank_idle, rb.rank_idle)
    hs, hb = rs.history, rb.history
    assert hs.residual_norms == hb.residual_norms
    assert hs.times == hb.times
    assert hs.relaxations == hb.relaxations
    assert hs.parallel_steps == hb.parallel_steps
    assert hs.comm_costs == hb.comm_costs
    assert hs.active_fractions == hb.active_fractions


# ------------------------------------------------------------ property
@settings(max_examples=20, deadline=None)
@given(
    n_parts=st.sampled_from([2, 4, 8, 12, 16]),
    latency=st.sampled_from([1e-6, 5e-6, 5e-5, 4e-4]),
    poll=st.sampled_from([5e-7, 2e-6, 1e-5]),
    drop=st.sampled_from([0.0, 0.1, 0.3]),
    slow=st.lists(st.tuples(st.integers(0, 15),
                            st.sampled_from([0.25, 0.5, 0.8])),
                  max_size=3),
    seed=st.integers(0, 3),
)
def test_batched_matches_scalar_property(n_parts, latency, poll, drop,
                                         slow, seed):
    """Random straggler/latency/drop/P draws: digests, idle vectors and
    every history channel identical between the two schedulers."""
    speed = tuple((r % n_parts, f) for r, f in slow) or None
    rs, rb = _solve_pair(n_parts=n_parts, latency=latency,
                         poll_interval=poll, speed_factors=speed,
                         drop=drop, seed=seed, fault_seed=seed + 11)
    _assert_bit_identical(rs, rb)


@pytest.mark.parametrize("method", ("parallel-southwell", "block-jacobi"))
def test_batched_matches_scalar_other_methods(method):
    """The horizon analysis threads through all three block methods'
    async hooks, not just DS."""
    rs, rb = _solve_pair(method=method, n_parts=12, max_steps=40,
                         latency=5e-5, drop=0.2,
                         speed_factors=((1, 0.5), (7, 0.25)))
    _assert_bit_identical(rs, rb)


def test_batched_matches_scalar_latency_dominated():
    """The bench headline regime (long links, dense polls): ladder
    commits dominate the turn count and must stay exact."""
    rs, rb = _solve_pair(n_parts=16, max_steps=120, latency=4e-4,
                         poll_interval=2.5e-7, record_every=64)
    _assert_bit_identical(rs, rb)


# --------------------------------------------------------- horizon tie
def test_horizon_tie_two_ranks_same_stamp():
    """Two ranks engineered onto identical clocks (equal speed factors,
    symmetric roles) wake at the same stamp over and over; the scalar
    rule is lower-rank-first and the batched scheduler must reproduce
    it.  All ranks also start the run at clock 0 — a P-way tie on the
    very first horizon — so the tie path is exercised from turn one."""
    rs, rb = _solve_pair(n_parts=8, max_steps=60, latency=1e-5,
                         speed_factors=((2, 0.5), (5, 0.5)))
    _assert_bit_identical(rs, rb)
    # ties actually happened: some distinct ranks share final clocks
    clocks = np.asarray(rs.rank_clocks)
    assert clocks.size == 8


def test_batched_engine_actually_engages():
    """Guard against the gate silently falling back to scalar: the
    macro-turn counters must show the batched loop ran."""
    A = symmetric_unit_diagonal_scale(poisson_2d(24)).matrix
    part = partition(A, 8, seed=0)
    system = build_block_system(A, part)
    rng = np.random.default_rng(0)
    # an active tracer is a documented fallback-to-scalar condition, so
    # the guard must not inherit one from REPRO_TRACE
    runner = DistributedSouthwell(system, seed=0, tracer=NULL_TRACER)
    ex = AsyncExecutor(runner, scheduler="batched", record_every=16)
    ex.prepare(rng.uniform(-1, 1, A.n_rows), np.zeros(A.n_rows))
    ex.run(max_steps=20)
    stats = ex.sched_stats
    assert stats["turns"] > 0
    assert stats["macro_turns"] + stats["ladder_turns"] > 0
    assert stats["turns"] >= stats["ladder_committed"] >= 0


# ------------------------------------------------------------ env knob
def test_env_knob_selects_batched(monkeypatch):
    """``REPRO_ASYNC_SCHEDULER=batched`` is what the CI tier-1 leg
    exports; it must reach the executor when ``AsyncConfig.scheduler``
    is left as None, and junk values must degrade to the oracle."""
    from repro import config as _config

    monkeypatch.setenv("REPRO_ASYNC_SCHEDULER", "batched")
    assert _config.async_scheduler() == "batched"
    monkeypatch.setenv("REPRO_ASYNC_SCHEDULER", "warp-drive")
    assert _config.async_scheduler() == "scalar"
    monkeypatch.delenv("REPRO_ASYNC_SCHEDULER")
    assert _config.async_scheduler() == "scalar"
    with pytest.raises(ValueError):
        _config.async_scheduler("warp-drive")
    with pytest.raises(ValueError):
        AsyncConfig(scheduler="warp-drive")


def test_env_knob_batched_result_identical(monkeypatch):
    rs, _ = _solve_pair(n_parts=6, max_steps=20)
    monkeypatch.setenv("REPRO_ASYNC_SCHEDULER", "batched")
    acfg = AsyncConfig(record_every=8)
    renv = solve(_A, method="distributed-southwell",
                 config=RunConfig(n_parts=6, max_steps=20, seed=0,
                                  runtime="async", async_config=acfg))
    _assert_bit_identical(rs, renv)


# -------------------------------------------------------- pinned digest
def test_pinned_digest_reproduced_by_batched_scheduler():
    """The PR-8 pinned straggler+drop DS digest, now under the batched
    scheduler: any horizon-analysis change that reorders one event
    shows up here first."""
    A = fem_poisson_2d(target_rows=900, seed=0).matrix
    plan = FaultPlan.uniform(drop=0.2, seed=7)
    acfg = AsyncConfig(speed_factors=((0, 0.5), (3, 0.5)),
                       scheduler="batched")
    res = solve(A, method="distributed-southwell",
                config=RunConfig(n_parts=16, max_steps=60, seed=0,
                                 faults=plan, runtime="async",
                                 async_config=acfg))
    assert _digest(res.x) == PINNED_DS_DIGEST
