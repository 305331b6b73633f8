"""``setup()`` = keep the structure, reset the state (DESIGN.md §5.8).

A block-method runner builds its flat plane, index plans and kernel
bindings on the first ``setup()`` and only rewrites ``x`` / ``r`` / norms
/ estimates / mail on later ones.  The contract pinned here: a re-run on
one runner is indistinguishable from a fresh runner's run — solution
bytes, history, per-step ``MessageStats``, repair and fault counts — the
one plane is kept across lockstep and event-driven runs, and the kept
structure is rebuilt whenever the lossy-ness of the fault plan it was
built under changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.block_base import BlockMethodBase
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.multigrid import MultigridExecutor, make_smoother
from repro.runtime.flatplane import FlatEdgePlane
from repro.solvers.block_jacobi import BlockJacobi

from tests.test_block_properties import _random_setup

METHOD_CLASSES = [BlockJacobi, ParallelSouthwell, DistributedSouthwell]
LOSSY_PLAN = FaultPlan.uniform(drop=0.1, duplicate=0.05, reorder=0.1,
                               seed=11)


def _second_rhs(system, seed):
    rng = np.random.default_rng(seed + 2)
    return rng.uniform(-1, 1, system.n), rng.uniform(-1, 1, system.n)


def _run_record(runner, x0, b, steps, mode="flat"):
    """One lockstep (or, ``mode="async"``, event-driven) run and
    everything a caller can observe of it.  The engine's stats are
    cumulative across runs on purpose, so the per-step snapshots and
    totals are taken relative to the run's start."""
    stats = runner.engine.stats
    first = len(stats.steps)
    msgs0, bytes0, recvs0 = (stats.total_messages, stats.total_bytes,
                             stats.total_receives)
    if mode == "async":
        hist = AsyncExecutor(runner).run(x0, b, max_steps=steps)
    else:
        hist = runner.run(x0, b, max_steps=steps)
    fr = runner._faults
    return {
        "x": runner.solution().tobytes(),
        "r": runner.residual_vector().tobytes(),
        "norms": hist.residual_norms,
        "relaxations": hist.relaxations,
        "parallel_steps": hist.parallel_steps,
        "active": hist.active_fractions,
        "steps": [(s.msgs.tolist(), s.nbytes.tolist(), s.flops.tolist(),
                   s.recvs.tolist(), s.category_msgs, s.time)
                  for s in stats.steps[first:]],
        "totals": (stats.total_messages - msgs0, stats.total_bytes - bytes0,
                   stats.total_receives - recvs0),
        "repairs": runner.repairs_sent,
        "degraded": (runner.degraded, runner.degraded_reason),
        "faults": dict(fr.injected) if fr is not None else None,
    }


def _even_ranks_only(mask):
    keep = mask.copy()
    keep[1::2] = False
    return keep


# ----------------------------------------------------------------------
# the property: setup, k steps, setup, m steps == fresh setup, m steps
# ----------------------------------------------------------------------
@given(st.integers(20, 60), st.integers(2, 6), st.integers(0, 10_000),
       st.sampled_from(METHOD_CLASSES), st.integers(0, 6),
       st.integers(1, 5), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_resetup_equals_fresh_runner(n, n_parts, seed, cls, k, m, lossy,
                                     filtered):
    _, system, x1, b1 = _random_setup(n, n_parts, seed)
    x2, b2 = _second_rhs(system, seed)
    plan = LOSSY_PLAN if lossy else None
    reused, fresh = cls(system, faults=plan), cls(system, faults=plan)
    if filtered:
        reused._relax_filter = fresh._relax_filter = _even_ranks_only
    reused.run(x1, b1, max_steps=k)
    plane = reused.engine.flat
    again = _run_record(reused, x2, b2, m)
    assert reused.engine.flat is plane       # the warm path was taken
    assert again == _run_record(fresh, x2, b2, m)


# ----------------------------------------------------------------------
# invalidation: one plane for every run mode; the kept structure follows
# the fault plan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", METHOD_CLASSES)
def test_structure_follows_the_message_plane(cls):
    """Lockstep and event-driven runs share the one flat plane: a runner
    keeps it across both, and every run equals a fresh runner's."""
    _, system, x1, b1 = _random_setup(48, 5, 3)
    x2, b2 = _second_rhs(system, 3)
    runner = cls(system)
    planes = []
    for mode, (x0, b) in (("flat", (x1, b1)), ("async", (x2, b2)),
                          ("flat", (x1, b1)), ("flat", (x2, b2))):
        got = _run_record(runner, x0, b, 4, mode)
        planes.append(runner.engine.flat)
        assert got == _run_record(cls(system), x0, b, 4, mode), mode
    assert planes[0] is not None
    assert all(plane is planes[0] for plane in planes)


def test_structure_follows_the_fault_plan():
    """Lossy-ness is part of the key (the cumulative-payload stores are
    structure); a clean plan after a lossy one must not see them."""
    _, system, x1, b1 = _random_setup(48, 5, 5)
    runner = DistributedSouthwell(system, faults=LOSSY_PLAN)
    runner.run(x1, b1, max_steps=3)
    lossy_plane = runner.engine.flat
    runner.fault_plan = None
    got = _run_record(runner, x1, b1, 4)
    assert runner.engine.flat is not lossy_plane
    assert got == _run_record(DistributedSouthwell(system), x1, b1, 4)


# ----------------------------------------------------------------------
# FlatEdgePlane.reset()
# ----------------------------------------------------------------------
def test_plane_reset_forgets_mail_keeps_stats():
    from repro.runtime import CATEGORY_SOLVE
    from repro.runtime.stats import MessageStats

    from tests.oracles import put_one

    stats = MessageStats(3)
    plane = FlatEdgePlane(3, stats, [(0, 1, 2, 0), (1, 0, 2, 0),
                                     (1, 2, 3, 0)])
    put_one(plane, 0, 24, CATEGORY_SOLVE, 1.0, 2.0)
    plane.deliver_pending()
    put_one(plane, 4, 32, CATEGORY_SOLVE, 1.0, 2.0)  # pending, undelivered
    assert plane.mail_ranks.tolist() == [1] and plane.in_flight == 1
    plane.reset()
    assert plane.mail_ranks.tolist() == [] and plane.in_flight == 0
    assert plane.last_delivered.size == 0
    plane.drain_all()                            # nothing left to read
    assert stats.total_receives == 0
    assert stats.total_messages == 2             # charges survive a reset
    put_one(plane, 4, 32, CATEGORY_SOLVE, 1.0, 2.0)  # slot is free again
    assert plane.deliver_pending() == 1 and plane.mail_ranks.tolist() == [2]


# ----------------------------------------------------------------------
# the point of it: one structure build per smoothed level
# ----------------------------------------------------------------------
def test_block_ds_vcycles_build_each_level_once(monkeypatch):
    built = {"configure": 0, "plane": 0}
    configure = BlockMethodBase._configure_flat_plane
    plane_init = FlatEdgePlane.__init__

    def counting_configure(self):
        built["configure"] += 1
        configure(self)

    def counting_init(self, *args, **kwargs):
        built["plane"] += 1
        plane_init(self, *args, **kwargs)

    monkeypatch.setattr(BlockMethodBase, "_configure_flat_plane",
                        counting_configure)
    monkeypatch.setattr(FlatEdgePlane, "__init__", counting_init)
    sm = make_smoother("ds", budget=1.0, n_parts=8, seed=0)
    mg = MultigridExecutor(poisson_2d(31), sm)
    mg.run(np.random.default_rng(0).uniform(-1.0, 1.0, 31 * 31),
           n_cycles=9)
    smoothed = len(mg.levels) - 1
    assert smoothed >= 2 and sum(mg._visits) == 2 * 9 * smoothed
    assert built == {"configure": smoothed, "plane": smoothed}
