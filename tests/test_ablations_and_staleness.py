"""Tests for the ablation knobs and robustness to message latency.

Staleness is the async plane's: every message arrives one network
latency after it was sent, while the receiver keeps relaxing on what it
has.  The runs below raise ``AsyncConfig.latency``'s default 10x and 50x;
an idle rank re-checks its mailbox at the same fraction of the latency
as by default, so the turn budget is not spent on polling alone.
"""

import numpy as np
import pytest

from repro.config import DEFAULT_ASYNC_LATENCY
from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.partition import partition
from repro.runtime import CATEGORY_RESIDUAL, CATEGORY_SOLVE

from tests.plane_pins import PINS, _h

#: the latency multiples the staleness runs use: the default, 10x, 50x
LATENCIES = (1, 10, 50)


def _stale(method, k):
    """An executor at ``k`` times the default latency (and poll)."""
    return AsyncExecutor(method, latency=k * DEFAULT_ASYNC_LATENCY,
                         poll_interval=k * 2.0e-6)


@pytest.fixture(scope="module")
def system(fem_300):
    part = partition(fem_300, 10, seed=1)
    return build_block_system(fem_300, part)


@pytest.fixture(scope="module")
def state(fem_300):
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    return x0 / np.linalg.norm(fem_300.matvec(x0)), b


def test_ds_without_deadlock_avoidance_stalls(system, state):
    """The ICCS'16-style scheme freezes: estimates sit above every actual
    norm and no process relaxes."""
    x0, b = state
    ds = DistributedSouthwell(system, deadlock_avoidance=False)
    ds.setup(x0, b)
    idle = 0
    for _ in range(60):
        if ds.step() == 0:
            idle += 1
            if idle >= 3:
                break
        else:
            idle = 0
    assert idle >= 3, "expected a stall without deadlock avoidance"
    assert ds.engine.stats.category_msgs.get(CATEGORY_RESIDUAL, 0) == 0


def test_ds_without_ghost_estimation_still_converges(system, state):
    x0, b = state
    ds = DistributedSouthwell(system, ghost_estimation=False)
    hist = ds.run(x0, b, max_steps=40)
    assert hist.final_norm < 0.05
    # residual bookkeeping stays exact either way
    assert np.isclose(np.linalg.norm(ds.residual_vector()),
                      ds.global_norm(), atol=1e-12)


def test_ps_piggyback_ablation_same_math_more_messages(system, state):
    """Sending the relaxer's norm apart from its update (no piggy-back)
    changes no arithmetic and costs one message per solve message, so a
    run's own counters price it: ``total + solve`` equals the total of
    the recorded run that did send them (``tests/plane_pins.py``)."""
    x0, b = state
    on = ParallelSouthwell(system)
    hist = on.run(x0, b, max_steps=15)
    stats = on.engine.stats
    pin_on, pin_off = PINS["piggyback:True"], PINS["piggyback:False"]
    assert _h(np.asarray(hist.residual_norms)) == pin_on["history"] \
        == pin_off["history"]
    assert stats.total_messages == pin_on["total"]
    solve = stats.category_msgs[CATEGORY_SOLVE]
    assert stats.total_messages + solve == pin_off["total"]
    assert pin_off["category"] == {
        "solve": solve,
        "residual": stats.category_msgs[CATEGORY_RESIDUAL] + solve}


@pytest.mark.parametrize("cls", [ParallelSouthwell, DistributedSouthwell])
def test_methods_survive_message_delay(cls, system, state):
    """Under message latency (the default, 10x and 50x) both Southwell
    variants keep making progress: no crash, no stall, no degradation,
    convergence within the same turn budget."""
    x0, b = state
    for k in LATENCIES:
        method = cls(system)
        hist = _stale(method, k).run(x0, b, max_steps=80)
        assert not method.degraded, k
        assert hist.final_norm < 0.2, k


def test_delayed_messages_all_eventually_apply(system, state, fem_300):
    """After the event loop drains in-flight traffic, the stored residual
    matches a fresh matvec — no update is ever lost, only late."""
    x0, b = state
    for k in LATENCIES:
        ds = DistributedSouthwell(system)
        _stale(ds, k).run(x0, b, max_steps=20)
        r_true = np.linalg.norm(b - fem_300.matvec(ds.solution()))
        assert np.isclose(ds.global_norm(), r_true, rtol=1e-12,
                          atol=1e-14), k
        np.testing.assert_allclose(ds.residual_vector(),
                                   b - fem_300.matvec(ds.solution()),
                                   atol=1e-12)
