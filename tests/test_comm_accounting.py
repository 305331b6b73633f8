"""Tests for the communication accounting added for Tables 3/4:
receive-side costs and per-category cumulative curves."""

import numpy as np
import pytest

from repro.api import solve
from repro.runtime import (
    CATEGORY_RESIDUAL,
    CATEGORY_SOLVE,
    SLOT_SOLVE,
    CostModel,
    MessageStats,
    ParallelEngine,
)

from tests.oracles import edge_id, put_one


def _put(eng, src, dst):
    """One solve message ``src -> dst`` on the engine's plane."""
    plane = eng.flat
    put_one(plane, 2 * edge_id(plane, src, dst) + SLOT_SOLVE, 24,
            CATEGORY_SOLVE)


def test_receives_counted_on_drain():
    eng = ParallelEngine(3)
    eng.configure_flat([(0, 2, 1, 0), (1, 2, 1, 0)])
    _put(eng, 0, 2)
    _put(eng, 1, 2)
    eng.close_epoch()
    eng.flat.drain_all()
    _, _, _, recvs = eng.stats.current_step_arrays()
    assert recvs[2] == 2
    assert recvs[0] == recvs[1] == 0


def test_receive_cost_prices_step():
    cm = CostModel(alpha=1.0, alpha_recv=10.0, beta=0.0, gamma=0.0)
    eng = ParallelEngine(2, cost_model=cm)
    eng.configure_flat([(0, 1, 1, 0)])
    _put(eng, 0, 1)
    eng.close_epoch()
    eng.flat.drain_all()
    snap = eng.close_step()
    # sender pays 1, receiver pays 10 -> step = max = 10
    assert snap.time == 10.0


def test_cost_model_recv_validation():
    with pytest.raises(ValueError):
        CostModel(alpha_recv=-1.0)
    cm = CostModel(alpha=0.0, alpha_recv=2.0, beta=0.0, gamma=0.0)
    assert cm.process_time(0, 0, 0, recvs=3) == 6.0


def test_per_step_category_counts():
    st = MessageStats(2)
    st.record_messages(0, CATEGORY_SOLVE, 1, 8)
    st.record_messages(0, CATEGORY_RESIDUAL, 1, 8)
    st.close_step()
    st.record_messages(1, CATEGORY_RESIDUAL, 1, 8)
    st.close_step()
    solve = st.cumulative_category_costs(CATEGORY_SOLVE)
    res = st.cumulative_category_costs(CATEGORY_RESIDUAL)
    assert np.allclose(solve, [0.5, 0.5])
    assert np.allclose(res, [0.5, 1.0])
    assert st.steps[0].category_msgs == {CATEGORY_SOLVE: 1,
                                         CATEGORY_RESIDUAL: 1}


def test_comm_breakdown_at_target(fem_300):
    res = solve(fem_300, method="parallel-southwell", n_parts=8,
                max_steps=40, seed=0)
    target = 0.2
    split = res.comm_breakdown_at(target)
    assert split is not None
    solve_part, residual_part = split
    # the split sums to the total comm cost at the same crossing
    total = res.history.cost_to_reach(target, axis="comm_costs")
    assert np.isclose(solve_part + residual_part, total, rtol=1e-9)
    # unreachable target -> None
    assert res.comm_breakdown_at(1e-30) is None


def test_breakdown_curves_monotone(fem_300):
    res = solve(fem_300, method="distributed-southwell", n_parts=8,
                max_steps=20, seed=0)
    assert np.all(np.diff(res.solve_comm_curve) >= 0)
    assert np.all(np.diff(res.residual_comm_curve) >= 0)
    assert len(res.solve_comm_curve) == len(res.history.parallel_steps)
    # final curve values equal the run totals
    assert np.isclose(res.solve_comm_curve[-1], res.solve_comm)
    assert np.isclose(res.residual_comm_curve[-1], res.residual_comm)
