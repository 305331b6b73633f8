"""Tests for the simulated RMA runtime (mailboxes, stats, cost)."""

import numpy as np
import pytest

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.runtime import (
    CATEGORY_RESIDUAL,
    CATEGORY_SOLVE,
    CORI_LIKE,
    SLOT_RESIDUAL,
    SLOT_SOLVE,
    CostModel,
    MessageStats,
    ParallelEngine,
    ZERO_COST,
)
from repro.solvers.block_jacobi import BlockJacobi

from tests.oracles import edge_id, payload_nbytes, put_one
from tests.test_async import make_plane, sid


# -------------------------------------------------------------- messages
def test_payload_nbytes_counts_arrays_and_scalars():
    size = payload_nbytes({"vals": np.zeros(10), "norm": 1.0, "none": None})
    assert size == 16 + 80 + 8
    # every method's per-edge byte table is that size of its messages
    n_vals, n_z = np.array([3, 7]), np.array([5, 2])
    vals = [np.zeros(k) for k in n_vals]
    z = [np.zeros(k) for k in n_z]
    wire = {
        BlockJacobi: ([{"vals": v} for v in vals], None),
        ParallelSouthwell: ([{"vals": v, "own_norm_sq": 1.0} for v in vals],
                            [{"own_norm_sq": 1.0}] * 2),
        DistributedSouthwell: (
            [{"vals": v, "z": w, "own_norm_sq": 1.0, "your_est_sq": 2.0}
             for v, w in zip(vals, z)],
            [{"z": w, "own_norm_sq": 1.0, "your_est_sq": 2.0} for w in z]),
    }
    for cls, (solve, residual) in wire.items():
        got_s, got_r = cls._flat_message_nbytes(None, n_vals, n_z)
        assert list(got_s) == [payload_nbytes(m) for m in solve], cls
        if residual is not None:
            assert list(np.broadcast_to(got_r, 2)) == [
                payload_nbytes(m) for m in residual], cls


def test_payload_nbytes_rejects_unknown():
    with pytest.raises(TypeError):
        payload_nbytes({"bad": [1, 2, 3]})


# ------------------------------------------------------------- mailboxes
def _engine(n_procs=3, edges=((0, 1, 2, 0), (1, 0, 2, 0), (2, 1, 2, 0))):
    eng = ParallelEngine(n_procs)
    plane = eng.configure_flat(list(edges))
    return eng, plane


def test_put_not_visible_until_epoch_close():
    eng, plane = _engine()
    eid = edge_id(plane, 0, 1)
    put_one(plane, 2 * eid + SLOT_SOLVE, 32, CATEGORY_SOLVE, 1.0)
    assert plane.mail_ranks.size == 0
    assert eng.in_flight == 1
    assert plane.deliver_pending() == 1
    assert plane.mail_ranks.tolist() == [1]
    assert plane.edge_src[plane.last_delivered[0] >> 1] == 0
    plane.drain_all()
    plane.drain_all()               # drained exactly once
    assert eng.stats.total_receives == 1 and eng.in_flight == 0


def test_put_validates_ranks():
    with pytest.raises(IndexError):
        ParallelEngine(2).configure_flat([(0, 5, 1, 0)])
    with pytest.raises(ValueError):
        ParallelEngine(2).configure_flat([(1, 1, 1, 0)])


def test_fifo_order_per_sender():
    """A rank's mail of one epoch arrives in put order, whatever the
    senders and slots."""
    eng, plane = _engine()
    e01, e21 = edge_id(plane, 0, 1), edge_id(plane, 2, 1)
    order = [2 * e01 + SLOT_RESIDUAL, 2 * e21 + SLOT_SOLVE,
             2 * e01 + SLOT_SOLVE]
    for s in order:
        put_one(plane, s, 24, CATEGORY_SOLVE, 1.0)
    plane.deliver_pending()
    assert plane.last_delivered.tolist() == order


def test_delay_injection_eventually_delivers():
    """Late delivery is the async plane's latency: a message is not
    readable before its stamp and is delivered once the receiver's clock
    passes it."""
    cm = CostModel(alpha=1.0, alpha_recv=0.0, beta=0.0, gamma=0.0)
    ap = make_plane(2, cm, latency=50.0)
    ap.send(0, sid(ap, 0, 1), 1.0, 0.0, 24, CATEGORY_SOLVE)
    assert list(ap.deliver(1)) == [] and ap.in_flight == 1
    ap.advance_idle(1, 100.0)
    assert list(ap.deliver(1)) == sid(ap, 0, 1).tolist()
    assert ap.in_flight == 0


def test_window_system_validates_args():
    with pytest.raises(ValueError):
        ParallelEngine(0)
    with pytest.raises(ValueError, match="duplicate edge"):
        ParallelEngine(2).configure_flat([(0, 1, 1, 0), (0, 1, 2, 0)])


# ------------------------------------------------------------------ stats
def test_stats_counts_by_category():
    st = MessageStats(4)
    st.record_message_groups(np.array([0, 1]), np.array([1, 1]),
                             np.array([100, 50]), CATEGORY_SOLVE)
    st.record_messages(2, CATEGORY_RESIDUAL, 1, 24)
    assert st.total_messages == 3
    assert st.total_bytes == 174
    assert st.communication_cost() == 3 / 4
    assert st.category_cost(CATEGORY_SOLVE) == 2 / 4
    assert st.category_cost(CATEGORY_RESIDUAL) == 1 / 4
    assert st.category_cost("nothing") == 0.0


def test_stats_step_snapshots():
    st = MessageStats(2)
    st.record_messages(0, CATEGORY_SOLVE, 1, 10)
    flops = st.current_step_arrays()[0]
    flops[1] += 500.0           # the block methods charge flops in place
    snap = st.close_step(time=0.25)
    assert snap.msgs[0] == 1 and snap.msgs[1] == 0
    assert snap.flops[1] == 500.0
    assert st.elapsed_time() == 0.25
    # counters reset
    snap2 = st.close_step(time=0.5)
    assert snap2.total_messages == 0 and snap2.flops[1] == 0.0
    assert [s.time for s in st.steps] == [0.25, 0.5]
    assert st.elapsed_time() == 0.75
    assert st.communication_cost() == 0.5


# ------------------------------------------------------------- cost model
def test_cost_model_pricing():
    cm = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-10)
    assert np.isclose(cm.process_time(1e6, 10, 1000),
                      1e6 * 1e-10 + 10 * 1e-6 + 1000 * 1e-9)


def test_cost_model_step_is_max_over_processes():
    cm = CostModel(alpha=1.0, beta=0.0, gamma=0.0)
    t = cm.step_time(np.zeros(3), np.array([1, 5, 2]), np.zeros(3))
    assert t == 5.0
    assert cm.step_time(np.zeros(0), np.zeros(0), np.zeros(0)) == 0.0


def test_cost_model_rejects_negative():
    with pytest.raises(ValueError):
        CostModel(alpha=-1.0)


def test_zero_cost_model():
    assert ZERO_COST.process_time(1e9, 1e3, 1e6) == 0.0


# ----------------------------------------------------------------- engine
def test_engine_step_pricing_and_counters():
    eng = ParallelEngine(2, cost_model=CostModel(alpha=1.0, beta=0.0,
                                                 gamma=1.0))
    plane = eng.configure_flat([(0, 1, 4, 0), (1, 0, 4, 0)])
    put_one(plane, 2 * edge_id(plane, 0, 1) + SLOT_SOLVE, 48, CATEGORY_SOLVE)
    eng.stats.current_step_arrays()[0][0] += 7.0
    plane.deliver_pending()
    plane.drain_all()
    assert eng.stats.total_receives == 1
    snap = eng.close_step()
    # process 0 did 7 flops and 1 message -> 8.0; process 1 idle
    assert snap.time == 8.0
    assert eng.stats.communication_cost() == 0.5


def test_engine_default_model_is_cori_like():
    eng = ParallelEngine(1)
    assert eng.cost_model is CORI_LIKE
