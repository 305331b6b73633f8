"""Property-based tests for lockstep and async mailbox delivery.

Delivery guarantees the solvers rely on, checked over random traffic:

- lockstep: every put is delivered exactly once, after exactly one epoch
  close, each rank's mail in put order (per-sender FIFO);
- with latency: still exactly once, eventually;
- async: never before its stamp, per-sender FIFO, and every message is
  delivered exactly once unless a later put to the same slot superseded
  it while in flight (RMA overwrite).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import CATEGORY_SOLVE, CostModel, ParallelEngine
from tests.oracles import edge_id, put_one
from tests.test_async import make_plane


def traffic(n_procs=4, max_msgs=24):
    """Strategy: distinct (src, dst, slot kind) puts with src != dst, in
    random order — at most one message per mailbox slot per epoch."""
    put = st.tuples(st.integers(0, n_procs - 1),
                    st.integers(0, n_procs - 1),
                    st.integers(0, 1)).filter(lambda t: t[0] != t[1])
    return st.lists(put, min_size=0, max_size=max_msgs, unique=True)


def _complete_engine(n_procs=4):
    eng = ParallelEngine(n_procs)
    plane = eng.configure_flat([(s, d, 1, 0) for s in range(n_procs)
                                for d in range(n_procs) if s != d])
    return eng, plane


@given(traffic())
@settings(max_examples=50, deadline=None)
def test_lockstep_exactly_once_and_fifo(puts):
    eng, plane = _complete_engine()
    sids = [2 * edge_id(plane, s, d) + k for s, d, k in puts]
    for s in sids:
        put_one(plane, s, 24, CATEGORY_SOLVE)
    assert eng.close_epoch() == len(puts)
    got = plane.last_delivered.tolist()
    assert got == sids                   # put order, each exactly once
    per_rank = np.bincount([d for _, d, _ in puts], minlength=4)
    assert plane.mail_ranks.tolist() == np.flatnonzero(per_rank).tolist()
    recvs = eng.stats.current_step_arrays()[3]
    plane.drain_all()
    assert recvs.tolist() == per_rank.tolist()
    # nothing left anywhere
    plane.drain_all()
    eng.close_epoch()
    assert eng.in_flight == 0 and plane.last_delivered.size == 0
    assert recvs.tolist() == per_rank.tolist()


@given(traffic(), st.floats(0.1, 8.0), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_delayed_delivery_exactly_once(puts, latency, seed):
    """Late delivery on the async plane: with any latency and any
    sender clocks, every message is read exactly once, eventually."""
    ap = async_plane(4, latency)
    rng = np.random.default_rng(seed)
    sids = [2 * edge_id(ap.plane, s, d) + k for s, d, k in puts]
    for (src, _, _), s in zip(puts, sids):
        ap.advance_idle(src, float(rng.uniform(0.0, 3.0)))
        ap.send(src, np.array([s]), 0.0, 0.0, 8, CATEGORY_SOLVE)
    seen = []
    for p in range(4):
        seen.extend(ap.deliver(p))
    for p in range(4):
        ap.advance_idle(p, 1e6)
        seen.extend(ap.deliver(p))
    assert sorted(seen) == sorted(sids) and ap.in_flight == 0


def async_plane(n_procs, latency):
    """Async plane over the complete digraph; every send costs one clock
    unit, so one sender's stamps strictly increase in send order."""
    return make_plane(n_procs, CostModel(alpha=1.0, alpha_recv=0.0,
                                         beta=0.0, gamma=0.0), latency)


def async_ops(n_procs=3, max_ops=60):
    """Strategy: interleaved sends (src, dst, slot kind), receiver waits
    and mailbox reads."""
    rank = st.integers(0, n_procs - 1)
    sends = st.tuples(st.just("send"), rank, rank,
                      st.integers(0, 1)).filter(lambda t: t[1] != t[2])
    waits = st.tuples(st.just("wait"), rank, st.floats(0.0, 4.0))
    reads = st.tuples(st.just("read"), rank)
    return st.lists(st.one_of(sends, waits, reads), max_size=max_ops)


@given(async_ops(), st.floats(0.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_async_delivery_respects_stamps(ops, latency):
    ap = async_plane(3, latency)
    in_slot: dict[int, int] = {}     # slot-id -> message occupying it
    stamp: dict[int, float] = {}
    sender: dict[int, int] = {}
    delivered: list[int] = []
    superseded: list[int] = []
    last_from: dict[tuple[int, int], int] = {}

    def read(p):
        for s in ap.deliver(p):
            k = in_slot.pop(s)
            assert stamp[k] <= ap.clocks[p], "delivered before its stamp"
            src = sender[k]
            if (src, p) in last_from:
                assert k > last_from[(src, p)], "per-sender FIFO violated"
            last_from[(src, p)] = k
            delivered.append(k)

    for k, op in enumerate(ops):
        if op[0] == "send":
            _, src, dst, kind = op
            s = 2 * edge_id(ap.plane, src, dst) + kind
            ap.send(src, np.array([s]), 0.0, 0.0, 8, CATEGORY_SOLVE)
            if s in in_slot:
                superseded.append(in_slot[s])
            in_slot[s] = k
            stamp[k] = float(ap.deliver_at[s])
            sender[k] = src
        elif op[0] == "wait":
            ap.advance_idle(op[1], op[2])
        else:
            read(op[1])
    # advance everyone far enough and read the rest
    for p in range(3):
        ap.advance_idle(p, 1e6)
        read(p)
    assert not in_slot and ap.in_flight == 0
    sent = sorted(stamp)
    assert sorted(delivered + superseded) == sent
    assert not set(delivered) & set(superseded)


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_async_scheduler_is_min_clock(advances):
    n = len(advances)
    ap = async_plane(n, 0.0)
    order = []
    for adv in sorted(advances):
        p = ap.next_process()
        order.append(float(ap.clocks[p]))
        ap.advance_idle(p, adv)
        ap.reschedule(p)
    # the clock values handed out are non-decreasing
    assert order == sorted(order)
