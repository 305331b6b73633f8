"""Property-based tests for the window system and async plane delivery.

Delivery guarantees the solvers rely on, checked over random traffic:

- lockstep: every put is delivered exactly once, after exactly one epoch
  close (no delays), in per-sender FIFO order;
- with delays: still exactly once, still per-sender FIFO, eventually;
- async: never before its stamp, per-sender FIFO, and every message is
  delivered exactly once unless a later put to the same slot superseded
  it while in flight (RMA overwrite).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import CATEGORY_SOLVE, CostModel, WindowSystem
from tests.test_async import make_plane


def traffic(n_procs=4, max_msgs=40):
    """Strategy: a list of (src, dst) pairs with src != dst."""
    pair = st.tuples(st.integers(0, n_procs - 1),
                     st.integers(0, n_procs - 1)).filter(
        lambda t: t[0] != t[1])
    return st.lists(pair, min_size=0, max_size=max_msgs)


@given(traffic())
@settings(max_examples=50, deadline=None)
def test_lockstep_exactly_once_and_fifo(pairs):
    ws = WindowSystem(4)
    for k, (src, dst) in enumerate(pairs):
        ws.put(src, dst, CATEGORY_SOLVE, {"k": float(k)})
    ws.close_epoch()
    seen = []
    for p in range(4):
        last_per_sender: dict[int, float] = {}
        for msg in ws.drain(p):
            assert msg.dst == p
            k = msg.payload["k"]
            seen.append(k)
            if msg.src in last_per_sender:
                assert k > last_per_sender[msg.src], "FIFO violated"
            last_per_sender[msg.src] = k
    assert sorted(seen) == [float(k) for k in range(len(pairs))]
    # nothing left anywhere
    assert ws.in_flight == 0
    assert all(not ws.drain(p) for p in range(4))


@given(traffic(), st.floats(0.1, 0.8), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_delayed_delivery_exactly_once(pairs, prob, seed):
    ws = WindowSystem(4, delay_probability=prob, seed=seed)
    for k, (src, dst) in enumerate(pairs):
        ws.put(src, dst, CATEGORY_SOLVE, {"k": float(k)})
    seen = []
    for _ in range(200):
        ws.close_epoch()
        for p in range(4):
            seen.extend(m.payload["k"] for m in ws.drain(p))
        if len(seen) == len(pairs):
            break
    else:
        ws.flush_all()
        for p in range(4):
            seen.extend(m.payload["k"] for m in ws.drain(p))
    assert sorted(seen) == [float(k) for k in range(len(pairs))]


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
            s = 2 * ap.plane.edge_index[(src, dst)] + kind
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
