"""Tests for the event-driven async runtime behind ``solve()``.

Covers:

1. all three block methods converge under ``runtime="async"``;
2. the plane is bit-deterministic for fixed seeds (pinned digest);
3. it composes with a seeded :class:`FaultPlan` — DS reaches the
   residual target in less *simulated* time than PS under drops plus
   stragglers (the paper's low-communication claim, restated in the
   event model);
4. ``SolveResult`` schema v4 (virtual_time / rank_clocks / rank_idle /
   ``timeline()``) round-trips;
5. ``AsyncConfig`` / ``RunConfig`` validation raises early;
6. a lockstep-only send rule (thresholded DS) raises
   ``AsyncUnsupportedError`` naming the method;
7. the per-rank ``(stamp, slot)`` mailbox heaps read exactly what a full
   scan of ``deliver_at`` reads, and stay bounded although a restamp's
   old entry lingers until the receiver's clock nears its stamp;
8. the front door's plane-independent contract (the Section 4.2 start,
   ``solve(A, b)``, the comm curves and their split, ``reached``, the
   peak RSS) holds on the event plane too.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AsyncConfig, RunConfig, SolveResult, solve
from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor, AsyncUnsupportedError
from repro.core.blockdata import build_block_system
from repro.faults import FaultPlan
from repro.matrices.fem import fem_poisson_2d
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import CATEGORY_SOLVE, CostModel
from repro.sparsela import symmetric_unit_diagonal_scale
from tests.oracles import edge_id
from tests.test_async import make_plane

METHODS = ("distributed-southwell", "parallel-southwell", "block-jacobi")

# sha256 of res.x for the pinned straggler+drop DS scenario below;
# any change to the event order, fault draws, or clock arithmetic
# shows up here first.
PINNED_DS_DIGEST = ("972e63d5386b440230b0fcb4816b155b"
                    "50dfa27b60e7f7d86c3019f010240411")


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _pinned_scenario_result() -> SolveResult:
    A = fem_poisson_2d(target_rows=900, seed=0).matrix
    plan = FaultPlan.uniform(drop=0.2, seed=7)
    acfg = AsyncConfig(speed_factors=((0, 0.5), (3, 0.5)))
    return solve(A, method="distributed-southwell",
                 config=RunConfig(n_parts=16, max_steps=60, seed=0,
                                  faults=plan, runtime="async",
                                  async_config=acfg))


# ----------------------------------------------------------------- 1/2
@pytest.mark.parametrize("method", METHODS)
def test_async_runtime_converges(fem_300, method):
    res = solve(fem_300, method=method, n_parts=6, max_steps=30, seed=0,
                runtime="async")
    assert res.final_norm < 0.2
    # exactness after the end-of-run drain: reported norm == true norm
    r_true = -fem_300.matvec(res.x)
    assert np.isclose(np.linalg.norm(r_true), res.final_norm, atol=1e-12)
    assert res.virtual_time is not None and res.virtual_time > 0.0
    assert res.rank_clocks is not None and len(res.rank_clocks) == 6
    assert res.rank_idle is not None and len(res.rank_idle) == 6
    assert all(i <= c for i, c in zip(res.rank_idle, res.rank_clocks))


def test_async_plane_deterministic_pinned_digest():
    res = _pinned_scenario_result()
    assert _digest(res.x) == PINNED_DS_DIGEST
    assert res.repairs > 0
    assert res.faults_injected and res.faults_injected.get("drop:solve", 0) > 0


def test_async_lockstep_same_fixed_point(fem_300):
    """Async and lockstep drive the same residual equations: both end
    with an exactly-consistent (x, norm) pair on the same problem."""
    a = solve(fem_300, method="distributed-southwell", n_parts=6,
              max_steps=40, seed=0, runtime="async")
    l = solve(fem_300, method="distributed-southwell", n_parts=6,
              max_steps=40, seed=0, runtime="flat")
    assert a.final_norm < 0.1 and l.final_norm < 0.1


# ------------------------------------------------------------------- 3
def test_async_ds_beats_ps_under_drop_and_stragglers():
    """The fig8 analog, in miniature: ≥20% drop, 2× stragglers — DS
    reaches the target in simulated time; PS trails or never gets
    there."""
    A = fem_poisson_2d(target_rows=900, seed=0).matrix
    plan = FaultPlan.uniform(drop=0.2, seed=7)
    acfg = AsyncConfig(speed_factors=((0, 0.5), (3, 0.5)))
    target = 0.1
    times = {}
    for method in ("distributed-southwell", "parallel-southwell"):
        res = solve(A, method=method,
                    config=RunConfig(n_parts=16, max_steps=60, seed=0,
                                     faults=plan, runtime="async",
                                     async_config=acfg))
        times[method] = res.history.cost_to_reach(target, axis="times")
    ds, ps = times["distributed-southwell"], times["parallel-southwell"]
    assert ds is not None
    assert ps is None or ds < ps


# ------------------------------------------------------------------- 4
def test_solveresult_v4_roundtrip(fem_300):
    res = solve(fem_300, method="distributed-southwell", n_parts=4,
                max_steps=10, seed=0, runtime="async")
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["schema"] == "repro.solveresult/v5"
    assert doc["virtual_time"] == pytest.approx(res.virtual_time)
    assert doc["rank_clocks"] == pytest.approx(list(res.rank_clocks))
    assert doc["rank_idle"] == pytest.approx(list(res.rank_idle))
    tl = res.timeline()
    for key in ("residual_norms", "times", "comm_costs", "relaxations"):
        assert key in tl
        assert len(tl[key]) == len(tl["residual_norms"])
    # virtual time is what the history's time axis converges to
    assert tl["times"][-1] <= res.virtual_time + 1e-12


def test_v4_fields_null_under_lockstep(fem_300):
    res = solve(fem_300, method="block-jacobi", n_parts=4, max_steps=3,
                seed=0, runtime="flat")
    doc = res.to_dict()
    assert doc["virtual_time"] is None
    assert doc["rank_clocks"] is None
    assert doc["rank_idle"] is None


# ------------------------------------------------------------------- 5
def test_async_config_validation():
    with pytest.raises(ValueError):
        AsyncConfig(latency=-1.0)
    with pytest.raises(ValueError):
        AsyncConfig(poll_interval=0.0)
    with pytest.raises(ValueError):
        AsyncConfig(speed_factors=((-1, 2.0),))
    with pytest.raises(ValueError):
        AsyncConfig(speed_factors=((0, 0.0),))
    with pytest.raises(ValueError):
        AsyncConfig(max_time=0.0)
    with pytest.raises(ValueError):
        AsyncConfig(max_turns=0)
    with pytest.raises(ValueError):
        AsyncConfig(record_every=0)
    # integer fields take integers only (numpy integers count, bool,
    # floats and strings do not), rejected at construction
    for field, bad in (("max_turns", 2.5), ("max_turns", True),
                       ("max_turns", "50"), ("record_every", 2.5),
                       ("record_every", True), ("record_every", "64")):
        with pytest.raises(ValueError, match=field):
            AsyncConfig(**{field: bad})
    for rank in (1.7, True, "1"):
        with pytest.raises(ValueError, match="speed_factors"):
            AsyncConfig(speed_factors=((rank, 0.5),))
    cfg = AsyncConfig(max_turns=np.int64(7), record_every=np.int32(4),
                      speed_factors=((np.int64(1), 0.5),))
    assert (cfg.max_turns, cfg.record_every) == (7, 4)
    assert type(cfg.max_turns) is int and type(cfg.record_every) is int
    # NaN fails every comparison, so each field checks finiteness: a
    # NaN latency never delivered, an inf one ran to virtual_time=inf
    nan, inf = float("nan"), float("inf")
    for field, bad in (("latency", nan), ("latency", inf),
                       ("poll_interval", nan), ("poll_interval", inf),
                       ("max_time", nan), ("max_time", inf)):
        with pytest.raises(ValueError, match=field):
            AsyncConfig(**{field: bad})
    for factor in (nan, inf):
        with pytest.raises(ValueError, match="speed_factors"):
            AsyncConfig(speed_factors=((0, factor),))
    with pytest.raises(ValueError, match="speed_factors"):
        AsyncConfig(speed_factors=((0,),))
    # the CLI's spec string parses into pairs, and is validated as such
    assert AsyncConfig(speed_factors="0:0.5, 3:2").speed_factors == (
        (0, 0.5), (3, 2.0))
    for spec in ("0:nan", "0:0", "0", "x:1"):
        with pytest.raises(ValueError):
            AsyncConfig(speed_factors=spec)
    # frozen dataclass: assignment is an error
    cfg = AsyncConfig()
    with pytest.raises(Exception):
        cfg.latency = 1.0


def test_runconfig_carries_async_config(fem_300):
    acfg = AsyncConfig(latency=1e-5, record_every=32)
    cfg = RunConfig(n_parts=4, max_steps=10, seed=0, runtime="async",
                    async_config=acfg)
    res = solve(fem_300, method="block-jacobi", config=cfg)
    assert res.config.async_config is acfg
    assert res.virtual_time is not None


def test_executor_rejects_non_finite_settings(fem_300):
    nan = float("nan")
    for kw, field in ((dict(latency=nan), "latency"),
                      (dict(poll_interval=nan), "poll_interval")):
        with pytest.raises(ValueError, match=field):
            AsyncExecutor(None, **kw)
    system = build_block_system(fem_300, partition(fem_300, 4, seed=0))
    x0 = np.ones(fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    ex = AsyncExecutor(DistributedSouthwell(system),
                       speed_factors=np.array([1.0, nan, 1.0, 1.0]))
    with pytest.raises(ValueError, match="speed_factors"):
        ex.prepare(x0, b)
    ex = AsyncExecutor(DistributedSouthwell(system))
    with pytest.raises(ValueError, match="max_time"):
        ex.run(x0, b, max_time=nan)


def test_speed_factor_rank_out_of_range(fem_300):
    acfg = AsyncConfig(speed_factors=((99, 2.0),))
    with pytest.raises(ValueError, match="rank"):
        solve(fem_300, method="block-jacobi", n_parts=4, max_steps=5,
              config=RunConfig(n_parts=4, max_steps=5, runtime="async",
                               async_config=acfg))


# ------------------------------------------------------------------- 6
def test_lockstep_only_methods_raise_async_unsupported():
    """Thresholded DS decides per lockstep step which updates to hold;
    that has no async form, so the executor refuses it up front instead
    of silently running plain DS hooks."""
    from repro.core.threshold_ds import ThresholdedDistributedSouthwell

    A = symmetric_unit_diagonal_scale(poisson_2d(12)).matrix
    system = build_block_system(A, partition(A, 4, seed=0))
    ex = AsyncExecutor(ThresholdedDistributedSouthwell(system,
                                                       threshold=0.3))
    with pytest.raises(AsyncUnsupportedError,
                       match="thresholded-distributed-southwell"):
        ex.prepare(np.ones(A.n_rows), np.zeros(A.n_rows))


# ------------------------------------------------------------------- 7
def _scan_deliverable(ap, p) -> list[int]:
    """The mailbox read the heap replaced: gather ``p``'s slot stamps,
    keep the ready ones, ``lexsort`` by (stamp, slot-id)."""
    sl = ap.in_sids[p]
    t = np.asarray(ap.deliver_at)[sl]
    ready = t <= ap.clocks[p]
    return sl[ready][np.lexsort((sl[ready], t[ready]))].tolist()


def _scan_earliest(ap, p) -> float:
    t = np.asarray(ap.deliver_at)[ap.in_sids[p]]
    return float(t.min()) if t.size else np.inf


def _mailbox_ops(n_procs):
    rank = st.integers(0, n_procs - 1)
    sends = st.tuples(st.just("send"), rank,
                      st.sets(rank, min_size=1, max_size=n_procs),
                      st.integers(0, 1))
    waits = st.tuples(st.just("wait"), rank,
                      st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    reads = st.tuples(st.just("read"), rank)
    peeks = st.tuples(st.just("peek"), rank)
    return st.lists(st.one_of(sends, waits, reads, peeks), max_size=80)


@given(_mailbox_ops(4), st.sampled_from([0.0, 1.0]),
       st.sampled_from([0.0, 0.5, 2.0]))
@settings(max_examples=150, deadline=None)
def test_mailbox_heap_matches_full_scan(ops, alpha, latency):
    """Random fan-outs (restamping in-flight slots, at equal stamps when
    sends are free), waits and reads: every ``deliver`` equals the gather + lexsort scan, every
    ``earliest_pending`` the stamp minimum, and no heap outgrows twice
    its rank's in-slot count."""
    P = 4
    ap = make_plane(P, CostModel(alpha=alpha, alpha_recv=0.25, beta=0.0,
                                 gamma=0.0), latency=latency)
    for op in ops:
        if op[0] == "send":
            _, src, dsts, kind = op
            sids = np.array(sorted(2 * edge_id(ap.plane, src, d) + kind
                                   for d in dsts if d != src),
                            dtype=np.int64)
            ap.send(src, sids, 0.0, 0.0, 8 * sids.size, CATEGORY_SOLVE)
        elif op[0] == "wait":
            ap.advance_idle(op[1], op[2])
        elif op[0] == "read":
            p = op[1]
            want = _scan_deliverable(ap, p)
            gated = ap.n_pending[p] and ap._next_at[p] <= ap.clocks[p]
            assert ap.deliver(p) == want
            if gated:       # a read past the bound re-tightens it
                assert ap._next_at[p] == _scan_earliest(ap, p)
        else:
            p = op[1]
            assert ap.earliest_pending(p) == _scan_earliest(ap, p)
        for p in range(P):
            assert ap._next_at[p] <= _scan_earliest(ap, p)
            assert ap.n_pending[p] == np.isfinite(
                np.asarray(ap.deliver_at)[ap.in_sids[p]]).sum()
            assert len(ap._mail[p]) <= 2 * ap.in_sids[p].size


def test_mailbox_heap_skips_restamped_and_duplicate_entries():
    # a restamp leaves the slot's old (earlier) entry behind: it must
    # neither deliver early nor hide the live one
    ap = make_plane(2, CostModel(alpha=1.0, alpha_recv=0.0, beta=0.0,
                                 gamma=0.0))
    s = 2 * edge_id(ap.plane, 0, 1)
    sid = np.array([s])
    ap.send(0, sid, 0.0, 0.0, 8, CATEGORY_SOLVE)     # stamp 1
    ap.send(0, sid, 0.0, 0.0, 8, CATEGORY_SOLVE)     # restamp to 2
    ap.advance_idle(1, 1.0)
    assert ap.deliver(1) == []
    assert ap.earliest_pending(1) == 2.0
    ap.advance_idle(1, 1.0)
    assert ap.deliver(1) == [s]
    assert ap.earliest_pending(1) == np.inf
    # free sends restamp at an equal stamp: two live-looking entries,
    # one delivery
    ap = make_plane(2, CostModel(alpha=0.0, alpha_recv=0.0, beta=0.0,
                                 gamma=0.0))
    ap.send(0, sid, 0.0, 0.0, 8, CATEGORY_SOLVE)
    ap.send(0, sid, 0.0, 0.0, 8, CATEGORY_SOLVE)
    assert len(ap._mail[1]) == 2
    assert ap.deliver(1) == [s]
    assert ap.deliver(1) == [] and ap.in_flight == 0


def test_stragglers_smoke_keeps_heaps_bounded():
    """The async_stragglers benchmark's smoke shape sends more than
    twice as many messages as there are slots, yet no heap ever holds
    more than twice its rank's in-slot count: stale entries pop as the
    receiver reads past them, and the rebuild drops the rest."""
    A = fem_poisson_2d(target_rows=600, seed=0).matrix
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    x0 /= np.linalg.norm(A.matvec(x0))
    P = 16
    system = build_block_system(A, partition(A, P, seed=0),
                                local_solver="gs", n_sweeps=1)
    ex = AsyncExecutor(DistributedSouthwell(system, seed=0),
                       speed_factors=((0, 0.5), (8, 0.5)))
    ex.prepare(x0, b)
    ap = ex.aplane
    send = ap.send
    peak = 0

    def watched(*args):
        nonlocal peak
        kept = send(*args)
        peak = max(peak, sum(len(box) for box in ap._mail))
        return kept

    ap.send = watched
    ex.run(max_turns=3_000)
    slots = sum(s.size for s in ap.in_sids)
    # enough traffic that an index without the rebuild would overflow
    assert ex.runner.engine.stats.total_messages > 2 * slots
    assert 0 < peak <= 2 * slots


# ------------------------------------------------------------------- 8
def test_async_front_door_start_and_rhs(fem_300):
    """The Section 4.2 start has ``‖r⁰‖₂ = 1``; ``solve(A, b)`` starts
    from ``x0 = 0`` and reduces ``‖b − Ax‖``."""
    start = solve(fem_300, method="block-jacobi", n_parts=4, max_steps=0,
                  seed=1, runtime="async")
    assert np.isclose(start.history.initial_norm, 1.0, atol=1e-12)
    A = poisson_2d(12)
    b = np.random.default_rng(0).uniform(-1.0, 1.0, A.n_rows)
    res = solve(A, b, n_parts=4, max_steps=30, runtime="async")
    assert res.history.initial_norm == pytest.approx(np.linalg.norm(b))
    assert np.linalg.norm(b - A.matvec(res.x)) < 0.5 * np.linalg.norm(b)


def test_async_comm_curves_and_breakdown(fem_300):
    """Per-category comm curves are monotone, one entry per history
    sample, and end at the run totals; they split the comm cost at a
    target crossing; ``reached`` reads the history; the result reports
    the process peak RSS."""
    ds = solve(fem_300, method="distributed-southwell", n_parts=8,
               max_steps=20, seed=0, runtime="async")
    assert np.all(np.diff(ds.solve_comm_curve) >= 0)
    assert np.all(np.diff(ds.residual_comm_curve) >= 0)
    assert len(ds.solve_comm_curve) == len(ds.history.parallel_steps)
    assert np.isclose(ds.solve_comm_curve[-1], ds.solve_comm)
    assert np.isclose(ds.residual_comm_curve[-1], ds.residual_comm)
    assert ds.to_dict()["peak_rss_bytes"] == ds.peak_rss_bytes > 1 << 20
    ps = solve(fem_300, method="parallel-southwell", n_parts=8,
               max_steps=40, seed=0, runtime="async")
    assert ps.reached(0.5) and not ps.reached(1e-30)
    solve_part, residual_part = ps.comm_breakdown_at(0.2)
    total = ps.history.cost_to_reach(0.2, axis="comm_costs")
    assert np.isclose(solve_part + residual_part, total, rtol=1e-9)
    assert ps.comm_breakdown_at(1e-30) is None
