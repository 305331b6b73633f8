"""Equivalence and accounting tests for the flat-buffer runtime.

The flat-buffer message plane (DESIGN.md §5.8) is the default for the
paper's synchronous-epoch runs, so its contract is strict: **bit-for-bit**
the same convergence history and **byte-for-byte** the same message
statistics as the object plane, on every method that supports it.  These
tests pin that contract:

- the seed DS history digest reproduces under the object path and the
  flat path;
- full stats equality — per-step message/byte/flop/receive arrays and
  category splits — across both planes for BJ, PS and DS;
- the cumulative metrics are O(1) (they never walk the snapshot list);
- eligibility: delay injection, the thresholded DS variant, the PS
  piggyback ablation and ``REPRO_RUNTIME=object`` all fall back to the
  object plane;
- the flat plane's epoch discipline (visibility only after the collective
  close, collision detection, delay rejection);
- the int32 slab-index fast path, ``runtime="shm"`` (a deleted
  plane's spelling) running the flat plane and reporting it, and
  ``AsyncConfig(scheduler="batched")`` (a deleted scheduler's spelling)
  running the one async event loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AsyncConfig, solve
from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.core.threshold_ds import ThresholdedDistributedSouthwell
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import (
    CATEGORY_SOLVE,
    SLOT_RESIDUAL,
    SLOT_SOLVE,
    MessageStats,
    WindowSystem,
    runtime_mode,
    set_runtime_mode,
    use_runtime,
)
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import symmetric_unit_diagonal_scale

from tests.test_backends import SEED_DS_DIGEST, _ds_history_digest

_METHOD_CLASSES = {
    "block-jacobi": BlockJacobi,
    "parallel-southwell": ParallelSouthwell,
    "distributed-southwell": DistributedSouthwell,
}


def _small_system(side=20, n_parts=8, seed=3):
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, n_parts, seed=seed)
    return A, build_block_system(A, part)


def _run(cls, mode, side=20, n_parts=8, steps=20, **kwargs):
    A, system = _small_system(side, n_parts)
    m = cls(system, **kwargs)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    with use_runtime(mode):
        hist = m.run(x0, np.zeros(A.n_rows), max_steps=steps)
    return m, hist


def _assert_identical(m_a, h_a, m_b, h_b):
    """The full plane identity bar: histories, solution, stats."""
    assert np.array_equal(np.asarray(h_a.residual_norms),
                          np.asarray(h_b.residual_norms))
    assert h_a.relaxations == h_b.relaxations
    assert h_a.times == h_b.times
    assert h_a.comm_costs == h_b.comm_costs
    np.testing.assert_array_equal(m_a.solution(), m_b.solution())
    sa, sb = m_a.engine.stats, m_b.engine.stats
    assert sa.total_messages == sb.total_messages
    assert sa.total_bytes == sb.total_bytes
    assert sa.category_msgs == sb.category_msgs
    assert sa.category_bytes == sb.category_bytes
    assert sa.elapsed_time() == sb.elapsed_time()
    assert sa.communication_cost() == sb.communication_cost()
    assert len(sa.steps) == len(sb.steps)
    for a, b in zip(sa.steps, sb.steps):
        np.testing.assert_array_equal(a.msgs, b.msgs)
        np.testing.assert_array_equal(a.nbytes, b.nbytes)
        np.testing.assert_array_equal(a.flops, b.flops)
        np.testing.assert_array_equal(a.recvs, b.recvs)
        assert a.category_msgs == b.category_msgs
        assert a.time == b.time
    assert m_a.total_relaxations == m_b.total_relaxations


# ----------------------------------------------------------------------
# pinned seed behaviour across paths
# ----------------------------------------------------------------------
def test_seed_ds_digest_object_path():
    with use_runtime("object"):
        assert _ds_history_digest() == SEED_DS_DIGEST


def test_seed_ds_digest_flat_path():
    with use_runtime("flat"):
        assert _ds_history_digest() == SEED_DS_DIGEST


# ----------------------------------------------------------------------
# full stats equality: both planes, all three methods
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", sorted(_METHOD_CLASSES))
def test_flat_and_object_planes_identical(method):
    cls = _METHOD_CLASSES[method]
    m_obj, h_obj = _run(cls, "object")
    m_flat, h_flat = _run(cls, "flat")
    assert not m_obj._use_flat and m_flat._use_flat
    _assert_identical(m_obj, h_obj, m_flat, h_flat)


def test_relax_deltas_alias_flat_mailboxes():
    """With the flat plane active the relax workspaces ARE the mailbox
    buffers — a relax writes the wire payload in place."""
    A, system = _small_system()
    ds = DistributedSouthwell(system)
    rng = np.random.default_rng(0)
    with use_runtime("flat"):
        ds.setup(rng.uniform(-1, 1, A.n_rows), np.zeros(A.n_rows))
    plane = ds.engine.flat
    assert plane is not None
    for key, eid in plane.edge_index.items():
        assert ds._ws_delta[key] is plane.vals[eid]
    deltas = ds.relax(0)
    for q, buf in deltas.items():
        assert buf is plane.vals[plane.edge_index[(0, int(q))]]


# ----------------------------------------------------------------------
# eligibility: who falls back to the object plane
# ----------------------------------------------------------------------
def _setup_method(cls, mode="auto", **kwargs):
    A, system = _small_system()
    m = cls(system, **kwargs)
    rng = np.random.default_rng(0)
    with use_runtime(mode):
        m.setup(rng.uniform(-1, 1, A.n_rows), np.zeros(A.n_rows))
    return m


@pytest.mark.parametrize("cls", [BlockJacobi, ParallelSouthwell,
                                 DistributedSouthwell])
def test_auto_mode_uses_flat_plane(cls):
    m = _setup_method(cls)
    assert m._use_flat and m.engine.flat is not None


def test_object_mode_forces_object_plane():
    m = _setup_method(DistributedSouthwell, mode="object")
    assert not m._use_flat and m.engine.flat is None
    assert m._ws_delta is m._ws_delta_own


def test_delay_injection_forces_object_plane():
    m = _setup_method(DistributedSouthwell, delay_probability=0.3)
    assert not m._use_flat and m.engine.flat is None


def test_thresholded_ds_forces_object_plane():
    m = _setup_method(ThresholdedDistributedSouthwell)
    assert not m._use_flat and m.engine.flat is None


def test_ps_piggyback_ablation_forces_object_plane():
    m = _setup_method(ParallelSouthwell, piggyback=False)
    assert not m._use_flat and m.engine.flat is None


def test_runtime_mode_knob():
    assert runtime_mode() in ("auto", "flat", "shm", "async", "object")
    with use_runtime("object"):
        assert runtime_mode() == "object"
        with use_runtime("flat"):
            assert runtime_mode() == "flat"
        assert runtime_mode() == "object"
    with use_runtime("shm"):
        assert runtime_mode() == "shm"
    with use_runtime("async"):
        assert runtime_mode() == "async"
    with pytest.raises(ValueError):
        set_runtime_mode("turbo")
    assert runtime_mode() in ("auto", "flat", "shm", "async", "object")


def test_runtime_mode_env_junk_falls_back_to_auto(monkeypatch):
    monkeypatch.setenv("REPRO_RUNTIME", "warp-speed")
    assert runtime_mode() == "auto"
    monkeypatch.setenv("REPRO_RUNTIME", "  FLAT ")
    assert runtime_mode() == "flat"


def test_shm_spelling_runs_the_flat_plane():
    """``runtime="shm"`` names the deleted shared-memory plane (DESIGN.md
    §5.12): the run is the flat plane's, byte for byte, and says so."""
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    shm = solve(A, n_parts=4, max_steps=5, runtime="shm", seed=0)
    flat = solve(A, n_parts=4, max_steps=5, runtime="flat", seed=0)
    assert shm.degraded_reason == "shm-unavailable" and not shm.degraded
    assert flat.degraded_reason is None
    assert shm.x.tobytes() == flat.x.tobytes()
    assert shm.history.residual_norms == flat.history.residual_norms


@pytest.mark.parametrize("scheduler", ["scalar", "batched"])
def test_async_scheduler_spellings_run_the_one_loop(scheduler):
    """``AsyncConfig.scheduler`` keeps the spellings the benchmark's probe
    passes; ``"batched"`` names the deleted event-horizon scheduler
    (DESIGN.md §5.15).  Both run the one event loop, byte for byte the
    default's, and any other spelling raises."""
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    runs = [solve(A, n_parts=4, max_steps=5, runtime="async", seed=0,
                  async_config=AsyncConfig(scheduler=s))
            for s in (None, scheduler)]
    default, spelled = runs
    assert spelled.x.tobytes() == default.x.tobytes()
    assert spelled.virtual_time == default.virtual_time
    assert spelled.history == default.history
    with pytest.raises(ValueError, match="nope"):
        AsyncConfig(scheduler="nope")


# ----------------------------------------------------------------------
# int32 slab-index fast path
# ----------------------------------------------------------------------
def test_int32_index_fast_path_small_problem():
    m = _setup_method(DistributedSouthwell, mode="flat")
    plane = m.engine.flat
    assert plane.idx_dtype is np.int32
    for p in range(m.system.n_parts):
        assert m._out_eids[p].dtype == np.int32
        assert m._grows_flat[p].dtype == np.int32
    assert m._sid_slabpos.dtype == np.int32
    # header-row and ghost-scatter plans: the Γ/Γ̃ slab indices and the
    # z-span bounds follow the plane dtype too
    assert m._nbr_off.dtype == np.int32
    assert m._nbr_flat.dtype == np.int32
    assert m._slab_owner.dtype == np.int32
    assert m._eid_pos.dtype == np.int32
    assert m._zspan_lo.dtype == np.int32
    assert m._zspan_hi.dtype == np.int32
    assert m._z2g.dtype == np.int32


def test_int32_and_int64_paths_agree(monkeypatch):
    import repro.runtime.flatplane as fp
    m32, h32 = _run(DistributedSouthwell, "flat")
    monkeypatch.setattr(fp, "_INT32_LIMIT", 0)   # force the int64 path
    m64, h64 = _run(DistributedSouthwell, "flat")
    assert m64.engine.flat.idx_dtype is np.int64
    _assert_identical(m32, h32, m64, h64)


# ----------------------------------------------------------------------
# O(1) cumulative metrics and batched receives
# ----------------------------------------------------------------------
def test_cumulative_metrics_do_not_walk_snapshots():
    """The per-step history recording used to re-sum every snapshot each
    step (O(steps²) per run).  The cumulative metrics must now come from
    running totals: poison the snapshot list and read them anyway."""
    stats = MessageStats(4)
    expect_msgs = expect_bytes = 0
    expect_time = 0.0
    for k in range(5):
        stats.record_message(k % 4, CATEGORY_SOLVE, 100 + k)
        expect_msgs += 1
        expect_bytes += 100 + k
        stats.close_step(time=0.5 + k)
        expect_time += 0.5 + k
    stats.record_message(0, CATEGORY_SOLVE, 7)  # open step counts too
    stats.steps = None                          # would raise if walked
    assert stats.total_messages == expect_msgs + 1
    assert stats.total_bytes == expect_bytes + 7
    assert stats.elapsed_time() == expect_time
    assert stats.communication_cost() == (expect_msgs + 1) / 4


def test_elapsed_time_matches_sum_of_step_times():
    """The running total accumulates left-to-right exactly like summing
    the snapshots did, so the recorded histories are unchanged."""
    m, _ = _run(DistributedSouthwell, "object", steps=10)
    acc = 0.0
    for s in m.engine.stats.steps:
        acc += float(s.time)
    assert m.engine.stats.elapsed_time() == acc


def test_record_receives_batches_like_singles():
    a, b = MessageStats(3), MessageStats(3)
    for _ in range(5):
        a.record_receive(1)
    b.record_receives(1, 5)
    np.testing.assert_array_equal(a.current_step_arrays()[3],
                                  b.current_step_arrays()[3])


# ----------------------------------------------------------------------
# flat plane mechanics
# ----------------------------------------------------------------------
def _tiny_plane():
    ws = WindowSystem(3)
    plane = ws.configure_flat([(0, 1, 2, 1), (1, 0, 2, 1), (1, 2, 3, 0)])
    return ws, plane, plane.edge_index


def test_flat_put_invisible_until_epoch_close():
    ws, plane, eid_map = _tiny_plane()
    eid = eid_map[(0, 1)]
    plane.vals[eid][:] = [1.0, 2.0]
    plane.put(eid, SLOT_SOLVE, 4.0, 9.0, 48, CATEGORY_SOLVE)
    plane.drain_all()                    # buffered, not visible
    assert plane.mail_ranks.size == 0 and ws.stats.total_receives == 0
    assert ws.in_flight == 1
    ws.close_epoch()
    sids = plane.last_delivered
    assert sids.tolist() == [2 * eid + SLOT_SOLVE]
    assert plane.mail_ranks.tolist() == [1]
    assert plane.src_of(sids[0]) == 0
    assert plane.norm[sids[0]] == 4.0 and plane.est[sids[0]] == 9.0
    plane.drain_all()
    plane.drain_all()                    # drained exactly once
    assert ws.stats.current_step_arrays()[3].tolist() == [0, 1, 0]
    assert ws.stats.total_messages == 1
    assert ws.stats.total_bytes == 48


def test_flat_mailbox_collision_raises():
    _, plane, eid_map = _tiny_plane()
    eid = eid_map[(1, 2)]
    plane.put(eid, SLOT_SOLVE, 1.0, 0.0, 40, CATEGORY_SOLVE)
    with pytest.raises(RuntimeError, match="collision"):
        plane.put(eid, SLOT_SOLVE, 2.0, 0.0, 40, CATEGORY_SOLVE)
    # the residual slot of the same edge is a different mailbox
    plane.put(eid, SLOT_RESIDUAL, 2.0, 0.0, 24, CATEGORY_SOLVE)


def test_flat_mail_ranks_track_undrained_mail():
    ws, plane, eid_map = _tiny_plane()
    plane.put(eid_map[(0, 1)], SLOT_SOLVE, 1.0, 0.0, 48, CATEGORY_SOLVE)
    plane.put(eid_map[(1, 2)], SLOT_SOLVE, 1.0, 0.0, 56, CATEGORY_SOLVE)
    ws.close_epoch()
    assert plane.mail_ranks.tolist() == [1, 2]
    ws.close_epoch()                     # undrained mail stays visible
    assert plane.mail_ranks.tolist() == [1, 2]
    assert plane.last_delivered.size == 0
    plane.drain_all()
    plane.put(eid_map[(1, 2)], SLOT_SOLVE, 1.0, 0.0, 56, CATEGORY_SOLVE)
    ws.close_epoch()
    assert plane.mail_ranks.tolist() == [2]
    assert ws.stats.current_step_arrays()[3].tolist() == [0, 1, 1]


@pytest.mark.parametrize("seed", range(4))
def test_flat_mailboxes_match_chunk_lists_under_faults(seed):
    """The array-backed epoch mailboxes against the seed's chunk lists
    (``oracles.ChunkMailbox``) under drop + duplicate + reorder fates:
    same ``mail_ranks`` after every epoch close, same receive charges
    and same traced receives (rank order, then each rank's slot-ids) —
    with epochs left undrained, which then drain first."""
    from repro.faults import FaultPlan, FaultRuntime
    from repro.trace import RunTracer

    from tests.oracles import ChunkMailbox

    P = 7
    rng = np.random.default_rng(seed)
    pairs = {(p, (p + k) % P) for p in range(P) for k in (1, 3)}
    pairs |= {(q, p) for p, q in pairs}
    edges = [(p, q, 2, 1) for p, q in sorted(pairs)]
    tracer = RunTracer()
    ws = WindowSystem(P, tracer=tracer)
    ws.faults = FaultRuntime(FaultPlan.uniform(
        drop=0.2, duplicate=0.2, reorder=0.3, seed=seed), P)
    plane = ws.configure_flat(edges)
    box = ChunkMailbox(plane.edge_dst, P)
    recvs = ws.stats.current_step_arrays()[3]
    for _ in range(12):
        sids = np.flatnonzero(rng.random(2 * len(edges)) < 0.4)
        for sid in sids.tolist():
            plane.put(sid >> 1, sid & 1, 1.0, 0.0, 40, CATEGORY_SOLVE)
        ws.close_epoch()
        box.deliver(plane.last_delivered)
        assert plane.mail_ranks.tolist() == box.mail_ranks
        if rng.random() < 0.6:      # else left undrained this epoch
            mark = len(tracer._events)
            read = box.drain_all()
            plane.drain_all()
            events = tracer._events[mark:]
            assert [ev[3] for ev in events] == list(read)
            for ev, got in zip(events, read.values()):
                assert ev[2].tolist() == plane.edge_src[got >> 1].tolist()
                assert ev[4].tolist() == (got & 1).tolist()
        assert recvs.tolist() == box.recvs.tolist()
    assert ws.stats.total_receives == box.recvs.sum() > 0


def test_configure_flat_rejects_delay_injection():
    ws = WindowSystem(2, delay_probability=0.5)
    with pytest.raises(RuntimeError, match="synchronous"):
        ws.configure_flat([(0, 1, 2, 0)])
