"""Equivalence and accounting tests for the flat-buffer runtime.

The flat-buffer message plane (DESIGN.md §5.8) is the one lockstep plane,
so its contract is strict: **bit-for-bit** the same convergence history
and **byte-for-byte** the same message statistics as the per-message
reference plane it replaced, whose results are recorded in
``tests/plane_pins.py``.  These tests pin that contract:

- the seed DS history digest reproduces;
- full stats — per-step message/byte/flop/receive arrays and category
  splits — match the reference's recorded runs for BJ, PS and DS;
- the cumulative metrics are O(1) (they never walk the snapshot list);
- every method, the thresholded DS variant included, runs the flat
  plane, and ``runtime="object"`` (the deleted plane's name) raises;
- the flat plane's epoch discipline (visibility only after the collective
  close, collision detection);
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
    SLOT_SOLVE,
    MessageStats,
    ParallelEngine,
    runtime_mode,
    set_runtime_mode,
    use_runtime,
)
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import symmetric_unit_diagonal_scale

from tests.oracles import edge_id, put_one
from tests.plane_pins import PINS, run_fingerprint
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
# pinned seed behaviour
# ----------------------------------------------------------------------
def test_seed_ds_digest_object_path():
    """The per-message plane's recorded run of the seed DS problem: the
    flat run reproduces its whole history, every column."""
    from tests.test_trace import _run_seed_ds

    digest, _ = _run_seed_ds(full=True)
    assert digest == PINS["trace:distributed-southwell"]["history"]


def test_seed_ds_digest_flat_path():
    with use_runtime("flat"):
        assert _ds_history_digest() == SEED_DS_DIGEST


# ----------------------------------------------------------------------
# full stats equality with the recorded per-message plane, all methods
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", sorted(_METHOD_CLASSES))
def test_flat_and_object_planes_identical(method):
    m_flat, h_flat = _run(_METHOD_CLASSES[method], "flat")
    assert run_fingerprint(m_flat, h_flat) == PINS[f"plane:{method}"]


def test_relax_deltas_alias_flat_mailboxes():
    """A relax writes the wire payload in place: rank p's deltas
    ``-A_qp dx_p`` land in its mailbox slab, a view of the plane's
    delta store."""
    A, system = _small_system()
    ds = DistributedSouthwell(system)
    rng = np.random.default_rng(0)
    ds.setup(rng.uniform(-1, 1, A.n_rows), np.zeros(A.n_rows))
    plane = ds.engine.flat
    assert np.shares_memory(ds._vals_slab[0], plane.vals_flat)
    x_before = ds.x_blocks[0].copy()
    ds._relax_one_flat(0)
    dx = ds.x_blocks[0] - x_before
    for q in system.neighbors_of(0).tolist():
        expect = -system.couplings[(0, q)].matvec(dx)
        eid = edge_id(plane, 0, q)
        got = plane.vals_flat[plane.vals_off[eid]:plane.vals_off[eid + 1]]
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)


# ----------------------------------------------------------------------
# every method runs the one lockstep plane
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
    assert m.engine.flat is not None
    assert m.engine.flat.n_edges == m.system.edge_src.size


def test_object_mode_is_rejected():
    """``"object"`` named the deleted per-message plane: every front
    door raises a ValueError listing the valid modes."""
    from repro.api import RunConfig
    from repro.cli import main as cli_main

    modes = "('auto', 'flat', 'shm', 'async')"
    with pytest.raises(ValueError, match="got 'object'") as err:
        with use_runtime("object"):
            pass                                    # pragma: no cover
    assert modes in str(err.value)
    with pytest.raises(ValueError, match="^runtime must be one of"):
        RunConfig(runtime="object")
    with pytest.raises(ValueError, match="^runtime must be one of"):
        cli_main(["-n", "4", "-grid_dim", "8", "-sweep_max", "2",
                  "--runtime", "object"])
    assert runtime_mode() != "object"


def test_thresholded_ds_runs_the_flat_plane():
    m = _setup_method(ThresholdedDistributedSouthwell, threshold=0.3)
    assert m.engine.flat is not None
    assert m._held.shape == m.engine.flat.vals_flat.shape


def test_runtime_mode_knob():
    assert runtime_mode() in ("auto", "flat", "shm", "async")
    with use_runtime("async"):
        assert runtime_mode() == "async"
        with use_runtime("flat"):
            assert runtime_mode() == "flat"
        assert runtime_mode() == "async"
    with use_runtime("shm"):
        assert runtime_mode() == "shm"
    with pytest.raises(ValueError):
        set_runtime_mode("turbo")
    assert runtime_mode() in ("auto", "flat", "shm", "async")


def test_runtime_mode_env_junk_falls_back_to_auto(monkeypatch):
    monkeypatch.setenv("REPRO_RUNTIME", "warp-speed")
    assert runtime_mode() == "auto"
    monkeypatch.setenv("REPRO_RUNTIME", "object")   # the deleted plane
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
        assert m._grows_flat[p].dtype == np.int32
    assert m._sid_slabpos.dtype == np.int32
    # header-row and ghost-scatter plans: the Γ/Γ̃ slab indices and the
    # z-span bounds follow the plane dtype too
    assert m._nbr_off.dtype == np.int32
    assert m._nbr_flat.dtype == np.int32
    assert m._slab_owner.dtype == np.int32
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
        stats.record_messages(k % 4, CATEGORY_SOLVE, 1, 100 + k)
        expect_msgs += 1
        expect_bytes += 100 + k
        stats.close_step(time=0.5 + k)
        expect_time += 0.5 + k
    stats.record_messages(0, CATEGORY_SOLVE, 1, 7)  # open step counts too
    stats.steps = None                          # would raise if walked
    assert stats.total_messages == expect_msgs + 1
    assert stats.total_bytes == expect_bytes + 7
    assert stats.elapsed_time() == expect_time
    assert stats.communication_cost() == (expect_msgs + 1) / 4


def test_elapsed_time_matches_sum_of_step_times():
    """The running total accumulates left-to-right exactly like summing
    the snapshots did, so the recorded histories are unchanged."""
    m, _ = _run(DistributedSouthwell, "flat", steps=10)
    acc = 0.0
    for s in m.engine.stats.steps:
        acc += float(s.time)
    assert m.engine.stats.elapsed_time() == acc


def test_record_receives_batches_like_singles():
    a, b = MessageStats(3), MessageStats(3)
    for _ in range(5):
        a.record_receives(1, 1)
    b.record_receives(1, 5)
    np.testing.assert_array_equal(a.current_step_arrays()[3],
                                  b.current_step_arrays()[3])


# ----------------------------------------------------------------------
# flat plane mechanics
# ----------------------------------------------------------------------
def _tiny_plane():
    ws = ParallelEngine(3)
    plane = ws.configure_flat([(0, 1, 2, 1), (1, 0, 2, 1), (1, 2, 3, 0)])
    return ws, plane


def test_flat_put_invisible_until_epoch_close():
    ws, plane = _tiny_plane()
    eid = edge_id(plane, 0, 1)
    plane.vals_flat[plane.vals_off[eid]:plane.vals_off[eid + 1]] = [1.0, 2.0]
    put_one(plane, 2 * eid + SLOT_SOLVE, 48, CATEGORY_SOLVE, 4.0, 9.0)
    plane.drain_all()                    # buffered, not visible
    assert plane.mail_ranks.size == 0 and ws.stats.total_receives == 0
    assert ws.in_flight == 1
    ws.close_epoch()
    sids = plane.last_delivered
    assert sids.tolist() == [2 * eid + SLOT_SOLVE]
    assert plane.mail_ranks.tolist() == [1]
    assert plane.edge_src[sids[0] >> 1] == 0
    assert plane.norm[sids[0]] == 4.0 and plane.est[sids[0]] == 9.0
    plane.drain_all()
    plane.drain_all()                    # drained exactly once
    assert ws.stats.current_step_arrays()[3].tolist() == [0, 1, 0]
    assert ws.stats.total_messages == 1
    assert ws.stats.total_bytes == 48


def test_flat_mail_ranks_track_undrained_mail():
    ws, plane = _tiny_plane()
    e01, e12 = edge_id(plane, 0, 1), edge_id(plane, 1, 2)
    put_one(plane, 2 * e01 + SLOT_SOLVE, 48, CATEGORY_SOLVE, 1.0)
    put_one(plane, 2 * e12 + SLOT_SOLVE, 56, CATEGORY_SOLVE, 1.0)
    ws.close_epoch()
    assert plane.mail_ranks.tolist() == [1, 2]
    ws.close_epoch()                     # undrained mail stays visible
    assert plane.mail_ranks.tolist() == [1, 2]
    assert plane.last_delivered.size == 0
    plane.drain_all()
    put_one(plane, 2 * e12 + SLOT_SOLVE, 56, CATEGORY_SOLVE, 1.0)
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
    ws = ParallelEngine(P, tracer=tracer)
    ws.faults = FaultRuntime(FaultPlan.uniform(
        drop=0.2, duplicate=0.2, reorder=0.3, seed=seed), P)
    plane = ws.configure_flat(edges)
    box = ChunkMailbox(plane.edge_dst, P)
    recvs = ws.stats.current_step_arrays()[3]
    for _ in range(12):
        sids = np.flatnonzero(rng.random(2 * len(edges)) < 0.4)
        for sid in sids.tolist():
            put_one(plane, sid, 40, CATEGORY_SOLVE, 1.0)
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

