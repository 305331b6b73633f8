"""Identity and mechanics tests for the shm execution plane (§5.12).

``REPRO_RUNTIME=shm`` runs the flat plane's per-rank kernels on real
forked worker processes over a shared-memory arena.  Its contract is the
same strict one the flat plane carries against the object plane:
**bit-identical** convergence histories and solutions, **byte-identical**
``MessageStats`` — including under a seeded lossy ``FaultPlan`` — for
every method that supports the flat path.  These tests pin that
contract, the graceful ``shm-unavailable`` degradation (both branches),
the int32 slab-index fast path, the worker-count knob and the pool
mechanics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config as _config
from repro.api import solve
from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.runtime import use_runtime
from repro.runtime.pool import ShmUnavailable, rank_bounds, shm_available
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import symmetric_unit_diagonal_scale

from tests.test_backends import SEED_DS_DIGEST, _ds_history_digest
from tests.test_runtime_fastpath import _run, _setup_method, _small_system

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory / fork unavailable here")

_METHODS = [BlockJacobi, ParallelSouthwell, DistributedSouthwell]

#: a seeded lossy plan exercising drops, duplicates and reordering —
#: the fate stream is part of the identity contract
LOSSY_PLAN = FaultPlan.uniform(drop=0.1, duplicate=0.05, reorder=0.1,
                               seed=11)


@pytest.fixture
def two_workers(monkeypatch):
    """Force a 2-worker pool so cross-rank ownership is exercised even
    on single-core runners (explicit counts are honored as-is)."""
    monkeypatch.setenv("REPRO_WORKERS", "2")


def _assert_identical(m_a, h_a, m_b, h_b):
    """The full flat-plane identity bar: histories, solution, stats."""
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
@needs_shm
def test_seed_ds_digest_shm_path(two_workers):
    with use_runtime("shm"):
        assert _ds_history_digest() == SEED_DS_DIGEST


# ----------------------------------------------------------------------
# cross-plane identity: object vs flat vs shm
# ----------------------------------------------------------------------
@needs_shm
@pytest.mark.parametrize("cls", _METHODS)
def test_shm_plane_identical_to_flat(cls, two_workers):
    m_f, h_f = _run(cls, "flat")
    m_s, h_s = _run(cls, "shm")
    assert m_s._use_flat and m_s.degraded_reason is None
    _assert_identical(m_f, h_f, m_s, h_s)


@needs_shm
@pytest.mark.parametrize("cls", _METHODS)
def test_shm_plane_identical_to_object(cls, two_workers):
    m_o, h_o = _run(cls, "object")
    m_s, h_s = _run(cls, "shm")
    assert not m_o._use_flat
    _assert_identical(m_o, h_o, m_s, h_s)


@needs_shm
@pytest.mark.parametrize("cls", _METHODS)
def test_shm_plane_identical_under_lossy_faults(cls, two_workers):
    m_f, h_f = _run(cls, "flat", faults=LOSSY_PLAN)
    m_s, h_s = _run(cls, "shm", faults=LOSSY_PLAN)
    assert m_s.degraded_reason is None
    _assert_identical(m_f, h_f, m_s, h_s)


@needs_shm
def test_solution_readable_after_shm_teardown(two_workers):
    """Post-run reads go through re-homed views; the run's teardown must
    move the state back off the released segment (regression: reading
    ``solution()`` after ``run()`` once hit unmapped pages)."""
    m, h = _run(DistributedSouthwell, "shm")
    x = m.solution()
    assert np.isfinite(x).all()
    assert np.isfinite(m.norms).all()
    m2, _ = _run(DistributedSouthwell, "flat")
    np.testing.assert_array_equal(x, m2.solution())


# ----------------------------------------------------------------------
# graceful degradation: both branches
# ----------------------------------------------------------------------
def _force_unavailable(monkeypatch):
    import repro.runtime.shmplane as shmplane

    def boom(*args, **kwargs):
        raise ShmUnavailable("forced by test")

    monkeypatch.setattr(shmplane, "ShmExecutionPlane", boom)


def test_shm_unavailable_degrades_to_flat(monkeypatch, two_workers):
    _force_unavailable(monkeypatch)
    m_s, h_s = _run(DistributedSouthwell, "shm")
    assert m_s.degraded_reason == "shm-unavailable"
    assert m_s._shm is None and m_s._use_flat
    m_f, h_f = _run(DistributedSouthwell, "flat")
    _assert_identical(m_f, h_f, m_s, h_s)


def test_api_reports_shm_degradation(monkeypatch):
    _force_unavailable(monkeypatch)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    res = solve(A, n_parts=4, max_steps=5, runtime="shm", seed=0)
    assert res.degraded_reason == "shm-unavailable"
    assert not res.degraded          # results are still exact
    flat = solve(A, n_parts=4, max_steps=5, runtime="flat", seed=0)
    assert flat.degraded_reason is None
    assert res.history.residual_norms == flat.history.residual_norms


@needs_shm
def test_api_shm_run_not_degraded(two_workers):
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    res = solve(A, n_parts=4, max_steps=5, runtime="shm", seed=0)
    assert res.degraded_reason is None and not res.degraded
    flat = solve(A, n_parts=4, max_steps=5, runtime="flat", seed=0)
    assert res.history.residual_norms == flat.history.residual_norms


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
    # header-row and ghost-scatter plans (the PR 7 extension): the Γ/Γ̃
    # slab indices and the z-span bounds follow the plane dtype too
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
# knobs
# ----------------------------------------------------------------------
def test_shm_in_valid_runtime_modes():
    assert "shm" in _config.VALID_RUNTIME_MODES
    assert _config.runtime("shm") == "shm"


def test_shm_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    import os
    assert _config.shm_workers() == max(1, os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert _config.shm_workers() == 2          # env honored as-is
    assert _config.shm_workers(3) == 3         # explicit beats env
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert _config.shm_workers() >= 1          # serial sweep != no ranks


def test_describe_mentions_shm():
    assert "shm" in _config.describe()


# ----------------------------------------------------------------------
# pool / arena mechanics
# ----------------------------------------------------------------------
def test_rank_bounds_partition_all_ranks():
    sizes = np.array([5, 1, 1, 1, 8, 2, 2, 4])
    for w in (1, 2, 3, 8, 20):
        bounds = rank_bounds(sizes, w)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(sizes)
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and a <= b and c <= d
        total = sum(hi - lo for lo, hi in bounds)
        assert total == len(sizes)


def test_rank_bounds_balances_rows():
    sizes = np.full(16, 10)
    bounds = rank_bounds(sizes, 4)
    rows = [int(sizes[lo:hi].sum()) for lo, hi in bounds]
    assert max(rows) - min(rows) <= 10


def test_shm_available_is_bool_and_stable():
    a, b = shm_available(), shm_available()
    assert isinstance(a, bool) and a == b


@needs_shm
def test_arena_overflow_raises_shm_unavailable():
    from repro.runtime.shmplane import ShmArena
    arena = ShmArena(256)
    arena.take(16, np.float64)
    with pytest.raises(ShmUnavailable):
        arena.take(10_000, np.float64)
    arena.release()


def test_private_arena_copies():
    from repro.runtime.shmplane import PRIVATE_ARENA
    src = np.arange(5, dtype=np.float64)
    out = PRIVATE_ARENA.move(src)
    assert np.array_equal(out, src) and out is not src
    z = PRIVATE_ARENA.take(4, np.int64)
    assert z.shape == (4,) and not z.any()

