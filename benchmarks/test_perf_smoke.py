"""Performance smoke tests: the hot paths' structural and speed floors.

These benches guard acceptance bars rather than paper figures:

1. a Distributed Southwell parallel step allocates no per-neighbor
   temporaries — the relax/apply hot path runs entirely through the
   preallocated workspaces (verified by array identity, not timing);
2. the flat-buffer plane beats the object plane, tracing is free when
   off, and a null fault plan compiles to no machinery at all;
3. the partitioner's list kernels beat the seed loops and the setup cache
   pays for itself;
4. the legacy ``scripts/bench_*.py --smoke`` runs write their schemas.

Timing assertions are best-of-N on a dedicated operator, so they are
robust to scheduler noise; they still assume the box is not fully
oversubscribed, which is why they live in ``benchmarks/`` (excluded from
the tier-1 ``tests/`` run) alongside the other perf-sensitive suites.
The kernels' own timings are the ``sparsela.*`` probes of ``bench/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import DistributedSouthwell
from repro.core.blockdata import build_block_system
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import use_runtime
from repro.sparsela import symmetric_unit_diagonal_scale

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# 1. DS step is allocation-free on the per-neighbor path
# ----------------------------------------------------------------------
def _ds_on_poisson(side=24, n_parts=8, delay_probability=0.0):
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, n_parts, seed=0)
    system = build_block_system(A, part)
    ds = DistributedSouthwell(system, delay_probability=delay_probability,
                              seed=0)
    rng = np.random.default_rng(2)
    ds.setup(rng.uniform(-1, 1, A.n_rows), np.zeros(A.n_rows))
    return ds


def test_relax_reuses_preallocated_delta_buffers():
    """With synchronous epochs every outgoing delta IS the workspace
    buffer — the same array object on every relax — so a parallel step
    performs no per-neighbor allocation."""
    ds = _ds_on_poisson()
    for p in range(ds.system.n_parts):
        if ds.system.neighbors_of(p).size == 0:
            continue
        first = {q: buf for q, buf in ds.relax(p).items()}
        again = ds.relax(p)
        for q, buf in again.items():
            assert buf is first[q], "delta buffer was reallocated"
            assert buf is ds._ws_delta[(p, int(q))]
        break
    else:  # pragma: no cover
        pytest.fail("no process with neighbors in the partition")


def test_relax_allocates_fresh_buffers_under_delay_injection():
    """With staleness injection a message can outlive the producing step,
    so deltas must own their storage: fresh arrays every relax."""
    ds = _ds_on_poisson(delay_probability=0.5)
    for p in range(ds.system.n_parts):
        if ds.system.neighbors_of(p).size == 0:
            continue
        first = {q: buf for q, buf in ds.relax(p).items()}
        again = ds.relax(p)
        for q, buf in again.items():
            assert buf is not first[q]
            assert buf is not ds._ws_delta[(p, int(q))]
        break


def test_ds_step_residual_exact_with_buffer_reuse():
    """Buffer reuse must not leak stale values into the bookkeeping: the
    end-of-step invariant r_p == (b - A x)_p still holds exactly."""
    ds = _ds_on_poisson(side=20, n_parts=6)
    A = symmetric_unit_diagonal_scale(poisson_2d(20)).matrix
    for _ in range(5):
        ds.step()
    r_true = np.zeros(A.n_rows) - A.matvec(ds.solution())
    np.testing.assert_allclose(ds.residual_vector(), r_true, atol=1e-10)


# ----------------------------------------------------------------------
# 2. the flat-buffer message plane beats the object plane at scale
# ----------------------------------------------------------------------
def test_flat_plane_beats_object_plane_ds_p256():
    """The PR-2 acceptance bar (DESIGN.md §5.8): a Distributed Southwell
    parallel step at P=256 must be faster on the flat-buffer plane than
    on the object plane — on *identical* trajectories and identical
    message/byte accounting, verified here alongside the timing.  The
    full measurement (≥3× at P=256, all three methods, both planes)
    lives in ``scripts/bench_runtime.py`` → ``BENCH_runtime.json``; this
    smoke asserts a noise-robust 1.5× so an accidental pessimisation of
    either plane fails CI without flaking on a loaded box.
    """
    side = 96
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, 256, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    steps, repeats = 5, 3

    def measure(mode):
        best = np.inf
        with use_runtime(mode):
            for _ in range(repeats):
                ds = DistributedSouthwell(system)
                ds.setup(x0, b)
                t0 = time.perf_counter()
                for _ in range(steps):
                    ds.step()
                best = min(best, time.perf_counter() - t0)
        return best / steps, ds

    t_obj, ds_obj = measure("object")
    t_flat, ds_flat = measure("flat")
    assert not ds_obj._use_flat and ds_flat._use_flat
    np.testing.assert_array_equal(ds_obj.norms, ds_flat.norms)
    so, sf = ds_obj.engine.stats, ds_flat.engine.stats
    assert so.total_messages == sf.total_messages
    assert so.total_bytes == sf.total_bytes
    ratio = t_obj / t_flat
    assert ratio >= 1.5, (
        f"flat plane only {ratio:.2f}x object plane "
        f"({t_flat * 1e3:.3f} ms vs {t_obj * 1e3:.3f} ms per step)")


# ----------------------------------------------------------------------
# 3. tracing is free when off (the PR-3 overhead policy, DESIGN.md §5.9)
# ----------------------------------------------------------------------
def test_null_tracer_overhead_under_5pct_ds_p256():
    """The observability acceptance bar: with tracing off (the default
    ``NULL_TRACER``), the per-step cost of the hook sites on the P=256
    flat-plane Distributed Southwell hot path is ≤5%.  Measured against
    a tracer that *is* enabled but records nothing, so the comparison
    isolates the ``tracer.enabled`` gating from the cost of actually
    buffering events (which traced runs knowingly pay)."""
    from repro.trace import NULL_TRACER, Tracer

    class EnabledNoop(Tracer):
        """Forces every hook site through its tracing branch."""

        enabled = True

        def relax(self, p):
            pass

        def ghosts(self, p, neighbors):
            pass

        def repairs(self, srcs, dsts):
            pass

        def sends_flat(self, plane, sids, category):
            pass

        def recvs_flat(self, plane, dst, sids):
            pass

    side = 96
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, 256, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    steps, repeats = 5, 5

    def measure(tracer):
        best = np.inf
        with use_runtime("flat"):
            for _ in range(repeats):
                ds = DistributedSouthwell(system, tracer=tracer)
                ds.setup(x0, b)
                t0 = time.perf_counter()
                for _ in range(steps):
                    ds.step()
                best = min(best, time.perf_counter() - t0)
        return best / steps, ds

    t_hooks, ds_hooks = measure(EnabledNoop())
    t_off, ds_off = measure(NULL_TRACER)
    np.testing.assert_array_equal(ds_off.norms, ds_hooks.norms)
    overhead = t_off / t_hooks
    # t_off must not be meaningfully slower than the enabled-hooks run;
    # the gated-off path should in fact be the faster of the two.
    assert overhead <= 1.05, (
        f"NullTracer path {overhead:.3f}x the enabled-hook path "
        f"({t_off * 1e3:.3f} ms vs {t_hooks * 1e3:.3f} ms per step)")


def test_bench_runtime_smoke_writes_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_runtime.py"),
         "--smoke", "--quiet", "--output", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.bench_runtime/v1"
    assert doc["smoke"] is True
    assert doc["summary"]["pairs_identical"] is True
    planes = {(r["method"], r["runtime"]) for r in doc["results"]}
    for m in ("block-jacobi", "parallel-southwell",
              "distributed-southwell"):
        assert (m, "object") in planes and (m, "flat") in planes


# ----------------------------------------------------------------------
# 4. the vectorized partitioner beats the seed kernels (PR-4 bar)
# ----------------------------------------------------------------------
def test_partition_fast_at_least_2x_reference(monkeypatch):
    """The setup-plane acceptance bar (DESIGN.md §5.10): the list-based
    matching/refinement kernels must beat the seed loops
    (``tests/oracles.py``, patched in for the second timing) on a
    multilevel partition, with bit-identical output.  The
    partitioner's absolute cost is ``partition.partition_s`` of the
    repo's benchmark (``bench/``); this smoke asserts noise-robust floors
    against the seed loops — 2× total, 3× coarsening — so a
    pessimisation fails CI without flaking on a loaded box.  It compares
    kernels, so it runs the serial path: a forked subtree's coarsening
    would escape the parent-side timer."""
    import repro.partition.bisect as _bisect
    import repro.partition.coarsen as _coarsen
    import repro.partition.multilevel as _ml

    from tests import oracles

    monkeypatch.setattr(_ml, "_fork_width", lambda: 1)
    A = poisson_2d(64)

    def measure():
        t0 = time.perf_counter()
        part = partition(A, 32, method="multilevel", seed=0)
        return time.perf_counter() - t0, part

    def measure_coarsen():
        elapsed = [0.0]
        orig = _ml.coarsen_graph

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return orig(*a, **kw)
            finally:
                elapsed[0] += time.perf_counter() - t0

        _ml.coarsen_graph = timed
        try:
            partition(A, 32, method="multilevel", seed=0)
        finally:
            _ml.coarsen_graph = orig
        return elapsed[0]

    t_fast, best_c_fast = np.inf, np.inf
    t_ref, best_c_ref = np.inf, np.inf
    for _ in range(3):
        dt, part_fast = measure()
        t_fast = min(t_fast, dt)
        best_c_fast = min(best_c_fast, measure_coarsen())
    monkeypatch.setattr(_coarsen, "hem_match_fast", oracles.hem_match)
    monkeypatch.setattr(_bisect, "fm_refine_fast", oracles.fm_refine)
    for _ in range(3):
        dt, part_ref = measure()
        t_ref = min(t_ref, dt)
        best_c_ref = min(best_c_ref, measure_coarsen())

    np.testing.assert_array_equal(part_fast.parts, part_ref.parts)
    ratio = t_ref / t_fast
    assert ratio >= 2.0, (
        f"fast partition only {ratio:.2f}x reference "
        f"({t_fast * 1e3:.1f} ms vs {t_ref * 1e3:.1f} ms)")
    c_ratio = best_c_ref / best_c_fast
    assert c_ratio >= 3.0, (
        f"fast coarsening only {c_ratio:.2f}x reference "
        f"({best_c_fast * 1e3:.1f} ms vs {best_c_ref * 1e3:.1f} ms)")


# ----------------------------------------------------------------------
# 5. the persistent setup cache pays for itself (PR-4 bar)
# ----------------------------------------------------------------------
def test_setup_cache_warm_at_least_10x_cold(tmp_path):
    """A warm ``get_setup`` (map the stores, cut the views, re-factorize
    the local solvers) must be ≥10× faster than a cold one (partition +
    block build + store).  Best-of-3 on both sides; the measured ratio
    on this configuration is ~16× (re-measured with the whole-array
    block build, which sped up both sides: cold 217 → 183 ms, warm
    24 → 11 ms), so the bar has headroom without being loose enough to
    hide a regression to eager recompute.  The forked partition
    (DESIGN.md §5.10) speeds up only the cold side: on a 2-core VM
    cold 184–204 → 136–195 ms, warm 10–12 ms either way, ratio 17–19×
    → 12–15×, so the floor still holds.  On a 1-core box
    the warm path's small fixed cost is inflated by whatever else the
    core is running (observed ~8-9× under load), so the floor degrades
    there instead of flaking."""
    import os

    from repro.setupcache import get_setup, setup_key

    A = symmetric_unit_diagonal_scale(poisson_2d(80)).matrix
    key = setup_key(A, 64)
    colds, warms = [], []
    for _ in range(3):
        (tmp_path / f"{key}.pkl").unlink(missing_ok=True)
        t0 = time.perf_counter()
        get_setup(A, 64, cache_dir=tmp_path)
        colds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        get_setup(A, 64, cache_dir=tmp_path)
        warms.append(time.perf_counter() - t0)
    floor = 10.0 if (os.cpu_count() or 1) >= 2 else 6.0
    ratio = min(colds) / min(warms)
    assert ratio >= floor, (
        f"warm setup only {ratio:.2f}x cold (floor {floor:.0f}x, "
        f"{min(warms) * 1e3:.1f} ms vs {min(colds) * 1e3:.1f} ms)")


def test_warm_run_method_skips_partition_and_block_build(tmp_path,
                                                         monkeypatch):
    """The end-to-end claim behind the knob: with ``REPRO_SETUP_CACHE``
    set, a warm ``run_method`` performs *no* partitioning and *no* block
    assembly — verified structurally (the stage entry points are never
    entered), not by timing."""
    from repro import setupcache
    from repro.experiments.runners import clear_run_caches, run_method

    monkeypatch.setenv("REPRO_SETUP_CACHE", str(tmp_path))
    clear_run_caches()
    r1 = run_method("af_5_k101", "distributed-southwell", 8,
                    size_scale=0.05, max_steps=5)
    clear_run_caches()

    def boom(*a, **kw):  # pragma: no cover - only on regression
        raise AssertionError("setup stage ran despite a warm cache")

    monkeypatch.setattr(setupcache, "partition", boom)
    monkeypatch.setattr(setupcache, "build_block_system", boom)
    r2 = run_method("af_5_k101", "distributed-southwell", 8,
                    size_scale=0.05, max_steps=5)
    np.testing.assert_array_equal(r1.x, r2.x)
    clear_run_caches()


# ----------------------------------------------------------------------
# 6. the fault plane is free when disabled (PR-5 bar, DESIGN.md §5.11)
# ----------------------------------------------------------------------
def test_null_fault_plan_compiles_to_nothing_ds_p256():
    """The resilience acceptance bar: attaching a *null*
    :class:`~repro.faults.FaultPlan` (every rate zero, no schedules) to
    the P=256 flat-plane Distributed Southwell hot path leaves no fault
    machinery behind — ``setup()`` maps the plan to ``None``, so no hook
    site ever sees it — and the trajectory, message counts and bytes
    stay bit-identical to no plan at all.  (Timing the two paths against
    each other measured only noise: they run the same code.)"""
    from repro.faults import FaultPlan

    side = 96
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, 256, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)

    def run(plan):
        with use_runtime("flat"):
            ds = DistributedSouthwell(system, faults=plan)
            ds.setup(x0, b)
            assert ds._use_flat
            assert ds._faults is None and ds._active_plan is None
            assert ds.engine.windows.faults is None
            for _ in range(5):
                ds.step()
        return ds

    ds_off, ds_null = run(None), run(FaultPlan(seed=11))
    np.testing.assert_array_equal(ds_off.norms, ds_null.norms)
    so, sn = ds_off.engine.stats, ds_null.engine.stats
    assert so.total_messages == sn.total_messages
    assert so.total_bytes == sn.total_bytes


def test_bench_faults_smoke_writes_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_faults.py"),
         "--smoke", "--quiet", "--output", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.bench_faults/v1"
    assert doc["smoke"] is True
    assert doc["summary"]["null_identical_to_off"] is True
    plans = {r["plan"] for r in doc["results"]}
    assert plans == {"off", "null", "drop"}
    by = {r["plan"]: r for r in doc["results"]}
    assert by["drop"]["injected"]["drop:solve"] > 0
    assert by["null"]["history_digest"] == by["off"]["history_digest"]


# ----------------------------------------------------------------------
# 7. communication-aware multigrid: messages per digit (§5.16)
# ----------------------------------------------------------------------
def test_bench_mg_smoke_writes_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_mg.py"),
         "--smoke", "--quiet", "--output", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.bench_mg/v1"
    assert doc["smoke"] is True
    assert doc["summary"]["ds_fewer_msgs_per_digit_than_ps"] is True
    assert doc["summary"]["sparsify_msgs_monotone"] is True
    assert doc["summary"]["sparsify_saves_msgs"] is True
    assert doc["summary"]["grid_independent"] is True
    assert doc["summary"]["deterministic"] is True
    names = {r["smoother"] for r in doc["smoothers"]}
    assert names == {"ds", "ps", "bj", "gs"}
    for rec in doc["smoothers"]:
        assert rec["rel_resid"] < 1e-5          # every smoother converges
        if rec["smoother"] in ("ds", "ps", "bj"):
            assert rec["msgs"] > 0
            assert sum(lvl["msgs"] for lvl in rec["levels"]) == rec["msgs"]
    tols = [r["drop_tol"] for r in doc["sparsification"]]
    assert tols == sorted(tols)
