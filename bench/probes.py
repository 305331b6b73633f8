"""Side probes: code no workload runs, timed once per traced run.

An optimisation's end-to-end prediction is often "no change on these
workloads"; the probes are where the change *should* show instead — the
kernel-bound regime, the two sibling methods that share the DS base
class, the shm plane, the batched scheduler, the lossy paths, the set-up
cache.  Each goes through ``repro.solve()`` with a prebuilt method
instance, so a probe's time includes ``runner.setup`` and result
assembly (stated with every ratio's base in bench/README.md).

All probes together cost about as much as two rounds; they run after
the timed rounds so they cannot disturb them.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.blockdata import build_block_system
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.core.parallel_southwell_block import ParallelSouthwell
from repro.matrices import poisson_2d
from repro.partition import partition
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela.kernels import gauss_seidel_sweep

from harness import timed_segment
from workloads import sha, unit_residual_start

#: the shared small case: poisson_2d(48) at P=64 is 36 rows/block, the
#: lockstep workload's regime at a size a probe can afford
_SIDE, _PARTS, _STEPS = 48, 64, 40
_SMOKE = (24, 16, 10)

#: the kernel-bound case: 4096 rows/block
_BIG_SIDE, _BIG_PARTS, _BIG_STEPS = 256, 16, 6
_BIG_SMOKE = (64, 4, 3)

#: poll-dominated async configuration (400 us links, 0.25 us polls) —
#: the regime the batched scheduler was written for
_POLL = dict(latency=400e-6, poll_interval=0.25e-6, record_every=1024)

_DROP = 0.02
_COMMON_RESIDUAL = 0.3          # ||r|| / ||r0|| where PS and DS are compared


def _timed(fn):
    with timed_segment():
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out


def run_probes(seed: int, smoke: bool, scratch: Path) -> dict:
    """Every side-probe metric.  ``scratch`` is a directory inside the
    checkout for the set-up cache probe's temporary ``cache_dir``."""
    out: dict[str, float] = {}
    side, parts, steps = _SMOKE if smoke else (_SIDE, _PARTS, _STEPS)

    # ---- sparsela kernels + the kernel-bound block step ---------------
    bside, bparts, bsteps = (_BIG_SMOKE if smoke
                             else (_BIG_SIDE, _BIG_PARTS, _BIG_STEPS))
    big = poisson_2d(bside)
    xb, bb = unit_residual_start(big, np.random.default_rng(seed))
    reps = 10
    dt, _ = _timed(lambda: [big.matvec(xb) for _ in range(reps)])
    out["sparsela.matvec_ms"] = dt / reps * 1e3
    # bytes a CSR matvec must move: values + column indices + row
    # pointers read once, x gathered per entry, y written once
    out["sparsela.matvec_bytes_computed"] = float(
        big.data.nbytes + big.indices.nbytes + big.indptr.nbytes
        + 8 * big.nnz + 8 * big.n_rows)
    gauss_seidel_sweep(big, xb, bb)         # builds the cached L+D factor
    dt, _ = _timed(lambda: [gauss_seidel_sweep(big, xb, bb)
                            for _ in range(3)])
    out["sparsela.gs_sweep_ms"] = dt / 3 * 1e3
    bsys = build_block_system(big, partition(
        big, bparts, method="grid", grid_shape=(bside, bside)))
    dt, _ = _timed(lambda: repro.solve(
        big, bb, method=DistributedSouthwell(bsys, seed=seed), x0=xb,
        config=repro.RunConfig(max_steps=bsteps, runtime="flat")))
    out["sparsela.bigblock_step_ms"] = dt / bsteps * 1e3

    # ---- the shared small case ----------------------------------------
    A = poisson_2d(side)
    x0, b = unit_residual_start(A, np.random.default_rng(seed))
    system = build_block_system(A, partition(A, parts, seed=seed))

    def solve(method, **cfg):
        return repro.solve(A, b, method=method, x0=x0,
                           config=repro.RunConfig(**cfg))

    lock = dict(max_steps=steps, runtime="flat")
    t_ds, ds = _timed(lambda: solve(DistributedSouthwell(system, seed=seed),
                                    **lock))
    t_ps, ps = _timed(lambda: solve(ParallelSouthwell(system, seed=seed),
                                    **lock))
    t_bj, _ = _timed(lambda: solve(BlockJacobi(system, seed=seed), **lock))
    out["core.ps_step_ms"] = t_ps / steps * 1e3
    out["core.bj_step_ms"] = t_bj / steps * 1e3
    ds_msgs = ds.history.cost_to_reach(_COMMON_RESIDUAL, axis="comm_costs")
    ps_msgs = ps.history.cost_to_reach(_COMMON_RESIDUAL, axis="comm_costs")
    if ds_msgs is None or ps_msgs is None:
        raise RuntimeError(
            f"probe: PS or DS never reached ||r|| = {_COMMON_RESIDUAL} "
            f"in {steps} steps")
    out["core.ps_over_ds_msgs"] = ps_msgs / ds_msgs
    if not smoke and not out["core.ps_over_ds_msgs"] > 1.0:
        # the paper's headline: DS reaches PS's accuracy with fewer
        # messages (tiny smoke problems need not show it)
        raise RuntimeError("probe: DS used as many messages as PS to "
                           f"reach ||r|| = {_COMMON_RESIDUAL}")

    # ---- shm plane: two forked workers, same bits as flat --------------
    # (REPRO_WORKERS is the plane's only worker-count knob; it is set for
    # this one call so the probe means the same on any core count)
    os.environ["REPRO_WORKERS"] = "2"
    try:
        t_shm, shm = _timed(lambda: solve(
            DistributedSouthwell(system, seed=seed), max_steps=steps,
            runtime="shm"))
    finally:
        del os.environ["REPRO_WORKERS"]
    if shm.degraded_reason is not None:
        # no /dev/shm or no fork here: nothing to time, and not a failure
        out["runtime.shmplane.step_ms"] = 0.0
        out["runtime.shmplane.over_flat"] = 0.0
    else:
        if sha(shm.x) != sha(ds.x):
            raise RuntimeError("probe: shm plane result differs from flat")
        out["runtime.shmplane.step_ms"] = t_shm / steps * 1e3
        out["runtime.shmplane.over_flat"] = t_shm / t_ds

    # ---- batched scheduler on the poll-dominated configuration ---------
    turns = steps * parts * 8
    runs = {}
    for sched in ("scalar", "batched"):
        acfg = repro.AsyncConfig(max_turns=turns, scheduler=sched, **_POLL)
        runs[sched] = _timed(lambda: solve(
            DistributedSouthwell(system, seed=seed), runtime="async",
            async_config=acfg))
    (t_sc, r_sc), (t_ba, r_ba) = runs["scalar"], runs["batched"]
    if (sha(r_sc.x) != sha(r_ba.x)
            or r_sc.virtual_time != r_ba.virtual_time):
        raise RuntimeError("probe: batched scheduler is not bit-identical "
                           "to the scalar oracle")
    out["core.async_exec.batched_run_s"] = t_ba
    out["core.async_exec.batched_over_scalar"] = t_ba / t_sc

    # ---- lossy paths under a seeded 2 % drop plan -----------------------
    plan = repro.FaultPlan.uniform(drop=_DROP, seed=11)
    t_ll, lossy = _timed(lambda: solve(
        DistributedSouthwell(system, seed=seed, faults=plan), **lock))
    out["faults.lockstep_lossy_step_ms"] = t_ll / steps * 1e3
    lossy_turns = steps * parts
    t_al, alossy = _timed(lambda: solve(
        DistributedSouthwell(system, seed=seed, faults=plan),
        runtime="async",
        async_config=repro.AsyncConfig(max_turns=lossy_turns)))
    out["faults.async_lossy_us_per_turn"] = \
        t_al / alossy.parallel_steps * 1e6
    injected = lossy.faults_injected or {}
    out["faults.drops"] = float(sum(v for k, v in injected.items()
                                    if k.startswith("drop")))
    out["faults.retries"] = float(injected.get("retry", 0))

    # ---- set-up cache with an explicit temporary directory -------------
    scratch.mkdir(parents=True, exist_ok=True)
    cache = Path(tempfile.mkdtemp(prefix="setupcache-", dir=scratch))
    try:
        # miss: partition + block build + store
        out["setupcache.store_s"], _ = _timed(
            lambda: get_setup(A, parts, seed=seed, cache_dir=cache))
        if not any(cache.iterdir()):
            raise RuntimeError("probe: set-up cache stored nothing")
        out["setupcache.warm_load_s"], _ = _timed(
            lambda: get_setup(A, parts, seed=seed, cache_dir=cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return out
