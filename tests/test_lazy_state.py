"""Which state a run builds (DESIGN.md §5.1, §5.8).

The lockstep and async planes read a block system through a few
whole-array stores.  The system's per-edge dicts ``couplings`` /
``beta`` serve only tests, examples and the sequential adaptive
methods, so they are built the first time something reads them.  These
are structural checks — which attributes exist after a run — plus byte
identity against fresh runners; no timing or memory figure.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import _batched, build_block_system
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import use_runtime
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi

METHODS = [DistributedSouthwell, ParallelSouthwell, BlockJacobi]

def _system(n_parts=32):
    A = poisson_2d(32)
    return build_block_system(A, partition(A, n_parts, seed=0))


def _start(n):
    rng = np.random.default_rng(0)
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)


def _built(runner) -> set[str]:
    """The lazily built structures ``runner``, its system and its flat
    plane hold."""
    names = {"_sid_slabpos_list"} & vars(runner).keys()
    sysm = runner.system
    names |= {name for name, value in (("couplings", sysm._couplings),
                                       ("beta", sysm._beta))
              if value is not None}
    return names


def _bound(plans) -> set[int]:
    return {p for p, plan in enumerate(plans) if plan is not None}


def _run(runner, mode, steps=3) -> bytes:
    """A lockstep (``"flat"``) or event-driven (``"async"``) run."""
    if mode == "async":
        hist = AsyncExecutor(runner).run(*_start(runner.system.n),
                                         max_steps=steps)
    else:
        hist = runner.run(*_start(runner.system.n), max_steps=steps)
    return (runner.solution().tobytes() + runner.residual_vector().tobytes()
            + np.asarray(hist.residual_norms).tobytes())


@pytest.mark.parametrize("cls", METHODS)
def test_flat_run_builds_no_object_plane_state(cls):
    system = _system()
    assert _batched(system.n, system.n_parts)
    runner = cls(system)
    assert _built(runner) == set()
    _run(runner, "flat")
    assert _built(runner) == set()
    # solo-relax kernels bind per rank, together with its solve
    solved = _bound(runner._solver_call)
    assert _bound(runner._mv_diag) == solved
    assert _bound(runner._ws_mv) == solved
    assert _bound(runner._mv_fanout) <= solved
    assert len(solved) < system.n_parts


@pytest.mark.parametrize("cls", METHODS)
def test_plane_flips_reproduce_fresh_runners(cls):
    """One runner driven lockstep, then event-driven, then lockstep
    again matches a fresh runner of each kind byte for byte."""
    system = _system()
    fresh = {mode: _run(cls(system), mode) for mode in ("flat", "async")}
    runner = cls(system)
    for mode in ("flat", "async", "flat"):
        assert _run(runner, mode) == fresh[mode], mode
    if cls is DistributedSouthwell:
        layers = next(g for g in runner._ghost_views if g)
        assert all(np.shares_memory(z, runner._ghost_flat) for z in layers)


@pytest.mark.parametrize("load", ["pickle", "setup_cache"])
def test_a_loaded_system_builds_no_object_plane_state(tmp_path, load):
    A = poisson_2d(32)
    if load == "pickle":
        system = build_block_system(A, partition(A, 32, seed=0))
        loaded = pickle.loads(pickle.dumps(system))
    else:
        _, system = get_setup(A, 32, cache_dir=tmp_path)
        _, loaded = get_setup(A, 32, cache_dir=tmp_path)
        assert loaded is not system
    for sysm in (system, loaded):
        assert sysm._couplings is None and sysm._beta is None
    runs = []
    for sysm in (system, loaded):
        ds = DistributedSouthwell(sysm)
        runs.append(_run(ds, "flat", steps=8))
        assert _built(ds) == set()
    assert runs[0] == runs[1]


def test_async_prepare_binds_every_rank():
    system = _system()
    runner = DistributedSouthwell(system)
    ex = AsyncExecutor(runner)
    with use_runtime("async"):
        ex.prepare(*_start(system.n))
        every = set(range(system.n_parts))
        assert _bound(runner._solver_call) == _bound(runner._mv_diag) \
            == every
        assert _bound(runner._mv_fanout) == {
            p for p in every if system.neighbors_of(p).size}
        assert _built(runner) == {"_sid_slabpos_list"}
        ex.run(max_turns=300)
    assert _built(runner) == {"_sid_slabpos_list"}


def test_large_blocks_bind_every_rank_at_setup():
    system = _system(n_parts=4)
    assert not _batched(system.n, system.n_parts)
    runner = DistributedSouthwell(system)
    with use_runtime("flat"):
        runner.setup(*_start(system.n))
    assert _bound(runner._mv_diag) == set(range(4))
    assert _built(runner) == set()
