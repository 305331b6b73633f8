"""Which SuperLU factors a block system builds, and when (DESIGN.md §5.8).

A system whose lockstep steps relax their winners as one batch factors
a Gauss-Seidel block only at its rank's first solo relax, and the whole
block diagonal once, at the first batch wide enough to solve through it;
a system of large blocks, and an async run, factor every rank.  These
are structural checks: they count ``splu`` calls and unfactored solvers,
never time anything.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import _BATCH_ROWS, build_block_system
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import use_runtime
from repro.setupcache import get_setup


@pytest.fixture
def splu_sizes(monkeypatch):
    """The order of every ``splu`` factor made from here on."""
    sizes, real = [], spla.splu

    def counting(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return sizes


def _factored(system) -> set[int]:
    return {p for p, s in enumerate(system.local_solvers)
            if s._lu is not None}


def _block_sizes(system) -> list[int]:
    return sorted(np.diff(system.part.offsets).tolist())


def _start(n):
    rng = np.random.default_rng(3)
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)


def test_batched_build_factors_nothing(splu_sizes):
    A = poisson_2d(32)
    system = build_block_system(A, partition(A, 32, seed=0))
    assert system.n <= _BATCH_ROWS * system.n_parts
    assert splu_sizes == [] and _factored(system) == set()
    assert system._diag_lu is None


def test_large_blocks_factor_at_build(splu_sizes):
    """Above ``_BATCH_ROWS`` rows per block every rank relaxes on its
    own: all blocks factor at build, and a run adds no factor."""
    A = poisson_2d(32)
    system = build_block_system(A, partition(A, 4, seed=0))
    assert system.n > _BATCH_ROWS * system.n_parts
    assert sorted(splu_sizes) == _block_sizes(system)
    assert _factored(system) == set(range(4))
    with use_runtime("flat"):
        DistributedSouthwell(system).run(*_start(system.n), max_steps=5)
    assert len(splu_sizes) == 4 and system._diag_lu is None


@pytest.mark.parametrize("method", [DistributedSouthwell, ParallelSouthwell])
def test_lockstep_run_factors_solo_ranks_and_one_whole(splu_sizes, method):
    """Exactly the ranks that relaxed in a step below the crossover hold
    a factor, plus one whole-diagonal factor iff a step reached it."""
    A = poisson_2d(32)
    system = build_block_system(A, partition(A, 64, seed=0))
    with use_runtime("flat"):
        m = method(system)
        batches = []
        relax = m._relax_ranks

        def recording(winners):
            batches.append(winners.tolist())
            relax(winners)

        m._relax_ranks = recording
        m.run(*_start(system.n), max_steps=40)
    solo = {p for W in batches if len(W) * _BATCH_ROWS < system.n
            for p in W}
    whole = any(len(W) * _BATCH_ROWS >= system.n for W in batches)
    assert _factored(system) == solo
    assert (system._diag_lu is not None) == whole
    assert len(splu_sizes) == len(solo) + whole
    assert splu_sizes.count(system.n) == whole
    if method is DistributedSouthwell:
        # this run has steps on both sides, and leaves ranks unfactored
        assert whole and solo and len(solo) < system.n_parts


def test_async_prepare_factors_every_rank(splu_sizes):
    A = poisson_2d(32)
    system = build_block_system(A, partition(A, 32, seed=0))
    ex = AsyncExecutor(DistributedSouthwell(system))
    ex.prepare(*_start(system.n))
    assert _factored(system) == set(range(32))
    assert sorted(splu_sizes) == _block_sizes(system)
    ex.run(max_turns=500)
    assert len(splu_sizes) == 32 and system._diag_lu is None


def _ds_run(system) -> bytes:
    with use_runtime("flat"):
        ds = DistributedSouthwell(system)
        ds.run(*_start(system.n), max_steps=12)
    return ds.solution().tobytes() + ds.residual_vector().tobytes()


@pytest.mark.parametrize("load", ["pickle", "setup_cache"])
def test_a_loaded_system_factors_nothing_until_it_relaxes(
        splu_sizes, tmp_path, load):
    A = poisson_2d(32)
    if load == "pickle":
        system = build_block_system(A, partition(A, 32, seed=0))
        loaded = pickle.loads(pickle.dumps(system))
    else:
        _, system = get_setup(A, 32, cache_dir=tmp_path)
        _, loaded = get_setup(A, 32, cache_dir=tmp_path)
        assert loaded is not system
    assert splu_sizes == [] and _factored(loaded) == set()
    assert _ds_run(loaded) == _ds_run(system)
    assert _factored(loaded) == _factored(system) != set()
