"""Which SuperLU factors a block system builds, and when (DESIGN.md §5.8).

A system whose lockstep steps relax their winners as one batch factors
no block: every batched step of a one-sweep ``gs`` system solves through
one factor of the whole block diagonal, made at the first batch.  A
system of large blocks, and an async run, factor every rank.  These are
structural checks: they count
``splu`` calls, unfactored solvers and ``_bind_solve`` calls, never time
anything.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.block_base import BlockMethodBase
from repro.core.blockdata import _BATCH_ROWS, build_block_system
from repro.core.local_solvers import (GaussSeidelLocal, _keeps_diagonal,
                                      _splu_ld)
from repro.matrices.poisson import poisson_2d
from repro.matrices.random_spd import random_sparse_spd
from repro.partition import partition, partition_from_parts
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import CSRMatrix


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
    DistributedSouthwell(system).run(*_start(system.n), max_steps=5)
    assert len(splu_sizes) == 4 and system._diag_lu is None


@pytest.fixture
def bind_calls(monkeypatch):
    """The ranks every ``_bind_solve`` call binds, from here on."""
    calls, real = [], BlockMethodBase._bind_solve

    def counting(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(BlockMethodBase, "_bind_solve", counting)
    return calls


@pytest.mark.parametrize("method", [DistributedSouthwell, ParallelSouthwell,
                                    BlockJacobi])
def test_lockstep_run_factors_only_the_whole_diagonal(splu_sizes, bind_calls,
                                                      method):
    """A batching lockstep run makes one ``splu`` call, the whole block
    diagonal's, at its first step — also on steps with few winners —
    and never factors a block or binds a rank's solve."""
    A = poisson_2d(32)
    system = build_block_system(A, partition(A, 64, seed=0))
    m = method(system)
    batches = []
    relax = m._relax_ranks

    def recording(winners):
        batches.append(winners.tolist())
        relax(winners)

    m._relax_ranks = recording
    m.run(*_start(system.n), max_steps=40)
    assert splu_sizes == [system.n] and system._diag_lu is not None
    assert _factored(system) == set() and bind_calls == []
    # the run has narrow steps (winners covering fewer than _BATCH_ROWS
    # rows each) as well as wide ones, and neither factors a block
    narrow = [W for W in batches if len(W) * _BATCH_ROWS < system.n]
    if method is DistributedSouthwell:
        assert narrow and len(narrow) < len(batches)


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
    assert loaded._diag_lu is None
    assert _ds_run(loaded) == _ds_run(system)
    # each system made its one whole-diagonal factor, and no block's
    assert splu_sizes == [system.n, system.n]
    assert _factored(loaded) == _factored(system) == set()


# ----------------------------------------------------------------------
# the identity every batched lockstep step relies on: the whole block
# diagonal's one solve is every block's own sweep, row for row
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["poisson", "spd"]), size=st.integers(2, 12),
       n_loose=st.integers(0, 3), seed=st.integers(0, 10_000),
       data=st.data())
def test_whole_diagonal_solve_is_every_blocks_sweep(kind, size, n_loose,
                                                    seed, data):
    """Rows ``rows_slice(p)`` of ``block_diag_solve()(r)`` equal block
    ``p``'s own :class:`GaussSeidelLocal` sweep of ``r[rows_slice(p)]``,
    byte for byte, whatever the other rows of ``r`` hold.  Partitions
    are random labels (one-row blocks included); ``n_loose`` uncoupled
    rows appended to the matrix form blocks without couplings."""
    rng = np.random.default_rng(seed)
    if kind == "poisson":
        core = poisson_2d(size).to_scipy()
    else:
        core = random_sparse_spd(4 * size, density=0.08, seed=seed,
                                 shift=0.3).to_scipy()
    m = core.shape[0]
    A = CSRMatrix.from_scipy(sp.block_diag(
        [core, sp.diags(rng.uniform(1.0, 4.0, n_loose))], format="csr"))
    n_core = data.draw(st.integers(1, m), label="core parts")
    labels = rng.integers(0, n_core, m)
    labels[rng.permutation(m)[:n_core]] = np.arange(n_core)  # none empty
    # the loose rows: one block of them all, or one-row blocks each
    loose = (np.full(n_loose, n_core) if data.draw(st.booleans())
             else n_core + np.arange(n_loose))
    parts = np.r_[labels, loose]
    P = int(parts.max()) + 1
    system = build_block_system(A, partition_from_parts(A, parts, P))
    whole = system.block_diag_solve()
    r = rng.standard_normal(system.n)
    r[rng.random(system.n) < 0.2] = 0.0
    dx = whole(r)
    p = data.draw(st.integers(0, P - 1), label="probed block")
    other = rng.standard_normal(system.n) * 1e3     # other rows' values
    other[system.rows_slice(p)] = r[system.rows_slice(p)]
    dx_other = whole(other)
    for q in range(P):
        sl = system.rows_slice(q)
        own = GaussSeidelLocal(system.diag_blocks[q]).apply(r[sl])
        assert dx[sl].tobytes() == own.tobytes()
        if q == p:
            assert dx_other[sl].tobytes() == own.tobytes()
    if n_loose:
        assert any(system.fanout[q] is None for q in range(n_core, P))


# ----------------------------------------------------------------------
# the panel rule of every L+D factor: a triangle that keeps its diagonal
# under threshold pivoting factors without the panel workspace
# ----------------------------------------------------------------------
def _lower_operand(rng, n, density, dominant, ties):
    """A random CSC lower triangle.  ``dominant``: every diagonal is at
    least the magnitude of each entry below it (exactly equal to the
    column's largest when ``ties``); else one column has a larger entry
    below its diagonal."""
    L = np.tril(rng.standard_normal((n, n)), -1)
    L[rng.random((n, n)) >= density] = 0.0
    big = np.abs(L).max(axis=0)
    diag = big + (0.0 if ties else rng.uniform(0.01, 2.0, n))
    diag[diag == 0.0] = rng.uniform(0.5, 2.0)
    if not dominant:
        j = int(rng.integers(0, n - 1))
        i = int(rng.integers(j + 1, n))
        L[i, j] = diag[j] * rng.uniform(1.01, 8.0) * rng.choice([-1, 1])
    L[np.arange(n), np.arange(n)] = diag * rng.choice([-1, 1], n)
    return sp.csc_matrix(L)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), density=st.floats(0.0, 0.6),
       dominant=st.booleans(), ties=st.booleans(),
       seed=st.integers(0, 2**16))
def test_the_panel_rule_changes_no_solve_bit(n, density, dominant, ties,
                                             seed):
    """An operand whose columns keep their diagonal factors with
    ``panel_size=1``, any other with SuperLU's default panel, and both
    solve byte for byte as a default-panel factor of the operand (the
    factor every operand took before the rule)."""
    rng = np.random.default_rng(seed)
    ld = _lower_operand(rng, n, density, dominant, ties)
    panels, real = [], spla.splu

    def recording(A, *args, **kwargs):
        panels.append(kwargs.get("panel_size"))
        return real(A, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "splu", recording)
        lu = _splu_ld(ld)
    assert panels == [1 if dominant else None]
    ref = real(ld, permc_spec="NATURAL", options={"SymmetricMode": False})
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        assert lu.solve(b).tobytes() == ref.solve(b).tobytes()


def test_the_panel_rule_rejects_an_upper_entry_and_nan():
    ld = sp.csc_matrix(np.array([[2.0, 0.5], [0.0, 2.0]]))
    assert not _keeps_diagonal(ld)
    ld = sp.csc_matrix(np.array([[np.nan, 0.0], [0.5, 2.0]]))
    assert not _keeps_diagonal(ld)
    ld = sp.csc_matrix(np.array([[1.0, 0.0], [-1.0, 2.0]]))
    assert _keeps_diagonal(ld)


def test_suite_operands_factor_without_the_panel_workspace(monkeypatch,
                                                          fem_300):
    """The bench's problems keep every diagonal: the whole-diagonal
    factor of a lockstep run and an async ``prepare()``'s per-rank
    factors all take ``panel_size=1``."""
    panels, real = [], spla.splu

    def recording(A, *args, **kwargs):
        panels.append(kwargs.get("panel_size"))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    for A, P in ((poisson_2d(32), 64), (fem_300, 16)):
        system = build_block_system(A, partition(A, P, seed=0))
        DistributedSouthwell(system).run(*_start(system.n), max_steps=3)
        ex = AsyncExecutor(DistributedSouthwell(system))
        ex.prepare(*_start(system.n))
    assert panels == [1] * (1 + 64 + 1 + 16)
