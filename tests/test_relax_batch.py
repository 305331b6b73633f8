"""Batched relax kernel ≡ per-rank relax, byte for byte (DESIGN.md §5.8).

``_relax_ranks(W)`` runs a whole step's relax phase as one kernel;
``_relax_one_flat(p)`` is the per-rank body the async event loop
still calls.  For any set of distinct ranks ``W`` the two must leave
identical x, r, norm, mailbox, ghost, Γ, flop and lossy stores, the same
relaxation count, and the same trace events in the same order — on both
sides of the crossover where the batch solves through one factor of the
whole block diagonal (``len(W) * _BATCH_ROWS >= n``) instead of per
block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import _BATCH_ROWS, build_block_system
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import use_runtime
from repro.solvers.block_jacobi import BlockJacobi
from repro.trace import RunTracer

from tests.test_block_properties import _random_setup

_METHODS = {
    "ds": DistributedSouthwell,
    "ps": ParallelSouthwell,
    "bj": lambda system, **kw: BlockJacobi(system, omega=0.7, **kw),
}


def _poisson_setup(side, n_parts, seed, solver=("gs", 1)):
    A = poisson_2d(side)
    system = build_block_system(A, partition(A, n_parts, seed=seed),
                                local_solver=solver[0], n_sweeps=solver[1])
    rng = np.random.default_rng(seed)
    return A, system, rng.uniform(-1, 1, A.n_rows), rng.uniform(-1, 1,
                                                               A.n_rows)


def _stores(m) -> list[np.ndarray]:
    out = [m._x_flat, m._r_flat, m.norms, m.engine.flat.vals_flat,
           m._flops, np.array([m.total_relaxations])]
    if isinstance(m, DistributedSouthwell):
        out += [m._ghost_flat, m._gamma_flat]
    if m._lossy:
        out += [m._cum_flat]
    return out


def _events(tracer, mark):
    # ghostv events carry numpy arrays: compare them as tuples
    return [tuple(e.tolist() if isinstance(e, np.ndarray) else e
                  for e in ev) for ev in tracer._events[mark:]]


def _pair(system, x0, b, method, lossy, warm_steps):
    """Two identical runners advanced ``warm_steps`` steps, so ghosts,
    Γ and the mailboxes hold mid-run state."""
    plan = FaultPlan.uniform(drop=0.2, seed=5) if lossy else None
    out = []
    with use_runtime("flat"):
        for _ in range(2):
            m = _METHODS[method](system, tracer=RunTracer(), faults=plan)
            m.setup(x0, b)
            # mailbox slots nobody has written yet are uninitialised
            # memory; zero them so the byte comparison sees only writes
            m.engine.flat.vals_flat.fill(0.0)
            for _ in range(warm_steps):
                m.step()
            assert m._use_flat and m._relax_plans()
            out.append(m)
    return out


def _check(system, x0, b, method, lossy, warm_steps, winners) -> int:
    """Compare the two relax forms on ``winners``; returns how many
    whole-diagonal solves the batch made."""
    batch, single = _pair(system, x0, b, method, lossy, warm_steps)
    marks = [len(m.tracer._events) for m in (batch, single)]
    whole = system.block_diag_solve()
    calls = []

    def counted():
        calls.append(whole)
        return whole

    if whole is not None:
        system.block_diag_solve = counted     # shadows the method
    try:
        batch._relax_ranks(winners)
    finally:
        vars(system).pop("block_diag_solve", None)
    for p in winners.tolist():
        single._relax_one_flat(p)
    for a, s in zip(_stores(batch), _stores(single)):
        assert a.tobytes() == s.tobytes()
    assert (_events(batch.tracer, marks[0])
            == _events(single.tracer, marks[1]))
    return len(calls)


def _takes_whole(system, winners) -> bool:
    return (winners.size > 0 and system.block_diag_solve() is not None
            and winners.size * _BATCH_ROWS >= system.n)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["poisson", "spd"]),
       size=st.integers(4, 40), n_parts=st.integers(1, 24),
       seed=st.integers(0, 10_000),
       # gs x 1, the only solver with a whole factor, drawn twice as often
       solver=st.sampled_from([("gs", 1), ("gs", 1), ("gs", 2),
                               ("direct", 1)]),
       method=st.sampled_from(sorted(_METHODS)), lossy=st.booleans(),
       warm_steps=st.integers(0, 3), data=st.data())
def test_relax_ranks_matches_per_rank(kind, size, n_parts, seed, solver,
                                      method, lossy, warm_steps, data):
    # up to 1 600 rows, with enough parts to batch: winner sets of any
    # size fall on either side of the whole-diagonal crossover
    n = size * size if kind == "poisson" else 5 * size
    n_parts = min(max(n_parts, -(-n // _BATCH_ROWS)), n)
    if kind == "poisson":
        _, system, x0, b = _poisson_setup(size, n_parts, seed, solver)
    else:
        _, system, x0, b = _random_setup(n, n_parts, seed)
    P = system.n_parts
    winners = np.array(sorted(data.draw(st.lists(
        st.integers(0, P - 1), unique=True, max_size=P))), dtype=np.int64)
    calls = _check(system, x0, b, method, lossy, warm_steps, winners)
    assert calls == _takes_whole(system, winners)


@pytest.mark.parametrize("method", sorted(_METHODS))
def test_relax_ranks_on_both_sides_of_the_crossover(method):
    """1 024 rows on 32 blocks: 7 winners solve per block, 8 and all 32
    through the whole block diagonal — both byte-equal per rank."""
    _, system, x0, b = _poisson_setup(32, 32, 1)
    assert system.n == 8 * _BATCH_ROWS
    rng = np.random.default_rng(4)
    for k, expect in ((7, 0), (8, 1), (32, 1), (1, 0)):
        winners = np.sort(rng.choice(system.n_parts, k, replace=False))
        assert _check(system, x0, b, method, False, 2, winners) == expect


@pytest.mark.parametrize("method", sorted(_METHODS))
def test_relax_ranks_one_rank(method):
    """``W = [p]``: the batch of one is the per-rank body."""
    _, system, x0, b = _poisson_setup(12, 9, 3)
    for p in range(system.n_parts):
        _check(system, x0, b, method, False, 2, np.array([p]))


def test_large_blocks_relax_per_rank():
    """Blocks above the batching size get no plans and relax per rank
    (same results by construction)."""
    A = poisson_2d(32)
    system = build_block_system(A, partition(A, 4, seed=0))
    with use_runtime("flat"):
        m = DistributedSouthwell(system)
        m.setup(np.ones(A.n_rows), np.zeros(A.n_rows))
    assert m._relax_csr is None         # built at first use only
    assert m._relax_plans() == []
