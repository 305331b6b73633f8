"""Batched relax kernel ≡ per-rank relax, byte for byte (DESIGN.md §5.8).

``_relax_ranks(W)`` runs a whole step's relax phase as one kernel;
``_relax_one_flat(p)`` is the per-rank body the async event loop
still calls.  For any set of distinct ranks ``W`` the two must leave
identical x, r, norm, mailbox, ghost, Γ, flop and lossy stores, the same
relaxation count, and the same trace events in the same order.  A
one-sweep ``gs`` batch solves through one factor of the whole block
diagonal, however few its winners; the per-rank body solves through its
own block's factor.
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
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import primitives
from repro.trace import RunTracer

from tests.test_block_properties import _random_setup
from tests.test_warm_setup import _run_record

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
    for _ in range(2):
        m = _METHODS[method](system, tracer=RunTracer(), faults=plan)
        m.setup(x0, b)
        # mailbox slots nobody has written yet are uninitialised
        # memory; zero them so the byte comparison sees only writes
        m.engine.flat.vals_flat.fill(0.0)
        for _ in range(warm_steps):
            m.step()
        assert m.engine.flat is not None and m._relax_plans()
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
    return winners.size > 0 and system.block_diag_solve() is not None


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
    # size, each taking the whole-diagonal solve on a gs x 1 system
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
    """1 024 rows on 32 blocks: narrow batches (1 and 7 winners, under
    ``_BATCH_ROWS`` rows each) solve through the whole block diagonal as
    wide ones (8 and all 32) do — each byte-equal per rank."""
    _, system, x0, b = _poisson_setup(32, 32, 1)
    assert system.n == 8 * _BATCH_ROWS
    rng = np.random.default_rng(4)
    for k in (7, 8, 32, 1):
        winners = np.sort(rng.choice(system.n_parts, k, replace=False))
        assert _check(system, x0, b, method, False, 2, winners) == 1


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
    m = DistributedSouthwell(system)
    m.setup(np.ones(A.n_rows), np.zeros(A.n_rows))
    assert m._relax_csr is None         # built at first use only
    assert m._relax_plans() == []


# ----------------------------------------------------------------------
# the length-batched dots (primitives.Segments): taken where they pay,
# the per-segment loop kept where they would not, and either way the
# same bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def p256():
    """The ``lockstep_ds_p256`` shape: ``poisson_2d(96)`` on 256 ranks,
    36 rows per block."""
    return _poisson_setup(96, 256, 0)


def _watch_dots(monkeypatch) -> dict:
    """Count :meth:`Segments.sq` calls that batch or loop, and the
    per-segment ``ddot``s; a non-empty call batched iff it made none."""
    seen = {"batched": 0, "looped": 0, "dots": 0}
    sq, dot = primitives.Segments.sq, primitives._dot

    def watched(self, ids):
        before = seen["dots"]
        out = sq(self, ids)
        seen["batched" if ids.size and seen["dots"] == before
             else "looped"] += 1
        return out

    def counted(a, b):
        seen["dots"] += 1
        return dot(a, b)
    monkeypatch.setattr(primitives.Segments, "sq", watched)
    monkeypatch.setattr(primitives, "_dot", counted)
    return seen


def test_lockstep_shape_takes_the_batched_dots(p256, monkeypatch):
    """Set-up and three DS steps at P = 256: every run of norms and
    ghost-layer dots is batched, no per-segment ``ddot`` runs."""
    _, system, x0, b = p256
    seen = _watch_dots(monkeypatch)
    m = DistributedSouthwell(system)
    m.setup(x0, b)
    for _ in range(3):
        m.step()
    # set-up's norms, then per step the winners' norms, their ghost
    # layers before and after the add, and the receivers' norm refresh
    assert seen == {"batched": 1 + 3 * 4, "looped": 0, "dots": 0}


def test_mg_level0_shape_keeps_the_loop(monkeypatch):
    """``mg_vcycle_ds``'s level 0 (``poisson_2d(127)``, 32 ranks of
    ≈ 500 rows): nearly every block length is distinct, so grouping
    would cost more than the dots — the loop is kept."""
    _, system, x0, b = _poisson_setup(127, 32, 0)
    seen = _watch_dots(monkeypatch)
    m = DistributedSouthwell(system)
    m.setup(x0, b)
    m.step()
    assert seen["batched"] == 0 and seen["looped"] == 2
    assert seen["dots"] > 0


def test_segments_crossover_rules(monkeypatch):
    """Both loop-keeping rules, at their boundaries: the subset's size
    and its segments per distinct length."""
    seen = _watch_dots(monkeypatch)

    def batches(lens, k):
        ln = np.array(lens, dtype=np.int64)
        segs = primitives.Segments(np.ones(int(ln.sum())), ln.cumsum() - ln,
                                   ln)
        seen["batched"] = 0
        segs.sq(np.arange(k))
        return seen["batched"] == 1
    assert batches([36] * 32, 32) and not batches([36] * 31, 31)
    assert batches([36] * 40, 32) and not batches([36] * 40, 31)
    assert batches(list(range(1, 10)) * 4, 36)          # 4 per length
    assert not batches(list(range(1, 10)) * 4 + [10], 37)
    assert batches(list(range(1, 10)) * 4 + [10], 36)   # the subset's


@pytest.mark.parametrize("method", sorted(_METHODS))
@pytest.mark.parametrize("mode", ["clean", "lossy", "traced"])
def test_batched_dots_equal_the_loop(p256, method, mode, monkeypatch):
    """The crossover forced off (every run of dots loops) against the
    default: same x, history, per-step ``MessageStats``, repairs, fault
    counts and trace event count, clean, lossy and traced."""
    _, system, x0, b = p256

    def run():
        plan = (FaultPlan.uniform(drop=0.1, duplicate=0.1, reorder=0.2,
                                  seed=3) if mode == "lossy" else None)
        tracer = RunTracer() if mode == "traced" else None
        m = _METHODS[method](system, tracer=tracer, faults=plan)
        rec = _run_record(m, x0, b, 8)
        if tracer is not None:
            rec["events"] = sum(1 for _ in tracer.iter_events())
        return rec

    seen = _watch_dots(monkeypatch)
    batched = run()
    assert seen["batched"] > 0
    monkeypatch.setattr(primitives, "_SEGMENT_BATCH", 10 ** 9)
    seen["batched"] = 0
    assert run() == batched
    assert seen["batched"] == 0
