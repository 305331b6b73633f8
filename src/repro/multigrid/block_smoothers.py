"""Block Distributed-Southwell smoothing for the multigrid V-cycle.

The paper's Figure 6 runs the *scalar* Southwell methods as smoothers.
This module runs the real block machinery — the same
:class:`~repro.core.distributed_southwell_block.DistributedSouthwell` /
:class:`~repro.core.parallel_southwell_block.ParallelSouthwell` /
:class:`~repro.solvers.block_jacobi.BlockJacobi` runners that power
``solve()`` — inside the V-cycle, at the paper's equal-relaxation-budget
contract (DESIGN.md §5.16):

- "1 sweep" on an ``n``-row level = ``n`` row relaxations; ``fraction``
  scales the budget exactly like the scalar smoothers.
- Blocks are coarser than rows, so a step's winner set can overshoot the
  remaining budget.  A :attr:`~repro.core.block_base.BlockMethodBase.
  _relax_filter` hook truncates the winners — a seeded random subset that
  still fits — and any unspendable shortfall (smaller than the smallest
  block) carries into the level's next smoothing application, keeping the
  *cumulative* budget exact to within one block.

Each level's runner is built once per operator and reused across every
V-cycle visit; its engine's :class:`~repro.runtime.stats.MessageStats`
therefore accumulates the level's smoothing traffic for the per-level
accounting in :mod:`repro.multigrid.mg_exec`.  Only the finest level is
partitioned (through the persistent setup cache): a coarse level of a
2:1 hierarchy inherits the finer level's ownership by injection, and
partitions afresh only where that would leave a part empty.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import config as _config
from repro.core.blockdata import BlockSystem, build_block_system
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.core.parallel_southwell_block import ParallelSouthwell
from repro.multigrid.grid import fine_dim_of
from repro.multigrid.smoothers import Smoother, per_operator
from repro.partition import partition_from_parts
from repro.runtime import CORI_LIKE, CostModel
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import CSRMatrix
from repro.trace import NULL_TRACER

__all__ = ["BLOCK_SMOOTHER_METHODS", "BlockSmoother", "LevelRunner"]

#: block smoother method name -> runner class
BLOCK_SMOOTHER_METHODS = {
    "ds": DistributedSouthwell,
    "ps": ParallelSouthwell,
    "bj": BlockJacobi,
}

#: consecutive relaxation-free parallel steps before a smoothing
#: application gives up on its remaining budget (covers DS repair-only
#: steps, which legitimately relax nothing while resolving deadlocks)
_STALL_PATIENCE = 8


@dataclass
class LevelRunner:
    """One level's persistent runner plus its cross-cycle accounting."""

    runner: object                  # BlockMethodBase subclass instance
    n_parts: int
    sizes: np.ndarray               # rows per partition (budget arithmetic)
    min_block: int                  # smallest partition (budget floor)
    carry: int = 0                  # unspent budget owed to this level
    relaxations: int = 0            # cumulative row relaxations
    fault_counts: dict = field(default_factory=dict)

    @property
    def stats(self):
        """The runner engine's cumulative :class:`MessageStats`."""
        return self.runner.engine.stats


class BlockSmoother(Smoother):
    """Block-DS/PS/BJ as a V-cycle smoother at an exact relaxation budget.

    Parameters
    ----------
    method:
        ``"ds"``, ``"ps"`` or ``"bj"`` (:data:`BLOCK_SMOOTHER_METHODS`).
    n_parts:
        Processes per level (capped at the level's row count).
    fraction:
        Budget in sweeps: ``max(1, round(fraction * n))`` relaxations per
        smoothing application of an ``n``-row level, exactly the scalar
        smoothers' contract.
    seed:
        Seeds the partitioner, the runtime engine, and the winner-subset
        truncation.
    faults:
        Optional :class:`~repro.faults.FaultPlan`, applied to every
        level's runner (the smoothing steps run the full fault
        machinery; injected-fault counts accumulate per level).
    tracer:
        Shared :class:`~repro.trace.Tracer`; the level runners emit
        their send/recv/relax events into it so a multigrid trace
        reconciles end to end.
    """

    def __init__(self, method: str = "ds", n_parts: int = 4,
                 fraction: float = 1.0, seed: int = 0,
                 local_solver: str = "gs",
                 partition_method: str = "multilevel",
                 cost_model: CostModel = CORI_LIKE,
                 tracer=None, faults=None, cache_dir=None):
        if method not in BLOCK_SMOOTHER_METHODS:
            raise ValueError(f"unknown block smoother method {method!r}; "
                             f"choices: {sorted(BLOCK_SMOOTHER_METHODS)}")
        self.method = method
        self.name = f"block-{method}"
        self.n_parts = _config.require_int("n_parts", n_parts, 1)
        self.fraction = _config.require_finite("fraction", fraction,
                                               positive=True)
        self.seed = _config.require_int("seed", seed, 0)
        self.local_solver = local_solver
        self.partition_method = partition_method
        self.cost_model = cost_model
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults
        self.cache_dir = cache_dir
        #: ``id(A) -> (weakref(A), LevelRunner)`` (see :func:`per_operator`)
        self._levels: dict[int, tuple] = {}
        #: ``id(A_c) -> (weakref(A_c), weakref(A_f))``: a coarse operator's
        #: finer level, held and verified like :attr:`_levels` — both
        #: weakly, so a dropped executor's operators and runners go
        self._finer: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Smoother protocol
    # ------------------------------------------------------------------
    def relaxations(self, n: int) -> int:
        """Relaxation budget on an ``n``-row level (scalar contract)."""
        return max(1, int(round(self.fraction * n)))

    def prepare(self, A: CSRMatrix) -> LevelRunner:
        """Build (or fetch) the persistent runner for operator ``A``.

        A coarse level of a linked hierarchy (:meth:`_link_hierarchy`)
        prepares its finer level first and inherits its ownership
        (:meth:`_inherited_system`); any other level is partitioned
        through the persistent setup cache.
        """
        return per_operator(self._levels, A, self._build_level)

    def _link_hierarchy(self, operators: list[CSRMatrix]) -> None:
        """Record each coarse operator's finer level (``operators`` is a
        2:1 grid hierarchy, finest first)."""
        for fine, coarse in zip(operators, operators[1:]):
            self._finer.pop(id(coarse), None)     # a re-link replaces
            per_operator(self._finer, coarse,
                         lambda _, fine=fine: weakref.ref(fine))

    def _inherited_system(self, A: CSRMatrix,
                          n_parts: int) -> BlockSystem | None:
        """``A``'s block system on its finer level's ownership, or None.

        Coarse point ``(I, J)`` is fine point ``(2I+1, 2J+1)``
        (:mod:`repro.multigrid.transfer`) and stays on the rank that owns
        it there.  None — partition afresh — when ``A`` has no finer
        level, the finer level has another part count, or a part would
        be empty.
        """
        link = self._finer.get(id(A))
        finer = link[1]() if link is not None and link[0]() is A else None
        if finer is None:
            return None
        fine = self.prepare(finer)
        if fine.n_parts != n_parts:
            return None
        n_f = fine_dim_of(finer.n_rows)
        parts = fine.runner.system.part.parts
        labels = parts.reshape(n_f, n_f)[1::2, 1::2].ravel()
        if np.bincount(labels, minlength=n_parts).min() == 0:
            return None
        if self.tracer.enabled:
            self.tracer.phase_begin("setup:block_build")
        system = build_block_system(
            A, partition_from_parts(A, labels, n_parts),
            local_solver=self.local_solver)
        if self.tracer.enabled:
            self.tracer.phase_end("setup:block_build")
        return system

    def _build_level(self, A: CSRMatrix) -> LevelRunner:
        n_parts = min(self.n_parts, A.n_rows)
        system = self._inherited_system(A, n_parts)
        if system is None:
            _, system = get_setup(
                A, n_parts, method=self.partition_method, seed=self.seed,
                local_solver=self.local_solver, tracer=self.tracer,
                cache_dir=self.cache_dir)
        cls = BLOCK_SMOOTHER_METHODS[self.method]
        runner = cls(system, cost_model=self.cost_model, seed=self.seed,
                     tracer=self.tracer, faults=self.faults)
        sizes = np.array([system.size_of(p) for p in range(n_parts)],
                         dtype=np.int64)
        return LevelRunner(runner=runner, n_parts=n_parts, sizes=sizes,
                           min_block=int(sizes.min()))

    def smooth(self, A: CSRMatrix, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
        """One budgeted smoothing application of ``A x = b``."""
        lr = self.prepare(A)
        runner = lr.runner
        budget = self.relaxations(A.n_rows) + lr.carry
        rng = np.random.default_rng(self.seed)
        sizes = lr.sizes

        def truncate(relaxed):
            remaining = budget - runner.total_relaxations
            if remaining <= 0:
                return np.zeros_like(relaxed)
            winners = np.flatnonzero(relaxed)
            if winners.size == 0 or int(sizes[winners].sum()) <= remaining:
                return relaxed
            keep = np.zeros_like(relaxed)
            acc = 0
            for w in rng.permutation(winners):
                s = int(sizes[w])
                if acc + s <= remaining:
                    keep[w] = True
                    acc += s
                    if acc == remaining:
                        break
            return keep

        # the smoothing steps run the lockstep loop whatever the runtime
        # mode: an event loop per application would cost far more than
        # the tiny level solves it serves
        runner._relax_filter = truncate
        try:
            runner.setup(np.asarray(x, dtype=np.float64), b)
            stalled = 0
            while runner.total_relaxations < budget:
                if budget - runner.total_relaxations < lr.min_block:
                    break           # nothing left that fits a block
                before = runner.total_relaxations
                runner.step()
                runner.steps_taken += 1
                if runner.total_relaxations == before:
                    stalled += 1
                    if stalled >= _STALL_PATIENCE:
                        break
                else:
                    stalled = 0
        finally:
            runner._relax_filter = None
        lr.carry = min(budget - runner.total_relaxations, A.n_rows)
        lr.relaxations += runner.total_relaxations
        if runner._faults is not None:
            for k, v in runner._faults.injected.items():
                if v:
                    lr.fault_counts[k] = lr.fault_counts.get(k, 0) + int(v)
        return runner.solution()

    # ------------------------------------------------------------------
    # per-level accounting (read by the multigrid executor)
    # ------------------------------------------------------------------
    def record_for(self, A: CSRMatrix) -> LevelRunner | None:
        """The accounting record for operator ``A`` (None if never seen)."""
        hit = self._levels.get(id(A))
        return hit[1] if hit is not None and hit[0]() is A else None
