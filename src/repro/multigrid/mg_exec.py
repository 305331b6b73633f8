"""Communication-aware multigrid execution (DESIGN.md §5.16).

:class:`MultigridExecutor` runs V-cycles over an operator hierarchy with
*one* shared smoother instance (one application pre and one post per
level visit, the paper's Figure 6 protocol) and accounts for every
message the smoothing steps send:

- per-level :class:`LevelStats` rows (grid size, partition count,
  messages, bytes, receives, relaxations, sparsified-away nonzeros) that
  sum to the run totals *by equality* — ``repro trace`` verifies the
  reconciliation;
- an aggregate :class:`~repro.runtime.stats.MessageStats`-shaped footer
  for the trace (`mg:level{k}:pre` / ``mg:restrict`` / ``mg:prolong`` /
  ``mg:level{k}:post`` phases, one trace step per V-cycle);
- merged injected-fault totals when the smoother runs under a
  :class:`~repro.faults.FaultPlan`.

The V-cycle is the textbook recursion — pre-smooth, restrict the
residual, recurse (exact dense solve at the coarsest level), prolongate
and correct, post-smooth; a scalar Gauss-Seidel-smoothed run is pinned
by digest in ``tests/test_multigrid_block.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.analysis.history import ConvergenceHistory
from repro.multigrid.block_smoothers import (
    BLOCK_SMOOTHER_METHODS,
    BlockSmoother,
)
from repro.multigrid.grid import GridLevel, build_operator_hierarchy
from repro.multigrid.smoothers import (
    DistributedSouthwellSmoother,
    GaussSeidelSmoother,
    ParallelSouthwellSmoother,
    Smoother,
)
from repro.multigrid.transfer import bilinear_prolongation, full_weighting
from repro.runtime import CORI_LIKE, CostModel
from repro.sparsela import CSRMatrix
from repro.trace import NULL_TRACER

__all__ = ["LevelStats", "MultigridExecutor", "make_smoother"]


@dataclass(frozen=True)
class LevelStats:
    """One hierarchy level's accumulated smoothing totals."""

    level: int          # 0 = finest
    n: int              # grid points per side
    n_unknowns: int     # n * n
    n_parts: int        # smoothing partition count (0 = unsmoothed level)
    msgs: int           # messages sent smoothing this level, all cycles
    bytes: int
    recvs: int
    relaxations: int    # row relaxations spent on this level, all cycles
    nnz_dropped: int    # coarse-operator entries removed by sparsify()

    def to_dict(self) -> dict:
        """JSON-able view (one row of ``SolveResult.levels``)."""
        return dataclasses.asdict(self)


class _AggregateStats:
    """Sum of the level runners' MessageStats, shaped for ``end_run``."""

    def __init__(self, parts, n_procs: int):
        self.n_procs = max(int(n_procs), 1)
        self.category_msgs: dict[str, int] = {}
        self.category_bytes: dict[str, int] = {}
        self.steps: list = []
        self._msgs = 0
        self._bytes = 0
        self._recvs = 0
        self._time = 0.0
        for st in parts:
            self._msgs += st.total_messages
            self._bytes += st.total_bytes
            self._recvs += st.total_receives
            self._time += st.elapsed_time()
            self.steps.extend(st.steps)
            for k, v in st.category_msgs.items():
                self.category_msgs[k] = self.category_msgs.get(k, 0) + v
            for k, v in st.category_bytes.items():
                self.category_bytes[k] = self.category_bytes.get(k, 0) + v

    @property
    def total_messages(self) -> int:
        return self._msgs

    @property
    def total_bytes(self) -> int:
        return self._bytes

    @property
    def total_receives(self) -> int:
        return self._recvs

    def elapsed_time(self) -> float:
        return self._time

    def communication_cost(self) -> float:
        return self._msgs / self.n_procs


def make_smoother(name: str, budget: float = 1.0, n_parts: int = 4,
                  seed: int = 0, local_solver: str = "gs",
                  partition_method: str = "multilevel",
                  cost_model: CostModel = CORI_LIKE,
                  tracer=None, faults=None, cache_dir=None) -> Smoother:
    """Build the smoother a :class:`MultigridConfig` names.

    ``"ds"`` / ``"ps"`` / ``"bj"`` are the block methods
    (:class:`~repro.multigrid.block_smoothers.BlockSmoother`);
    ``"scalar-ds"`` / ``"scalar-ps"`` are the paper's published scalar
    smoothers; ``"gs"`` is the Gauss-Seidel baseline (``budget`` rounds
    to whole sweeps).
    """
    if name in BLOCK_SMOOTHER_METHODS:
        return BlockSmoother(method=name, n_parts=n_parts, fraction=budget,
                             seed=seed, local_solver=local_solver,
                             partition_method=partition_method,
                             cost_model=cost_model, tracer=tracer,
                             faults=faults, cache_dir=cache_dir)
    if name == "gs":
        return GaussSeidelSmoother(max(1, int(round(budget))))
    if name == "scalar-ds":
        return DistributedSouthwellSmoother(budget, seed=seed)
    if name == "scalar-ps":
        return ParallelSouthwellSmoother(budget, seed=seed)
    raise ValueError(f"unknown multigrid smoother {name!r}; choices: "
                     f"{sorted(BLOCK_SMOOTHER_METHODS) + ['gs', 'scalar-ds', 'scalar-ps']}")


class MultigridExecutor:
    """V-cycles over ``A``'s hierarchy with full message accounting.

    Parameters
    ----------
    A:
        Fine operator — an ``n = d²`` matrix with ``d = 2^k - 1`` (the
        2D Poisson grid family; anything else raises).
    smoother:
        One :class:`~repro.multigrid.smoothers.Smoother`, applied once
        pre- and once post- per level visit.  A fresh instance per
        executor: the per-level accounting reads the smoother's
        cumulative runner stats.
    n_levels, hierarchy, drop_tol, coarsest_dim:
        Passed to :func:`~repro.multigrid.grid.build_operator_hierarchy`.
    tracer:
        Trace sink; defaults to :data:`~repro.trace.NULL_TRACER`.
    """

    def __init__(self, A: CSRMatrix, smoother: Smoother,
                 coarsest_dim: int = 3, n_levels: int | None = None,
                 hierarchy: str = "geometric", drop_tol: float = 0.0,
                 tracer=None):
        self.levels: list[GridLevel]
        self.levels, self.dropped = build_operator_hierarchy(
            A, coarsest_dim=coarsest_dim, n_levels=n_levels,
            hierarchy=hierarchy, drop_tol=drop_tol)
        self.smoother = smoother
        if hasattr(smoother, "_link_hierarchy"):
            smoother._link_hierarchy([lvl.matrix for lvl in self.levels])
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._coarse_dense = np.linalg.inv(self.levels[-1].matrix.to_dense())
        #: smoothing applications per level (2 per cycle per smoothed
        #: level) — the relaxation accounting for scalar smoothers,
        #: which spend their budget exactly but keep no counters
        self._visits = [0] * len(self.levels)
        self.cycles = 0
        self.history: ConvergenceHistory | None = None
        self.x: np.ndarray | None = None

    # ------------------------------------------------------------------
    # cycle arithmetic (one pre- and one post-smoothing per level visit)
    # ------------------------------------------------------------------
    def _cycle(self, lvl: int, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        trc = self.tracer
        if lvl == len(self.levels) - 1:
            trc.phase_begin("mg:coarse")
            out = self._coarse_dense @ b
            trc.phase_end("mg:coarse")
            return out
        level = self.levels[lvl]
        A = level.matrix
        trc.phase_begin(f"mg:level{lvl}:pre")
        x = self.smoother.smooth(A, x, b)
        trc.phase_end(f"mg:level{lvl}:pre")
        self._visits[lvl] += 1
        r = b - A.matvec(x)
        trc.phase_begin("mg:restrict")
        r_c = full_weighting(r, level.n)
        trc.phase_end("mg:restrict")
        n_coarse = self.levels[lvl + 1].n
        e_c = self._cycle(lvl + 1, np.zeros(n_coarse * n_coarse), r_c)
        trc.phase_begin("mg:prolong")
        x = x + bilinear_prolongation(e_c, n_coarse)
        trc.phase_end("mg:prolong")
        trc.phase_begin(f"mg:level{lvl}:post")
        x = self.smoother.smooth(A, x, b)
        trc.phase_end(f"mg:level{lvl}:post")
        self._visits[lvl] += 1
        return x

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _records(self) -> list:
        if not hasattr(self.smoother, "record_for"):
            return []
        return [rec for rec in (self.smoother.record_for(lvl.matrix)
                                for lvl in self.levels) if rec is not None]

    def _scalar_relaxations(self, visits: int, n: int) -> int:
        """Budget the scalar smoothers spend exactly (they keep no
        counters); 0 when the smoother has no budget contract at all."""
        budget = getattr(self.smoother, "relaxations", None)
        return visits * budget(n) if (visits and budget is not None) else 0

    def _totals(self) -> tuple[int, int, float, int]:
        """(messages, bytes, simulated time, relaxations) so far."""
        recs = self._records()
        msgs = nbytes = relax = 0
        time = 0.0
        for rec in recs:
            msgs += rec.stats.total_messages
            nbytes += rec.stats.total_bytes
            time += rec.stats.elapsed_time()
            relax += rec.relaxations
        if not recs:
            relax = sum(self._scalar_relaxations(v, lvl.n_unknowns)
                        for v, lvl in zip(self._visits, self.levels))
        return msgs, nbytes, time, relax

    def aggregate_stats(self) -> _AggregateStats:
        """The run's summed MessageStats (what the trace footer records)."""
        recs = self._records()
        n_procs = max((rec.n_parts for rec in recs), default=1)
        return _AggregateStats([rec.stats for rec in recs], n_procs)

    def level_stats(self) -> list[LevelStats]:
        """One row per hierarchy level, finest first.

        The rows sum to :meth:`aggregate_stats` totals by construction:
        both read the same per-level runner stats, and every smoothing
        message is charged to exactly one level's runner.
        """
        rows = []
        scalar = not hasattr(self.smoother, "record_for")
        for k, lvl in enumerate(self.levels):
            rec = (None if scalar
                   else self.smoother.record_for(lvl.matrix))
            if rec is not None:
                st = rec.stats
                rows.append(LevelStats(
                    level=k, n=lvl.n, n_unknowns=lvl.n_unknowns,
                    n_parts=rec.n_parts, msgs=st.total_messages,
                    bytes=st.total_bytes, recvs=st.total_receives,
                    relaxations=rec.relaxations,
                    nnz_dropped=self.dropped[k]))
            else:
                relax = self._scalar_relaxations(self._visits[k],
                                                 lvl.n_unknowns)
                rows.append(LevelStats(
                    level=k, n=lvl.n, n_unknowns=lvl.n_unknowns,
                    n_parts=1 if self._visits[k] else 0, msgs=0, bytes=0,
                    recvs=0, relaxations=relax,
                    nnz_dropped=self.dropped[k]))
        return rows

    def _merged_faults(self) -> dict | None:
        plan = getattr(self.smoother, "faults", None)
        if plan is None or plan.is_null:
            return None
        merged: dict[str, int] = {}
        for rec in self._records():
            for k, v in rec.fault_counts.items():
                merged[k] = merged.get(k, 0) + v
        return merged

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, b: np.ndarray, x0: np.ndarray | None = None,
            n_cycles: int = 9) -> ConvergenceHistory:
        """``n_cycles`` V-cycles; residual norm recorded after each."""
        A = self.levels[0].matrix
        b = np.asarray(b, dtype=np.float64)
        x = (np.zeros(A.n_rows) if x0 is None
             else np.array(x0, dtype=np.float64))
        # build every smoothed level's runner up front so the trace meta
        # line carries the hierarchy's true process count (and a warm
        # setup cache is read, once per level that is partitioned rather
        # than inherited, before the first cycle)
        n_procs = 1
        if hasattr(self.smoother, "prepare"):
            for lvl in self.levels[:-1]:
                n_procs = max(n_procs,
                              self.smoother.prepare(lvl.matrix).n_parts)
        trc = self.tracer
        trc.begin_run(f"mg-{getattr(self.smoother, 'name', 'smoother')}",
                      n_procs)
        hist = ConvergenceHistory()
        hist.append(norm=float(np.linalg.norm(b - A.matvec(x))),
                    relaxations=0, parallel_steps=0, comm_cost=0.0,
                    time=0.0)
        for c in range(1, n_cycles + 1):
            trc.step_begin(c)
            x = self._cycle(0, x, b)
            msgs, _, time, relax = self._totals()
            hist.append(norm=float(np.linalg.norm(b - A.matvec(x))),
                        relaxations=relax, parallel_steps=c,
                        comm_cost=msgs / n_procs, time=time)
            trc.step_end(n_procs)
        self.cycles = n_cycles
        self.x = x
        self.history = hist
        for row in self.level_stats():
            trc.mg_level(row.level, row.n, row.n_parts, row.msgs,
                         row.bytes, row.recvs, row.relaxations,
                         row.nnz_dropped)
        trc.end_run(self.aggregate_stats(), faults=self._merged_faults())
        return hist
