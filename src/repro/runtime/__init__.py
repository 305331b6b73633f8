"""Simulated distributed-memory runtime (MPI-3 RMA substitute).

The paper implements everything over one-sided MPI: every process exposes a
memory window; origins ``MPI_Put`` into neighbors' windows inside
post/start/complete/wait epochs.  With no MPI available offline, this
package substitutes a deterministic simulation with the same semantics and
**exact** message/byte accounting:

- :class:`FlatEdgePlane` — preallocated per-edge mailboxes, buffered
  ``put``, collective epoch close (writes become visible only after the
  epoch, as in RMA);
- :class:`AsyncFlatPlane` — the same mailboxes driven by per-rank
  virtual clocks instead of epochs;
- :class:`MessageStats` — per-category and per-step counters from which the
  paper's communication metrics (messages / P, solve-vs-residual breakdown,
  per-step means) are computed;
- :class:`CostModel` — alpha-beta-gamma pricing of a lockstep parallel step
  (``max`` over processes), giving a simulated wall-clock whose *shape*
  tracks the paper's measured times;
- :class:`ParallelEngine` — the bundle the solvers drive.
"""

from repro.runtime.asyncplane import AsyncFlatPlane
from repro.runtime.costmodel import CORI_LIKE, ZERO_COST, CostModel
from repro.runtime.engine import ParallelEngine
from repro.runtime.flatplane import (
    SLOT_RESIDUAL,
    SLOT_SOLVE,
    FlatEdgePlane,
    runtime_mode,
    set_runtime_mode,
    use_runtime,
)
from repro.runtime.pool import WorkerDied
from repro.runtime.stats import (
    CATEGORY_RESIDUAL,
    CATEGORY_SOLVE,
    MessageStats,
    StepSnapshot,
)

__all__ = [
    "AsyncFlatPlane",
    "CATEGORY_RESIDUAL",
    "CATEGORY_SOLVE",
    "CORI_LIKE",
    "CostModel",
    "FlatEdgePlane",
    "MessageStats",
    "ParallelEngine",
    "SLOT_RESIDUAL",
    "SLOT_SOLVE",
    "StepSnapshot",
    "WorkerDied",
    "ZERO_COST",
    "runtime_mode",
    "set_runtime_mode",
    "use_runtime",
]
