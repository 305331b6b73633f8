"""The Southwell method family — the paper's contribution and its lineage.

- :func:`sequential_southwell` — the classic greedy method (Section 2.2);
- :class:`ScalarParallelSouthwell` / :class:`ScalarDistributedSouthwell` —
  one row per process (Figures 2/5/6);
- :class:`ParallelSouthwell` — block Algorithm 2 over the simulated
  distributed runtime;
- :class:`DistributedSouthwell` — block Algorithm 3, the paper's new
  method: ghost-layer norm estimation plus just-in-time deadlock-avoidance
  messages;
- :class:`BlockSystem` / :func:`build_block_system` — the per-process data
  layout shared by all block methods (including Block Jacobi in
  :mod:`repro.solvers`).
"""

from repro.core.adaptive import (
    SimultaneousAdaptiveRelaxation,
    greedy_multiplicative_schwarz,
    sequential_adaptive_relaxation,
)
from repro.core.block_base import BlockMethodBase
from repro.core.blockdata import BlockSystem, build_block_system
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.core.parallel_southwell_block import ParallelSouthwell
from repro.core.scalar import (
    EdgeStructure,
    ScalarDistributedSouthwell,
    ScalarParallelSouthwell,
    sequential_southwell,
)
from repro.core.threshold_ds import ThresholdedDistributedSouthwell

__all__ = [
    "BlockMethodBase",
    "BlockSystem",
    "DistributedSouthwell",
    "EdgeStructure",
    "ParallelSouthwell",
    "ScalarDistributedSouthwell",
    "ScalarParallelSouthwell",
    "SimultaneousAdaptiveRelaxation",
    "ThresholdedDistributedSouthwell",
    "build_block_system",
    "greedy_multiplicative_schwarz",
    "sequential_adaptive_relaxation",
    "sequential_southwell",
]
