"""Reproduction of *Distributed Southwell: An Iterative Method with Low
Communication Costs* (Wolfson-Pou & Chow, SC17).

The package is organised as the paper's system is:

``repro.sparsela``
    From-scratch sparse matrix substrate (CSR/COO, IO, scaling, kernels).
``repro.matrices``
    Test-problem generators, including the synthetic analog of the paper's
    SuiteSparse suite (Table 1).
``repro.partition``
    Graph partitioning (METIS substitute) and multicoloring.
``repro.runtime``
    Simulated distributed-memory runtime with one-sided (RMA-style) windows
    and exact message accounting.
``repro.core``
    The Southwell family: Sequential, Parallel (scalar + block, Algorithm 2)
    and Distributed Southwell (scalar + block, Algorithm 3 — the paper's
    contribution).
``repro.solvers``
    Baselines: Jacobi, Gauss-Seidel, Multicolor Gauss-Seidel, Block Jacobi
    (Algorithm 1), local subdomain solvers, and preconditioned CG.
``repro.multigrid``
    Geometric multigrid with pluggable smoothers (Figure 6).
``repro.analysis``
    Histories, metric extraction, and table formatting.
``repro.faults``
    Deterministic, seeded fault injection (message drop / duplication /
    reordering, process stalls, ghost staleness) and the
    methods' repair / graceful-degradation semantics.
``repro.experiments``
    One driver per paper table/figure.

Quickstart::

    import repro
    problem = repro.matrices.fem_poisson_2d(target_rows=3081, seed=0)
    result = repro.solve(problem.matrix,
                         method="distributed-southwell",
                         config=repro.RunConfig(n_parts=16, max_steps=50,
                                                target_norm=0.1))
    print(result.summary())
"""

from repro import analysis, config, faults, matrices, multigrid, partition
from repro import core, runtime, solvers, sparsela, trace
from repro.api import AsyncConfig, RunConfig, SolveResult, solve
from repro.faults import DegradedRunError, FaultPlan
from repro.sparsela import CSRMatrix

__version__ = "2.0.0"

__all__ = [
    "AsyncConfig",
    "CSRMatrix",
    "DegradedRunError",
    "FaultPlan",
    "RunConfig",
    "SolveResult",
    "analysis",
    "config",
    "core",
    "faults",
    "matrices",
    "multigrid",
    "partition",
    "runtime",
    "solve",
    "solvers",
    "sparsela",
    "trace",
]
