"""Figure 8 extension: resilience under message loss.

The paper's Section 4.5 delay study (its Figure 8 axis is process
count) asks how the methods behave when the network misbehaves; this
sweep extends that question along the message-loss axis on the 2D
Poisson problem, DS vs PS vs BJ: every solve/residual message is
dropped i.i.d. with probability ``p ∈ drop_sweep``.  Late delivery is
the async plane's latency (:mod:`repro.experiments.fig8_async`).

Expected shape: BJ shrugs loss off (its updates are deltas and the
self-healing cumulative payloads resynchronize); DS's repair/retry
hardening keeps it converging at 20% loss at a modest extra-repair
cost; PS — whose relaxation criterion needs *exact* neighbor norms —
detects and reports deadlock rather than hanging (the ``degraded``
column), which is the motivating contrast for DS's bounded-staleness
design.
"""

from __future__ import annotations

import numpy as np

from repro.api import RunConfig, solve
from repro.experiments.runners import METHOD_LABELS, METHODS
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.sparsela import symmetric_unit_diagonal_scale

__all__ = ["run_fig8_faults"]


def _poisson(grid_dim: int):
    return symmetric_unit_diagonal_scale(poisson_2d(grid_dim)).matrix


def run_fig8_faults(grid_dim: int = 64, n_procs: int = 64,
                    drop_sweep: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
                    max_steps: int = 100,
                    target_norm: float = 0.1,
                    seed: int = 0, plan_seed: int = 0) -> list[dict]:
    """One row per (drop probability, method).

    Columns: final residual norm, parallel steps to ``target_norm``
    (``None`` = never reached, the paper's ``†``), messages/process,
    repair messages sent, injected-fault total, and whether the run
    ended by *reporting* an unrecoverable deadlock (``degraded``) —
    never by hanging.
    """
    A = _poisson(grid_dim)
    rows = []
    for p in drop_sweep:
        plan = FaultPlan.uniform(drop=p, seed=plan_seed) if p else None
        for method in METHODS:
            # lockstep by construction — steps_to_target counts parallel
            # steps; the event-driven analog lives in ``fig8_async``
            cfg = RunConfig(n_parts=n_procs, max_steps=max_steps,
                            seed=seed, faults=plan, runtime="flat")
            res = solve(A, method=method, config=cfg)
            inj = res.faults_injected or {}
            rows.append({
                "axis": "drop",
                "p": p,
                "method": METHOD_LABELS[method],
                "final_norm": res.final_norm,
                "steps_to_target": res.history.cost_to_reach(
                    target_norm, axis="parallel_steps"),
                "comm_cost": res.comm_cost,
                "repairs": res.repairs,
                "faults_injected": int(np.sum(list(inj.values()))) if inj
                else 0,
                "degraded": res.degraded,
            })
    return rows
