"""Figure 8 analog in the event-driven runtime: simulated time, not steps.

The lockstep fault sweep (:mod:`repro.experiments.fig8_faults`) counts
*parallel steps* to a residual target — every process marches in step,
so a straggler costs nothing and a dropped message only delays healing
by whole epochs.  This sweep re-asks the paper's Section 4.5 question
under ``runtime="async"`` (DESIGN.md §5.14), where each rank owns a
virtual clock priced by the cost model and the x-axis becomes
**simulated seconds to the target**:

- **message drops** — every solve/residual message is dropped i.i.d.
  with probability ``p ∈ drop_sweep`` (seeded :class:`FaultPlan`);
- **stragglers** — a fixed subset of ranks computes at
  ``straggler_factor`` speed (0.5 = the paper's "2× slower" regime),
  so their neighborhoods run ahead on stale estimates.

Expected shape — the paper's low-communication claim restated in the
event model: DS's local Γ̃ estimates tolerate both staleness sources
and it reaches the target in bounded simulated time; PS, whose
criterion needs *exact* neighbor norms, loses explicit residual
updates to the drops and trails DS or never reaches the target
(``time_to_target = None``); BJ relaxes on every delivery (and re-sends
after a drop), so it sends more than DS and — each re-send pushing its
in-flight messages one latency later (DESIGN.md §5.14) — ends above
DS's residual when nothing is dropped.
"""

from __future__ import annotations

import numpy as np

from repro.api import AsyncConfig, RunConfig, solve
from repro.experiments.runners import METHOD_LABELS, METHODS
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.sparsela import symmetric_unit_diagonal_scale

__all__ = ["default_stragglers", "run_fig8_async"]


def default_stragglers(n_procs: int, count: int = 4) -> tuple[int, ...]:
    """Evenly spaced straggler ranks — deterministic, partition-agnostic."""
    count = max(1, min(count, n_procs))
    step = max(1, n_procs // count)
    return tuple(range(0, n_procs, step))[:count]


def run_fig8_async(grid_dim: int = 64, n_procs: int = 64,
                   drop_sweep: tuple[float, ...] = (0.0, 0.1, 0.2),
                   straggler_factor: float = 0.5,
                   stragglers: tuple[int, ...] | None = None,
                   max_steps: int = 100, target_norm: float = 0.1,
                   seed: int = 0, plan_seed: int = 7) -> list[dict]:
    """One row per (drop probability, method), stragglers always on.

    Columns: final residual norm, *simulated seconds* to ``target_norm``
    (``None`` = never reached, the paper's ``†``), total virtual time,
    communication cost, repair messages, injected-fault total, and the
    ``degraded`` deadlock report flag.  Every run is bit-deterministic
    for fixed arguments (the §5.14 guarantee), so rows regenerate
    identically.
    """
    A = symmetric_unit_diagonal_scale(poisson_2d(grid_dim)).matrix
    if stragglers is None:
        stragglers = default_stragglers(n_procs)
    acfg = AsyncConfig(speed_factors=tuple(
        (r, straggler_factor) for r in stragglers))
    rows = []
    for p in drop_sweep:
        plan = (FaultPlan.uniform(drop=p, seed=plan_seed)
                if p > 0.0 else None)
        for method in METHODS:
            cfg = RunConfig(n_parts=n_procs, max_steps=max_steps,
                            seed=seed, faults=plan, runtime="async",
                            async_config=acfg)
            res = solve(A, method=method, config=cfg)
            inj = res.faults_injected or {}
            rows.append({
                "drop": p,
                "method": METHOD_LABELS[method],
                "final_norm": res.final_norm,
                "time_to_target": res.history.cost_to_reach(
                    target_norm, axis="times"),
                "virtual_time": res.virtual_time,
                "comm_cost": res.comm_cost,
                "repairs": res.repairs,
                "faults_injected": int(np.sum(list(inj.values()))) if inj
                else 0,
                "degraded": res.degraded,
            })
    return rows
