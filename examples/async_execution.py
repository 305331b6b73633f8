"""Asynchronous execution: the same algorithm, no barriers.

Runs Distributed Southwell over both execution models — the lockstep
engine (epoch-synchronised parallel steps, as in the paper's Algorithms)
and the event-driven async executor (per-process clocks, the
Casper-progressed regime) — then slows one process to quarter speed and
shows who pays: the lockstep all-active Block Jacobi pays nearly the full
4x, Distributed Southwell's greedy criterion routes work around the
straggler, and the asynchronous execution barely notices it.

Run:  python examples/async_execution.py
"""

import numpy as np

from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.matrices import load_problem
from repro.partition import partition
from repro.runtime import CostModel
from repro.solvers import BlockJacobi

# compute-bound machine so a slow *CPU* actually matters
MACHINE = CostModel(alpha=2.0e-6, alpha_recv=2.0e-6, beta=1.6e-10,
                    gamma=2.5e-8)


def main() -> None:
    problem = load_problem("msdoor")
    n_procs = 32
    part = partition(problem.matrix, n_procs, seed=0)
    system = build_block_system(problem.matrix, part)
    x0, b = problem.initial_state(seed=0)
    print(f"problem: {problem.summary()}, P = {n_procs}, target ‖r‖ = 0.1")

    slow = np.ones(n_procs)
    slow[10] = 0.25

    def lockstep(cls, factors):
        m = cls(system, cost_model=MACHINE, speed_factors=factors)
        m.run(x0, b, max_steps=300, target_norm=0.1, stop_at_target=True)
        return m.engine.stats.elapsed_time()

    def asynchronous(factors):
        ex = AsyncExecutor(DistributedSouthwell(system, cost_model=MACHINE),
                           speed_factors=factors, record_every=4 * n_procs)
        ex.run(x0, b, max_turns=2_000_000, target_norm=0.1,
               stop_at_target=True)
        return ex.aplane.elapsed

    rows = [
        ("Block Jacobi, lockstep", lockstep(BlockJacobi, None),
         lockstep(BlockJacobi, slow)),
        ("Dist Southwell, lockstep",
         lockstep(DistributedSouthwell, None),
         lockstep(DistributedSouthwell, slow)),
        ("Dist Southwell, async", asynchronous(None), asynchronous(slow)),
    ]
    print(f"\n{'configuration':28s} {'uniform':>10s} {'straggler':>10s} "
          f"{'penalty':>8s}")
    for name, t0, t1 in rows:
        print(f"{name:28s} {t0 * 1e3:8.3f}ms {t1 * 1e3:8.3f}ms "
              f"{t1 / t0:7.2f}x")
    print("\none process at quarter speed: lockstep Block Jacobi pays for "
          "it every step;\nthe Southwell criterion mostly works around it; "
          "asynchrony absorbs it.")


if __name__ == "__main__":
    main()
