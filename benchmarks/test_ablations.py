"""Ablation benches for the design choices DESIGN.md calls out.

Not a paper table — these quantify each mechanism's contribution:

1. **Deadlock avoidance** (Alg 3 lines 27-30): without it, Distributed
   Southwell is the broken ICCS'16-style scheme and stalls.
2. **Ghost-layer estimation** (line 15): without local estimate updates,
   estimates are staler, so convergence needs more deadlock-repair
   traffic to make the same progress.
3. **Piggy-backing** (Alg 2 line 10): Parallel Southwell without it would
   send the relaxer's norm as a separate message, one per solve message
   and no change in arithmetic — so one run's own counters price what
   the optimisation saves.
"""

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.matrices.suite import load_problem
from repro.partition import partition
from repro.runtime import CATEGORY_RESIDUAL, CATEGORY_SOLVE


def _setup(scale):
    prob = load_problem("bone010", size_scale=scale.size_scale)
    part = partition(prob.matrix, scale.n_procs, seed=0)
    system = build_block_system(prob.matrix, part)
    x0, b = prob.initial_state(seed=0)
    return system, x0, b


def test_ablation_deadlock_avoidance(benchmark, scale):
    system, x0, b = _setup(scale)

    def run():
        out = {}
        for flag in (True, False):
            ds = DistributedSouthwell(system, deadlock_avoidance=flag)
            ds.setup(x0, b)
            idle = 0
            for _ in range(scale.max_steps):
                if ds.step() == 0:
                    idle += 1
                    if idle >= 3:
                        break
                else:
                    idle = 0
            out[flag] = (ds.global_norm(), idle >= 3)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    norm_on, stalled_on = out[True]
    norm_off, stalled_off = out[False]
    print(f"\nwith avoidance:    ‖r‖ = {norm_on:.3e} stalled={stalled_on}")
    print(f"without avoidance: ‖r‖ = {norm_off:.3e} stalled={stalled_off}")
    assert not stalled_on
    assert stalled_off, "the estimate-only scheme must deadlock"
    assert norm_on < norm_off


def test_ablation_ghost_estimation(benchmark, scale):
    system, x0, b = _setup(scale)

    def run():
        out = {}
        for flag in (True, False):
            ds = DistributedSouthwell(system, ghost_estimation=flag)
            ds.run(x0, b, max_steps=scale.max_steps)
            out[flag] = (ds.global_norm(),
                         ds.engine.stats.category_cost(CATEGORY_RESIDUAL))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    norm_on, res_on = out[True]
    norm_off, res_off = out[False]
    print(f"\nwith ghost estimation:    ‖r‖ = {norm_on:.3e} "
          f"res-comm = {res_on:.1f}/proc")
    print(f"without ghost estimation: ‖r‖ = {norm_off:.3e} "
          f"res-comm = {res_off:.1f}/proc")
    # both make progress (deadlock avoidance still active), but local
    # estimation buys accuracy per unit of repair traffic
    assert norm_on < 0.1
    assert norm_on <= norm_off * 1.5
    assert res_on <= res_off * 1.2


def test_ablation_piggyback(benchmark, scale):
    system, x0, b = _setup(scale)

    def run():
        ps = ParallelSouthwell(system)
        ps.run(x0, b, max_steps=scale.max_steps)
        return ps.engine.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    comm_on = stats.communication_cost()
    # without piggy-backing every solve message would travel with one
    # separate norm message (tests/test_ablations_and_staleness.py pins
    # that count against a recorded run that sent them)
    solve = stats.category_msgs[CATEGORY_SOLVE]
    comm_off = (stats.total_messages + solve) / stats.n_procs
    print(f"\npiggyback on:  comm = {comm_on:.1f}/proc")
    print(f"piggyback off: comm = {comm_off:.1f}/proc "
          f"(+{comm_off - comm_on:.1f})")
    assert solve > 0 and comm_off > comm_on
