"""Extension bench: robustness to message latency.

The paper implements everything over one-sided MPI with Casper's
asynchronous progress; its Section 5 discusses asynchronous-method
variants.  This bench runs Distributed Southwell on the async plane,
where every message arrives one network latency after it was sent and
each rank keeps relaxing on the estimates it has, at the default latency
and at 10x and 50x it (an idle rank re-checks its mailbox at the same
fraction of the latency as by default) — and checks that it keeps
converging: deadlock avoidance makes it robust to staleness, since
over-estimates are repaired whenever they are detected.
"""

import numpy as np

from repro.config import DEFAULT_ASYNC_LATENCY
from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.matrices.suite import load_problem
from repro.partition import partition


def test_staleness(benchmark, scale):
    prob = load_problem("ldoor", size_scale=scale.size_scale)
    part = partition(prob.matrix, scale.n_procs, seed=0)
    system = build_block_system(prob.matrix, part)
    x0, b = prob.initial_state(seed=0)

    def run():
        out = {}
        for k in (1, 10, 50):
            ds = DistributedSouthwell(system)
            AsyncExecutor(ds, latency=k * DEFAULT_ASYNC_LATENCY,
                          poll_interval=k * 2.0e-6).run(
                x0, b, max_steps=2 * scale.max_steps)
            r_true = np.linalg.norm(b - prob.matrix.matvec(ds.solution()))
            out[k] = (ds.global_norm(), r_true, ds.degraded)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for k, (norm, _, _) in out.items():
        print(f"latency {k:>2}x default: final ‖r‖ = {norm:.3e}")
    # every run converges (the point): stale estimates never stall it
    for k, (norm, r_true, degraded) in out.items():
        assert not degraded, f"degraded at {k}x latency"
        assert norm < 0.05, f"diverged/stalled at {k}x latency"
        # no update lost, only late: the bookkeeping is exact at the end
        assert np.isclose(norm, r_true, rtol=1e-10, atol=1e-14)
