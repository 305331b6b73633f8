"""Extension bench: the smoother zoo at matched relaxation budgets.

Extends the paper's Figure 6 with every smoother in the library — GS,
weighted Jacobi, red-black GS, Chebyshev(2), Parallel Southwell and
Distributed Southwell — all at a one-sweep-equivalent budget, on the
largest Figure 6 grid.  The Southwell smoothers' selling point is that
they match or beat the classics *while choosing adaptively where to
spend the budget* (important for the irregular/jump problems Rüde's work
targets; on the uniform Poisson problem they simply have to not lose).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.matrices.poisson import poisson_2d
from repro.multigrid import (
    ChebyshevSmoother,
    DistributedSouthwellSmoother,
    GaussSeidelSmoother,
    MultigridExecutor,
    ParallelSouthwellSmoother,
    RedBlackGaussSeidelSmoother,
    WeightedJacobiSmoother,
)

SMOOTHERS = (
    ("GS", lambda: GaussSeidelSmoother(1)),
    ("weighted Jacobi 0.8", lambda: WeightedJacobiSmoother(0.8)),
    ("red-black GS", lambda: RedBlackGaussSeidelSmoother()),
    ("Chebyshev(2)", lambda: ChebyshevSmoother(degree=2)),
    ("Par SW (1 sweep)", lambda: ParallelSouthwellSmoother(1.0)),
    ("Dist SW (1 sweep)", lambda: DistributedSouthwellSmoother(1.0)),
)


def rel_resid(dim, smoother, seed=0):
    """Figure 6 protocol: 9 V-cycles from zero, seeded RHS in [-1, 1];
    returns ``‖r_9‖ / ‖r_0‖``."""
    A = poisson_2d(dim).scale(float(dim + 1) ** 2)
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, dim * dim)
    hist = MultigridExecutor(A, smoother).run(b, n_cycles=9)
    return hist.final_norm / hist.initial_norm


def test_smoother_zoo(benchmark, scale):
    dim = max(scale.grid_dims)

    def run():
        return {name: rel_resid(dim, factory())
                for name, factory in SMOOTHERS}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [{"smoother": k, "rel_residual_9V": f"{v:.2e}"}
            for k, v in out.items()]
    print()
    print(format_table(rows, title=f"smoother zoo, {dim}² grid, "
                                   "9 V-cycles, 1-sweep budgets"))

    # everything converges usefully
    for name, rel in out.items():
        assert rel < 1e-2, name
    # DS is the best of the parallel-friendly smoothers on this problem
    assert out["Dist SW (1 sweep)"] < out["weighted Jacobi 0.8"]
    assert out["Dist SW (1 sweep)"] < out["Chebyshev(2)"]
    # and beats plain GS per relaxation, the paper's claim
    assert out["Dist SW (1 sweep)"] < out["GS"]
