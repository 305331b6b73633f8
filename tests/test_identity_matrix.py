"""The identity matrix: tracing and a null fault plan change nothing.

For every cell below, a traced run (a :class:`~repro.trace.RunTracer`
handed to the runner) and a run with the null plan ``FaultPlan(seed=11)``
attached through ``RunConfig.faults`` must be byte-identical to the plain
run: solution bytes, every history array, the ``MessageStats``
fingerprint (per-step snapshots included), repairs, the degraded flag and
reason, and ``faults_injected``.  Cells that carry a plan of their own
(the seeded lossy plan, the stall/slowdown windows) are checked traced
against plain only.

The cells:

- {DS, PS, BJ} × {flat, async} × {no plan, seeded lossy plan};
- thresholded DS on the flat plane;
- a stall/slowdown window plan;
- a warm re-``setup()``: the second run of a kept runner;
- a setup served through the persistent setup cache, cold and warm;
- ``solve(method="mg")`` with the ds, ps and bj block smoothers, whose
  relaxation budget is enforced by the runners' ``_relax_filter``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import MultigridConfig, RunConfig, solve
from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.core.threshold_ds import ThresholdedDistributedSouthwell
from repro.faults import FaultPlan, SlowdownWindow, StallWindow
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import symmetric_unit_diagonal_scale
from repro.trace import NULL_TRACER, RunTracer

from tests.plane_pins import history_digest, stats_digest

NULL_PLAN = FaultPlan(seed=11)
LOSSY_PLAN = FaultPlan.uniform(drop=0.1, duplicate=0.05, reorder=0.1,
                               seed=11)
WINDOW_PLAN = FaultPlan(seed=3,
                        stalls=(StallWindow(rank=1, start=2, stop=6),),
                        slowdowns=(SlowdownWindow(rank=0, start=1, stop=8,
                                                  factor=2.5),))
CLASSES = {"ds": DistributedSouthwell, "ps": ParallelSouthwell,
           "bj": BlockJacobi}
N_PARTS, STEPS = 8, 15


def _problem():
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    x2, b2 = rng.uniform(-1.0, 1.0, A.n_rows), rng.uniform(-1.0, 1.0,
                                                            A.n_rows)
    return A, x0, (x2, b2)


_A, _X0, _SECOND = _problem()
_SYSTEM = build_block_system(_A, partition(_A, N_PARTS, seed=3))


# ----------------------------------------------------------------------
# the cells: name -> (run function, the cell's own plan)
# ----------------------------------------------------------------------
def _observed(res, stats=None) -> dict:
    """What a caller can see of one ``solve()`` result."""
    return {
        "x": res.x.tobytes(),
        "history": history_digest(res.history),
        "comm": [float(v).hex() for v in (res.comm_cost, res.solve_comm,
                                           res.residual_comm,
                                           res.simulated_time)],
        "stats": None if stats is None else stats_digest(stats),
        "relaxations": res.relaxations,
        "repairs": res.repairs,
        "degraded": (res.degraded, res.degraded_reason),
        "faults": res.faults_injected,
        "clocks": (res.virtual_time, res.rank_clocks, res.rank_idle),
        "levels": (None if res.levels is None
                   else [lvl.to_dict() for lvl in res.levels]),
    }


def _runner_cell(cls, runtime, plan, system=None, second_run=False,
                 **kwargs):
    """A block method run through the ``solve()`` front door on a
    runner built here (so its stats are visible)."""
    def run(tracer, faults, tmp_path):
        runner = cls(system or _SYSTEM, tracer=tracer, faults=plan,
                     **kwargs)
        cfg = RunConfig(max_steps=STEPS, runtime=runtime, faults=faults)
        res = solve(_A, method=runner, x0=_X0, config=cfg)
        if second_run:          # warm re-setup() on the kept runner
            x2, b2 = _SECOND
            res = solve(_A, b2, method=runner, x0=x2, config=cfg)
        return _observed(res, runner.engine.stats)
    return run, plan


def _cached_cell(warm):
    """DS on a system served by the persistent setup cache: the cold
    build that fills it, or (``warm``) the load that a second set-up in
    the same directory takes."""
    def run(tracer, faults, tmp_path):
        cache = tmp_path / "setup-cache"
        for _ in range(1 + warm):
            _, system = get_setup(_A, N_PARTS, seed=3,
                                  tracer=tracer or NULL_TRACER,
                                  cache_dir=cache)
        assert any(cache.iterdir())
        if warm and tracer is not None:
            hits = [ev for ev in tracer.iter_events()
                    if ev["ev"] == "setup_cache"]
            assert [ev["hit"] for ev in hits] == [False, True]
        run_cell, _ = _runner_cell(DistributedSouthwell, "flat", None,
                                   system=system)
        return run_cell(tracer, faults, tmp_path)
    return run, None


def _mg_cell(smoother):
    def run(tracer, faults, tmp_path):
        A = poisson_2d(31).scale(32.0 ** 2)
        res = solve(A, method="mg", config=RunConfig(
            n_parts=4, trace=tracer, faults=faults,
            mg=MultigridConfig(smoother=smoother, cycles=3)))
        return _observed(res)
    return run, None


CELLS = {
    **{f"{m}-{rt}-{'lossy' if plan else 'clean'}":
       _runner_cell(cls, rt, plan)
       for m, cls in CLASSES.items()
       for rt in ("flat", "async")
       for plan in (None, LOSSY_PLAN)},
    "threshold-ds-flat": _runner_cell(ThresholdedDistributedSouthwell,
                                      "flat", None, threshold=0.3),
    "windows-bj-flat": _runner_cell(BlockJacobi, "flat", WINDOW_PLAN),
    "warm-resetup-ds-flat": _runner_cell(DistributedSouthwell, "flat",
                                         LOSSY_PLAN, second_run=True),
    "warm-resetup-ps-flat": _runner_cell(ParallelSouthwell, "flat", None,
                                         second_run=True),
    "cached-setup-cold": _cached_cell(warm=False),
    "cached-setup-warm": _cached_cell(warm=True),
    **{f"mg-{s}": _mg_cell(s) for s in ("ds", "ps", "bj")},
}

_PLAIN: dict[str, dict] = {}


def _plain(cell, tmp_path_factory):
    if cell not in _PLAIN:
        run, _ = CELLS[cell]
        _PLAIN[cell] = run(None, None, tmp_path_factory.mktemp("plain"))
    return _PLAIN[cell]


@pytest.mark.parametrize("cell,variant", [
    (cell, variant)
    for cell, (_, plan) in CELLS.items()
    for variant in ("traced", "null-plan")
    if variant == "traced" or plan is None])
def test_variant_is_byte_identical_to_plain(cell, variant, tmp_path,
                                            tmp_path_factory):
    run, _ = CELLS[cell]
    tracer = RunTracer() if variant == "traced" else None
    faults = NULL_PLAN if variant == "null-plan" else None
    got = run(tracer, faults, tmp_path)
    want = _plain(cell, tmp_path_factory)
    for key in want:
        assert got[key] == want[key], f"{cell} [{variant}]: {key} differs"
    if tracer is not None:      # the traced run did record
        assert any(ev["ev"] == "relax" for ev in tracer.iter_events())


def test_cells_exercise_what_they_name(tmp_path_factory):
    """The lossy cells inject faults, the window cell stalls, the async
    cells run on virtual time, and the mg cells cut their level runs to
    the relaxation budget — so the identities above are not vacuous."""
    plain = {c: _plain(c, tmp_path_factory) for c in CELLS}
    for cell, obs in plain.items():
        if "lossy" in cell or cell == "warm-resetup-ds-flat":
            assert sum(obs["faults"].values()) > 0, cell
        if "-async-" in cell:
            assert obs["clocks"][0] > 0.0, cell
        if cell.startswith("mg-"):
            # 3 cycles smooth each level twice: the finest level spends
            # its budget exactly, no level overshoots it
            fine, *rest = obs["levels"]
            assert fine["relaxations"] == 6 * fine["n_unknowns"], cell
            assert all(lvl["relaxations"] <= 6 * lvl["n_unknowns"]
                       for lvl in rest), cell
    assert plain["windows-bj-flat"]["faults"]["stall"] > 0
