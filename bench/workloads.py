"""The four workloads, their inputs, their rounds and their checks.

A *round* is one fresh set-up followed by one solve to a fixed work
budget, made piecewise through the same public calls ``repro.solve()``
makes (same arguments, same order) with a bench-side span around each
call.  The one-call ``solve()`` a user would write is the *front door*;
every run checks that it returns exactly what the piecewise round did,
so the spans add up to what users actually run.

Inputs come from ``--seed`` and nothing else: the initial guess or
right-hand side, the FEM mesh jitter, and the seed handed to the
partitioner and the runtime.  The program only ever sees the generated
inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import repro
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.matrices import fem_poisson_2d, poisson_2d
from repro.multigrid.mg_exec import MultigridExecutor, make_smoother
from repro.partition import partition
from repro.runtime import (
    CATEGORY_RESIDUAL,
    CATEGORY_SOLVE,
    CORI_LIKE,
    use_runtime,
)
from repro.trace import Tracer

from harness import Spans, timed_segment

# ----------------------------------------------------------------------
# metric and workload tables (BENCHMARK.json is checked against these)
# ----------------------------------------------------------------------
#: (name, unit, better, bound).  The timing bounds are the widest the
#: contract allows because the recording box's busy spells move even the
#: fastest round by +-15 %; the three model/count metrics repeat exactly
#: on one seed, and their bounds cover the spread *between* seeds (up to
#: 8 % / 10 % / 3 %), which is what the acceptance check takes
#: (bench/README.md has the measurements).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("msgs_per_proc", "msgs", "lower", 0.25),
    ("model_time_s", "s", "lower", 0.25),
    ("residual_digits", "digits", "higher", 0.10),
)

#: (name, unit, better) — layer = module name under ``repro``
PER_LAYER = (
    ("matrices.build_s", "s", "lower"),
    ("partition.partition_s", "s", "lower"),
    ("partition.edge_cut_frac", "frac", "lower"),
    ("partition.imbalance", "ratio", "lower"),
    ("core.blockdata.build_s", "s", "lower"),
    ("core.blockdata.edges", "count", "lower"),
    ("core.block_base.ctor_s", "s", "lower"),
    ("core.block_base.setup_s", "s", "lower"),
    ("core.step_ms_p50", "ms", "lower"),
    ("core.step_ms_p90", "ms", "lower"),
    ("core.steps", "count", "lower"),
    ("core.relaxations", "count", "lower"),
    ("core.relax_per_s", "1/s", "higher"),
    ("core.active_frac_mean", "frac", "higher"),
    ("core.solution_s", "s", "lower"),
    ("core.phase.relax_s", "s", "lower"),
    ("core.phase.apply_s", "s", "lower"),
    ("core.phase.finalize_s", "s", "lower"),
    ("core.step_overhead_s", "s", "lower"),
    ("core.repairs", "count", "lower"),
    ("runtime.stats.solve_msgs_per_proc", "msgs", "lower"),
    ("runtime.stats.residual_msgs_per_proc", "msgs", "lower"),
    ("runtime.stats.bytes_per_proc", "B", "lower"),
    ("runtime.stats.recvs_per_proc", "msgs", "lower"),
    ("core.async_exec.ctor_s", "s", "lower"),
    ("core.async_exec.prepare_s", "s", "lower"),
    ("core.async_exec.run_s", "s", "lower"),
    ("core.async_exec.turns", "count", "lower"),
    ("core.async_exec.us_per_turn", "us", "lower"),
    ("core.async_exec.relax_turn_frac", "frac", "higher"),
    ("runtime.asyncplane.idle_frac", "frac", "lower"),
    ("runtime.asyncplane.clock_spread", "ratio", "lower"),
    ("multigrid.hierarchy_s", "s", "lower"),
    ("multigrid.prepare_s", "s", "lower"),
    ("multigrid.prepare_level0_frac", "frac", "lower"),
    ("multigrid.cycle_ms_p50", "ms", "lower"),
    ("multigrid.smooth_s", "s", "lower"),
    ("multigrid.transfer_s", "s", "lower"),
    ("multigrid.coarse_s", "s", "lower"),
    ("multigrid.levels", "count", "lower"),
    ("multigrid.level0_msgs_frac", "frac", "lower"),
    ("multigrid.digits_per_cycle", "digits", "higher"),
    # side probes: code no workload runs (bench/probes.py)
    ("sparsela.matvec_ms", "ms", "lower"),
    ("sparsela.matvec_bytes_computed", "B", "lower"),
    ("sparsela.gs_sweep_ms", "ms", "lower"),
    ("sparsela.bigblock_step_ms", "ms", "lower"),
    ("core.ps_step_ms", "ms", "lower"),
    ("core.bj_step_ms", "ms", "lower"),
    ("core.ps_over_ds_msgs", "ratio", "higher"),
    ("runtime.shmplane.step_ms", "ms", "lower"),
    ("runtime.shmplane.over_flat", "ratio", "lower"),
    ("core.async_exec.batched_run_s", "s", "lower"),
    ("core.async_exec.batched_over_scalar", "ratio", "lower"),
    ("faults.lockstep_lossy_step_ms", "ms", "lower"),
    ("faults.async_lossy_us_per_turn", "us", "lower"),
    ("faults.drops", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("setupcache.store_s", "s", "lower"),
    ("setupcache.warm_load_s", "s", "lower"),
    ("api.front_door_s", "s", "lower"),
    ("api.front_door_gap_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("noise.calib_spread", "ratio", "lower"),
    ("noise.round_iqr_frac", "frac", "lower"),
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``size`` is the grid side (Poisson) or the
    target row count (FEM); ``budget`` is relaxations per row (lockstep),
    turns (async) or V-cycles (mg).  ``smoke`` holds the same three
    numbers for the functional ``--smoke`` mode."""

    name: str
    why: str
    kind: str                       # "lockstep" | "async" | "mg"
    size: int
    n_parts: int
    budget: int
    digits_floor: float
    smoke: tuple[int, int, int]

    def sized(self, smoke: bool) -> tuple[int, int, int]:
        return self.smoke if smoke else (self.size, self.n_parts,
                                         self.budget)


# Sizes keep a round under ~1.9 s on the recording box, so a default
# 25 s run times 12-17 rounds: poisson_2d(128) at P=1024 is 16
# rows/block, poisson_2d(96) at P=256 is 36 rows/block — both
# interpreter-bound, which is the regime the paper's runs are in once P
# is large.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="setup_p1024",
        why=("P=1024 at 16 rows/block: partition + block build + plane "
             "set-up are ~80 % of the round, so set-up gains show here "
             "and step-loop gains barely move it"),
        kind="lockstep", size=128, n_parts=1024, budget=7,
        digits_floor=1.5, smoke=(32, 64, 3)),
    Workload(
        name="lockstep_ds_p256",
        why=("P=256 stepped to a fixed relaxation budget (~210 steps): "
             "the lockstep step loop is all of solve_wall_s; a set-up or "
             "async gain must not move it"),
        kind="lockstep", size=96, n_parts=256, budget=100,
        digits_floor=3.0, smoke=(32, 16, 40)),
    Workload(
        name="async_stragglers",
        why=("irregular FEM mesh under runtime=async with every 8th rank "
             "a 2x straggler: the event loop does the work and the "
             "lockstep step() loop is bypassed entirely"),
        kind="async", size=8000, n_parts=128, budget=70_000,
        digits_floor=1.5, smoke=(600, 16, 3_000)),
    Workload(
        name="mg_vcycle_ds",
        why=("9 V-cycles with the block-DS smoother: six shrinking "
             "levels set up per round and budget-cut bursts of a few "
             "steps, so per-call overhead dominates and a gain that "
             "taxes short runs shows"),
        kind="mg", size=127, n_parts=32, budget=9,
        digits_floor=0.8, smoke=(31, 8, 3)),
)}

#: lockstep rounds stop at the relaxation budget; this many steps per
#: unit of budget without reaching it means the method stalled
_STEP_CAP_PER_BUDGET = 12

#: every 8th rank computes at half speed
_STRAGGLER_EVERY = 8
_STRAGGLER_FACTOR = 0.5

_MG_SMOOTHER = "ds"
_MG_SWEEPS = 1.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What the program receives: the matrix, the vectors and the seed
    it passes on to the partitioner and the runtime."""

    A: repro.CSRMatrix
    x0: np.ndarray | None
    b: np.ndarray
    seed: int
    r0_norm: float


def make_inputs(wl: Workload, seed: int, smoke: bool) -> Inputs:
    size, _, _ = wl.sized(smoke)
    rng = np.random.default_rng(seed)
    if wl.kind == "mg":
        # Figure 6 protocol: random RHS in [-1, 1], zero initial guess
        A = poisson_2d(size)
        b = rng.uniform(-1.0, 1.0, A.n_rows)
        return Inputs(A, None, b, seed, float(np.linalg.norm(b)))
    if wl.kind == "async":
        A = fem_poisson_2d(size, seed=seed).matrix
    else:
        A = poisson_2d(size)
    x0, b = unit_residual_start(A, rng)
    return Inputs(A, x0, b, seed, float(np.linalg.norm(b - A.matvec(x0))))


def unit_residual_start(A, rng) -> tuple[np.ndarray, np.ndarray]:
    """Section 4.2's start: ``b = 0`` and a random ``x0`` scaled so that
    ``||r0|| = 1``."""
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    return x0 / np.linalg.norm(b - A.matvec(x0)), b


def stragglers(n_parts: int) -> tuple[tuple[int, float], ...]:
    return tuple((rank, _STRAGGLER_FACTOR)
                 for rank in range(0, n_parts, _STRAGGLER_EVERY))


# ----------------------------------------------------------------------
# the bench-side tracer: lifecycle hooks only, recorded as spans
# ----------------------------------------------------------------------
_PHASE_SPAN = {
    "relax": "core.phase.relax",
    "apply": "core.phase.apply",
    "finalize": "core.phase.finalize",
    "setup:partition": "partition.partition",
    "setup:block_build": "core.blockdata.build",
    "setup:cache_load": "setupcache.load",
    "mg:coarse": "multigrid.coarse",
    "mg:restrict": "multigrid.transfer",
    "mg:prolong": "multigrid.transfer",
}


class PhaseTracer(Tracer):
    """Turns the program's step/phase lifecycle hooks into spans.

    Every other hook stays the base class's no-op, so what a traced
    round pays is the hooks' call sites, not event recording.
    ``step_span`` names the span a ``step_begin``/``step_end`` pair
    becomes (a lockstep step, or a V-cycle under multigrid).
    """

    enabled = True

    def __init__(self, spans: Spans, step_span: str) -> None:
        self._spans = spans
        self._step_span = step_span

    def step_begin(self, step: int) -> None:
        self._spans.begin(self._step_span)

    def step_end(self, active: int) -> None:
        self._spans.end()

    def phase_begin(self, name: str) -> None:
        span = _PHASE_SPAN.get(name)
        if span is None:            # "mg:level{k}:pre" / ":post"
            _, level, _ = name.split(":")
            self._spans.begin("multigrid.smooth", int(level[5:]))
        else:
            self._spans.begin(span)

    def phase_end(self, name: str) -> None:
        self._spans.end()


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class Round:
    """One round's measurements and the objects the checks read."""

    root: int                       # index of the round's root span
    setup_s: float
    solve_s: float
    exact: dict
    x: np.ndarray
    runner_norm: float
    stalled: str | None
    state: dict


def sha(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _block_setup(inp: Inputs, n_parts: int, spans: Spans, tracer):
    """partition + build_block_system + method constructor, as
    ``solve()`` makes them through ``get_setup`` with the cache off."""
    with spans.span("partition.partition"):
        part = partition(inp.A, n_parts, method="multilevel", seed=inp.seed)
    with spans.span("core.blockdata.build"):
        system = build_block_system(inp.A, part, local_solver="gs",
                                    n_sweeps=1)
    with spans.span("core.block_base.ctor"):
        runner = DistributedSouthwell(system, cost_model=CORI_LIKE,
                                      seed=inp.seed, tracer=tracer,
                                      faults=None)
    return system, runner


def _runner_exact(runner, x: np.ndarray, model_time: float) -> dict:
    stats = runner.engine.stats
    return {
        "steps": int(runner.steps_taken),
        "relaxations": int(runner.total_relaxations),
        "msgs": int(stats.total_messages),
        "bytes": int(stats.total_bytes),
        "msgs_per_proc": float(stats.communication_cost()),
        "model_time_s": float(model_time),
        "x_sha256": sha(x),
    }


def _round_lockstep(wl, inp, smoke, spans, tracer) -> Round:
    _, n_parts, per_row = wl.sized(smoke)
    budget = per_row * inp.A.n_rows
    cap = _STEP_CAP_PER_BUDGET * per_row + 50
    tracing = tracer is not None
    with use_runtime("flat"), spans.span("round") as root:
        with timed_segment(), spans.span("setup") as s_setup:
            system, runner = _block_setup(inp, n_parts, spans, tracer)
            with spans.span("core.block_base.setup"):
                runner.setup(inp.x0, inp.b)
        with timed_segment(), spans.span("solve") as s_solve:
            # BlockMethodBase.run()'s loop, stopped by relaxations spent
            # instead of a step count
            stats = runner.engine.stats
            history = runner.history
            with spans.span("core.loop"):
                while (runner.total_relaxations < budget
                       and runner.steps_taken < cap):
                    if tracing:
                        tracer.step_begin(runner.steps_taken + 1)
                    active = runner.step()
                    runner.steps_taken += 1
                    if tracing:
                        tracer.step_end(active)
                    history.append(
                        norm=runner.global_norm(),
                        relaxations=runner.total_relaxations,
                        parallel_steps=runner.steps_taken,
                        comm_cost=stats.communication_cost(),
                        time=stats.elapsed_time(),
                        active_fraction=active / n_parts)
            with spans.span("core.solution"):
                x = runner.solution()
    stalled = None
    if runner.total_relaxations < budget:
        stalled = f"hit the {cap}-step cap before the relaxation budget"
    elif runner.degraded:
        stalled = f"degraded: {runner.degraded_reason}"
    return Round(root, spans.duration(s_setup), spans.duration(s_solve),
                 _runner_exact(runner, x, stats.elapsed_time()), x,
                 float(runner.global_norm()), stalled,
                 {"system": system, "runner": runner})


def _round_async(wl, inp, smoke, spans, tracer) -> Round:
    _, n_parts, turns = wl.sized(smoke)
    with use_runtime("async"), spans.span("round") as root:
        with timed_segment(), spans.span("setup") as s_setup:
            system, runner = _block_setup(inp, n_parts, spans, tracer)
            with spans.span("core.async_exec.ctor"):
                ex = AsyncExecutor(runner, latency=None, poll_interval=2.0e-6,
                                   speed_factors=stragglers(n_parts),
                                   record_every=64, scheduler=None)
            with spans.span("core.async_exec.prepare"):
                ex.prepare(inp.x0, inp.b)
        with timed_segment(), spans.span("solve") as s_solve:
            with spans.span("core.async_exec.run"):
                ex.run(max_turns=turns)
            with spans.span("core.solution"):
                x = runner.solution()
    stalled = None
    if runner.degraded:
        stalled = f"degraded: {runner.degraded_reason}"
    elif ex.turns != turns:
        stalled = f"event loop ran dry after {ex.turns} of {turns} turns"
    return Round(root, spans.duration(s_setup), spans.duration(s_solve),
                 _runner_exact(runner, x, ex.aplane.elapsed), x,
                 float(runner.global_norm()), stalled,
                 {"system": system, "runner": runner, "executor": ex})


def _round_mg(wl, inp, smoke, spans, tracer) -> Round:
    _, n_parts, cycles = wl.sized(smoke)
    with use_runtime("flat"), spans.span("round") as root:
        with timed_segment(), spans.span("setup") as s_setup:
            with spans.span("multigrid.make_smoother"):
                smoother = make_smoother(
                    _MG_SMOOTHER, budget=_MG_SWEEPS, n_parts=n_parts,
                    seed=inp.seed, local_solver="gs",
                    partition_method="multilevel", cost_model=CORI_LIKE,
                    tracer=tracer, faults=None)
            with spans.span("multigrid.hierarchy"):
                ex = MultigridExecutor(inp.A, smoother, coarsest_dim=3,
                                       n_levels=None, hierarchy="geometric",
                                       drop_tol=0.0, tracer=tracer)
            # MultigridExecutor.run() prepares every smoothed level
            # before its first cycle; made here so set-up is its own span
            for k, lvl in enumerate(ex.levels[:-1]):
                with spans.span("multigrid.prepare", k):
                    smoother.prepare(lvl.matrix)
        with timed_segment(), spans.span("solve") as s_solve:
            with spans.span("multigrid.run"):
                history = ex.run(inp.b, x0=inp.x0, n_cycles=cycles)
            x = ex.x
    agg = ex.aggregate_stats()
    rows = ex.level_stats()
    exact = {
        "steps": int(ex.cycles),
        "relaxations": int(sum(r.relaxations for r in rows)),
        "msgs": int(agg.total_messages),
        "bytes": int(agg.total_bytes),
        "msgs_per_proc": float(agg.communication_cost()),
        "model_time_s": float(agg.elapsed_time()),
        "x_sha256": sha(x),
    }
    return Round(root, spans.duration(s_setup), spans.duration(s_solve),
                 exact, x, float(history.final_norm), None,
                 {"executor": ex, "smoother": smoother, "agg": agg,
                  "rows": rows})


_ROUNDS = {"lockstep": _round_lockstep, "async": _round_async,
           "mg": _round_mg}


def run_round(wl: Workload, inp: Inputs, smoke: bool, spans: Spans,
              traced: bool) -> Round:
    """One fresh set-up + solve.  ``traced`` hands the program a
    :class:`PhaseTracer`; untraced rounds pass ``tracer=None`` exactly as
    ``solve()`` does when no trace is asked for."""
    tracer = None
    if traced:
        tracer = PhaseTracer(spans, "multigrid.cycle" if wl.kind == "mg"
                             else "core.step")
    return _ROUNDS[wl.kind](wl, inp, smoke, spans, tracer)


# ----------------------------------------------------------------------
# the front door: the single call a user would write
# ----------------------------------------------------------------------
def front_door(wl: Workload, inp: Inputs, smoke: bool, steps: int):
    """``repro.solve()`` on the same inputs.  ``steps`` is what the
    piecewise round needed to spend its relaxation budget — ``solve()``
    takes a step count, not a budget."""
    _, n_parts, budget = wl.sized(smoke)
    if wl.kind == "lockstep":
        cfg = repro.RunConfig(n_parts=n_parts, max_steps=steps,
                              seed=inp.seed, runtime="flat")
        return repro.solve(inp.A, inp.b, method="distributed-southwell",
                           x0=inp.x0, config=cfg)
    if wl.kind == "async":
        acfg = repro.AsyncConfig(speed_factors=stragglers(n_parts),
                                 max_turns=budget)
        cfg = repro.RunConfig(n_parts=n_parts, seed=inp.seed,
                              runtime="async", async_config=acfg)
        return repro.solve(inp.A, inp.b, method="distributed-southwell",
                           x0=inp.x0, config=cfg)
    mcfg = repro.api.MultigridConfig(smoother=_MG_SMOOTHER,
                                     budget=_MG_SWEEPS, cycles=budget)
    cfg = repro.RunConfig(n_parts=n_parts, seed=inp.seed, runtime="flat",
                          mg=mcfg)
    return repro.solve(inp.A, inp.b, method="mg", x0=inp.x0, config=cfg)


def front_door_exact(wl: Workload, res) -> dict:
    """The front door's :class:`SolveResult` in the rounds' vocabulary
    (message totals come back per process, so the totals are omitted)."""
    model = res.virtual_time if wl.kind == "async" else res.simulated_time
    return {
        "steps": int(res.parallel_steps),
        "relaxations": int(res.relaxations),
        "msgs_per_proc": float(res.comm_cost),
        "model_time_s": float(model),
        "x_sha256": sha(res.x),
    }


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def residual_digits(inp: Inputs, x: np.ndarray) -> tuple[float, float]:
    """``(digits, ||b - A x||)`` by the bench's own matvec."""
    norm = float(np.linalg.norm(inp.b - inp.A.matvec(x)))
    return -math.log10(norm / inp.r0_norm), norm


def check_round(wl: Workload, inp: Inputs, smoke: bool, rnd: Round,
                reference: dict | None) -> list[str]:
    """Why this round fails, as a list of reasons (empty = it passes)."""
    why = []
    if rnd.stalled:
        why.append(rnd.stalled)
    if reference is not None and rnd.exact != reference:
        diff = sorted(k for k in reference if rnd.exact.get(k)
                      != reference[k])
        why.append(f"not reproducible: {', '.join(diff)} differ from the "
                   f"first round")
    digits, norm = residual_digits(inp, rnd.x)
    floor = 0.1 if smoke else wl.digits_floor
    if not digits >= floor:
        why.append(f"residual_digits {digits:.3f} below the floor {floor}")
    # the paper's invariant: the residual the method carries is the
    # exact b - A x, not a drifting estimate of it
    if abs(norm - rnd.runner_norm) > 1e-10 * norm:
        why.append(f"||b - A x|| = {norm!r} but the method reports "
                   f"{rnd.runner_norm!r}")
    return why


def check_front_door(rnd_exact: dict, door: dict) -> list[str]:
    diff = sorted(k for k in door if door[k] != rnd_exact.get(k))
    if diff:
        return [f"front door differs from the piecewise round: "
                + ", ".join(f"{k} {door[k]!r} != {rnd_exact.get(k)!r}"
                            for k in diff)]
    return []


# ----------------------------------------------------------------------
# per-layer counts read off a finished round
# ----------------------------------------------------------------------
def _partition_quality(A, part) -> tuple[float, float]:
    """(share of off-diagonal entries that cross parts, largest part
    over mean part)."""
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
    offdiag = rows != A.indices
    cut = part.parts[rows[offdiag]] != part.parts[A.indices[offdiag]]
    sizes = np.diff(part.offsets)
    return float(cut.mean()), float(sizes.max() / sizes.mean())


def layer_counts(wl: Workload, inp: Inputs, rnd: Round) -> dict:
    """The exactly-repeating per-layer counts of one round."""
    st = rnd.state
    digits, _ = residual_digits(inp, rnd.x)
    out = {"core.relaxations": rnd.exact["relaxations"]}
    if wl.kind == "mg":
        ex, agg, rows = st["executor"], st["agg"], st["rows"]
        system = st["smoother"].record_for(ex.levels[0].matrix).runner.system
        n_procs = agg.n_procs
        solve_msgs = agg.category_msgs.get(CATEGORY_SOLVE, 0)
        res_msgs = agg.category_msgs.get(CATEGORY_RESIDUAL, 0)
        out.update({
            "core.repairs": res_msgs,
            "multigrid.levels": len(ex.levels),
            "multigrid.level0_msgs_frac":
                rows[0].msgs / max(1, agg.total_messages),
            "multigrid.digits_per_cycle": digits / max(1, ex.cycles),
        })
        total_bytes, total_recvs = agg.total_bytes, agg.total_receives
    else:
        runner, system = st["runner"], st["system"]
        stats = runner.engine.stats
        n_procs = system.n_parts
        solve_msgs = stats.category_msgs.get(CATEGORY_SOLVE, 0)
        res_msgs = stats.category_msgs.get(CATEGORY_RESIDUAL, 0)
        total_bytes, total_recvs = stats.total_bytes, stats.total_receives
        out["core.repairs"] = int(runner.repairs_sent)
        if wl.kind == "lockstep":
            out["core.active_frac_mean"] = \
                runner.history.mean_active_fraction()
        else:
            aplane = st["executor"].aplane
            clocks = np.asarray(aplane.clocks, dtype=np.float64)
            turns = rnd.exact["steps"]
            mean_block = inp.A.n_rows / n_procs
            out.update({
                "core.async_exec.turns": turns,
                # block relaxations (rows relaxed / mean block) per turn
                "core.async_exec.relax_turn_frac":
                    rnd.exact["relaxations"] / mean_block / turns,
                "runtime.asyncplane.idle_frac":
                    float(np.sum(aplane.idle) / clocks.sum()),
                "runtime.asyncplane.clock_spread":
                    float(clocks.max() / clocks.min()),
            })
    # (for mg: the finest level, whose operator is the input matrix)
    cut, imbalance = _partition_quality(inp.A, system.part)
    out.update({
        "partition.edge_cut_frac": cut,
        "partition.imbalance": imbalance,
        "core.blockdata.edges": len(system.couplings),
        "runtime.stats.solve_msgs_per_proc": solve_msgs / n_procs,
        "runtime.stats.residual_msgs_per_proc": res_msgs / n_procs,
        "runtime.stats.bytes_per_proc": total_bytes / n_procs,
        "runtime.stats.recvs_per_proc": total_recvs / n_procs,
    })
    return out
