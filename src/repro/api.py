"""Top-level convenience API: one front door for the three block methods.

:func:`solve` is the package's canonical entry point: it takes the matrix
plus a frozen :class:`RunConfig` describing *everything else* — problem
shape (``n_parts``, ``max_steps``, targets), machine (``cost_model``),
and execution environment (message-plane ``runtime``, ``trace``) —
runs the method end to end, and returns a
:class:`SolveResult` with the solution, the convergence history, the
communication statistics, and the resolved configuration.  It is the
*only* entry point: the seed-era per-method wrappers
(``run_block_method``, ``solve_block_jacobi``, ...) were removed in
v2.0 after a deprecation cycle.

``runtime="async"`` swaps the lockstep epoch driver for the
event-driven executor (DESIGN.md §5.14): per-rank virtual clocks priced
by the cost model, simulated-time message delivery, stragglers via
:class:`AsyncConfig.speed_factors`.  Async runs fill the v4 result
fields (``virtual_time``, ``rank_clocks``, ``rank_idle``) and sample
their history on the virtual-time axis (:meth:`SolveResult.timeline`).

Configuration precedence follows :mod:`repro.config`: a ``RunConfig``
field set here beats the corresponding ``REPRO_*`` environment variable,
which beats the built-in default.  A ``runtime`` override is applied
*scoped* (a context manager) so a ``solve`` call never leaks
process-global state.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import config as _config
from repro.analysis.history import ConvergenceHistory
from repro.core.async_exec import AsyncExecutor, check_scheduler
from repro.core.block_base import BlockMethodBase
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.core.parallel_southwell_block import ParallelSouthwell
from repro.faults import DegradedRunError, FaultPlan
from repro.runtime import (
    CATEGORY_RESIDUAL,
    CATEGORY_SOLVE,
    CORI_LIKE,
    CostModel,
    runtime_mode,
    use_runtime,
)
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import CSRMatrix
from repro.trace import NULL_TRACER, RunTracer, Tracer, tracer_from_config

__all__ = [
    "AsyncConfig",
    "MultigridConfig",
    "RunConfig",
    "SolveResult",
    "solve",
]

_METHODS = {
    "block-jacobi": BlockJacobi,
    "parallel-southwell": ParallelSouthwell,
    "distributed-southwell": DistributedSouthwell,
}


@dataclass(frozen=True)
class AsyncConfig:
    """Event-driven-runtime knobs (``RunConfig.async_config``).

    Only consulted when the run executes under ``runtime="async"``.
    ``None`` fields mean the built-in default: ``latency``
    :data:`repro.config.DEFAULT_ASYNC_LATENCY`, ``speed_factors`` no
    stragglers, ``max_turns`` ``max_steps × P × 8``.

    ``speed_factors`` is a tuple of ``(rank, factor)`` pairs — factor
    0.5 makes that rank compute at half speed (a 2× straggler) — or the
    CLI's ``"rank:factor,..."`` spec string, parsed into that tuple.
    Every duration and factor must be finite; ranks, ``max_turns`` and
    ``record_every`` must be integers (numpy integers count, ``bool``
    does not), else a :class:`ValueError` names the field.
    ``max_time`` bounds *simulated* seconds.  ``poll_interval`` is how
    long an idle rank sleeps before re-checking its mailbox;
    ``record_every`` is the history sampling cadence in turns.

    ``scheduler`` accepts ``None``, ``"scalar"`` or ``"batched"``, and
    all three run the one event loop: ``"batched"`` names the deleted
    event-horizon scheduler (DESIGN.md §5.15) and stays accepted because
    the benchmark's probe passes it.  Any other value raises
    :class:`ValueError`.
    """

    latency: float | None = None
    poll_interval: float = 2.0e-6
    speed_factors: tuple[tuple[int, float], ...] | None = None
    max_time: float | None = None
    max_turns: int | None = None
    record_every: int = 64
    scheduler: str | None = None

    def __post_init__(self) -> None:
        finite = _config.require_finite
        if self.latency is not None:
            finite("latency", self.latency, positive=False)
        finite("poll_interval", self.poll_interval, positive=True)
        if isinstance(self.speed_factors, str):
            # the CLI's "rank:factor,..." spec, parsed and validated once
            object.__setattr__(self, "speed_factors",
                               _config.parse_speed_factors(
                                   self.speed_factors))
        if self.speed_factors is not None:
            for pair in self.speed_factors:
                try:
                    rank, factor = pair
                except (TypeError, ValueError):
                    raise ValueError(
                        f"speed_factors entries must be (rank, factor) "
                        f"pairs, got {pair!r}") from None
                _config.require_int("speed_factors rank", rank, 0)
                finite("speed_factors factor", factor, positive=True)
        if self.max_time is not None:
            finite("max_time", self.max_time, positive=True)
        if self.max_turns is not None:
            object.__setattr__(self, "max_turns", _config.require_int(
                "max_turns", self.max_turns, 1))
        object.__setattr__(self, "record_every", _config.require_int(
            "record_every", self.record_every, 1))
        check_scheduler(self.scheduler)


@dataclass(frozen=True)
class MultigridConfig:
    """Multigrid knobs (``RunConfig.mg``), consulted by ``method="mg"``.

    ``None`` fields mean the built-in default: ``smoother`` ``"ds"``,
    ``budget`` 1.0 sweeps, ``drop_tol`` 0.0, ``cycles`` 9, ``levels``
    the full hierarchy.

    ``smoother`` names the per-level smoother
    (:data:`repro.config.VALID_MG_SMOOTHERS`): ``"ds"`` / ``"ps"`` /
    ``"bj"`` run the block methods through the real distributed runtime
    (``RunConfig.n_parts`` processes per level, messages accounted per
    level); ``"scalar-ds"`` / ``"scalar-ps"`` are the paper's published
    Figure 6 smoothers; ``"gs"`` is the Gauss-Seidel baseline.
    ``budget`` is the equal-relaxation-budget contract in sweeps
    (relaxations per smoothing application = ``budget × level rows``).
    A positive ``drop_tol`` sparsifies the Galerkin coarse operators
    (arXiv 1512.04629) — and implies ``hierarchy="galerkin"``.
    """

    smoother: str | None = None
    budget: float | None = None
    drop_tol: float | None = None
    cycles: int | None = None
    levels: int | None = None
    hierarchy: str = "geometric"
    coarsest_dim: int = 3

    def __post_init__(self) -> None:
        if self.smoother is not None:
            name = str(self.smoother).strip().lower()
            if name not in _config.VALID_MG_SMOOTHERS:
                raise ValueError(
                    f"unknown multigrid smoother {self.smoother!r}; "
                    f"expected one of "
                    f"{', '.join(_config.VALID_MG_SMOOTHERS)}")
            object.__setattr__(self, "smoother", name)
        if self.budget is not None and self.budget <= 0.0:
            raise ValueError("multigrid smoothing budget must be positive")
        if self.drop_tol is not None and self.drop_tol < 0.0:
            raise ValueError("multigrid drop_tol must be non-negative")
        if self.cycles is not None and self.cycles < 1:
            raise ValueError("multigrid needs at least one V-cycle")
        if self.levels is not None and self.levels < 2:
            raise ValueError("a multigrid hierarchy needs at least 2 levels")
        if self.hierarchy not in ("geometric", "galerkin"):
            raise ValueError(
                f"unknown hierarchy {self.hierarchy!r}; expected "
                f"'geometric' or 'galerkin'")
        if self.coarsest_dim < 3:
            raise ValueError("coarsest grid must be at least 3x3")


@dataclass(frozen=True)
class RunConfig:
    """Everything about a run except the matrix and the vectors.

    Frozen so a config can key caches and be attached to results without
    defensive copies; derive variants with :func:`dataclasses.replace`
    (or the ``**overrides`` shorthand of :func:`solve`).

    ``runtime`` / ``trace`` / ``faults`` are
    execution-environment overrides: ``None`` defers to the ``REPRO_*``
    environment knobs (see :mod:`repro.config`).  ``runtime`` picks the
    message plane — ``"flat"`` (preallocated single-process buffers),
    ``"async"`` (the event-driven virtual-time executor, tuned by
    ``async_config``), or ``"object"`` (the reference dict plane).
    ``"shm"`` names a deleted plane (DESIGN.md §5.12): it runs ``"flat"``
    and reports ``SolveResult.degraded_reason = "shm-unavailable"``.
    ``trace`` accepts a
    file path (a JSONL or Chrome trace is written there after the run —
    suffix picks the format) or a :class:`~repro.trace.Tracer` instance
    to record into.  ``faults`` is a frozen
    :class:`~repro.faults.FaultPlan` (``None`` defers to the
    ``REPRO_FAULTS`` plan file); ``strict=True`` turns a gracefully
    degraded run (reported unrecoverable deadlock) into a raised
    :class:`~repro.faults.DegradedRunError` instead of a returned
    result.

    ``n_parts`` must be ``None`` or an integer ≥ 1, ``max_steps`` an
    integer ≥ 0 (numpy integers count, ``bool`` does not) and
    ``target_norm`` ``None`` or finite and ≥ 0; anything else raises a
    :class:`ValueError` naming the field at construction.
    """

    n_parts: int | None = None
    max_steps: int = 50
    target_norm: float | None = None
    stop_at_target: bool = False
    local_solver: str = "gs"
    cost_model: CostModel = CORI_LIKE
    partition_method: str = "multilevel"
    seed: int = 0
    runtime: str | None = None
    trace: str | Tracer | None = None
    faults: FaultPlan | None = None
    strict: bool = False
    async_config: AsyncConfig | None = None
    mg: MultigridConfig | None = None

    def __post_init__(self) -> None:
        if self.n_parts is not None:
            object.__setattr__(self, "n_parts", _config.require_int(
                "n_parts", self.n_parts, 1))
        object.__setattr__(self, "max_steps", _config.require_int(
            "max_steps", self.max_steps, 0))
        if self.target_norm is not None:
            _config.require_finite("target_norm", self.target_norm,
                                   positive=False)

    def to_dict(self) -> dict:
        """JSON-able view (cost-model coefficients inlined)."""
        d = dataclasses.asdict(self)
        d["cost_model"] = dataclasses.asdict(self.cost_model)
        if isinstance(self.trace, Tracer):
            d["trace"] = type(self.trace).__name__
        return d


@dataclass
class SolveResult:
    """Everything a paper table needs about one run."""

    method: str
    x: np.ndarray
    history: ConvergenceHistory
    n_parts: int
    comm_cost: float
    solve_comm: float
    residual_comm: float
    parallel_steps: int
    relaxations: int
    simulated_time: float
    #: cumulative per-category comm cost after each step (index 0 = before
    #: any step), aligned with ``history`` — Table 3 reads these at the
    #: Table 2 target crossing
    solve_comm_curve: np.ndarray | None = None
    residual_comm_curve: np.ndarray | None = None
    #: the resolved configuration the run executed under (when it went
    #: through :func:`solve` / :func:`run_block_method`)
    config: RunConfig | None = None
    #: where the run's trace file was written, if tracing to disk
    trace_path: str | None = None
    #: per-kind injected-fault totals ("drop:solve", "stall", "retry",
    #: ...) when the run executed under a fault plan, else ``None``
    faults_injected: dict | None = None
    #: deadlock-repair messages the method sent (timeout re-sends
    #: included)
    repairs: int = 0
    #: did the run stop by *reporting* an unrecoverable deadlock
    #: (graceful degradation) instead of converging / hitting max_steps?
    degraded: bool = False
    #: why the run degraded — a deadlock report, or ``"shm-unavailable"``
    #: when ``runtime="shm"`` ran the flat plane (results are identical
    #: to ``runtime="flat"``; ``degraded`` stays False then)
    degraded_reason: str | None = None
    #: process peak resident-set high-water mark (bytes) observed right
    #: after the run — ``getrusage(RUSAGE_SELF).ru_maxrss``.  ``None``
    #: where the ``resource`` module is unavailable.  A high-water mark
    #: for the whole process, not a per-run delta: in a fresh process
    #: (one cell of ``scripts/bench_scale.py``) it IS the run's peak.
    #: The partitioner's forked child (DESIGN.md §5.10) is another
    #: process, so its memory is not in ``RUSAGE_SELF``; it shows under
    #: ``RUSAGE_CHILDREN``.
    peak_rss_bytes: int | None = None
    #: simulated seconds the event-driven run spanned (the furthest
    #: rank clock); ``None`` for lockstep runs
    virtual_time: float | None = None
    #: per-rank final virtual clocks (async runs; ``None`` otherwise) —
    #: the spread shows straggler lag directly
    rank_clocks: tuple[float, ...] | None = None
    #: per-rank cumulative idle seconds inside ``rank_clocks``
    rank_idle: tuple[float, ...] | None = None
    #: per-level multigrid smoothing totals
    #: (:class:`~repro.multigrid.mg_exec.LevelStats` rows, finest first;
    #: they sum to the run totals by equality) — ``None`` for
    #: single-level runs
    levels: tuple | None = None
    #: V-cycles executed (``method="mg"``); ``None`` for single-level
    #: runs
    cycles: int | None = None

    def comm_breakdown_at(self, target: float
                          ) -> tuple[float, float] | None:
        """(solve comm, res comm) at the ``‖r‖ = target`` crossing.

        Linear interpolation on the parallel-step axis; ``None`` if the
        run never reaches the target (the paper's ``†``).
        """
        k = self.history.cost_to_reach(target, axis="parallel_steps")
        if k is None or self.solve_comm_curve is None:
            return None
        steps = np.asarray(self.history.parallel_steps, dtype=np.float64)
        solve = float(np.interp(k, steps, self.solve_comm_curve))
        res = float(np.interp(k, steps, self.residual_comm_curve))
        return solve, res

    def timeline(self) -> dict[str, np.ndarray]:
        """The convergence history as aligned numpy columns.

        Keys: ``residual_norms``, ``relaxations``, ``parallel_steps``
        (turns for async runs), ``comm_costs``, ``times`` (simulated
        seconds — the virtual-time axis for async runs) and
        ``active_fractions``.  ``timeline()["times"]`` against
        ``timeline()["residual_norms"]`` is the async fig8 plot.
        """
        return self.history.as_arrays()

    @property
    def final_norm(self) -> float:
        return self.history.final_norm

    def reached(self, target: float) -> bool:
        """Did the run ever get the residual norm to ``target``?"""
        return self.history.cost_to_reach(target,
                                          axis="parallel_steps") is not None

    def summary(self) -> str:
        """One-line report in the spirit of the artifact's output."""
        line = (f"{self.method}: P={self.n_parts} "
                f"steps={self.parallel_steps}"
                f" ‖r‖={self.final_norm:.3e}"
                f" comm={self.comm_cost:.2f} msg/proc"
                f" (solve {self.solve_comm:.2f} / residual"
                f" {self.residual_comm:.2f})"
                f" time={self.simulated_time * 1e3:.2f} ms (simulated)")
        if self.degraded:
            line += " [DEGRADED: unrecoverable deadlock reported]"
        return line

    def to_dict(self) -> dict:
        """JSON-able sibling of :meth:`summary` (the CLI ``--json``
        payload): scalar metrics, the history arrays, the resolved
        config, and the trace path — everything except the solution
        vector."""
        return {
            "schema": "repro.solveresult/v5",
            "method": self.method,
            "n_parts": self.n_parts,
            "parallel_steps": self.parallel_steps,
            "relaxations": self.relaxations,
            "final_norm": self.final_norm,
            "comm_cost": self.comm_cost,
            "solve_comm": self.solve_comm,
            "residual_comm": self.residual_comm,
            "simulated_time": self.simulated_time,
            "history": {
                "residual_norms": [float(v)
                                   for v in self.history.residual_norms],
                "relaxations": [int(v) for v in self.history.relaxations],
                "parallel_steps": [int(v)
                                   for v in self.history.parallel_steps],
            },
            "config": self.config.to_dict() if self.config else None,
            "trace_path": self.trace_path,
            "faults_injected": self.faults_injected,
            "repairs": self.repairs,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "peak_rss_bytes": self.peak_rss_bytes,
            # v4: event-driven-runtime clock breakdowns (null = lockstep)
            "virtual_time": self.virtual_time,
            "rank_clocks": (list(self.rank_clocks)
                            if self.rank_clocks is not None else None),
            "rank_idle": (list(self.rank_idle)
                          if self.rank_idle is not None else None),
            # v5: multigrid per-level accounting (null = single-level run)
            "levels": ([lvl.to_dict() for lvl in self.levels]
                       if self.levels is not None else None),
            "cycles": self.cycles,
        }


def solve(A: CSRMatrix, b: np.ndarray | None = None,
          method: str | BlockMethodBase = "distributed-southwell",
          x0: np.ndarray | None = None,
          config: RunConfig | None = None, **overrides) -> SolveResult:
    """Run one distributed method end to end (the package front door).

    ``x0`` defaults to zero, ``b`` to zero with (if ``x0`` is omitted too)
    a random ``x0`` scaled so ``‖r⁰‖₂ = 1`` (the paper's Section 4.2
    setup).  ``method`` may be a name (``'block-jacobi'``,
    ``'parallel-southwell'``, ``'distributed-southwell'``, ``'mg'``) or an
    already-built method instance (whose system is then reused).  Keyword
    ``overrides`` are :class:`RunConfig` fields applied on top of
    ``config``::

        solve(A, method="distributed-southwell",
              config=RunConfig(n_parts=64, trace="run.jsonl"))
        solve(A, n_parts=64, max_steps=100)      # config built for you

    ``A``, ``b``, ``x0`` must be finite, ``b``, ``x0`` of shape ``(n,)``
    and ``A``'s diagonal non-negative, else :class:`ValueError` names
    the argument (or row) before any set-up runs.

    ``method="mg"`` runs communication-aware multigrid V-cycles
    (DESIGN.md §5.16) tuned by ``RunConfig.mg``
    (:class:`MultigridConfig`); the defaults follow Figure 6 — 9
    V-cycles, a seeded random RHS in ``[-1, 1]``, zero initial guess —
    and the result carries per-level message accounting in
    ``SolveResult.levels``.  The V-cycle smooths on a lockstep plane, so
    an explicit ``runtime="async"`` or ``"shm"`` raises
    :class:`ValueError`::

        solve(A, method="mg", n_parts=16,
              config=RunConfig(mg=MultigridConfig(smoother="ds",
                                                  drop_tol=0.02)))
    """
    cfg = config if config is not None else RunConfig()
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return _solve_with_config(method, A, x0, b, cfg)


def _runtime_scope(cfg: RunConfig):
    """The scope of ``cfg.runtime``'s override (none when it defers)."""
    return nullcontext() if cfg.runtime is None else use_runtime(cfg.runtime)


def _peak_rss_bytes() -> int | None:
    """Peak RSS high-water mark in bytes, or ``None`` without ``resource``
    (``ru_maxrss`` is kilobytes on Linux and bytes on macOS)."""
    try:
        import resource
    except ImportError:      # pragma: no cover - POSIX-only module
        return None
    unit = 1 if sys.platform == "darwin" else 1024
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit)


def _solve_with_config(method: str | BlockMethodBase, A: CSRMatrix,
                       x0: np.ndarray | None, b: np.ndarray | None,
                       cfg: RunConfig) -> SolveResult:
    """The one real driver behind :func:`solve` and the legacy wrappers."""
    # min/max propagate NaN and expose ±Inf without the n-sized boolean
    # temporary np.isfinite(values) would add to the run's peak RSS
    n = A.n_rows
    for arg, values in (("A", A.data), ("b", b), ("x0", x0)):
        if values is None:
            continue
        v = np.asarray(values)
        if arg != "A" and v.shape != (n,):
            raise ValueError(f"{arg} must be 1-D of length {n} (the matrix "
                             f"size), got shape {v.shape}")
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError(f"{arg} contains non-finite values (NaN or Inf)")
    # diagonal signs in row chunks of ≈ n entries (A.diagonal() would
    # cache an nnz-sized row-id array)
    step = max(1, n * n // max(A.nnz, 1))
    for r0 in range(0, n, step):
        p = A.indptr[r0:r0 + step + 1]
        rows = np.repeat(np.arange(r0, r0 + p.size - 1), np.diff(p))
        bad = (A.indices[p[0]:p[-1]] == rows) & (A.data[p[0]:p[-1]] < 0.0)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"A has a negative diagonal entry {A.data[p[0] + k]!r} at row "
                f"{int(rows[k])}; the methods need a positive diagonal")
    if method == "mg":
        return _solve_multigrid(A, x0, b, cfg)
    trace_path: str | None = None
    tracer: Tracer | None = None
    if isinstance(cfg.trace, Tracer):
        tracer = cfg.trace
    elif cfg.trace is not None:
        tracer = RunTracer()
        trace_path = str(cfg.trace)
    # fault-plan precedence: explicit RunConfig field > REPRO_FAULTS file
    plan = cfg.faults
    if plan is None:
        spec = _config.faults_spec()
        if spec is not None:
            plan = FaultPlan.from_file(spec)
    with _runtime_scope(cfg):
        if isinstance(method, BlockMethodBase):
            runner = method
            name = runner.name
            if tracer is not None:
                raise ValueError(
                    "pass tracer= to the method constructor when supplying "
                    "an already-built method instance")
            if plan is not None and runner.fault_plan is None:
                runner.fault_plan = plan
        else:
            if method not in _METHODS:
                raise ValueError(f"unknown method {method!r}; "
                                 f"choices: {sorted(_METHODS)}")
            if cfg.n_parts is None:
                raise ValueError("n_parts is required when method is a name")
            # partition + block build through the setup plane: traced,
            # and served from the persistent cache when enabled
            _, system = get_setup(A, cfg.n_parts,
                                  method=cfg.partition_method,
                                  seed=cfg.seed,
                                  local_solver=cfg.local_solver,
                                  tracer=tracer or NULL_TRACER)
            runner = _METHODS[method](system, cost_model=cfg.cost_model,
                                      seed=cfg.seed, tracer=tracer,
                                      faults=plan)
            name = method
        if b is None:
            b = np.zeros(A.n_rows)
            if x0 is None:          # the Section 4.2 start
                x0 = np.random.default_rng(cfg.seed).uniform(
                    -1.0, 1.0, A.n_rows)
                x0 = x0 / np.linalg.norm(A.matvec(x0))
        elif x0 is None:
            x0 = np.zeros(A.n_rows)
        mode = runtime_mode()
        executor = None
        if mode == "async":
            acfg = cfg.async_config or AsyncConfig()
            executor = AsyncExecutor(runner, latency=acfg.latency,
                                     poll_interval=acfg.poll_interval,
                                     speed_factors=acfg.speed_factors,
                                     record_every=acfg.record_every,
                                     scheduler=acfg.scheduler)
            history = executor.run(x0, b, max_steps=cfg.max_steps,
                                   target_norm=cfg.target_norm,
                                   stop_at_target=cfg.stop_at_target,
                                   max_turns=acfg.max_turns,
                                   max_time=acfg.max_time)
        else:
            history = runner.run(x0, b, max_steps=cfg.max_steps,
                                 target_norm=cfg.target_norm,
                                 stop_at_target=cfg.stop_at_target)
    peak_rss = _peak_rss_bytes()
    if trace_path is not None:
        tracer.save(trace_path)
    degraded = bool(getattr(runner, "degraded", False))
    degraded_reason = getattr(runner, "degraded_reason", None)
    if mode == "shm" and degraded_reason is None:
        degraded_reason = "shm-unavailable"     # ran flat (DESIGN.md §5.12)
    if degraded and cfg.strict:
        raise DegradedRunError(degraded_reason or
                               f"{name} run degraded under fault plan")
    fault_rt = getattr(runner, "_faults", None)
    stats = runner.engine.stats
    zero = np.zeros(1)
    aplane = executor.aplane if executor is not None else None
    return SolveResult(
        method=name,
        x=runner.solution(),
        history=history,
        n_parts=runner.system.n_parts,
        comm_cost=stats.communication_cost(),
        solve_comm=stats.category_cost(CATEGORY_SOLVE),
        residual_comm=stats.category_cost(CATEGORY_RESIDUAL),
        parallel_steps=runner.steps_taken,
        relaxations=runner.total_relaxations,
        simulated_time=stats.elapsed_time(),
        solve_comm_curve=np.concatenate(
            [zero, stats.cumulative_category_costs(CATEGORY_SOLVE)]),
        residual_comm_curve=np.concatenate(
            [zero, stats.cumulative_category_costs(CATEGORY_RESIDUAL)]),
        config=cfg,
        trace_path=trace_path,
        faults_injected=(dict(fault_rt.injected)
                         if fault_rt is not None else None),
        repairs=int(getattr(runner, "repairs_sent", 0)),
        degraded=degraded,
        degraded_reason=degraded_reason,
        peak_rss_bytes=peak_rss,
        virtual_time=(aplane.elapsed if aplane is not None else None),
        rank_clocks=(tuple(float(c) for c in aplane.clocks)
                     if aplane is not None else None),
        rank_idle=(tuple(float(c) for c in aplane.idle)
                   if aplane is not None else None),
    )


def _solve_multigrid(A: CSRMatrix, x0: np.ndarray | None,
                     b: np.ndarray | None, cfg: RunConfig) -> SolveResult:
    """``solve(A, method="mg", ...)``: V-cycles with message accounting.

    Defaults follow the paper's Figure 6 protocol: a seeded random RHS
    in ``[-1, 1]``, zero initial guess, 9 V-cycles.  Block smoothers
    require ``cfg.n_parts`` (processes per level); a positive effective
    ``drop_tol`` implies the Galerkin hierarchy.
    """
    from repro.multigrid.mg_exec import MultigridExecutor, make_smoother

    if cfg.runtime in ("async", "shm"):
        raise ValueError(
            f"method='mg' with runtime={cfg.runtime!r} is unsupported: the "
            "V-cycle smooths on a lockstep plane ('auto', 'flat' or "
            "'object')")
    trace_path: str | None = None
    tracer: Tracer | None = None
    if isinstance(cfg.trace, Tracer):
        tracer = cfg.trace
    elif cfg.trace is not None:
        tracer = RunTracer()
        trace_path = str(cfg.trace)
    if tracer is None:
        # resolve the REPRO_TRACE default once so the executor and every
        # level runner record into the same tracer
        tracer = tracer_from_config()
    plan = cfg.faults
    if plan is None:
        spec = _config.faults_spec()
        if spec is not None:
            plan = FaultPlan.from_file(spec)
    mcfg = cfg.mg if cfg.mg is not None else MultigridConfig()
    smoother_name = mcfg.smoother or _config.DEFAULT_MG_SMOOTHER
    budget = (_config.DEFAULT_MG_BUDGET if mcfg.budget is None
              else float(mcfg.budget))
    drop_tol = (_config.DEFAULT_MG_DROP_TOL if mcfg.drop_tol is None
                else float(mcfg.drop_tol))
    cycles = (_config.DEFAULT_MG_CYCLES if mcfg.cycles is None
              else int(mcfg.cycles))
    n_levels = mcfg.levels
    hierarchy = "galerkin" if drop_tol > 0.0 else mcfg.hierarchy
    if smoother_name in ("ds", "ps", "bj") and cfg.n_parts is None:
        raise ValueError(
            "n_parts is required for the block multigrid smoothers")
    if b is None:
        rng = np.random.default_rng(cfg.seed)
        b = rng.uniform(-1.0, 1.0, A.n_rows)
    with _runtime_scope(cfg):
        smoother = make_smoother(
            smoother_name, budget=budget, n_parts=cfg.n_parts or 1,
            seed=cfg.seed, local_solver=cfg.local_solver,
            partition_method=cfg.partition_method,
            cost_model=cfg.cost_model, tracer=tracer, faults=plan)
        executor = MultigridExecutor(
            A, smoother, coarsest_dim=mcfg.coarsest_dim,
            n_levels=n_levels, hierarchy=hierarchy, drop_tol=drop_tol,
            tracer=tracer)
        history = executor.run(b, x0=x0, n_cycles=cycles)
    peak_rss = _peak_rss_bytes()
    if trace_path is not None:
        tracer.save(trace_path)
    level_rows = tuple(executor.level_stats())
    agg = executor.aggregate_stats()
    faults_injected = executor._merged_faults()
    return SolveResult(
        method=f"mg-{getattr(smoother, 'name', smoother_name)}",
        x=executor.x,
        history=history,
        n_parts=max((row.n_parts for row in level_rows), default=1),
        comm_cost=agg.communication_cost(),
        solve_comm=(agg.category_msgs.get(CATEGORY_SOLVE, 0)
                    / agg.n_procs),
        residual_comm=(agg.category_msgs.get(CATEGORY_RESIDUAL, 0)
                       / agg.n_procs),
        parallel_steps=cycles,
        relaxations=executor._totals()[3],
        simulated_time=agg.elapsed_time(),
        config=cfg,
        trace_path=trace_path,
        faults_injected=faults_injected,
        peak_rss_bytes=peak_rss,
        levels=level_rows,
        cycles=cycles,
    )
