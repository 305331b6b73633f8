"""Event-driven executor: drives a block method over the async plane.

``solve(..., runtime="async")`` routes here.  The executor owns the
generic turn machinery — smallest-clock scheduling, payload delivery,
norm refresh, compute pricing, idle waits, history sampling — and
defers the protocol to the method's ``_async_*`` hooks
(:class:`~repro.core.block_base.BlockMethodBase`): the relax decision,
the outgoing message headers/payloads, and repair traffic.

One *turn* = one rank waking at its clock and doing everything it can:

1. deliver every in-flight message stamped at or before its clock and
   apply the solve deltas (cumulative payloads, ``received − applied``);
2. if the method's criterion fires (and the rank is not inside a
   fault-plan stall window), relax and publish the updates;
3. run the method's repair pass (DS line 27-30 deadlock avoidance /
   heartbeats, PS explicit residual updates);
4. if nothing happened, sleep until the next poll or the earliest
   pending message, whichever is sooner.

Compute is charged to the rank's virtual clock *before* its sends are
stamped, so delivery times reflect the work that produced the message;
fault-plan slowdown windows divide the rank's speed for the charge, and
stall windows suppress relaxation without stopping delivery (one-sided
progress does not need the target's CPU).  The solve payloads always
travel in cumulative form on this plane — async slots have RMA
latest-wins overwrite semantics, so a superseded message must be
harmless even without a fault plan.

Determinism: turn order is a pure function of the clocks (ties to the
lower rank) and every clock increment is a pure function of the cost
model, the seeded fate streams and the method's arithmetic — a fixed
(matrix, partition, seed, config) reproduces bit-identical results.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from repro import config as _config
from repro.runtime.asyncplane import AsyncFlatPlane
from repro.sparsela.primitives import multi_arange

__all__ = ["AsyncExecutor", "AsyncUnsupportedError", "check_scheduler"]

_EMPTY = np.zeros(0, dtype=np.int64)

#: ``scheduler`` spellings that still parse; each runs the one event loop
_SCHEDULERS = ("scalar", "batched")


def check_scheduler(scheduler: str | None) -> None:
    """Raise :class:`ValueError` unless ``scheduler`` is ``None`` or
    one of :data:`_SCHEDULERS` (case-insensitive)."""
    if (scheduler is not None
            and str(scheduler).strip().lower() not in _SCHEDULERS):
        raise ValueError(f"unknown async scheduler {scheduler!r}; "
                         f"expected one of {', '.join(_SCHEDULERS)}")


class AsyncUnsupportedError(RuntimeError):
    """The configuration cannot run on the event-driven plane."""


class AsyncExecutor:
    """Drive one ``BlockMethodBase`` instance in simulated time.

    Parameters
    ----------
    runner:
        A block method instance (DS / PS / BJ).  ``setup`` must not have
        been bypassed — the executor calls it itself.
    latency:
        One-way network latency (simulated seconds); ``None`` means
        :data:`repro.config.DEFAULT_ASYNC_LATENCY`.
    poll_interval:
        How long an idle rank sleeps before re-checking its mailbox.
    speed_factors:
        Per-rank compute-speed multipliers: an ``(P,)`` array, a
        ``"rank:factor,..."`` spec string, or an iterable of
        ``(rank, factor)`` pairs; ``None`` means no stragglers.
    record_every:
        History/stats sampling cadence in turns (an integer ≥ 1).
    scheduler:
        ``None``, ``"scalar"`` or ``"batched"``; all three run the one
        event loop.  ``"batched"`` names the deleted event-horizon
        scheduler (DESIGN.md §5.15) and is still accepted because the
        benchmark's probe passes it; any other value raises
        :class:`ValueError`.
    """

    def __init__(self, runner, *, latency: float | None = None,
                 poll_interval: float = 2.0e-6,
                 speed_factors=None, record_every: int = 64,
                 scheduler: str | None = None) -> None:
        finite = _config.require_finite
        self.poll_interval = finite("poll_interval", poll_interval,
                                    positive=True)
        self.record_every = _config.require_int("record_every",
                                                record_every, 1)
        check_scheduler(scheduler)
        self.runner = runner
        self.latency = (_config.DEFAULT_ASYNC_LATENCY if latency is None
                        else finite("latency", latency, positive=False))
        self.speed_factors = speed_factors
        self.aplane: AsyncFlatPlane | None = None
        self.turns = 0

    # ------------------------------------------------------------------
    def _base_speed(self, P: int) -> np.ndarray | None:
        """Resolve ``speed_factors`` into a per-rank array (or None)."""
        spec = self.speed_factors
        if spec is None:
            return None
        if isinstance(spec, np.ndarray):
            base = np.asarray(spec, dtype=np.float64)
            if base.shape != (P,):
                raise ValueError("speed_factors array must have one "
                                 "entry per process")
        else:
            if isinstance(spec, str):
                spec = _config.parse_speed_factors(spec)
            base = np.ones(P)
            for rank, factor in spec:
                rank = _config.require_int("speed_factors rank", rank, 0)
                if rank >= P:
                    raise ValueError(f"speed factor rank {rank} out of "
                                     f"range for {P} processes")
                base[rank] = float(factor)
        if not np.all(np.isfinite(base) & (base > 0.0)):
            raise ValueError("speed_factors must be finite and positive")
        return base

    # ------------------------------------------------------------------
    def _apply_payload(self, p: int, sids: list[int]) -> None:
        """Apply delivered slots to ``p``'s residual and ghost state and
        refresh its norm.

        ``sids`` must be :meth:`AsyncFlatPlane.deliver`'s ordering for
        one rank (stamp, then slot-id)."""
        runner = self.runner
        aplane = self.aplane
        flops = self._c_flops
        solve = [s for s in sids if not s & 1]
        # one flop per applied entry (twice: delta and applied update)
        # plus the norm refresh — integer-valued floats, so one charge
        # equals the per-term charges
        charge = self._c_norm_flops[p]
        if solve:
            r_flat = self._c_r_flat
            if len(solve) <= 8:
                # small fan-in: the slot's bound views, one += and one
                # copy each (rows are unique within one edge, so a
                # direct fancy += is exact)
                slot = self._c_slot
                recv_flops = 0.0
                for s in solve:
                    rows, w, ap, f = slot[s]
                    r_flat[rows] += w - ap
                    ap[...] = w
                    recv_flops += f
            else:
                voff = self._c_voff
                wire = aplane.wire_vals
                applied = self._c_applied
                eids = np.array(solve, dtype=np.int64) >> 1
                idx = multi_arange(voff[eids], voff[eids + 1])
                np.add.at(r_flat, self._c_grows[idx],
                          wire[idx] - applied[idx])
                applied[idx] = wire[idx]
                recv_flops = float(self._c_edge_flops[eids].sum())
            charge += 2.0 * recv_flops
        r_p = self._c_r_blocks[p]
        self._c_norms[p] = math.sqrt(r_p.dot(r_p))
        flops[p] += charge
        fr = runner._faults
        if fr is not None and fr.message_faults:
            # the fault paths (stale masking) index with ndarrays
            arr = np.asarray(sids, dtype=np.int64)
            runner._async_on_deliver(p, arr, aplane.wire_fate[arr],
                                     aplane)
        else:
            runner._async_on_deliver(p, sids, _EMPTY, aplane)

    def _force_lossy(self) -> None:
        """Cumulative solve payloads even without a fault plan (async
        slots have latest-wins overwrite semantics, so a superseded
        in-flight message must apply as a no-op)."""
        runner = self.runner
        if runner._lossy:
            return
        runner._lossy = True
        runner._dedupe_dups = False
        runner._alloc_lossy_flat()

    # ------------------------------------------------------------------
    def prepare(self, x0: np.ndarray, b: np.ndarray) -> None:
        """Run method setup and build the event plane, clocks at zero.

        ``run`` calls this itself when it has not been called; exposing
        it separately lets callers front-load the one-time setup cost
        (slab construction, local factorizations, plane allocation)
        before entering the event loop — e.g. to time or profile the
        steady-state engine on its own.  Every rank relaxes on its own
        here, so every rank's solo-relax kernels are bound now — its
        local solve (its block factored), its diagonal and fan-out
        matvec plans — and the async hooks' per-slot views; the whole
        block diagonal's factor never is (DESIGN.md §5.8).
        """
        runner = self.runner
        if not runner._async_supported:
            raise AsyncUnsupportedError(
                f"{runner.name} has no async form: its send rule is a "
                "lockstep decision")
        runner.setup(x0, b)
        self._force_lossy()
        P = runner.system.n_parts
        self.aplane = AsyncFlatPlane(
            runner.engine.flat, runner.engine.stats,
            cost_model=runner.engine.cost_model,
            latency=self.latency,
            speed_factors=self._base_speed(P),
            tracer=runner.tracer, faults=runner._faults)
        # cache the stable hot-path arrays (fixed after _force_lossy) so
        # the delivery loop skips the attribute chases
        self._c_voff = runner.engine.flat.vals_off
        self._c_flops = runner._flops
        self._c_r_flat = runner._r_flat
        self._c_grows = runner._grows_flat
        self._c_applied = runner._applied_flat
        self._c_edge_flops = runner._edge_recv_flops
        self._c_r_blocks = runner.r_blocks
        self._c_norms = runner.norms
        self._c_norm_flops = [2.0 * rb.size for rb in runner.r_blocks]
        # per-slot views, bound once: a solve slot's (receiver rows,
        # wire vals, applied, recv flops) regions — residual slots carry
        # no deltas.  Rows go intp: an int32 fancy index costs several
        # times more per call.
        voff = self._c_voff.tolist()
        grows = self._c_grows.astype(np.intp)
        applied = self._c_applied
        wire = self.aplane.wire_vals
        self._c_slot = slot = [None] * (2 * (len(voff) - 1))
        for e, f in enumerate(self._c_edge_flops.tolist()):
            lo, hi = voff[e], voff[e + 1]
            slot[2 * e] = (grows[lo:hi], wire[lo:hi], applied[lo:hi], f)
        runner.system.factor_blocks()
        for p, call in enumerate(runner._solver_call):
            if call is None:
                runner._bind_solve(p)
        runner._async_bind(self.aplane)
        self._prepared = True

    def run(self, x0: np.ndarray | None = None,
            b: np.ndarray | None = None, max_steps: int = 50,
            target_norm: float | None = None,
            stop_at_target: bool = False,
            max_turns: int | None = None,
            max_time: float | None = None):
        """Run the method event-driven; returns its ConvergenceHistory.

        ``max_steps`` (an integer ≥ 0) converts to a turn budget
        (``max_steps × P × 8``) when ``max_turns`` (an integer ≥ 1) is
        not given, so lockstep and async calls take comparable budget
        arguments; ``max_time`` bounds simulated seconds instead.  A
        budget of any other type or value raises :class:`ValueError`
        naming it.  ``x0``/``b`` may be omitted when ``prepare`` was
        already called.
        """
        runner = self.runner
        max_steps = _config.require_int("max_steps", max_steps, 0)
        if max_turns is not None:
            max_turns = _config.require_int("max_turns", max_turns, 1)
        if max_time is not None:
            max_time = _config.require_finite("max_time", max_time,
                                              positive=True)
        if not getattr(self, "_prepared", False):
            if x0 is None or b is None:
                raise ValueError("run() needs x0 and b unless "
                                 "prepare() was called first")
            self.prepare(x0, b)
        self._prepared = False      # one event loop per prepare
        P = runner.system.n_parts
        if max_turns is None:
            max_turns = max_steps * P * 8
        stats = runner.engine.stats
        fr = runner._faults
        aplane = self.aplane
        trc = runner.tracer
        tracing = trc.enabled
        if tracing:
            trc.begin_run(runner.name, P)
        stalling = fr is not None and bool(fr._stall_by_rank)
        slowing = fr is not None and bool(fr._slow_by_rank)
        # no plan, no patience; no max_time, no time bound (inf: one
        # comparison per turn either way)
        patience = (runner._active_plan.deadlock_patience * P
                    if runner._active_plan is not None else math.inf)
        time_bound = math.inf if max_time is None else max_time
        # the turn's state, bound once: the plane's per-rank lists, its
        # scheduler heap and the hooks
        flops = runner._flops
        clocks = aplane.clocks
        idle = aplane.idle
        next_at = aplane._next_at
        n_pending = aplane.n_pending
        parked = aplane.parked
        heap = aplane._heap
        deliver = aplane.deliver
        apply_payload = self._apply_payload
        advance = aplane.advance_compute
        decide = runner._async_decide
        relax = runner._relax_one_flat
        send = runner._async_send
        repair = runner._async_repair
        poll = self.poll_interval
        record_every = self.record_every
        turn_of = [0] * P
        # a rank is *clean* when its last evaluation produced no relax
        # and no repair: until something is delivered to it, both hooks
        # are pure functions of unchanged state, so re-running them is
        # provably a no-op and the turn can go straight to the idle
        # path.  Heartbeat retries and stall/slowdown windows depend on
        # the turn counter, so the shortcut only arms without a fault
        # runtime.
        clean = bytearray(P)
        skippable = fr is None
        turns = 0
        idle_streak = 0
        win_active = 0
        sampled_at = 0              # the turn count at the last sample
        last_closed = 0.0

        def sample() -> float:
            nonlocal last_closed, win_active, sampled_at
            elapsed = aplane.elapsed
            stats.close_step(time=elapsed - last_closed)
            last_closed = elapsed
            norm = runner.global_norm()
            runner.history.append(
                norm=norm,
                relaxations=runner.total_relaxations,
                parallel_steps=turns,
                comm_cost=stats.communication_cost(),
                time=stats.elapsed_time(),
                active_fraction=win_active / max(1, turns - sampled_at))
            win_active = 0
            sampled_at = turns
            return norm

        while turns < max_turns:
            if not heap:
                # every rank is parked with an empty mailbox: no future
                # event can occur (nothing in flight, nothing to do).
                # Above target that is a stall, reported like the
                # patience branch below
                if runner.global_norm() > (target_norm or 0.0):
                    runner.steps_taken = turns
                    runner.degraded = True
                    runner.degraded_reason = runner._deadlock_diagnosis()
                break
            # the rank with the smallest clock (ties to the lower rank);
            # an entry whose clock is not the rank's current one is stale
            clock, p = heappop(heap)
            while clock != clocks[p]:
                clock, p = heappop(heap)
            if clock >= time_bound:
                heappush(heap, (clock, p))
                break
            turn_of[p] = t_p = turn_of[p] + 1
            delivered = False
            if next_at[p] <= clock:
                sids = deliver(p)
                if sids:
                    apply_payload(p, sids)
                    delivered = True
            if skippable and clean[p] and not delivered:
                # nothing arrived since the last no-op evaluation
                acted = False
            else:
                # the delivery's own flops are charged to the stats only
                # (f0 is read after it): the clock pays for the relax
                slowdown = fr.rank_slowdown(p, t_p) if slowing else 1.0
                acted = delivered
                relaxed = False
                if not (stalling and fr.rank_stalled(p, t_p)):
                    f0 = flops[p]
                    if decide(p):
                        relax(p)
                        advance(p, float(flops[p] - f0), slowdown)
                        f0 = flops[p]
                        send(p, aplane, t_p)
                        acted = relaxed = True
                    if repair(p, aplane, t_p):
                        acted = True
                    if flops[p] != f0:
                        advance(p, float(flops[p] - f0), slowdown)
                clean[p] = not relaxed
            if acted:
                idle_streak = 0
                win_active += 1
                heappush(heap, (clocks[p], p))
            else:
                idle_streak += 1
                if skippable and clean[p] and not n_pending[p]:
                    # park: clean with an empty mailbox — the rank will
                    # provably no-op every poll until something arrives,
                    # so leave the heap and let the next inbound send
                    # wake it at the message's stamp (asyncplane.send)
                    parked[p] = 1
                else:
                    # idle until the next poll, or the earliest pending
                    # stamp when the bound says one may land sooner
                    clock = clocks[p]
                    wake = clock + poll
                    if next_at[p] < wake:
                        e = aplane.earliest_pending(p)
                        if e < wake:
                            wake = e
                    wait = wake - clock
                    if wait > 0.0:
                        clocks[p] = clock = clock + wait
                        idle[p] += wait
                    heappush(heap, (clock, p))
            turns += 1
            if turns % record_every == 0:
                norm = sample()
                if (stop_at_target and target_norm is not None
                        and norm <= target_norm):
                    break
            if (idle_streak >= patience and aplane.in_flight == 0
                    and runner.global_norm() > (target_norm or 0.0)):
                # graceful degradation (DESIGN.md §5.11): every rank
                # idled a full patience round with nothing in flight —
                # no future event can change any state
                runner.steps_taken = turns
                runner.degraded = True
                runner.degraded_reason = runner._deadlock_diagnosis()
                break

        # drain: jump each rank with pending mail to its earliest stamp
        # so nothing sent is left unapplied (keeps the final norms a
        # pure function of the event sequence)
        dirty = turns != sampled_at
        while aplane.in_flight:
            progressed = False
            for p in range(P):
                nxt = aplane.earliest_pending(p)
                if nxt != math.inf:
                    if nxt > clocks[p]:
                        aplane.advance_idle(p, nxt - clocks[p])
                    sids = deliver(p)
                    if sids:
                        apply_payload(p, sids)
                        progressed = dirty = True
            if not progressed:      # pragma: no cover - defensive
                break
        if dirty:
            sample()
        runner.steps_taken = turns
        self.turns = turns
        if tracing:
            trc.end_run(stats, faults=fr.summary() if fr is not None
                        else None)
        return runner.history
