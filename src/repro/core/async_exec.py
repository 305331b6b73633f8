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

import numpy as np

from repro import config as _config
from repro.runtime.asyncplane import AsyncFlatPlane
from repro.runtime.flatplane import multi_arange

__all__ = ["AsyncExecutor", "AsyncUnsupportedError"]

_EMPTY = np.zeros(0, dtype=np.int64)


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
        History/stats sampling cadence in turns.
    scheduler:
        ``"scalar"`` (one rank per turn off the heap — the oracle) or
        ``"batched"`` (event-horizon macro-turns, DESIGN.md §5.15);
        ``None`` resolves through :func:`repro.config.async_scheduler`.
        Both produce bit-identical results; batched configurations the
        horizon analysis cannot cover (zero latency/alpha costs, a
        neighborless rank, active tracing) fall back to scalar.
    """

    def __init__(self, runner, *, latency: float | None = None,
                 poll_interval: float = 2.0e-6,
                 speed_factors=None, record_every: int = 64,
                 scheduler: str | None = None) -> None:
        finite = _config.require_finite
        self.poll_interval = finite("poll_interval", poll_interval,
                                    positive=True)
        if record_every < 1:
            raise ValueError("record_every must be at least 1")
        self.runner = runner
        self.latency = (_config.DEFAULT_ASYNC_LATENCY if latency is None
                        else finite("latency", latency, positive=False))
        self.speed_factors = speed_factors
        self.record_every = int(record_every)
        self.scheduler = _config.async_scheduler(scheduler)
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
                rank = int(rank)
                if not 0 <= rank < P:
                    raise ValueError(f"speed factor rank {rank} out of "
                                     f"range for {P} processes")
                base[rank] = float(factor)
        if not np.all(np.isfinite(base) & (base > 0.0)):
            raise ValueError("speed_factors must be finite and positive")
        return base

    # ------------------------------------------------------------------
    def _deliver_apply(self, p: int) -> bool:
        """Deliver ``p``'s ready mail; apply deltas, refresh the norm."""
        sids = self.aplane.deliver(p)
        if not sids:
            return False
        self._apply_payload(p, sids)
        return True

    def _apply_payload(self, p: int, sids: list[int]) -> None:
        """Apply delivered slots to ``p``'s residual and ghost state.

        ``sids`` must be :meth:`AsyncFlatPlane.deliver`'s ordering for
        one rank (stamp, then slot-id); the batched scheduler feeds it
        per-member slices of :meth:`AsyncFlatPlane.deliver_batch`'s
        output, which preserves exactly that order."""
        runner = self.runner
        aplane = self.aplane
        flops = self._c_flops
        solve = [s for s in sids if not (s & 1)]
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
            flops[p] += 2.0 * recv_flops
        r_p = self._c_r_blocks[p]
        self._c_norms[p] = math.sqrt(np.dot(r_p, r_p))
        flops[p] += self._c_norm_flops[p]   # the refresh_norm charge
        fr = runner._faults
        if fr is not None and fr.message_faults:
            # the fault paths (stale masking) index with ndarrays
            arr = np.asarray(sids, dtype=np.int64)
            runner._async_on_deliver(p, arr, aplane.wire_fate[arr],
                                     aplane)
        else:
            runner._async_on_deliver(p, sids, _EMPTY, aplane)

    def _apply_payload_batch(self, ranks: np.ndarray, sids: np.ndarray,
                             counts: np.ndarray) -> None:
        """Fault-free vectorized :meth:`_apply_payload` for a whole
        delivery batch: ``sids`` concatenated member-major (per member
        in stamp order), ``counts`` per member.

        Receiver state is rank-local and slot payload regions are
        disjoint, so the per-member loops collapse into concatenated
        scatters.  Accumulation order for duplicate residual rows is
        the member-major concatenation order — exactly the per-member
        order the scalar path applies — and the per-member flop charges
        replay the scalar path's two sequential adds (``reduceat`` is a
        left-to-right fold, matching the small-fan-in ``+=`` loop; big
        fan-ins re-sum with ``np.sum`` to match its pairwise order).
        """
        runner = self.runner
        aplane = self.aplane
        flops = self._c_flops
        solve_mask = (sids & 1) == 0
        if solve_mask.any():
            voff = self._c_voff
            wire = aplane.wire_vals
            applied = self._c_applied
            grows = self._c_grows
            eids = sids[solve_mask] >> 1
            mem = np.repeat(np.arange(ranks.size), counts)[solve_mask]
            idx = multi_arange(voff[eids], voff[eids + 1])
            w = wire[idx]
            np.add.at(self._c_r_flat, grows[idx], w - applied[idx])
            applied[idx] = w
            ef = self._c_edge_flops[eids]
            scount = np.bincount(mem, minlength=ranks.size)
            heads = np.cumsum(scount) - scount
            recv = np.zeros(ranks.size)
            ne = scount > 0
            recv[ne] = np.add.reduceat(ef, heads[ne])
            for k in np.flatnonzero(scount > 8).tolist():
                recv[k] = float(ef[heads[k]:heads[k] + scount[k]].sum())
            flops[ranks] += 2.0 * recv
        r_blocks = self._c_r_blocks
        norms = self._c_norms
        for p in ranks.tolist():
            r_p = r_blocks[p]
            norms[p] = math.sqrt(np.dot(r_p, r_p))
        flops[ranks] += 2.0 * self._c_bsizes[ranks]
        runner._async_on_deliver_batch(ranks, sids, counts, aplane)

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
        steady-state engine on its own.
        """
        runner = self.runner
        runner.setup(x0, b)
        if not runner._use_flat:
            raise AsyncUnsupportedError(
                "the async runtime needs the flat message plane: "
                "object-plane-only configurations (delay-rate fault "
                "plans, legacy delay injection, methods outside the "
                "flat contract) cannot run asynchronously")
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
        self._c_bsizes = np.array([rb.size for rb in runner.r_blocks],
                                  dtype=np.int64)
        self._c_norm_flops = (2.0 * self._c_bsizes).tolist()
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
        runner._async_bind(self.aplane)
        self._prepared = True

    def run(self, x0: np.ndarray | None = None,
            b: np.ndarray | None = None, max_steps: int = 50,
            target_norm: float | None = None,
            stop_at_target: bool = False,
            max_turns: int | None = None,
            max_time: float | None = None):
        """Run the method event-driven; returns its ConvergenceHistory.

        ``max_steps`` converts to a turn budget (``max_steps × P × 8``)
        when ``max_turns`` is not given, so lockstep and async calls
        take comparable budget arguments; ``max_time`` bounds simulated
        seconds instead.  ``x0``/``b`` may be omitted when ``prepare``
        was already called.
        """
        runner = self.runner
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
            max_turns = int(max_steps) * P * 8
        if self._use_batched(P):
            return self._run_batched(target_norm, stop_at_target,
                                     max_turns, max_time)
        stats = runner.engine.stats
        fr = runner._faults
        aplane = self.aplane
        trc = runner.tracer
        tracing = trc.enabled
        if tracing:
            trc.begin_run(runner.name, P)
        stalling = fr is not None and bool(fr._stall_by_rank)
        slowing = fr is not None and bool(fr._slow_by_rank)
        patience = (runner._active_plan.deadlock_patience * P
                    if runner._active_plan is not None else None)
        flops = runner._flops
        clocks = aplane.clocks
        next_at = aplane._next_at
        poll = self.poll_interval
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
        win_turns = 0
        last_closed = 0.0
        dirty = False

        def sample() -> float:
            nonlocal last_closed, win_active, win_turns, dirty
            stats.close_step(time=aplane.elapsed - last_closed)
            last_closed = aplane.elapsed
            norm = runner.global_norm()
            runner.history.append(
                norm=norm,
                relaxations=runner.total_relaxations,
                parallel_steps=turns,
                comm_cost=stats.communication_cost(),
                time=stats.elapsed_time(),
                active_fraction=win_active / max(1, win_turns))
            win_active = 0
            win_turns = 0
            dirty = False
            return norm

        n_pending = aplane.n_pending
        parked = aplane.parked
        while turns < max_turns:
            if not aplane._heap:
                # every rank is parked with an empty mailbox: no future
                # event can occur (nothing in flight, nothing to do)
                break
            p = aplane.next_process()
            if max_time is not None and clocks[p] >= max_time:
                aplane.reschedule(p)
                break
            turn_of[p] = t_p = turn_of[p] + 1
            delivered = (next_at[p] <= clocks[p]
                         and self._deliver_apply(p))
            if skippable and clean[p] and not delivered:
                # nothing arrived since the last no-op evaluation
                acted = False
            else:
                f0 = flops[p]
                slowdown = fr.rank_slowdown(p, t_p) if slowing else 1.0
                acted = delivered
                if delivered:
                    aplane.advance_compute(p, float(flops[p] - f0),
                                           slowdown)
                    f0 = flops[p]
                stalled = stalling and fr.rank_stalled(p, t_p)
                relaxed = False
                if not stalled and runner._async_decide(p):
                    runner._relax_one_flat(p)
                    aplane.advance_compute(p, float(flops[p] - f0),
                                           slowdown)
                    f0 = flops[p]
                    runner._async_send(p, aplane, t_p)
                    acted = relaxed = True
                if not stalled and runner._async_repair(p, aplane, t_p):
                    acted = True
                if flops[p] != f0:
                    aplane.advance_compute(p, float(flops[p] - f0),
                                           slowdown)
                clean[p] = not relaxed
            if acted:
                idle_streak = 0
                win_active += 1
                aplane.reschedule(p)
            else:
                idle_streak += 1
                if skippable and clean[p] and not n_pending[p]:
                    # park: clean with an empty mailbox — the rank will
                    # provably no-op every poll until something arrives,
                    # so leave the heap and let the next inbound send
                    # wake it at the message's stamp (asyncplane.send)
                    parked[p] = 1
                else:
                    wake = clocks[p] + poll
                    if next_at[p] < wake:
                        # the bound says a message may land before the
                        # poll horizon — pay the exact scan
                        wake = min(wake, aplane.earliest_pending(p))
                    aplane.advance_idle(p, wake - clocks[p])
                    aplane.reschedule(p)
            turns += 1
            win_turns += 1
            dirty = True
            if turns % self.record_every == 0:
                norm = sample()
                if (stop_at_target and target_norm is not None
                        and norm <= target_norm):
                    break
            if (patience is not None and idle_streak >= patience
                    and aplane.in_flight == 0
                    and runner.global_norm() > (target_norm or 0.0)):
                # graceful degradation (DESIGN.md §5.11): every rank
                # idled a full patience round with nothing in flight —
                # no future event can change any state
                runner.degraded = True
                runner.degraded_reason = runner._deadlock_diagnosis()
                break

        # drain: jump each rank with pending mail to its earliest stamp
        # so nothing sent is left unapplied (keeps the final norms a
        # pure function of the event sequence)
        while aplane.in_flight:
            progressed = False
            for p in range(P):
                nxt = aplane.earliest_pending(p)
                if np.isfinite(nxt):
                    if nxt > clocks[p]:
                        aplane.advance_idle(p, float(nxt - clocks[p]))
                    if self._deliver_apply(p):
                        progressed = True
                        dirty = True
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

    # ------------------------------------------------------------------
    # batched event-horizon scheduler (DESIGN.md §5.15)
    # ------------------------------------------------------------------
    def _use_batched(self, P: int) -> bool:
        """Whether the batched scheduler's horizon analysis covers this
        configuration (falls back to the scalar oracle otherwise)."""
        if self.scheduler != "batched" or P <= 1:
            return False
        if self.runner.tracer.enabled:
            # results would be identical, but the trace event stream
            # interleaves by phase instead of by turn — stay scalar so
            # traced runs replay exactly
            return False
        aplane = self.aplane
        if not (aplane.latency > 0.0 and aplane._alpha > 0.0
                and aplane._alpha_recv > 0.0):
            # the lookahead window and the re-entry lower bounds both
            # collapse under zero-cost models: every batch degenerates
            # to one member, so the scalar loop is strictly faster
            return False
        src = np.asarray(self.runner.engine.flat.edge_src, dtype=np.int64)
        if int(np.bincount(src, minlength=P).min()) == 0:
            # a neighborless rank relaxes without a send charge, which
            # breaks the >= alpha re-entry bound the truncation rule
            # leans on
            return False
        return True

    def _run_batched(self, target_norm, stop_at_target, max_turns,
                     max_time):
        """Event-horizon macro-turns: run every rank whose turn provably
        precedes all in-window deliveries and re-entries, in four
        vectorized phases plus a scalar replay of the per-turn effects.

        Exactness argument (DESIGN.md §5.15): a macro-turn selects the
        non-parked ranks with ``clock < H = min_clock + latency`` in
        (clock, rank) heap order, then truncates at the first member
        whose turn the scalar oracle would NOT run next — i.e. the
        first whose clock is not strictly below every earlier member's
        re-entry lower bound (``alpha_recv`` above its clock when it
        delivers; the cheapest of a send charge, a poll wake and its
        earliest pending stamp otherwise), and the first holding a
        deliverable slot another candidate could restamp.  Within the
        surviving prefix the scalar engine would execute exactly these
        turns in exactly this order, every in-window send stamps at or
        beyond ``H`` (so phase-1 deliveries cannot miss or gain a
        message), and per-member state is rank-local — so delivering,
        deciding and relaxing as phases, then replaying clock charges
        and sends per member in turn order, reproduces the scalar
        state transition bit for bit.
        """
        runner = self.runner
        stats = runner.engine.stats
        fr = runner._faults
        aplane = self.aplane
        P = runner.system.n_parts
        stalling = fr is not None and bool(fr._stall_by_rank)
        slowing = fr is not None and bool(fr._slow_by_rank)
        batch_apply = fr is None or not fr.message_faults
        patience = (runner._active_plan.deadlock_patience * P
                    if runner._active_plan is not None else None)
        flops = runner._flops
        clocks = aplane.clocks
        next_at = aplane._next_at
        n_pending = aplane.n_pending
        parked = aplane.parked
        poll = self.poll_interval
        alpha = aplane._alpha
        alpha_recv = aplane._alpha_recv
        record_every = self.record_every
        turn_of = np.zeros(P, dtype=np.int64)
        clean = np.zeros(P, dtype=np.uint8)
        skippable = fr is None
        turns = 0
        # scheduler introspection (``sched_stats``): macro-turn count per
        # kind and turns committed by each
        n_macro = 0
        n_lad = 0
        lad_turns = 0
        idle_streak = 0
        win_active = 0
        win_turns = 0
        last_closed = 0.0
        dirty = False

        def sample() -> float:
            nonlocal last_closed, win_active, win_turns, dirty
            stats.close_step(time=aplane.elapsed - last_closed)
            last_closed = aplane.elapsed
            norm = runner.global_norm()
            runner.history.append(
                norm=norm,
                relaxations=runner.total_relaxations,
                parallel_steps=turns,
                comm_cost=stats.communication_cost(),
                time=stats.elapsed_time(),
                active_fraction=win_active / max(1, win_turns))
            win_active = 0
            win_turns = 0
            dirty = False
            return norm

        idle_t = aplane.idle

        def light_replay(rr: np.ndarray, acted: np.ndarray,
                         streak: int) -> int:
            """Commit a run of light members (no sends, repairs or
            relaxes) in one chunk: flip them clean, park or advance the
            non-acted ones to their poll/pending wake exactly as the
            scalar else-branch does, and return the idle streak — the
            run's trailing non-acted count (or the carried streak plus
            the run when nothing acted)."""
            clean[rr] = 1
            quiet = rr[~acted]
            if quiet.size:
                if skippable:
                    can_park = n_pending[quiet] == 0
                    parked[quiet[can_park]] = 1
                    quiet = quiet[~can_park]
                if quiet.size:
                    wake = clocks[quiet] + poll
                    stale = next_at[quiet] < wake
                    if stale.any():
                        wake[stale] = np.minimum(
                            wake[stale],
                            aplane.earliest_pending_batch(quiet[stale]))
                    dt = wake - clocks[quiet]
                    pos_dt = dt > 0.0
                    if not pos_dt.all():
                        quiet = quiet[pos_dt]
                        dt = dt[pos_dt]
                    clocks[quiet] += dt
                    idle_t[quiet] += dt
            if acted.any():
                return int(np.argmax(acted[::-1]))
            return streak + rr.size

        pos = np.full(P, P, dtype=np.int64)
        ins_off = aplane.ins_off
        ins_flat = aplane.ins_flat
        deliver_at = aplane.deliver_at
        sid_src = aplane.sid_src
        lad_on = (skippable and max_time is None and patience is None)
        # the mailbox layout is static topology, so the full-plane
        # gather scaffolding (offsets, segment heads, member-of-slot)
        # is precomputed once and reused whenever the member set is
        # every rank — the common case until ranks start parking
        all_counts = ins_off[1:] - ins_off[:-1]
        all_cum = np.cumsum(all_counts)
        all_heads = all_cum - all_counts
        all_mid = np.repeat(np.arange(P), all_counts)
        all_nonempty = all_counts > 0

        def ladder(cand: np.ndarray, cc: np.ndarray) -> int:
            """Commit a run of provably *pure* scalar turns — shortcut
            polls and parks of clean ranks with nothing deliverable —
            in vectorized chunks, sampling at every record boundary
            crossed, and return how many turns were committed.

            Every scalar turn strictly before the first hot turn (a
            dirty or deliverable rank's evaluation, in (clock, rank)
            heap order) is a poll or a park of a clean rank: no sends,
            deliveries, repairs or stat charges can occur in between,
            so each rank's poll trajectory is a pure function of its
            frozen earliest-pending stamp and the poll interval.  The
            trajectories are replayed with the scalar branch's own fp
            ops, merged in (clock, rank) order and cut at the bound —
            an exact scalar prefix.  Pure turns leave norms, flops and
            message state untouched, so a record boundary inside the
            run only needs the boundary-exact clocks, which the
            chunked commit maintains (DESIGN.md §5.15).
            """
            nonlocal turns, win_turns, idle_streak, dirty, stop
            nonlocal n_lad, lad_turns
            if cand.size == P:
                counts_all = all_counts
                t = deliver_at[ins_flat]
                nonempty = all_nonempty
                heads = all_heads
            else:
                counts_all = ins_off[cand + 1] - ins_off[cand]
                idx = multi_arange(ins_off[cand], ins_off[cand + 1])
                t = deliver_at[ins_flat[idx]]
                nonempty = counts_all > 0
                heads = np.cumsum(counts_all) - counts_all
            ep = np.full(cand.size, np.inf)
            if t.size:
                ep[nonempty] = np.minimum.reduceat(t, heads[nonempty])
            next_at[cand] = ep  # scan paid for: re-tighten the bounds
            pure = (clean[cand] != 0) & (ep > cc)
            bc, bq = np.inf, -1
            hot = ~pure
            if hot.any():
                hi = np.flatnonzero(hot)
                j = hi[int(np.argmin(cc[hot]))]  # ties: lowest rank
                bc, bq = float(cc[j]), int(cand[j])
            mem = cand[pure]
            if mem.size == 0:
                return 0
            mep = ep[pure]
            # slot lists are static topology: empty slots sit at stamp
            # inf, so "nothing pending" is an infinite earliest stamp —
            # those ranks park after one turn, exactly like the scalar
            # idle branch
            has = np.isfinite(mep)
            c = cc[pure].copy()
            i0 = idle_t[mem].copy()
            act = has.copy()
            # record layout: parks first, then poll rounds — flat index
            # grows with a member's round number, and per-round slices
            # carry the post-turn clock/idle so no full-width history
            # is kept
            keys = [cc[pure][~has]]
            whom = [np.flatnonzero(~has)]
            postc = [c[~has]]
            posti = [i0[~has]]
            budget = max_turns - turns
            nrec = int(whom[0].size)
            rbc, rbq = bc, bq   # running bound tightened by finishers
            while act.any() and nrec < budget:
                ai = np.flatnonzero(act)
                cp = c[ai]
                wake = cp + poll
                e = mep[ai]
                tighten = e < wake
                if tighten.any():
                    wake[tighten] = np.minimum(wake[tighten], e[tighten])
                dt = wake - cp
                live = dt > 0.0
                if not live.all():  # pragma: no cover - defensive
                    act[ai[~live]] = False
                    ai = ai[live]
                    if ai.size == 0:
                        break
                    cp = cp[live]
                    dt = dt[live]
                keys.append(cp)
                whom.append(ai)
                nrec += ai.size
                c[ai] += dt
                i0[ai] += dt
                postc.append(c[ai])
                posti.append(i0[ai])
                fin = mep[ai] <= c[ai]
                if fin.any():
                    # a finished trajectory's next turn is its delivery
                    # at (c, rank): tighten the running bound so later
                    # rounds stop recording keys that can never commit
                    fi = ai[fin]
                    k = int(np.argmin(c[fi]))
                    if (c[fi[k]] < rbc
                            or (c[fi[k]] == rbc
                                and int(mem[fi[k]]) < rbq)):
                        rbc, rbq = float(c[fi[k]]), int(mem[fi[k]])
                nc = c[ai]
                act[ai] = (~fin & ((nc < rbc)
                                   | ((nc == rbc) & (mem[ai] < rbq))))
            # every unrecorded turn of a pending rank — its next poll
            # or its delivery — lands at or beyond (c, rank); fold
            # those in as bound candidates so truncated trajectories
            # stay safe
            if has.any():
                hi = np.flatnonzero(has)
                j = hi[int(np.argmin(c[has]))]
                if c[j] < bc or (c[j] == bc and int(mem[j]) < bq):
                    bc, bq = float(c[j]), int(mem[j])
            key = np.concatenate(keys)
            who = np.concatenate(whom)
            pc = np.concatenate(postc)
            pi_ = np.concatenate(posti)
            rk = mem[who]
            adm = (key < bc) | ((key == bc) & (rk < bq))
            if not adm.any():
                return 0
            aidx = np.flatnonzero(adm)
            order = aidx[np.lexsort((rk[aidx], key[aidx]))]
            take = min(budget, order.size)
            n_lad += 1
            npark = int(whom[0].size)
            done = 0
            while done < take and not stop:
                step = min(take - done,
                           record_every - turns % record_every)
                sel = order[done:done + step]
                done += step
                ws = who[sel]
                so = np.argsort(ws, kind="stable")
                wg = ws[so]
                fg = sel[so]
                last = np.flatnonzero(np.r_[wg[1:] != wg[:-1], True])
                u = wg[last]
                lf = fg[last]
                pollm = lf >= npark
                if pollm.any():
                    # a member's largest committed flat index is its
                    # latest poll: records are round-major and commits
                    # are per-member key prefixes
                    clocks[mem[u[pollm]]] = pc[lf[pollm]]
                    idle_t[mem[u[pollm]]] = pi_[lf[pollm]]
                if not pollm.all():
                    parked[mem[u[~pollm]]] = 1
                turn_of[mem[u]] += np.diff(np.r_[-1, last])
                turns += step
                win_turns += step
                idle_streak += step
                lad_turns += step
                dirty = True
                if turns % record_every == 0:
                    norm = sample()
                    if (stop_at_target and target_norm is not None
                            and norm <= target_norm):
                        stop = True
            return done

        stop = False
        while turns < max_turns and not stop:
            # ---- phase 0: candidates, horizon, exact turn prefix
            cand = np.flatnonzero(parked == 0)
            if cand.size == 0:
                break               # all parked: no future event
            cc = clocks[cand]
            if lad_on:
                # the heap-min rank decides the mode: when it is clean
                # with nothing deliverable (next_at is a safe low
                # bound), the next scalar turns are a pure poll stretch
                j = int(np.argmin(cc))
                if clean[cand[j]] and next_at[cand[j]] > cc[j]:
                    if ladder(cand, cc):
                        continue
            min_c = cc.min()
            if max_time is not None and min_c >= max_time:
                break
            window = cc < min_c + self.latency
            cand = cand[window]
            cc = cc[window]
            order = np.lexsort((cand, cc))
            mem = cand[order]
            mc = cc[order]
            # cheap caps first — the sample boundary, turn budget and
            # patience bounds need no mailbox state, so the (single)
            # gather below only spans members that could actually run
            cap = min(mem.size, record_every - turns % record_every,
                      max_turns - turns)
            if patience is not None:
                # keep the scalar break turn reachable: near the
                # patience budget degrade to single-member macro-turns
                cap = max(1, min(cap, patience - idle_streak - 1))
            if cap < mem.size:
                mem = mem[:cap]
                mc = mc[:cap]
            # one mailbox snapshot for the whole member set: the
            # earliest-pending stamps, the restamp-hazard scan and the
            # delivery sweep all read from this single gather
            counts_all = ins_off[mem + 1] - ins_off[mem]
            idx = multi_arange(ins_off[mem], ins_off[mem + 1])
            slots = ins_flat[idx]
            t = deliver_at[slots]
            cum = np.cumsum(counts_all)
            heads = cum - counts_all
            mid = np.repeat(np.arange(mem.size), counts_all)
            nonempty = counts_all > 0
            ep = np.full(mem.size, np.inf)
            if t.size:
                ep[nonempty] = np.minimum.reduceat(t, heads[nonempty])
            next_at[mem] = ep  # scan paid for: re-tighten the bounds
            deliverable = ep <= mc
            ready_all = t <= mc[mid]
            n = mem.size
            if n > 1:
                # running re-entry lower bound; first member always
                # runs.  A deliverer's next turn is *exactly* its clock
                # plus the receive charge for every ready slot (the
                # same fp op the plane applies), a clean poller's is
                # exactly its computed wake, a parking member never
                # re-enters; only dirty members need the conservative
                # send-charge floor.
                rcnt = np.zeros(mem.size)
                if t.size:
                    rcnt[nonempty] = np.add.reduceat(
                        ready_all.astype(np.int64), heads[nonempty])
                wake = mc + poll
                tl = ep < wake
                if tl.any():
                    wake[tl] = np.minimum(wake[tl], ep[tl])
                if skippable:
                    # no fault plan: a clean non-deliverer provably
                    # no-ops, so its re-entry is exactly its computed
                    # wake — and with nothing pending it parks and
                    # never re-enters at all
                    no_pend = ~np.isfinite(ep)
                    if no_pend.any():
                        wake[no_pend] = np.inf
                    L = np.where(deliverable, mc + rcnt * alpha_recv,
                                 np.where(clean[mem] != 0, wake,
                                          np.minimum(mc + alpha, wake)))
                else:
                    # under a fault plan the clean shortcut is disabled:
                    # a clean rank still runs decide and may relax, so
                    # every non-deliverer gets the conservative
                    # send-charge floor (and no one parks)
                    L = np.where(deliverable, mc + rcnt * alpha_recv,
                                 np.minimum(mc + alpha, wake))
                ok = mc[1:] < np.minimum.accumulate(L)[:-1]
                if not ok.all():
                    n = 1 + int(np.argmin(ok))
            if max_time is not None:
                n = min(n, int(np.searchsorted(mc[:n], max_time)))
            end = int(cum[n - 1])
            ready = ready_all[:end]
            if n > 1 and deliverable[1:n].any():
                # restamp hazard: an earlier-ordered member's send can
                # overwrite a later member's deliverable slot before
                # that member's scalar turn — cut the batch there (the
                # first member is position 0: nothing precedes it, so it
                # can never be cut and progress is guaranteed)
                pos[mem[:n]] = np.arange(n, dtype=np.int64)
                hazard = ready & (pos[sid_src[slots[:end]]] < mid[:end])
                pos[mem[:n]] = P
                hit = np.flatnonzero(hazard)
                if hit.size:
                    cut = int(mid[hit[0]])
                    if cut > 0:
                        n = cut
                        end = int(cum[n - 1])
                        ready = ready[:end]
            ranks = mem[:n]
            rdel = deliverable[:n]

            # ---- phase 1: batched delivery + payload apply
            if rdel.any():
                sids, counts = aplane.deliver_scanned(
                    ranks, slots[:end], t[:end], mid[:end], ready,
                    counts_all[:n], heads[:n])
                didx = np.flatnonzero(rdel)
                if batch_apply:
                    self._apply_payload_batch(ranks[didx], sids,
                                              counts[didx])
                else:
                    # fault planes mask stale payloads per member —
                    # keep the scalar per-member apply there
                    off = 0
                    for k in didx.tolist():
                        c = int(counts[k])
                        self._apply_payload(int(ranks[k]),
                                            sids[off:off + c].tolist())
                        off += c

            # ---- phase 2: eligibility + batched relax decisions
            tps = turn_of[ranks] + 1
            turn_of[ranks] = tps
            if skippable:
                shortcut = (clean[ranks] != 0) & ~rdel
            else:
                shortcut = np.zeros(n, dtype=bool)
            if stalling:
                stalled = np.fromiter(
                    (fr.rank_stalled(int(p), int(t))
                     for p, t in zip(ranks, tps)), dtype=bool, count=n)
            else:
                stalled = np.zeros(n, dtype=bool)
            elig = ~(shortcut | stalled)
            win = np.zeros(n, dtype=bool)
            if elig.any():
                win[elig] = runner._async_decide_batch(ranks[elig])

            # ---- phase 3: relax every winner (rank-local state only)
            relax_df = np.zeros(n)
            widx = np.flatnonzero(win)
            wr = ranks[widx]
            f0 = flops[wr]
            runner._relax_ranks(wr)
            relax_df[widx] = flops[wr] - f0

            # ---- phase 4: replay clock charges, sends and repairs in
            # scalar turn order (sends must land in turn order: fate
            # streams, restamps and parked wakes all depend on it).
            # Only winners and repair candidates have cross-rank side
            # effects; the runs of "light" members between them — polls,
            # bare deliveries, shortcut turns — touch rank-local state
            # only, so each run is committed as one vectorized chunk at
            # its scalar-order position.
            repair = np.zeros(n, dtype=bool)
            if elig.any():
                repair[elig] = runner._async_repair_mask(ranks[elig],
                                                         win[elig])
            heavy = win | repair
            seg = 0
            for k in np.flatnonzero(heavy).tolist():
                if k > seg:
                    idle_streak = light_replay(ranks[seg:k],
                                               rdel[seg:k], idle_streak)
                seg = k + 1
                p = int(ranks[k])
                t_p = int(tps[k])
                slowdown = (fr.rank_slowdown(p, t_p)
                            if slowing else 1.0)
                acted = bool(rdel[k])
                relaxed = False
                if win[k]:
                    aplane.advance_compute(p, relax_df[k], slowdown)
                    f0 = flops[p]
                    runner._async_send(p, aplane, t_p)
                    acted = relaxed = True
                else:
                    f0 = flops[p]
                if repair[k] and runner._async_repair(p, aplane, t_p):
                    acted = True
                if flops[p] != f0:
                    aplane.advance_compute(p, float(flops[p] - f0),
                                           slowdown)
                clean[p] = not relaxed
                if acted:
                    idle_streak = 0
                    win_active += 1
                else:
                    idle_streak += 1
                    if skippable and clean[p] and not n_pending[p]:
                        parked[p] = 1
                    else:
                        wake = clocks[p] + poll
                        if next_at[p] < wake:
                            wake = min(wake, aplane.earliest_pending(p))
                        aplane.advance_idle(p, wake - clocks[p])
            if n > seg:
                idle_streak = light_replay(ranks[seg:n], rdel[seg:n],
                                           idle_streak)
            win_active += int(rdel[~heavy].sum())
            turns += n
            win_turns += n
            n_macro += 1
            dirty = True
            if turns % record_every == 0:
                # the sample cap pins record boundaries to batch ends,
                # so every phase's effects are committed here
                norm = sample()
                if (stop_at_target and target_norm is not None
                        and norm <= target_norm):
                    stop = True
            if (patience is not None and idle_streak >= patience
                    and aplane.in_flight == 0
                    and runner.global_norm() > (target_norm or 0.0)):
                runner.degraded = True
                runner.degraded_reason = runner._deadlock_diagnosis()
                break

        # drain + final sample: identical to the scalar epilogue
        while aplane.in_flight:
            progressed = False
            for p in range(P):
                nxt = aplane.earliest_pending(p)
                if np.isfinite(nxt):
                    if nxt > clocks[p]:
                        aplane.advance_idle(p, float(nxt - clocks[p]))
                    if self._deliver_apply(p):
                        progressed = True
                        dirty = True
            if not progressed:      # pragma: no cover - defensive
                break
        if dirty:
            sample()
        runner.steps_taken = turns
        self.turns = turns
        self.sched_stats = {"macro_turns": n_macro,
                            "ladder_turns": n_lad,
                            "ladder_committed": lad_turns,
                            "turns": turns}
        return runner.history
