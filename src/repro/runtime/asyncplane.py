"""Event-driven async message plane over the flat-buffer geometry.

Models the paper's Casper-progressed one-sided MPI without epochs
(DESIGN.md §5.14): the mailbox storage is the same preallocated
per-edge slot layout as :class:`~repro.runtime.flatplane.FlatEdgePlane`,
extended with one *timestamp per slot* — no per-message objects, no
dict payloads.

Event model
-----------
Each rank owns a virtual clock priced by the
:class:`~repro.runtime.costmodel.CostModel`:

- compute advances it by ``flops * gamma / speed[p]`` (``speed_factors``
  model stragglers — a factor of 0.5 computes half as fast);
- a send batch advances the *sender* by ``count * alpha + nbytes * beta``
  and stamps every slot ``deliver_at = sender_clock + latency``;
- a read charges ``alpha_recv`` per delivered message to the receiver.

A slot holds at most one in-flight message (RMA overwrite semantics: a
newer put to the same window region supersedes the older one — which is
why the methods ship *cumulative* payloads on this plane, making
overwrites and drops self-healing).  The scheduler always runs the rank
with the smallest clock (ties to the lower rank), so a straggling rank
naturally falls behind while its neighbors race ahead on stale
estimates — staleness *emerges from simulated time* instead of being
injected.

State layout
------------
``clocks`` / ``idle`` / ``deliver_at`` / ``_next_at`` / ``n_pending``
are flat float64/int64 arrays (+inf = empty slot / no bound), shared by
both schedulers (DESIGN.md §5.15): the scalar event loop indexes them a
rank at a time, the batched event-horizon scheduler scans them whole.
The per-rank incoming slot-ids are additionally kept concatenated
(``ins_flat`` along ``ins_off``) so a macro-turn's mailbox timestamp
scan is one gather + segment-reduce.

The scalar loop instead reads each rank's mailbox through an index:
a heap of ``(stamp, slot-id)`` entries that ``send`` pushes onto.
``deliver_at`` stays the one source of truth — an entry is live iff
``deliver_at[sid] == stamp`` — so a restamped slot, or one the batched
sweep delivered, merely leaves a stale entry that is dropped when it
surfaces, and a heap grown past twice its rank's in-slot count is
rebuilt from ``deliver_at``.

Wire capture
------------
The lockstep plane lets receivers read the sender's live buffers because
an epoch barrier separates write from read.  Without epochs a sender may
relax again while its previous message is still in flight, so ``send``
snapshots the payload regions into separate *wire* stores
(``wire_vals`` / ``wire_zsolve`` / ``wire_zres`` + header scalars) at
stamp time.  Message faults compose at that same point: fates are drawn
*before* the wire copy, so a dropped message leaves the slot's previous
in-flight payload (if any) and stamp intact — the origin still pays the
send cost, the network just never delivers.

Determinism: all state transitions are pure functions of the scheduler
order (smallest clock, ties by rank) and the seeded fate streams, so a
fixed (matrix, partition, seed, config) reproduces bit-identical clocks,
histories and stats.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.config import require_finite
from repro.runtime.costmodel import CORI_LIKE, CostModel
from repro.runtime.flatplane import multi_arange
from repro.trace import NULL_TRACER

__all__ = ["AsyncFlatPlane"]

_EMPTY_SIDS = np.zeros(0, dtype=np.int64)
_EMPTY_FATES = np.zeros(0, dtype=np.int64)
_EMPTY_LIST: list[int] = []


class AsyncFlatPlane:
    """Timestamped slot mailboxes + smallest-clock scheduler.

    Parameters
    ----------
    plane:
        The configured lockstep :class:`~repro.runtime.flatplane
        .FlatEdgePlane` — supplies the edge geometry, per-slot wire
        sizes and the trace hooks' index arrays.  Its mutable buffers
        stay the *senders'* working storage; this class owns the
        in-flight copies.
    stats:
        The shared :class:`~repro.runtime.stats.MessageStats`; sends and
        receives are charged through the same batched entry points the
        lockstep plane uses, so totals stay integer-exact comparable.
    cost_model:
        Clock pricing (alpha/alpha_recv/beta/gamma).
    latency:
        One-way network latency added to every message's delivery stamp.
    speed_factors:
        Optional per-rank compute-speed multipliers (stragglers < 1).
    faults:
        Optional :class:`~repro.faults.FaultRuntime` (already
        ``attach_flat``-bound to ``plane``); drop/stale fates compose at
        send time, stalls and slowdowns are consulted by the executor.
    """

    def __init__(self, plane, stats, cost_model: CostModel = CORI_LIKE,
                 latency: float = 5.0e-6,
                 speed_factors: np.ndarray | None = None,
                 tracer=None, faults=None) -> None:
        self.latency = require_finite("latency", latency, positive=False)
        self.plane = plane
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults
        self.cost_model = cost_model
        P = plane.n_procs
        self.n_procs = P
        if speed_factors is None:
            self.speed = np.ones(P)
        else:
            self.speed = np.asarray(speed_factors, dtype=np.float64).copy()
            if self.speed.shape != (P,):
                raise ValueError("speed_factors must have one entry "
                                 "per process")
            if not np.all(np.isfinite(self.speed) & (self.speed > 0.0)):
                raise ValueError("speed_factors must be finite and "
                                 "positive")
        self._alpha = cost_model.alpha
        self._alpha_recv = cost_model.alpha_recv
        self._beta = cost_model.beta
        self._gamma = cost_model.gamma
        #: per-rank virtual clocks and cumulative idle time — float64
        #: arrays shared by both schedulers: the scalar loop touches one
        #: entry per turn, the batched scheduler reduces over the whole
        #: vector to find the horizon
        self.clocks = np.zeros(P)
        self.idle = np.zeros(P)
        E = plane.n_edges
        #: per-slot delivery stamp; +inf = slot empty
        self.deliver_at = np.full(2 * E, np.inf)
        # in-flight wire copies, laid out exactly like the lockstep
        # plane's stores (slot-id / edge offsets index both)
        self.wire_vals = np.zeros(int(plane.vals_off[-1]))
        self.wire_zsolve = np.zeros(int(plane.z_off[-1]))
        self.wire_zres = np.zeros(int(plane.z_off[-1]))
        self.wire_norm = np.zeros(2 * E)
        self.wire_est = np.zeros(2 * E)
        self.wire_fate = np.zeros(2 * E, dtype=np.int64)
        #: per-rank incoming slot-ids (both kinds), ascending — kept
        #: both as per-rank views and concatenated (``ins_flat`` along
        #: ``ins_off``) for the batched mailbox scans
        dsts = np.asarray(plane.edge_dst, dtype=np.int64)
        self.in_sids = []
        for p in range(P):
            eids = np.flatnonzero(dsts == p)
            sids = np.empty(2 * eids.size, dtype=np.int64)
            sids[0::2] = 2 * eids
            sids[1::2] = 2 * eids + 1
            self.in_sids.append(np.sort(sids))
        self.ins_off = np.zeros(P + 1, dtype=np.int64)
        np.cumsum([s.size for s in self.in_sids], out=self.ins_off[1:])
        self.ins_flat = (np.concatenate(self.in_sids)
                         if self.ins_off[-1] else _EMPTY_SIDS.copy())
        #: receiver / sender rank per slot-id (both kinds share one)
        self.sid_dst = np.repeat(dsts, 2)
        self._sid_dst_list = self.sid_dst.tolist()
        self.sid_src = np.repeat(
            np.asarray(plane.edge_src, dtype=np.int64), 2)
        #: per-rank count of in-flight messages
        self.n_pending = np.zeros(P, dtype=np.int64)
        # per-rank LOWER BOUND on the earliest pending stamp: a restamp
        # (RMA overwrite) can raise a slot's stamp without raising this,
        # so a passed gate may still find nothing — in which case the
        # mailbox read re-tightens the bound.  ``bound > clock`` always
        # implies nothing is deliverable, so the gate is semantics-exact.
        self._next_at = np.full(P, np.inf)
        # per-rank mailbox index: a heap of (stamp, sid) holding every
        # in-flight slot's current entry plus stale ones (live iff
        # ``deliver_at[sid] == stamp``); rebuilt from ``deliver_at`` once
        # it outgrows twice the rank's in-slot count
        self._mail: list[list[tuple[float, int]]] = [[] for _ in range(P)]
        self._mail_cap = [2 * s.size for s in self.in_sids]
        # ranks parked by the executor (idle, empty mailbox, provably
        # nothing to do): not in the heap; the next send addressed to
        # one wakes it at the message's stamp
        self.parked = np.zeros(P, dtype=np.uint8)
        # smallest-clock scheduler: lazy heap with staleness check — a
        # stale entry (clock != the rank's current clock) is skipped; a
        # (clock, rank) tuple orders ties to the lower rank.  The
        # batched scheduler ignores the heap and recomputes the runnable
        # set from ``parked`` + ``clocks`` each macro-turn.
        self._heap: list[tuple[float, int]] = [(0.0, p) for p in range(P)]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def next_process(self) -> int:
        """Pop the rank with the smallest clock (ties to lower rank)."""
        clocks = self.clocks
        heap = self._heap
        while True:
            clock, p = heapq.heappop(heap)
            if clock == clocks[p]:
                return p

    def reschedule(self, p: int) -> None:
        """Re-enter ``p`` into the scheduler at its current clock."""
        heapq.heappush(self._heap, (float(self.clocks[p]), p))

    @property
    def elapsed(self) -> float:
        """Virtual time: the furthest-ahead rank's clock."""
        return float(self.clocks.max())

    @property
    def in_flight(self) -> int:
        """Messages stamped but not yet delivered."""
        return int(self.n_pending.sum())

    # ------------------------------------------------------------------
    # clock charges
    # ------------------------------------------------------------------
    def advance_compute(self, p: int, flops: float,
                        slowdown: float = 1.0) -> None:
        """Advance ``p``'s clock for ``flops`` of local work.

        ``slowdown`` multiplies the rank's base speed factor for this
        charge only (fault-plan slowdown windows)."""
        self.clocks[p] += (flops * self._gamma
                           / (self.speed[p] * slowdown))

    def advance_idle(self, p: int, seconds: float) -> None:
        """Advance ``p``'s clock through an idle wait."""
        if seconds > 0.0:
            self.clocks[p] += seconds
            self.idle[p] += seconds

    # ------------------------------------------------------------------
    # origin side
    # ------------------------------------------------------------------
    def send(self, src: int, sids: np.ndarray, norm_vals, est_vals,
             nbytes_total: int, category: str) -> np.ndarray:
        """Charge and stamp one rank's fan-out; returns the slot-ids that
        actually enter the network (drop-fated ones are charged at the
        origin but never stamped, so the slot keeps any older in-flight
        payload).

        The caller copies the ``vals``/``z`` payload regions of the
        *returned* sids into the wire stores — fates must land before
        payload capture so a dropped send cannot clobber a live message.
        """
        if sids.size == 0:
            return _EMPTY_SIDS
        self.stats.record_messages(src, category, sids.size,
                                   int(nbytes_total))
        if self.tracer.enabled:
            self.tracer.sends_flat(self.plane, sids, category)
        self.clocks[src] += (sids.size * self._alpha
                             + nbytes_total * self._beta)
        fr = self.faults
        if fr is not None and fr.message_faults:
            from repro.faults import FATE_DROP

            fates = fr.fates_flat(sids)
            alive = (fates & FATE_DROP) == 0
            if not alive.all():
                sids = sids[alive]
                fates = fates[alive]
                norm_vals = (norm_vals[alive]
                             if isinstance(norm_vals, np.ndarray)
                             and norm_vals.ndim else norm_vals)
                est_vals = (est_vals[alive]
                            if isinstance(est_vals, np.ndarray)
                            and est_vals.ndim else est_vals)
                if sids.size == 0:
                    return _EMPTY_SIDS
            self.wire_fate[sids] = fates
        self.wire_norm[sids] = norm_vals
        self.wire_est[sids] = est_vals
        # per slot: a fan-out is a handful of slots and addresses each
        # destination at most once (one slot per (edge, kind)).  A
        # restamped slot (RMA overwrite of a still-in-flight message) is
        # already counted; only empty slots grow the pending counts.
        stamp = float(self.clocks[src] + self.latency)
        da = self.deliver_at
        sid_dst = self._sid_dst_list
        n_pending = self.n_pending
        next_at = self._next_at
        parked = self.parked
        mail = self._mail
        for s in sids.tolist():
            d = sid_dst[s]
            if da[s] == math.inf:
                n_pending[d] += 1
            da[s] = stamp
            if stamp < next_at[d]:
                next_at[d] = stamp
            box = mail[d]
            heapq.heappush(box, (stamp, s))
            if len(box) > self._mail_cap[d]:
                self._rebuild_mail(d)
            if parked[d]:
                # wake a parked receiver at the delivery stamp (it was
                # idle with an empty mailbox, so the wait is idle time)
                parked[d] = 0
                clocks = self.clocks
                if stamp > clocks[d]:
                    self.idle[d] += stamp - clocks[d]
                    clocks[d] = stamp
                heapq.heappush(self._heap, (float(clocks[d]), d))
        return sids

    def _rebuild_mail(self, p: int) -> None:
        """Rebuild ``p``'s mailbox heap from ``deliver_at``, dropping its
        stale entries (the batched sweeps never pop them)."""
        sl = self.in_sids[p]
        t = self.deliver_at[sl]
        live = np.isfinite(t)
        box = list(zip(t[live].tolist(), sl[live].tolist()))
        heapq.heapify(box)
        self._mail[p] = box

    # ------------------------------------------------------------------
    # target side
    # ------------------------------------------------------------------
    def deliver(self, p: int) -> list[int]:
        """Slot-ids delivered to ``p`` at its current clock, in stamp
        order (ties by slot-id); clears their stamps and charges the
        receives.  Returns a plain list — the downstream payload-apply
        paths branch on fan-in size with list plumbing."""
        clock = self.clocks[p]
        if not self.n_pending[p] or self._next_at[p] > clock:
            return _EMPTY_LIST
        # the heap pops in (stamp, sid) order — ties by slot-id; a live
        # pop clears the stamp, so a duplicate entry surfaces stale
        box = self._mail[p]
        da = self.deliver_at
        out = []
        while box and box[0][0] <= clock:
            t, s = heapq.heappop(box)
            if da[s] == t:
                da[s] = math.inf
                out.append(s)
        n = len(out)
        if n:
            self.n_pending[p] -= n
        # the cleaned top re-tightens the bound (a stale one — an
        # overwrite raised a stamp — passes the gate with nothing ready)
        self._next_at[p] = (self._mail_top(p) if self.n_pending[p]
                            else math.inf)
        if not n:
            return _EMPTY_LIST
        self.clocks[p] += n * self._alpha_recv
        self.stats.record_receives(p, n)
        if self.tracer.enabled:
            self.tracer.recvs_flat(self.plane, p,
                                   np.array(out, dtype=np.int64))
        return out

    def _mail_top(self, p: int) -> float:
        """Earliest live stamp in ``p``'s heap (which must hold one),
        dropping the stale entries above it."""
        box = self._mail[p]
        da = self.deliver_at
        while True:
            t, s = box[0]
            if da[s] == t:
                return t
            heapq.heappop(box)

    def earliest_pending(self, p: int) -> float:
        """Earliest in-flight stamp addressed to ``p`` (inf if none)."""
        if not self.n_pending[p]:
            return math.inf
        e = self._mail_top(p)
        self._next_at[p] = e        # exact: re-tighten the bound
        return e

    # ------------------------------------------------------------------
    # batched event-horizon scheduler primitives (DESIGN.md §5.15)
    # ------------------------------------------------------------------
    def earliest_pending_batch(self, ranks: np.ndarray) -> np.ndarray:
        """Exact earliest pending stamp for every rank in ``ranks``
        (inf if none), re-tightening the ``_next_at`` bounds.  One
        mailbox timestamp scan for the whole candidate set: a gather and
        a segment-min."""
        off = self.ins_off
        counts = off[ranks + 1] - off[ranks]
        idx = multi_arange(off[ranks], off[ranks + 1])
        t = self.deliver_at[self.ins_flat[idx]]
        nonempty = counts > 0
        ep = np.full(ranks.size, np.inf)
        if t.size:
            heads = np.zeros(int(nonempty.sum()), dtype=np.int64)
            np.cumsum(counts[nonempty][:-1], out=heads[1:])
            ep[nonempty] = np.minimum.reduceat(t, heads)
        self._next_at[ranks] = ep
        return ep

    def first_hazard(self, ranks: np.ndarray, rc: np.ndarray,
                     pos: np.ndarray) -> int:
        """Index of the first rank in ``ranks`` (at clocks ``rc``)
        holding a deliverable slot whose *sender* is a batch member
        ordered before it (``pos`` maps rank → batch position, with a
        sentinel ≥ ``ranks.size`` for non-members), or -1.

        The batched scheduler truncates its macro-turn there: an
        earlier-ordered member's send could restamp (RMA-overwrite)
        that slot before this member's scalar-order turn, so delivering
        it in the batched phase could hand the member a message the
        oracle never sees.  Assuming every earlier member might send
        over-approximates (most don't relax or repair that turn) — that
        only shortens the batch, never changes results; senders ordered
        at or after the member, and non-members, cannot act before its
        turn, so they are exact non-hazards.
        """
        off = self.ins_off
        idx = multi_arange(off[ranks], off[ranks + 1])
        slots = self.ins_flat[idx]
        mid = np.repeat(np.arange(ranks.size),
                        off[ranks + 1] - off[ranks])
        hazard = ((self.deliver_at[slots] <= rc[mid])
                  & (pos[self.sid_src[slots]] < mid))
        hit = np.flatnonzero(hazard)
        return int(mid[hit[0]]) if hit.size else -1

    def deliver_batch(self, ranks: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Deliver every ready slot of every rank in ``ranks`` (each of
        which must have a deliverable stamp) in one vectorized sweep.

        Returns ``(sids, counts)``: the delivered slot-ids concatenated
        rank-major — within a rank in stamp order, ties by slot-id,
        exactly :meth:`deliver`'s ordering — and the per-rank counts.
        Clears the stamps, updates the pending counters and bounds, and
        charges the receive clock/stat costs per rank (the same
        per-rank arithmetic as :meth:`deliver`, so clocks stay
        bit-identical).  Trace emission is left to the caller, which
        replays receives in scalar turn order.
        """
        off = self.ins_off
        counts_all = off[ranks + 1] - off[ranks]
        idx = multi_arange(off[ranks], off[ranks + 1])
        slots = self.ins_flat[idx]
        t = self.deliver_at[slots]
        mid = np.repeat(np.arange(ranks.size), counts_all)
        ready = t <= self.clocks[ranks][mid]
        sr = slots[ready]
        tr = t[ready]
        mr = mid[ready]
        # rank-major, then stamp, ties by slot-id (lexsort: last key
        # is primary) — per rank this is exactly deliver()'s ordering
        order = np.lexsort((sr, tr, mr))
        sids = sr[order]
        counts = np.bincount(mr, minlength=ranks.size)
        self.deliver_at[sids] = np.inf
        self.n_pending[ranks] -= counts
        # remaining-stamp minimum per rank (inf when nothing is left):
        # identical to deliver()'s re-tightened bound
        t_left = np.where(ready, np.inf, t)
        heads = np.zeros(ranks.size, dtype=np.int64)
        np.cumsum(counts_all[:-1], out=heads[1:])
        nonempty = counts_all > 0
        nxt = np.full(ranks.size, np.inf)
        if t_left.size:
            nxt[nonempty] = np.minimum.reduceat(t_left, heads[nonempty])
        self._next_at[ranks] = nxt
        # the same per-rank scalar receive charge as deliver(): int *
        # float is one IEEE multiply either way
        self.clocks[ranks] += counts * self._alpha_recv
        self.stats.record_receive_groups(ranks, counts)
        return sids, counts

    def deliver_scanned(self, ranks: np.ndarray, slots: np.ndarray,
                        t: np.ndarray, mid: np.ndarray,
                        ready: np.ndarray, counts_all: np.ndarray,
                        heads: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Commit a delivery sweep from an already-gathered mailbox
        snapshot (the macro-turn's single scan): ``slots``/``t``/``mid``
        are the member prefix's slot-ids, stamps and member indices,
        ``ready`` the stamp-vs-clock mask, ``counts_all``/``heads`` the
        per-member segment shapes.  Same ordering, charges and bound
        refresh as :meth:`deliver_batch`, without re-gathering — ranks
        with no ready slot get a zero count and an exact (unchanged)
        ``_next_at`` refresh.
        """
        sr = slots[ready]
        tr = t[ready]
        mr = mid[ready]
        order = np.lexsort((sr, tr, mr))
        sids = sr[order]
        counts = np.bincount(mr, minlength=ranks.size)
        self.deliver_at[sids] = np.inf
        self.n_pending[ranks] -= counts
        t_left = np.where(ready, np.inf, t)
        nonempty = counts_all > 0
        nxt = np.full(ranks.size, np.inf)
        if t_left.size:
            nxt[nonempty] = np.minimum.reduceat(t_left, heads[nonempty])
        self._next_at[ranks] = nxt
        # charge and count receives only where something landed — the
        # same per-rank scalar arithmetic as deliver()
        deliv = counts > 0
        dr = ranks[deliv]
        self.clocks[dr] += counts[deliv] * self._alpha_recv
        self.stats.record_receive_groups(dr, counts[deliv])
        return sids, counts
