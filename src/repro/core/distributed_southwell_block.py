"""Distributed Southwell, block form (Algorithm 3 — the paper's contribution).

The premise: neighbors' residual norms "do not need to be known exactly" —
they only gate the relax decision.  Each process ``p`` therefore keeps

- ``ghost[q]`` (the paper's ``z_q``): a copy of neighbor ``q``'s residual
  *at the boundary rows coupled to p* (``β_qp``).  When ``p`` relaxes it
  knows its exact contribution ``-A_qp Δx_p`` to those entries, so it can
  update both the ghost and its norm estimate with **zero communication**;
- ``Γ_p`` (here ``gamma_sq``): squared norm *estimates* for each neighbor,
  adjusted through the ghost layer (``est² ← est² − ‖z_old‖² + ‖z_new‖²``);
- ``Γ̃_p`` (here ``tilde_sq``): what each neighbor currently believes
  ``‖r_p‖`` is.  Exactly trackable because only ``p``'s own messages and
  the neighbor's receipt of them ever change that belief.

Deadlock avoidance (lines 27-30): whenever ``‖r_p‖ < ‖r̃_q‖`` — neighbor
``q`` *over*-estimates ``p``, so ``q`` might defer to ``p`` forever while
``p`` defers to someone else — ``p`` sends ``q`` one explicit residual
message.  These are the only explicit residual messages DS ever sends,
versus PS's every-change broadcast; that is the entire communication win.

Estimates can drift only through two-hop relaxations (a neighbor of a
neighbor relaxing), and the drift is bounded by the residual sizes, so it
shrinks as the iteration converges (Section 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.block_base import BlockMethodBase, _rank_views
from repro.faults import FATE_STALE
from repro.runtime import CATEGORY_RESIDUAL, CATEGORY_SOLVE
from repro.sparsela.primitives import multi_arange, segment_plan, segment_sq


__all__ = ["DistributedSouthwell"]


def _sq(x) -> float:
    """Squared scalar via plain multiply.

    Used on every path that feeds the Γ/Γ̃ bookkeeping so all sides
    compute bit-identical values (``x ** 2`` takes different code paths
    for numpy scalars and arrays and can differ in the last ulp, which
    would break the exact Γ̃ mirror invariant).
    """
    v = float(x)
    return v * v


class DistributedSouthwell(BlockMethodBase):
    """Algorithm 3 over the simulated RMA runtime.

    Ablation knobs (both default to the paper's algorithm):

    ``deadlock_avoidance=False``
        drops the explicit residual messages (lines 27-30).  This is the
        broken ICCS'16-style scheme: estimates can get stuck above every
        actual norm and the iteration stalls — the failure mode the paper
        exists to fix (a test demonstrates the stall).
    ``ghost_estimation=False``
        drops the local ghost-layer estimate updates (line 15); neighbor
        norms then only refresh when messages arrive, so estimates are
        staler and more deadlock-repair traffic is needed.
    """

    name = "distributed-southwell"

    def __init__(self, *args, deadlock_avoidance: bool = True,
                 ghost_estimation: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.deadlock_avoidance = deadlock_avoidance
        self.ghost_estimation = ghost_estimation

    def _build_structure(self) -> None:
        super()._build_structure()
        P = self.system.n_parts
        # Γ (line 5), Γ̃ (line 6) live as one flat slab each along the
        # neighbor offsets (the per-rank lists are views into it), so the
        # decision phase and the deadlock scan are single vector
        # operations.
        off = self._nbr_off
        self._gamma_flat = np.empty(self._nbr_flat.size)
        self._tilde_flat = np.empty(self._nbr_flat.size)
        self.gamma_sq: list[np.ndarray] = [
            self._gamma_flat[off[p]:off[p + 1]] for p in range(P)]
        self.tilde_sq: list[np.ndarray] = [
            self._tilde_flat[off[p]:off[p + 1]] for p in range(P)]
        # loss-hardening heartbeats, one per (owner, neighbor) slab
        # position (used under a lossy plan only)
        self._hb_last_sent = np.zeros(self._slab_owner.size, dtype=np.int64)
        self._hb_retry_used = np.zeros(self._slab_owner.size,
                                       dtype=np.int64)
        # iteration plans.  The ghost layers live in one
        # global flat array laid out exactly parallel to the mailbox
        # delta store: edge (p, q)'s region holds ghost[p][q] (same
        # length as the edge's vals buffer by construction).  Rank p's
        # layers are then one contiguous slab mirroring its delta slab,
        # so the phase-1 ghost update is a single vector add; per-layer
        # views (``_ghost_views[p][i]``, neighbor i of rank p) give the
        # per-neighbor contribution dots.  ghost[p][q] is q's residual
        # at β_qp, which is what edge (p, q)'s deltas scatter onto —
        # ``_grows_flat`` is therefore also the plan that fills the
        # whole store from the residual store in one gather.
        voff = self.engine.flat.vals_off
        self._ghost_flat = ghost = np.empty(int(voff[-1]))
        self._ghost_slab = self._rank_slabs(ghost)
        views = _rank_views(ghost, voff)
        spans = list(zip(off.tolist(), off[1:].tolist()))
        self._ghost_views = [views[lo:hi] for lo, hi in spans]
        self._ghost_flops = 4.0 * np.diff(voff[self._nbr_off])
        # each slab position's ghost layer (= its edge's delta region):
        # the batched relax's contribution-dot segments
        self._layer_lo = voff[:-1]
        self._layer_len = np.diff(voff)
        # wire size of the residual message at every (owner,
        # neighbor) slab position — the deadlock scan sums its
        # per-sender byte charges by slab index
        self._slab_res_nbytes = self._flat_res_nbytes[self._slab_eids]
        # slab-shaped flag: positions we sent an explicit residual
        # update to this step (the phase-3 crossing settlement)
        self._res_mask = np.zeros(self._slab_owner.size, dtype=bool)

    def _reset_state(self, x0, b) -> None:
        super()._reset_state(x0, b)
        # Γ, Γ̃ exact at startup.  One shared squared-norm array so both
        # sides of the Γ̃ mirror start bit-identical (scalar and array
        # ``**`` can differ in the last ulp).
        norms_sq = self.norms * self.norms
        np.take(norms_sq, self._nbr_flat, out=self._gamma_flat)
        np.take(norms_sq, self._slab_owner, out=self._tilde_flat)
        # ghost layers z_q (lines 7-9): p's copy of q's residual at β_qp
        np.take(self._r_flat, self._grows_flat, out=self._ghost_flat)
        # loss hardening (DESIGN.md §5.11): under a lossy plan the Γ̃
        # mirror breaks — a dropped message leaves the neighbor believing
        # an old norm, and the line-27 repair itself can be lost.  Every
        # (owner, neighbor) slab position therefore keeps a heartbeat:
        # when the edge has been silent ``resend_after`` steps, re-send
        # the residual-norm repair, at most ``retry_budget`` consecutive
        # times per edge (the budget quiesces a genuinely dead edge so
        # the degradation detector can fire instead of spinning forever).
        plan = self._active_plan
        self._stale_possible = (self._faults is not None
                                and (plan.solve.ghost_stale > 0
                                     or plan.residual.ghost_stale > 0))
        self._hardened = (self._faults is not None
                          and self.deadlock_avoidance and plan.lossy)
        if self._hardened:
            self._resend_after = plan.resend_after
            self._retry_budget = plan.retry_budget
            self._hb_last_sent.fill(0)
            self._hb_retry_used.fill(0)

    # ------------------------------------------------------------------
    # flat-buffer plane hooks (DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def _flat_ghost_rows(self, n_vals, rev):
        # z on edge (p, q) is p's residual at its rows coupled to q: as
        # long as the delta buffer of the reverse edge
        return n_vals[rev]

    def _flat_message_nbytes(self, n_vals, n_z):
        # solve = {vals, z, own_norm_sq, your_est_sq};
        # residual = {z, own_norm_sq, your_est_sq}
        return 32 + 8 * (n_vals + n_z), 32 + 8 * n_z

    # ------------------------------------------------------------------
    def _relax_one_flat(self, p: int) -> None:
        """DS's per-rank relax-phase body: relax, then line 15 — ghosts and
        estimates updated locally, no messages: one slab add (ghost and
        delta slabs share layout), then per-neighbor dots in neighbor
        order.  Under a lossy plan the ghost update consumes the raw
        deltas before the cumulative wire payload replaces them."""
        self._relax_send(p)             # raw deltas land in plane.vals
        if self.ghost_estimation:
            if self.tracer.enabled:
                self.tracer.ghosts(p, self.system.neighbors_of(p))
            views = self._ghost_views[p]
            olds = [float(z @ z) for z in views]
            self._ghost_slab[p] += self._vals_slab[p]
            gseg = self.gamma_sq[p]
            gl = gseg.tolist()
            for i in range(len(views)):
                z = views[i]
                new_c = float(z @ z)
                est = gl[i] - olds[i] + new_c
                gl[i] = new_c if new_c > est else est
            gseg[:] = gl
            self._flops[p] += self._ghost_flops[p]
        if self._lossy:
            self._lossy_finalize_send(slice(*self._fan_rows[p:p + 2]))

    def _relax_batch(self, W: np.ndarray) -> np.ndarray:
        """The batched relax plus line 15: one ghost add, one Γ update,
        ``Γ ← max(Γ − ‖z_old‖² + ‖z_new‖², ‖z_new‖²)`` (float drift must
        not push the estimate of a full norm under the part ``p`` can
        see).  The contribution dots are each layer's own ``ddot``,
        batched by :func:`segment_sq` — one BLAS call per distinct layer
        length, the old and new passes sharing one length grouping."""
        vidx = super()._relax_batch(W)
        if self.ghost_estimation:
            off = self._nbr_off
            spos = multi_arange(off[W], off[W + 1])
            lo, ln = self._layer_lo[spos], self._layer_len[spos]
            plan = segment_plan(lo, ln)
            ghost = self._ghost_flat
            olds = segment_sq(ghost, lo, ln, plan)
            ghost[vidx] += self.engine.flat.vals_flat[vidx]
            news = segment_sq(ghost, lo, ln, plan)
            est = self._gamma_flat[spos] - olds + news
            self._gamma_flat[spos] = np.where(news > est, news, est)
            self._flops[W] += self._ghost_flops[W]
        return vidx

    def _trace_relax(self, winners) -> None:
        # per winner relax(p), then ghosts(p, ...), as the per-rank body
        if not self.ghost_estimation:
            super()._trace_relax(winners)
            return
        trc = self.tracer
        for p in winners.tolist():
            trc.relax(p)
            trc.ghosts(p, self.system.neighbors_of(p))

    # ------------------------------------------------------------------
    def _absorb_z(self, arr: np.ndarray, zstore: np.ndarray) -> None:
        """Lines 24/34: overwrite the receivers' ghost layers with the z
        payloads of the delivered slots ``arr`` (solve or residual
        store), as one permuted copy; a ghost-stale fate (a torn
        one-sided read) skips its overwrite."""
        if self._stale_possible:
            arr = arr[(self.engine.flat.last_fates & FATE_STALE) == 0]
        eids = arr >> 1
        zoff = self.engine.flat.z_off
        idx = multi_arange(zoff[eids], zoff[eids + 1])
        self._ghost_flat[self._z2g[idx]] = zstore[idx]

    def _solve_send_mask(self, winners: np.ndarray,
                         wmask: np.ndarray) -> np.ndarray:
        """The slab positions (= edge ids) whose solve message goes out
        this step, given the winners' whole fan-out ``wmask``: all of it
        (Alg 3 line 17).  Send-suppressing variants return a subset; it
        then also bounds the Γ̃ settlement and the heartbeat restart."""
        return wmask

    def _solve_totals(self, edges, senders):
        """Per-sender message counts and byte totals of solve messages on
        ``edges`` (a mask or ids over the slab), for the ranks
        ``senders`` (exact: integer sums)."""
        owners = self._slab_owner[edges]
        P = self.system.n_parts
        nbytes = np.bincount(owners, weights=self._flat_solve_nbytes[edges],
                             minlength=P)
        return (np.bincount(owners, minlength=P)[senders],
                nbytes[senders].astype(np.int64))

    def step(self) -> int:
        """One parallel step (Algorithm 3) in three phases (DESIGN.md
        §5.8): the relax deltas are written straight into the edge
        mailboxes, headers are stamped in put order (ascending sender,
        ascending neighbor), and only ranks with mail run the read
        phases.  The decision, the Γ̃ crossing settlement and the
        deadlock scan are single vector operations over the neighbor
        slab.
        """
        plane = self.engine.flat
        norm_hdr = plane.norm
        est_hdr = plane.est
        gflat = self._gamma_flat
        tflat = self._tilde_flat
        zoff = plane.z_off
        slabpos = self._sid_slabpos
        res_mask = self._res_mask
        res_mask[:] = False
        trc = self.tracer
        tracing = trc.enabled

        # ---- phase 1: criterion on *estimates*, relax, put (lines 12-19)
        if tracing:
            trc.phase_begin("relax")
        relaxed = self._mask_stalled(
            self._wins_vector(self.norms * self.norms, gflat))
        winners = np.flatnonzero(relaxed)
        hardened = self._hardened
        step_no = self.steps_taken + 1
        self._relax_ranks(winners)  # deltas + line 15, per winner
        # the norms every relaxer's solve messages carry this step (read
        # again by the Γ̃ crossing settlement after phase-2 applies change
        # norms); only the relaxed entries are ever read
        phase1_norm_sq = self.norms * self.norms
        sent = None
        if winners.size:
            # every winner's outgoing z payloads in one gather out of the
            # global residual store (each winner's own block is final
            # once the loop ends, so gathering after it reads the same
            # values the per-winner gathers did).  Line 16 (Γ̃ ← our new
            # norm at every neighbor) is subsumed by the phase-2 crossing
            # settlement, which rewrites exactly those slab positions
            # with exactly this value before any read.
            idx = multi_arange(self._zspan_lo[winners],
                               self._zspan_hi[winners])
            plane.zsolve_flat[idx] = self._r_flat[self._zsrc_grows[idx]]
            # line 17: updates, z_p, ‖r_p‖, ‖r_q‖-estimates — one grouped
            # put for the whole epoch (slab order = ascending-sender put
            # order; vector square ≡ per-rank _sq: same IEEE multiplies)
            wmask = relaxed[self._slab_owner]
            sent = self._solve_send_mask(winners, wmask)
            if sent is wmask:
                counts = self._nbr_counts[winners]
                nbytes = self._solve_nbytes_arr[winners]
            else:
                counts, nbytes = self._solve_totals(sent, winners)
            plane.put_epoch(self._slab_solve_sids[sent],
                            phase1_norm_sq[self._slab_owner[sent]],
                            gflat[sent], winners, counts, nbytes,
                            CATEGORY_SOLVE)
            if hardened:
                # a solve send restarts the edge's heartbeat
                self._hb_last_sent[sent] = step_no
                self._hb_retry_used[sent] = 0
        self.engine.close_epoch()
        if tracing:
            trc.phase_end("relax")
            trc.phase_begin("apply")

        # ---- phase 2: read, correct, deadlock-check (lines 20-31)
        self._apply_flat_epoch()        # all mail is solve messages
        arr = plane.last_delivered
        if arr.size:
            # lines 24-25 for every receiver at once: ghost overwrites as
            # one permuted copy of the epoch's z payloads, Γ and Γ̃ as one
            # header scatter (positions unique — one solve message per
            # edge per epoch, so duplicate deliveries rewrite the same
            # value; applies above never read them).  Ghost-stale fated
            # messages skip the z overwrite, headers still land.
            self._absorb_z(arr, plane.zsolve_flat)
            gpos = slabpos[arr]
            gflat[gpos] = norm_hdr[arr]
            tflat[gpos] = est_hdr[arr]
        # crossing-message settlement: a neighbor's your_est was composed
        # before our solve message landed there, but every *recipient*
        # ends this phase holding the norm we sent — so Γ̃ records that
        # phase-1 value (line 16's promise), not the stale crossing
        # estimate
        if sent is not None:
            tflat[sent] = phase1_norm_sq[self._slab_owner[sent]]

        # lines 27-30: deadlock avoidance — one vector scan over the slab,
        # line-28 settlement as one scatter, every repair z payload in one
        # gather and every send in one grouped put (owners come out
        # ascending — the slab is owner-major — so the put order is
        # ascending sender; the per-sender byte sums via reduceat are
        # exact: integer arithmetic)
        if self.deadlock_avoidance:
            own_sq_vec = self.norms * self.norms
            over = tflat > own_sq_vec[self._slab_owner]
            fire = over
            if hardened:
                # heartbeat re-sends for silent edges with budget left
                fire = over | ((step_no - self._hb_last_sent
                                >= self._resend_after)
                               & (self._hb_retry_used < self._retry_budget))
            over_idx = np.flatnonzero(fire)
            if over_idx.size:
                owners = self._slab_owner[over_idx]
                tflat[over_idx] = own_sq_vec[owners]    # line 28
                res_mask[over_idx] = True
                eids = self._slab_eids[over_idx]
                if tracing:
                    trc.repairs(owners, plane.edge_dst[eids])
                idx = multi_arange(zoff[eids], zoff[eids + 1])
                plane.zres_flat[idx] = self._r_flat[self._zsrc_grows[idx]]
                heads = np.flatnonzero(np.concatenate(
                    ([True], owners[1:] != owners[:-1])))
                counts = np.diff(np.append(heads, over_idx.size))
                plane.put_epoch(
                    self._slab_res_sids[over_idx], own_sq_vec[owners],
                    gflat[over_idx], owners[heads], counts,
                    np.add.reduceat(self._slab_res_nbytes[over_idx],
                                    heads),
                    CATEGORY_RESIDUAL)
                self.repairs_sent += int(over_idx.size)
                if hardened:
                    ov = over[over_idx]
                    used = self._hb_retry_used
                    used[over_idx] = np.where(ov, 0, used[over_idx] + 1)
                    self._hb_last_sent[over_idx] = step_no
                    ridx = over_idx[~ov]
                    if ridx.size:
                        self._faults.count_retries(ridx.size)
                        if tracing:
                            trc.retries(
                                self._slab_owner[ridx],
                                plane.edge_dst[self._slab_eids[ridx]])
        self.engine.close_epoch()
        if tracing:
            trc.phase_end("apply")
            trc.phase_begin("finalize")

        # ---- phase 3: read explicit residual messages (lines 32-38)
        plane.drain_all()               # charge receives; payloads below
        arr = plane.last_delivered
        if arr.size:
            self._absorb_z(arr, plane.zres_flat)
            gpos = slabpos[arr]
            gflat[gpos] = norm_hdr[arr]
            # crossing settlement: keep our line-28 value wherever we also
            # sent this neighbor an explicit update
            keep = ~res_mask[gpos]
            tflat[gpos[keep]] = est_hdr[arr[keep]]
        if tracing:
            trc.phase_end("finalize")
        self.engine.close_step()
        return int(relaxed.sum())

    # ------------------------------------------------------------------
    # event-driven async plane hooks (DESIGN.md §5.14)
    # ------------------------------------------------------------------
    def _async_bind(self, aplane) -> None:
        super()._async_bind(aplane)
        # per slot: its (ghost region, wire z region) pair — z payloads
        # land on the reverse edge's ghost run, which is contiguous;
        # per edge: the residual rows its outgoing z payload gathers
        zoff = self.engine.flat.z_off.tolist()
        glo = self._z2g_lo.tolist()
        ghost, zsrc = self._ghost_flat, self._zsrc_grows.astype(np.intp)
        zsolve, zres = aplane.wire_zsolve, aplane.wire_zres
        self._async_z = z = []
        self._async_zsrc = []
        for e, g0 in enumerate(glo):
            lo, hi = zoff[e], zoff[e + 1]
            gv = ghost[g0:g0 + hi - lo]
            z.append((gv, zsolve[lo:hi]))
            z.append((gv, zres[lo:hi]))
            self._async_zsrc.append(zsrc[lo:hi])
        # the Γ̃ ack: per edge (= the owner's slab position) the number of
        # messages the owner has sent along it and the sequence number of
        # the last message the owner received back; per slot the
        # sender's pair at stamp time.  Under a lossy plan a dropped
        # message is never acked, so the gate would pin Γ̃ at a norm
        # the neighbor never received; there every estimate is taken
        # as sent and the heartbeats repair the mirror (§5.11).
        plan = self._active_plan
        self._ack_gate = not (self._faults is not None and plan.lossy)
        E = self._slab_owner.size
        self._seq_sent = np.zeros(E, dtype=np.int64)
        self._seq_seen = np.zeros(E, dtype=np.int64)
        self._wire_seq = np.zeros(2 * E, dtype=np.int64)
        self._wire_ack = np.zeros(2 * E, dtype=np.int64)

    def _async_stamp_seq(self, slab, kept: np.ndarray) -> None:
        """Count one send on each slab position ``slab`` (drops
        included: the sender cannot know) and stamp the slots that
        entered the network with their sequence number and ack."""
        self._seq_sent[slab] += 1
        if kept.size:
            eids = kept >> 1
            self._wire_seq[kept] = self._seq_sent[eids]
            self._wire_ack[kept] = self._seq_seen[eids]

    def _async_capture_z(self, aplane, kept: np.ndarray) -> None:
        """Snapshot the z payloads (the sender's residual at each
        receiver's ghost rows) of freshly stamped slots — solve or
        residual, by the slot kind — into their wire stores."""
        if kept.size <= 8:
            r_flat, z, zsrc = self._r_flat, self._async_z, self._async_zsrc
            for sid in kept.tolist():
                z[sid][1][...] = r_flat[zsrc[sid >> 1]]
        else:
            zoff = self.engine.flat.z_off
            store = aplane.wire_zres if kept[0] & 1 else aplane.wire_zsolve
            eids = kept >> 1
            zidx = multi_arange(zoff[eids], zoff[eids + 1])
            store[zidx] = self._r_flat[self._zsrc_grows[zidx]]

    def _async_decide(self, p: int) -> bool:
        # criterion on the Γ *estimates* (Alg 3 line 12) — under async
        # timing these go stale on their own, no injection needed.
        # Scalar max of the (tiny) neighbor segment: same comparisons
        # as wins_neighborhood, which settles the rare exact tie.
        own_sq = _sq(self.norms[p])
        if own_sq <= 0.0:
            return False
        seg = self.gamma_sq[p]
        m = max(seg.tolist(), default=-np.inf)
        if own_sq > m:
            return True
        if own_sq == m:
            return self.wins_neighborhood(p, own_sq, seg)
        return False

    def _async_send(self, p: int, aplane, turn: int) -> None:
        off = self._nbr_off
        lo, hi = int(off[p]), int(off[p + 1])
        if hi == lo:
            return
        new_sq = _sq(self.norms[p])
        kept = aplane.send(p, self._async_solve_sids[lo:hi], new_sq,
                           self._gamma_flat[lo:hi],
                           int(self._solve_nbytes_arr[p]), CATEGORY_SOLVE)
        # line 16: p told every neighbor its new norm (drops included —
        # the sender cannot know, which is exactly what repair heals)
        self._tilde_flat[lo:hi] = new_sq
        self._async_stamp_seq(slice(lo, hi), kept)
        if kept.size:
            self._async_capture_vals(aplane, kept)
            self._async_capture_z(aplane, kept)
        if self._hardened:
            # a solve send restarts the edges' heartbeats
            self._hb_last_sent[lo:hi] = turn
            self._hb_retry_used[lo:hi] = 0

    def _async_on_deliver(self, p: int, sids, fates, aplane) -> None:
        # ``sids`` is a plain list on the fault-free hot path and an
        # ndarray (with per-slot fates) under a fault plan
        if isinstance(sids, list):
            slist = sids
            zlist = sids
        else:
            slist = sids.tolist()
            zlist = slist
            if self._stale_possible and fates.size:
                zlist = [s for s, f in zip(slist, fates.tolist())
                         if not (f & FATE_STALE)]
        if zlist:
            # ghost overwrites from the wire z payloads (lines 24/34);
            # solve and residual slots carry separate wire stores
            if len(zlist) <= 8:
                # small fan-in: one copy per slot through its bound
                # (ghost, wire z) views
                z = self._async_z
                for sid in zlist:
                    gv, zw = z[sid]
                    gv[...] = zw
            else:
                zoff = self.engine.flat.z_off
                z2g = self._z2g
                ghost = self._ghost_flat
                zarr = np.array(zlist, dtype=np.int64)
                for store, arr in ((aplane.wire_zsolve,
                                    zarr[(zarr & 1) == 0]),
                                   (aplane.wire_zres,
                                    zarr[(zarr & 1) == 1])):
                    if arr.size:
                        eids = arr >> 1
                        idx = multi_arange(zoff[eids], zoff[eids + 1])
                        ghost[z2g[idx]] = store[idx]
        # header scatter (scalar loop: a handful of slots per delivery;
        # duplicate slab positions resolve to the last write, matching
        # fancy-assignment order).  The sender's estimate of p enters
        # Γ̃ only if the sender had seen p's latest message when it
        # composed it: a message that crossed one of p's in flight
        # carries a belief the in-flight one overwrites on arrival, and
        # Γ̃ already holds that message's norm (line 16 / line 28).
        slabpos = self._sid_slabpos_list
        g = self._gamma_flat
        t = self._tilde_flat
        wn = aplane.wire_norm
        we = aplane.wire_est
        gate = self._ack_gate
        sent = self._seq_sent
        seen = self._seq_seen
        wseq = self._wire_seq
        wack = self._wire_ack
        for s in slist:
            gp = slabpos[s]
            g[gp] = wn[s]
            seen[gp] = wseq[s]
            if not gate or wack[s] == sent[gp]:
                t[gp] = we[s]

    def _async_repair(self, p: int, aplane, turn: int) -> int:
        if not self.deadlock_avoidance:
            return 0
        tseg = self.tilde_sq[p]
        if not tseg.size:
            return 0
        own_sq = _sq(self.norms[p])
        if not self._hardened and max(tseg.tolist()) <= own_sq:
            # every-turn hot path: a scalar max of the tiny neighbor
            # segment decides "nothing to repair"
            return 0
        lo = int(self._nbr_off[p])
        hi = lo + tseg.size
        over = tseg > own_sq
        fire = over
        if self._hardened:
            # heartbeat re-sends for silent edges with budget left
            fire = over | ((turn - self._hb_last_sent[lo:hi]
                            >= self._resend_after)
                           & (self._hb_retry_used[lo:hi]
                              < self._retry_budget))
        idx = fire.nonzero()[0]
        if idx.size == 0:
            return 0
        tseg[idx] = own_sq              # line 28
        gidx = lo + idx                 # slab positions
        plane = self.engine.flat
        if self.tracer.enabled:
            self.tracer.repairs(np.full(idx.size, p, dtype=np.int64),
                                plane.edge_dst[self._slab_eids[gidx]])
        kept = aplane.send(p, self._async_res_sids[gidx], own_sq,
                           self._gamma_flat[gidx],
                           int(self._slab_res_nbytes[gidx].sum()),
                           CATEGORY_RESIDUAL)
        self._async_stamp_seq(gidx, kept)
        if kept.size:
            self._async_capture_z(aplane, kept)
        self.repairs_sent += int(idx.size)
        if self._hardened:
            ov = over[idx]
            used = self._hb_retry_used
            used[gidx] = np.where(ov, 0, used[gidx] + 1)
            self._hb_last_sent[gidx] = turn
            ridx = idx[~ov]
            if ridx.size:
                self._faults.count_retries(ridx.size)
                if self.tracer.enabled:
                    self.tracer.retries(
                        np.full(ridx.size, p, dtype=np.int64),
                        plane.edge_dst[self._slab_eids[lo:hi][ridx]])
        return int(idx.size)

    # ------------------------------------------------------------------
    def _deadlock_diagnosis(self) -> str:
        own_slab = (self.norms * self.norms)[self._slab_owner]
        deferring = int(np.count_nonzero((own_slab > 0.0)
                                         & (self._gamma_flat >= own_slab)))
        parts = [super()._deadlock_diagnosis(),
                 f"{deferring} neighbor records hold a Γ estimate at or "
                 f"above the owner's true norm (stale beliefs from lost "
                 f"or late messages)"]
        if self._hardened:
            spent = int(np.count_nonzero(
                self._hb_retry_used >= self._retry_budget))
            parts.append(f"{spent} hardened edges exhausted their "
                         f"retry budget of {self._retry_budget}")
        return "; ".join(parts)
