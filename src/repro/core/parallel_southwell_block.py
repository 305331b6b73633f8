"""Parallel Southwell, block/distributed form (Algorithm 2).

Process ``p`` relaxes when its block residual norm is maximal among its
neighborhood ``{Γ_p, ‖r_p‖}``.  Correctness of the criterion requires every
process to know its neighbors' norms *exactly*, which costs the paper's
"explicit residual updates": whenever ``‖r_p‖`` changes without ``p``
relaxing (a neighbor's update landed on its boundary), ``p`` must push the
new norm to all neighbors in a separate message (Alg 2, lines 19-21).
Relaxing processes avoid that message by piggy-backing the new norm onto
the solve update (line 10).

Note this is the *deadlock-free* variant defined in Section 2.3/2.4 of the
paper — not the earlier ICCS'16 scheme, which the paper reports deadlocks
on every test problem.  Table 3 shows these explicit updates dominate PS's
communication; removing most of them is Distributed Southwell's whole
point.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_base import BlockMethodBase
from repro.runtime import CATEGORY_RESIDUAL, CATEGORY_SOLVE

__all__ = ["ParallelSouthwell"]


def _sq(x) -> float:
    """Squared scalar via plain multiply (bit-stable across code paths)."""
    v = float(x)
    return v * v


class ParallelSouthwell(BlockMethodBase):
    """Algorithm 2 over the simulated RMA runtime.

    A relaxing process appends its new residual norm to every
    relax-update message (Alg 2 line 10).  Sending that norm as a
    separate message instead would change no arithmetic and cost exactly
    one extra message per solve message, so a run's ``MessageStats``
    price the saving directly: ``total_messages + category_msgs["solve"]``
    is what the run would have sent without it.
    """

    name = "parallel-southwell"

    def _build_structure(self) -> None:
        super()._build_structure()
        P = self.system.n_parts
        # Γ_p: exact neighbor norms (squared — the criterion compares
        # squares so no square roots are needed in the hot loop).  Γ lives
        # as one flat slab along the neighbor offsets (per-rank lists are
        # views into it) so the decision phase is a single segment-max.
        off = self._nbr_off
        self._gamma_flat = np.empty(self._nbr_flat.size)
        self.gamma_sq: list[np.ndarray] = [
            self._gamma_flat[off[p]:off[p + 1]] for p in range(P)]

    def _reset_state(self, x0, b) -> None:
        super()._reset_state(x0, b)
        # one shared squared array so Γ entries and broadcast records
        # start bit-identical
        norms_sq = self.norms * self.norms
        np.take(norms_sq, self._nbr_flat, out=self._gamma_flat)
        # the norm each process last told its neighbors (squared); explicit
        # updates fire whenever the actual norm departs from this
        self._broadcast_sq = norms_sq

    # ------------------------------------------------------------------
    # flat-buffer plane hooks (DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def _flat_message_nbytes(self, n_vals, n_z):
        # solve = {vals, own_norm_sq}; residual = {own_norm_sq}
        return 24 + 8 * n_vals, 24

    def step(self) -> int:
        """One parallel step (Algorithm 2) in three phases (DESIGN.md
        §5.8): relax deltas land directly in the edge mailboxes, only
        ranks with mail run the read phases, and the decision and the
        broadcast-divergence check are single vector operations."""
        plane = self.engine.flat
        norm_hdr = plane.norm
        gflat = self._gamma_flat
        slabpos = self._sid_slabpos
        trc = self.tracer
        tracing = trc.enabled

        # ---- phase 1: criterion + relax + put updates (lines 8-10)
        if tracing:
            trc.phase_begin("relax")
        relaxed = self._mask_stalled(
            self._wins_vector(self.norms * self.norms, gflat))
        winners = relaxed.nonzero()[0]
        self._relax_ranks(winners)          # deltas land in plane.vals
        if winners.size:
            # the appended norms, line-10 puts and broadcast records
            # for every winner at once (vector square ≡ per-rank _sq:
            # same IEEE multiplies; slab order = ascending-sender put
            # order)
            nsq = self.norms * self.norms
            self._broadcast_sq[winners] = nsq[winners]
            wmask = relaxed.take(self._slab_owner)
            plane.put_epoch(self._slab_solve_sids[wmask],
                            nsq[self._slab_owner[wmask]], 0.0, winners,
                            self._nbr_counts[winners],
                            self._solve_nbytes_arr[winners],
                            CATEGORY_SOLVE)
        plane.deliver_pending()
        if tracing:
            trc.phase_end("relax")
            trc.phase_begin("apply")

        # ---- phase 2: read updates; explicit residual update if our norm
        # changed without us having told anyone (lines 11-21)
        self._apply_flat_epoch()        # all mail is solve messages
        arr = plane.last_delivered
        if arr.size:
            # every receiver's Γ record in one header scatter (positions
            # unique — one solve message per edge per epoch)
            gflat[slabpos[arr]] = norm_hdr[arr]
        new_sq_vec = self.norms * self.norms
        diverged = new_sq_vec != self._broadcast_sq
        upd = diverged.nonzero()[0]
        if upd.size:
            self._broadcast_sq[upd] = new_sq_vec[upd]
            umask = diverged.take(self._slab_owner)
            plane.put_epoch(self._slab_res_sids[umask],
                            new_sq_vec[self._slab_owner[umask]], 0.0, upd,
                            self._nbr_counts[upd],
                            self._res_nbytes_arr[upd], CATEGORY_RESIDUAL)
        plane.deliver_pending()
        if tracing:
            trc.phase_end("apply")
            trc.phase_begin("finalize")

        # ---- phase 3: read the explicit residual updates (lines 23-28)
        plane.drain_all()               # charge receives; headers below
        arr = plane.last_delivered
        if arr.size:
            gflat[slabpos[arr]] = norm_hdr[arr]
        if tracing:
            trc.phase_end("finalize")
        self.engine.close_step()
        return int(relaxed.sum())

    # ------------------------------------------------------------------
    # event-driven async plane hooks (DESIGN.md §5.14)
    # ------------------------------------------------------------------
    def _async_decide(self, p: int) -> bool:
        # the PS criterion needs *exact* neighbor norms; under async
        # timing the Γ records lag in-flight updates, so the guarantee
        # degrades to best-effort — exactly the fragility the paper's
        # DS design removes
        off = self._nbr_off
        return self.wins_neighborhood(
            p, _sq(self.norms[p]), self._gamma_flat[off[p]:off[p + 1]])

    def _async_send(self, p: int, aplane, turn: int) -> None:
        new_sq = _sq(self.norms[p])
        self._broadcast_sq[p] = new_sq
        kept = aplane.send(p, self._async_out[p], new_sq, 0.0,
                           self._async_nbytes[p], CATEGORY_SOLVE)
        self._async_capture_vals(p, kept)

    def _async_on_deliver(self, p: int, sids, fates, aplane) -> None:
        slabpos = self._sid_slabpos_list
        g = self._gamma_flat
        wn = aplane.wire_norm
        for s in (sids if isinstance(sids, list) else sids.tolist()):
            g[slabpos[s]] = wn[s]

    def _async_repair(self, p: int, aplane, turn: int) -> int:
        # explicit residual update (Alg 2 lines 19-21): our norm changed
        # without us telling anyone — broadcast it to every neighbor
        new_sq = _sq(self.norms[p])
        if new_sq == self._broadcast_sq[p]:
            return 0
        self._broadcast_sq[p] = new_sq
        sids = self._async_res_out[p]
        if not sids:
            return 0
        aplane.send(p, sids, new_sq, 0.0,
                    int(self._res_nbytes_arr[p]), CATEGORY_RESIDUAL)
        return len(sids)

    # ------------------------------------------------------------------
    def _deadlock_diagnosis(self) -> str:
        own_slab = (self.norms * self.norms)[self._slab_owner]
        stale = int(np.count_nonzero((own_slab > 0.0)
                                     & (self._gamma_flat >= own_slab)))
        return (f"{super()._deadlock_diagnosis()}; {stale} neighbor "
                f"records hold a Γ norm at or above the owner's true "
                f"norm — Parallel Southwell's criterion needs exact "
                f"explicit residual updates, so a lost update leaves "
                f"every process deferring to a believed-larger neighbor")
