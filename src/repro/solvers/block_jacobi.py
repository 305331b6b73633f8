"""Block Jacobi (Algorithm 1) — the paper's baseline.

Every parallel step, *every* process relaxes its subdomain (one local
Gauss-Seidel sweep by default — "Hybrid Gauss-Seidel" / "Processor Block
Gauss-Seidel"), writes boundary updates to all neighbors' windows, waits,
and applies incoming updates.  Highly parallel, but convergence degrades
(or fails outright) as subdomains shrink — the behaviour Distributed
Southwell is built to fix.

The known mitigation is damping (Baker, Falgout, Kolev & Yang — the
paper's reference [4] studies exactly this): under-relaxing the hybrid
sweep with ``omega < 1`` restores convergence at the price of speed.
``omega`` is exposed here so the trade-off is measurable against
Distributed Southwell, which needs no damping parameter at all.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_base import BlockMethodBase
from repro.runtime import CATEGORY_SOLVE

__all__ = ["BlockJacobi"]


class BlockJacobi(BlockMethodBase):
    """Algorithm 1.  One message per (process, neighbor) per step.

    ``omega`` damps every local update (``x_p += omega dx_p``); 1.0 is
    the paper's (undamped) method.
    """

    name = "block-jacobi"

    def __init__(self, *args, omega: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < omega <= 1.0:
            raise ValueError("omega must be in (0, 1]")
        self.omega = omega

    def _reset_state(self, x0, b) -> None:
        super()._reset_state(x0, b)
        # async only: has p something to send that its neighbours have
        # not been handed yet (fresh boundary data, or a dropped send)?
        self._async_fresh = np.ones(self.system.n_parts, dtype=bool)

    # ------------------------------------------------------------------
    # event-driven async plane hooks (DESIGN.md §5.14)
    #
    # Chaotic relaxation relaxes once per piece of new boundary data.  A
    # rank that relaxed every turn would re-send every turn, and each
    # send restamps its in-flight slots (RMA overwrite) one latency into
    # the future — so with the smallest-clock scheduler its neighbours
    # would never catch up to a stamp and never hear from it again.  A
    # rank with no neighbours has no one to starve and stays fresh; a
    # rank whose send lost a message to a drop stays fresh so the
    # cumulative payload is re-sent on its next turn.
    # ------------------------------------------------------------------
    def _async_decide(self, p: int) -> bool:
        return bool(self._async_fresh[p]) and float(self.norms[p]) > 0.0

    def _async_send(self, p: int, aplane, turn: int) -> list[int]:
        kept = super()._async_send(p, aplane, turn)
        n = len(self._async_out[p])
        self._async_fresh[p] = n == 0 or len(kept) < n
        return kept

    def _async_on_deliver(self, p: int, sids, fates, aplane) -> None:
        self._async_fresh[p] = True

    # ------------------------------------------------------------------
    # flat-buffer plane hooks (DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def _flat_message_nbytes(self, n_vals, n_z):
        # solve = {vals}; Block Jacobi sends no residual messages
        return 16 + 8 * n_vals, 0

    def step(self) -> int:
        """One parallel step (Algorithm 1): every rank relaxes and puts,
        then reads.  Relax deltas land directly in the edge mailboxes and
        only ranks with mail run the read phase (DESIGN.md §5.8)."""
        P = self.system.n_parts
        plane = self.engine.flat
        trc = self.tracer
        tracing = trc.enabled
        # phase 1: everyone relaxes and writes updates (Alg 1 lines 7-8);
        # stall-fated ranks sit the relaxation out but still read below
        if tracing:
            trc.phase_begin("relax")
        relaxed = self._mask_stalled(np.ones(P, dtype=bool))
        active = relaxed.nonzero()[0]
        self._relax_ranks(active)           # deltas land in plane.vals
        if active.size == P:
            plane.put_epoch(self._slab_solve_sids, 0.0, 0.0,
                            self._all_ranks, self._nbr_counts,
                            self._solve_nbytes_arr, CATEGORY_SOLVE)
        elif active.size:
            wmask = relaxed.take(self._slab_owner)
            plane.put_epoch(self._slab_solve_sids[wmask], 0.0, 0.0, active,
                            self._nbr_counts[active],
                            self._solve_nbytes_arr[active], CATEGORY_SOLVE)
        plane.deliver_pending()
        if tracing:
            trc.phase_end("relax")
            trc.phase_begin("apply")
        # phase 2: wait + read (lines 9-10)
        self._apply_flat_epoch()
        if tracing:
            trc.phase_end("apply")
        self.engine.close_step()
        return int(relaxed.sum())
