"""Variable-threshold Distributed Southwell (extension experiment).

The paper's Section 5 points to the asynchronous variable-threshold
method of de Jager & Bradley [8] — suppress messages whose update is too
small to matter — as "a possibility for further reducing communication
cost".  This variant grafts that idea onto Algorithm 3:

A relaxing process compares each neighbor update's norm against
``threshold × ‖r_p‖`` and, instead of sending a negligible delta,
*holds* it.  A held delta is added to the edge's next update, which is
tested again, so no update is ever lost — only batched.  Receivers are
oblivious: payloads look exactly like Algorithm 3's.

On the flat plane the held deltas live in one store shaped like the
mailbox delta store, with one flag per edge; the DS step asks
:meth:`ThresholdedDistributedSouthwell._solve_send_mask` which of the
winners' edges send this step.

The trade-off measured by the bench: fewer solve messages per step, at
the cost of neighbors working with slightly staler boundary data (and
therefore somewhat slower convergence per step).
"""

from __future__ import annotations

import numpy as np

from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.runtime import CATEGORY_SOLVE
from repro.sparsela.primitives import Segments, multi_arange

__all__ = ["ThresholdedDistributedSouthwell"]


class ThresholdedDistributedSouthwell(DistributedSouthwell):
    """Algorithm 3 with relative-threshold update suppression.

    Parameters
    ----------
    threshold:
        Relative suppression level: an update with
        ``‖Δr_q‖₂ ≤ threshold * ‖r_p‖₂`` is held back and accumulated.
        ``0`` reproduces plain Distributed Southwell exactly.

    The suppression is a lockstep send decision: it has no async form
    (the async executor raises ``AsyncUnsupportedError``), and a lossy
    fault plan raises a ``ValueError`` at setup — a held delta has no
    cumulative payload that could heal a lost one.
    """

    name = "thresholded-distributed-southwell"
    _async_supported = False

    def __init__(self, *args, threshold: float = 0.05, **kwargs):
        super().__init__(*args, **kwargs)
        if threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.suppressed_sends = 0

    def setup(self, x0, b, permuted: bool = False) -> None:
        plan = self.fault_plan
        if plan is not None and plan.lossy:
            raise ValueError(
                f"{self.name} with a lossy fault plan (drop or duplicate "
                "> 0) is unsupported: a held-back delta has no cumulative "
                "payload to heal a lost message")
        super().setup(x0, b, permuted=permuted)

    def _build_structure(self) -> None:
        super()._build_structure()
        #: held deltas, laid out like the mailbox delta store, and which
        #: edges hold one
        plane = self.engine.flat
        self._held = np.zeros_like(plane.vals_flat)
        self._held_edge = np.zeros(plane.n_edges, dtype=bool)
        #: each edge's delta region, grouped by length for the send test
        self._deltas = Segments(plane.vals_flat, plane.vals_off[:-1],
                                np.diff(plane.vals_off))

    def _reset_state(self, x0, b) -> None:
        super()._reset_state(x0, b)
        self._held_edge[:] = False
        self.suppressed_sends = 0

    def _solve_send_mask(self, winners, wmask):
        """Add each winner edge's held delta to its fresh one, then hold
        every update whose norm is at most ``threshold`` times the
        sender's new norm; the rest go out (carrying the sum)."""
        plane = self.engine.flat
        vals, voff = plane.vals_flat, plane.vals_off
        eids = np.flatnonzero(wmask)
        held = eids[self._held_edge[eids]]
        if held.size:
            idx = multi_arange(voff[held], voff[held + 1])
            vals[idx] += self._held[idx]
        norm = np.sqrt(self._deltas.sq(eids))
        own = self.norms[self._slab_owner[eids]]
        hold = norm <= self.threshold * np.sqrt(own * own)
        self._held_edge[eids] = hold
        if not hold.any():
            return wmask
        kept = eids[hold]
        idx = multi_arange(voff[kept], voff[kept + 1])
        self._held[idx] = vals[idx]
        self.suppressed_sends += int(kept.size)
        sent = wmask.copy()
        sent[kept] = False
        return sent

    def flush_pending(self) -> int:
        """Force-send every held delta (end-of-run consistency).

        Returns the number of flush messages.  They go out as one epoch
        (ascending sender, then neighbor), carrying the sender's current
        norm; after their read the residual bookkeeping is exact again.
        """
        held = np.flatnonzero(self._held_edge)
        if held.size == 0:
            return 0
        plane = self.engine.flat
        voff, zoff = plane.vals_off, plane.z_off
        idx = multi_arange(voff[held], voff[held + 1])
        plane.vals_flat[idx] = self._held[idx]
        zidx = multi_arange(zoff[held], zoff[held + 1])
        plane.zsolve_flat[zidx] = self._r_flat[self._zsrc_grows[zidx]]
        owners = self._slab_owner[held]
        own_sq = np.array([float(v) ** 2 for v in self.norms[owners]])
        plane.put_epoch(self._slab_solve_sids[held], own_sq,
                        self._gamma_flat[held],
                        *self._send_groups(held, self._flat_solve_nbytes),
                        CATEGORY_SOLVE)
        self._tilde_flat[held] = own_sq         # line 16
        self._held_edge[:] = False
        plane.deliver_pending()
        self._apply_flat_epoch()
        arr = plane.last_delivered
        self._absorb_z(arr, plane.zsolve_flat)
        self._gamma_flat[self._sid_slabpos[arr]] = plane.norm[arr]
        return int(held.size)

    def _finish_run(self) -> None:
        self.flush_pending()
