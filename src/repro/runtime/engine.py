"""Lockstep parallel-step engine tying the message plane, stats and the
cost model.

The distributed solvers (Algorithms 1-3) all share the same skeleton per
parallel step: some processes compute and put, an epoch closes, everyone
reads, possibly puts again, another epoch closes, everyone reads again.
:class:`ParallelEngine` owns that skeleton's state — the flat-buffer
message plane (:class:`~repro.runtime.flatplane.FlatEdgePlane`), the
compiled fault plan and the step index — and prices each closed step;
the solver classes in :mod:`repro.core` and :mod:`repro.solvers` drive
it.
"""

from __future__ import annotations

from repro.runtime.costmodel import CORI_LIKE, CostModel
from repro.runtime.flatplane import FlatEdgePlane
from repro.runtime.stats import MessageStats, StepSnapshot
from repro.trace import NULL_TRACER

__all__ = ["ParallelEngine"]


class ParallelEngine:
    """Simulated machine: ``n_procs`` ranks, one mailbox plane, priced
    steps.

    Parameters
    ----------
    n_procs:
        Number of virtual processes ``P``.
    cost_model:
        Converts the step's counted events to simulated seconds.
    speed_factors:
        Optional per-rank compute-speed factors for the cost model.
    """

    def __init__(self, n_procs: int, cost_model: CostModel = CORI_LIKE,
                 speed_factors=None, tracer=None):
        self.n_procs = n_procs
        self.cost_model = cost_model
        self.speed_factors = speed_factors
        self.stats = MessageStats(n_procs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: the flat-buffer plane (see :meth:`configure_flat`)
        self.flat: FlatEdgePlane | None = None
        #: optional compiled fault plan (:class:`repro.faults.FaultRuntime`),
        #: attached by the method's ``setup``: the plane draws per-message
        #: fates from it, :meth:`close_step` its slowdown windows
        self.faults = None
        #: parallel steps closed so far
        self.step_index = 0

    def configure_flat(self, edges) -> FlatEdgePlane:
        """Attach preallocated mailboxes for a fixed topology and return
        them.  ``edges`` is an ``(E, 4)`` array-like of ``(src, dst,
        n_vals, n_z)``."""
        self.flat = FlatEdgePlane(self.n_procs, self.stats, edges,
                                  tracer=self.tracer)
        self.reset_flat()
        return self.flat

    def reset_flat(self) -> None:
        """Re-arm the plane for a new run on the same topology: clear its
        mail state and bind the current compiled fault plan
        (:attr:`faults`, possibly ``None``) to it."""
        self.flat.reset()
        self.flat.faults = self.faults
        if self.faults is not None:
            self.faults.attach_flat(self.flat)

    @property
    def in_flight(self) -> int:
        """Messages buffered but not yet visible."""
        return self.flat.in_flight

    def close_step(self) -> StepSnapshot:
        """End the parallel step; price it with the cost model.

        A fault plan's slowdown windows (straggler injection) combine
        multiplicatively with the run's base ``speed_factors`` — cost
        model only, the numerics are untouched.
        """
        flops, msgs, nbytes, recvs = self.stats.current_step_arrays()
        sf = self.speed_factors
        if self.faults is not None:
            sf = self.faults.speed_factors(self.step_index + 1, sf)
        t = self.cost_model.step_time(flops, msgs, nbytes, recvs,
                                      speed_factors=sf)
        self.step_index += 1
        return self.stats.close_step(time=t)
