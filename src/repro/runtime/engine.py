"""Lockstep parallel-step engine tying windows, stats and the cost model.

The distributed solvers (Algorithms 1-3) all share the same skeleton per
parallel step: some processes compute and put, an epoch closes, everyone
reads, possibly puts again, another epoch closes, everyone reads again.
:class:`ParallelEngine` provides that skeleton's primitives; the solver
classes in :mod:`repro.core` and :mod:`repro.solvers` drive it.
"""

from __future__ import annotations

from repro.runtime.costmodel import CORI_LIKE, CostModel
from repro.runtime.stats import MessageStats, StepSnapshot
from repro.runtime.window import WindowSystem
from repro.trace import NULL_TRACER

__all__ = ["ParallelEngine"]


class ParallelEngine:
    """Simulated machine: ``n_procs`` ranks, RMA windows, priced steps.

    Parameters
    ----------
    n_procs:
        Number of virtual processes ``P``.
    cost_model:
        Converts the step's counted events to simulated seconds.
    delay_probability, seed:
        Forwarded to :class:`WindowSystem` staleness injection (0 = the
        paper's synchronous-epoch behaviour).
    """

    def __init__(self, n_procs: int, cost_model: CostModel = CORI_LIKE,
                 delay_probability: float = 0.0, seed: int = 0,
                 speed_factors=None, tracer=None):
        self.n_procs = n_procs
        self.cost_model = cost_model
        self.speed_factors = speed_factors
        self.stats = MessageStats(n_procs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.windows = WindowSystem(n_procs, stats=self.stats,
                                    delay_probability=delay_probability,
                                    seed=seed, tracer=self.tracer)

    # Convenience passthroughs -----------------------------------------
    def put(self, src: int, dst: int, category: str, payload,
            nbytes: int | None = None) -> None:
        """One one-sided write (buffered until the epoch closes)."""
        self.windows.put(src, dst, category, payload, nbytes=nbytes)

    def drain(self, p: int):
        """Read process ``p``'s window (after an epoch close)."""
        return self.windows.drain(p)

    def configure_flat(self, edges):
        """Attach the preallocated flat-buffer message plane; returns
        it."""
        return self.windows.configure_flat(edges)

    @property
    def flat(self):
        """The flat-buffer plane, if configured (else ``None``)."""
        return self.windows.flat

    def close_epoch(self) -> int:
        """Collective epoch completion: deliver all buffered puts."""
        return self.windows.close_epoch()

    def charge_flops(self, p: int, flops: float) -> None:
        """Account floating-point work to rank ``p`` this step."""
        self.stats.record_flops(p, flops)

    def close_step(self) -> StepSnapshot:
        """End the parallel step; price it with the cost model.

        A fault plan's slowdown windows (straggler injection) combine
        multiplicatively with the run's base ``speed_factors`` — cost
        model only, the numerics are untouched.
        """
        flops, msgs, nbytes, recvs = self.stats.current_step_arrays()
        sf = self.speed_factors
        fr = self.windows.faults
        if fr is not None:
            sf = fr.speed_factors(self.windows.step_index + 1, sf)
        t = self.cost_model.step_time(flops, msgs, nbytes, recvs,
                                      speed_factors=sf)
        self.windows.step_index += 1
        return self.stats.close_step(time=t)
