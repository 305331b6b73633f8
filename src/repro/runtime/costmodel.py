"""Alpha-beta-gamma machine model converting counted events to seconds.

The paper reports wall-clock time on Cori Phase I (Haswell, Aries).  The
simulator counts messages, bytes and floating-point work exactly; this model
maps those counts to a simulated time so time-shaped results (Tables 2/4,
Figures 7/8) can be reproduced *in shape*.  Defaults are Cori-flavoured:
~2 microseconds per message latency, ~6 GB/s effective per-process
bandwidth, ~4 Gflop/s effective per-core scalar sparse throughput.

Per parallel step the model charges the *maximum* over processes of

    flops_p * gamma + msgs_p * alpha + bytes_p * beta

(the lockstep step ends when the slowest process finishes), which is how
Block Jacobi's every-process-active steps end up slower than Distributed
Southwell's sparse steps even though BJ does more useful work per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostModel", "CORI_LIKE", "ZERO_COST"]

# the ufuncs themselves (``ndarray.max`` adds a Python-level wrapper)
_mul = np.multiply
_max = np.maximum.reduce


@dataclass(frozen=True)
class CostModel:
    """Machine coefficients (LogP-flavoured).

    Attributes
    ----------
    alpha:
        Seconds per *sent* message (origin-side latency/overhead).
    alpha_recv:
        Seconds per *received* message (target-side completion and
        processing overhead — reading the window, applying the update).
        One-sided MPI moves the transfer off the target, but the paper's
        algorithms still read and process every arrived message, so a
        process drowning in arrivals (Block Jacobi: one per neighbor per
        step) pays for it.
    beta:
        Seconds per byte (inverse bandwidth, origin side).
    gamma:
        Seconds per flop (inverse effective compute rate).
    """

    alpha: float = 2.0e-6
    alpha_recv: float = 2.0e-6
    beta: float = 1.6e-10
    gamma: float = 2.5e-10

    def __post_init__(self) -> None:
        if min(self.alpha, self.alpha_recv, self.beta, self.gamma) < 0:
            raise ValueError("cost coefficients must be non-negative")

    def process_time(self, flops: float, msgs: float, nbytes: float,
                     recvs: float = 0.0) -> float:
        """Time charged to one process for one step."""
        return (flops * self.gamma + msgs * self.alpha
                + recvs * self.alpha_recv + nbytes * self.beta)

    def step_time(self, flops: np.ndarray, msgs: np.ndarray,
                  nbytes: np.ndarray,
                  recvs: np.ndarray | None = None,
                  speed_factors: np.ndarray | None = None) -> float:
        """Lockstep step time: the slowest process's time.

        ``speed_factors`` scales each process's *compute* rate (< 1 =
        slower); wire costs are unaffected.  Used for straggler studies.
        """
        if len(flops) == 0:
            return 0.0
        # one float64 buffer accumulated in place, in the order
        # ((flops·γ [/ speed] + msgs·α) + bytes·β) + recvs·α_recv; each
        # product casts an integer count to float64 exactly on the way in
        t = _mul(flops, self.gamma)
        if speed_factors is not None:
            t /= speed_factors
        t += _mul(msgs, self.alpha)
        t += _mul(nbytes, self.beta)
        if recvs is not None:
            t += _mul(recvs, self.alpha_recv)
        return float(_max(t))


#: Cori-Phase-I-flavoured default model.
CORI_LIKE = CostModel()

#: All-free model: simulated time degenerates to zero; counters still work.
ZERO_COST = CostModel(alpha=0.0, beta=0.0, gamma=0.0)
