"""Exact event accounting for the simulated runtime.

Tracks, per category and per process: message counts, byte counts, and
floating-point work, with per-parallel-step granularity (the engine closes a
step, snapshotting that step's per-process sums for the cost model and the
per-step tables).  All of the paper's communication metrics derive from
these counters:

- *communication cost* = total messages / number of processes (Table 2),
- *solve comm* / *res comm* split (Table 3),
- per-step means (Table 4).

The cumulative metrics (:attr:`MessageStats.total_messages`,
:meth:`MessageStats.communication_cost`, :meth:`MessageStats.elapsed_time`)
are O(1): :meth:`MessageStats.close_step` folds each closed step into
running totals instead of re-summing the snapshot list, so the per-step
history recording in ``BlockMethodBase.run`` costs O(1) per step rather
than O(steps) (the run loop used to be O(steps²) overall).

A closed step is kept sparse: its :class:`StepSnapshot` holds only the
ranks with any event in it, and rebuilds the dense per-process arrays
when they are read.  Only tests and pins read them; the run itself
reads the totals.  An async run closes a step per history sample, and
most samples touch a few of its ranks (≈ 16 of 128 on the FEM straggler
workload), so the dense copies were most of what the snapshot list held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CATEGORY_RESIDUAL", "CATEGORY_SOLVE", "MessageStats",
           "StepSnapshot"]

# Message categories, matching the paper's Table 3 breakdown:
#   solve comm - updates sent to neighbors after a local subdomain solve
#   res comm   - explicit residual(-norm) update messages
CATEGORY_SOLVE = "solve"
CATEGORY_RESIDUAL = "residual"

# the ufunc reductions themselves: ``ndarray.sum`` / ``.any`` go through
# a Python-level wrapper first, a fixed cost paid on every closed step
_add_reduce = np.add.reduce
_or_reduce = np.logical_or.reduce


@dataclass
class StepSnapshot:
    """Per-process event sums for one closed parallel step, kept sparse.

    ``ranks`` (int32, ascending) are the processes with any message,
    byte, receive or flop in the step.  ``counts`` is their columns of
    the open step's block: rows ``msgs``, ``nbytes``, ``recvs`` (int64)
    and the flops' float64 bits.  :attr:`msgs`, :attr:`nbytes`,
    :attr:`recvs` and :attr:`flops` rebuild the dense ``n_procs``-long
    arrays at each read, bit for bit and in the open step's dtypes.
    """

    n_procs: int
    ranks: np.ndarray
    counts: np.ndarray
    category_msgs: dict[str, int] = field(default_factory=dict)
    time: float = 0.0

    def _dense(self, row: int) -> np.ndarray:
        out = np.zeros(self.n_procs, dtype=np.int64)
        out[self.ranks] = self.counts[row]
        return out

    @property
    def msgs(self) -> np.ndarray:
        return self._dense(0)

    @property
    def nbytes(self) -> np.ndarray:
        return self._dense(1)

    @property
    def recvs(self) -> np.ndarray:
        return self._dense(2)

    @property
    def flops(self) -> np.ndarray:
        return self._dense(3).view(np.float64)

    @property
    def total_messages(self) -> int:
        return int(_add_reduce(self.counts[0]))


@dataclass
class MessageStats:
    """Cumulative + per-step counters for ``n_procs`` processes."""

    n_procs: int
    category_msgs: dict[str, int] = field(default_factory=dict)
    category_bytes: dict[str, int] = field(default_factory=dict)
    steps: list[StepSnapshot] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be positive")
        # the open step is one int64 block: the three integer counters,
        # then the flops as a float64 view of the last row.  Closing a
        # step is then one test for ranks with any nonzero bit, one
        # gather of their columns, one reduction and one fill
        self._step_block = np.zeros((4, self.n_procs), dtype=np.int64)
        self._step_counts = self._step_block[:3]
        self._step_msgs, self._step_bytes, self._step_recvs = \
            self._step_counts
        self._step_flops = self._step_block[3].view(np.float64)
        self._step_cat: dict[str, int] = {}
        # running totals over *closed* steps (kept in sync by close_step so
        # the cumulative metrics never re-walk the snapshot list)
        self._closed_msgs = 0
        self._closed_bytes = 0
        self._closed_recvs = 0
        self._closed_time = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_messages(self, src: int, category: str, count: int,
                        nbytes_total: int) -> None:
        """Count ``count`` messages from ``src``, ``nbytes_total`` bytes
        in all, in one charge (the async plane charges a whole neighbor
        fan-out at once).
        """
        self._step_msgs[src] += count
        self._step_bytes[src] += nbytes_total
        self.category_msgs[category] = (
            self.category_msgs.get(category, 0) + count)
        self.category_bytes[category] = (
            self.category_bytes.get(category, 0) + nbytes_total)
        self._step_cat[category] = self._step_cat.get(category, 0) + count

    def record_message_groups(self, srcs: np.ndarray, counts: np.ndarray,
                              nbytes: np.ndarray, category: str) -> None:
        """Count whole fan-outs from many senders in one grouped charge.

        ``srcs`` are *unique* sender ranks, sending ``counts[k]`` messages
        totalling ``nbytes[k]`` bytes each.  Integer arithmetic is exact,
        so this equals the per-sender :meth:`record_messages` calls.
        """
        self._step_msgs[srcs] += counts
        self._step_bytes[srcs] += nbytes
        total = int(counts.sum())
        tbytes = int(nbytes.sum())
        self.category_msgs[category] = (
            self.category_msgs.get(category, 0) + total)
        self.category_bytes[category] = (
            self.category_bytes.get(category, 0) + tbytes)
        self._step_cat[category] = self._step_cat.get(category, 0) + total

    def record_receives(self, dst: int, count: int) -> None:
        """Count ``count`` messages read by ``dst`` in one charge."""
        self._step_recvs[dst] += count

    def record_receive_groups(self, dsts: np.ndarray,
                              counts: np.ndarray) -> None:
        """Count reads by many (*unique*) readers in one grouped charge."""
        self._step_recvs[dsts] += counts

    def current_step_arrays(self) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]:
        """Views of the open step's per-process ``(flops, msgs, bytes,
        recvs)``.

        Used by the engine to price the step before closing it.  Flops
        are charged by adding into the first view in place (the block
        methods hold it); the other three are read-only to callers.
        """
        return (self._step_flops, self._step_msgs, self._step_bytes,
                self._step_recvs)

    def close_step(self, time: float = 0.0) -> StepSnapshot:
        """End the current parallel step; returns (and stores) its snapshot.

        The snapshot gathers the block's columns of the ranks with any
        event, and takes the open category dict itself (a fresh one
        opens the next step)."""
        block = self._step_block
        ranks = _or_reduce(block, axis=0).nonzero()[0]
        snap = StepSnapshot(self.n_procs, ranks.astype(np.int32),
                            block.take(ranks, axis=1),
                            category_msgs=self._step_cat, time=time)
        self.steps.append(snap)
        m, b, r = _add_reduce(self._step_counts, axis=1).tolist()
        self._closed_msgs += m
        self._closed_bytes += b
        self._closed_recvs += r
        self._closed_time += float(time)
        block.fill(0)
        self._step_cat = {}
        return snap

    # ------------------------------------------------------------------
    # paper metrics
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """All messages in closed steps plus the open step (O(1))."""
        return self._closed_msgs + int(_add_reduce(self._step_msgs))

    @property
    def total_bytes(self) -> int:
        return self._closed_bytes + int(_add_reduce(self._step_bytes))

    @property
    def total_receives(self) -> int:
        """All reads in closed steps plus the open step (O(1)).

        Under a fault plan sends and receives diverge — dropped messages
        are charged at the origin but never read, duplicates are read
        twice — so trace reconciliation needs the receive total as its
        own equality check rather than inferring it from sends.
        """
        return self._closed_recvs + int(_add_reduce(self._step_recvs))

    def communication_cost(self) -> float:
        """The paper's Table 2 metric: total messages / P."""
        return self.total_messages / self.n_procs

    def category_cost(self, category: str) -> float:
        """Per-category messages / P (Table 3 rows)."""
        return self.category_msgs.get(category, 0) / self.n_procs

    def elapsed_time(self) -> float:
        """Sum of closed-step simulated times (O(1))."""
        return self._closed_time

    def cumulative_category_costs(self, category: str) -> np.ndarray:
        """Per-category messages / P after each closed step.

        Table 3 reads this curve at the Table 2 target crossing to split
        the communication cost into solve comm and res comm.
        """
        per_step = np.array([s.category_msgs.get(category, 0)
                             for s in self.steps], dtype=np.float64)
        return np.cumsum(per_step) / self.n_procs
