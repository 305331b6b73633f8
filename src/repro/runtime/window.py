"""Simulated one-sided memory windows (MPI-3 RMA substitute).

Each virtual process ``p`` owns a :class:`Window` — the region of its memory
remote processes write to with ``MPI_Put``.  The simulator mirrors the
paper's epoch discipline (``MPI_Win_post/start ... MPI_Put ...
complete/wait``): a ``put`` during an access epoch is *buffered* and only
becomes visible to the target after the collective epoch close
(:meth:`WindowSystem.close_epoch`), exactly like RMA separates transfer from
completion.  Reading drains the inbox in sender order.

An optional staleness injector delays individual deliveries by whole epochs
with a configurable probability, modelling asynchronous-progress jitter
(used by the robustness ablation, not by the paper's core experiments).

Two message planes share the epoch machinery: the object plane here (one
:class:`Message` per put — required for delay injection, where a message
outlives its epoch) and the preallocated flat-buffer plane
(:class:`repro.runtime.flatplane.FlatEdgePlane`, attached via
:meth:`WindowSystem.configure_flat`) used by the synchronous-epoch fast
path.  :meth:`WindowSystem.close_epoch` completes both.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.runtime.flatplane import FlatEdgePlane
from repro.runtime.message import Message, payload_nbytes
from repro.runtime.stats import MessageStats
from repro.trace import NULL_TRACER

__all__ = ["Window", "WindowSystem"]


class Window:
    """Inbox of one process: delivered messages readable by the owner."""

    __slots__ = ("owner", "_inbox")

    def __init__(self, owner: int):
        self.owner = owner
        self._inbox: deque[Message] = deque()

    def deliver(self, msg: Message) -> None:
        """Make ``msg`` visible to the owner (epoch machinery only)."""
        self._inbox.append(msg)

    def drain(self) -> list[Message]:
        """Remove and return everything currently visible, FIFO."""
        out = list(self._inbox)
        self._inbox.clear()
        return out

    def peek_count(self) -> int:
        """Visible-but-unread message count."""
        return len(self._inbox)


class WindowSystem:
    """All windows plus the epoch/buffering machinery and accounting.

    Parameters
    ----------
    n_procs:
        Number of virtual processes.
    stats:
        Optional shared :class:`MessageStats`; a fresh one is created
        otherwise.
    delay_probability, seed:
        Staleness injection — each buffered message is independently held
        back for one extra epoch with this probability.  0 (default)
        reproduces the paper's synchronized-epoch behaviour.
    """

    def __init__(self, n_procs: int, stats: MessageStats | None = None,
                 delay_probability: float = 0.0, seed: int = 0,
                 tracer=None):
        if n_procs < 1:
            raise ValueError("n_procs must be positive")
        if not 0.0 <= delay_probability < 1.0:
            raise ValueError("delay_probability must be in [0, 1)")
        self.n_procs = n_procs
        self.stats = stats if stats is not None else MessageStats(n_procs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pending: list[Message] = []
        self._delayed: list[Message] = []
        self._delay_probability = delay_probability
        self._rng = np.random.default_rng(seed)
        self.step_index = 0
        #: optional preallocated flat-buffer plane (see configure_flat)
        self.flat: FlatEdgePlane | None = None
        #: optional compiled fault plan (:class:`repro.faults.FaultRuntime`),
        #: attached by the method's ``setup``; consulted at put time for
        #: per-message fates and at epoch close for delivery manipulation
        self.faults = None
        #: fault-delayed messages as ``[epochs_remaining, Message]`` pairs
        self._fault_delayed: list[list] = []

    @cached_property
    def windows(self) -> list[Window]:
        """One inbox per process, made at first read: only the object
        plane delivers into them."""
        return [Window(p) for p in range(self.n_procs)]

    def configure_flat(self, edges) -> FlatEdgePlane:
        """Attach a preallocated flat-buffer plane for a fixed topology.

        ``edges`` is an ``(E, 4)`` array-like of ``(src, dst, n_vals,
        n_z)``; returns the plane.  Only valid with synchronous
        epochs — a delayed message needs per-message storage, which the
        flat plane deliberately does not have.
        """
        if self._delay_probability > 0.0:
            raise RuntimeError("the flat-buffer plane requires synchronous "
                               "epochs (delay_probability == 0)")
        if self.faults is not None and self.faults.plan.requires_object_plane:
            raise RuntimeError("a FaultPlan with delay > 0 requires the "
                               "object message plane")
        self.flat = FlatEdgePlane(self.n_procs, self.stats, edges,
                                  tracer=self.tracer)
        self.reset_flat()
        return self.flat

    def reset_flat(self) -> None:
        """Re-arm the attached flat plane for a new run on the same
        topology: clear its mail state and bind the current compiled
        fault plan (:attr:`faults`, possibly ``None``) to it."""
        self.flat.reset()
        self.flat.faults = self.faults
        if self.faults is not None:
            self.faults.attach_flat(self.flat)

    # ------------------------------------------------------------------
    # origin side
    # ------------------------------------------------------------------
    def put(self, src: int, dst: int, category: str,
            payload: Mapping[str, Any], nbytes: int | None = None) -> None:
        """Buffer one one-sided write from ``src`` into ``dst``'s window.

        Counts as exactly one message.  Visible to ``dst`` only after the
        next :meth:`close_epoch`.
        """
        if not 0 <= dst < self.n_procs:
            raise IndexError(f"destination rank {dst} out of range")
        if src == dst:
            raise ValueError("a process does not message itself")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        fr = self.faults
        if fr is not None and fr.message_faults:
            from repro.faults import FATE_DROP

            fate, delay, seq = fr.fate(src, dst, category)
            msg = Message(src=src, dst=dst, category=category,
                          payload=payload, nbytes=size,
                          step=self.step_index, seq=seq, fate=fate)
            # the origin pays for every put — drops and delays included —
            # but a dropped message never reaches a window, so it is
            # never charged as a receive
            self.stats.record_message(src, category, size)
            if self.tracer.enabled:
                self.tracer.send(src, dst, category, size)
            if fate & FATE_DROP:
                return
            if delay:
                self._fault_delayed.append([delay + 1, msg])
            else:
                self._pending.append(msg)
            return
        msg = Message(src=src, dst=dst, category=category, payload=payload,
                      nbytes=size, step=self.step_index)
        self._pending.append(msg)
        self.stats.record_message(src, category, size)
        if self.tracer.enabled:
            self.tracer.send(src, dst, category, size)

    # ------------------------------------------------------------------
    # epoch control
    # ------------------------------------------------------------------
    def close_epoch(self) -> int:
        """Complete the access epoch: deliver buffered puts to their targets.

        Returns the number of messages delivered.  With staleness injection
        some messages are re-buffered for a later epoch instead.
        """
        to_deliver = self._delayed + self._pending
        self._pending = []
        self._delayed = []
        delivered = 0
        if self.flat is not None:
            delivered += self.flat.deliver_pending()
        if self._fault_delayed:
            # fault-plan delay: release messages whose hold-back expires
            # this epoch, ahead of this epoch's puts (they are older)
            due: list[Message] = []
            still: list[list] = []
            for item in self._fault_delayed:
                item[0] -= 1
                (due if item[0] <= 0 else still).append(item)
            self._fault_delayed = still
            to_deliver = [item[1] for item in due] + to_deliver
        if self.faults is not None and to_deliver:
            from repro.faults import FATE_DUP, FATE_REORDER

            # reordered messages go, stably, to the back of the epoch's
            # delivery batch (hence to the back of each destination's
            # batch); duplicates are delivered back to back
            front, back = [], []
            for msg in to_deliver:
                (back if msg.fate & FATE_REORDER else front).append(msg)
                if msg.fate & FATE_DUP:
                    (back if msg.fate & FATE_REORDER else front).append(msg)
            to_deliver = front + back
        for msg in to_deliver:
            if (self._delay_probability > 0.0
                    and self._rng.random() < self._delay_probability):
                self._delayed.append(msg)
                continue
            self.windows[msg.dst].deliver(msg)
            delivered += 1
        return delivered

    def flush_all(self) -> int:
        """Deliver everything, including delayed messages (end of run)."""
        prob = self._delay_probability
        self._delay_probability = 0.0
        if self._fault_delayed:
            self._pending = ([item[1] for item in self._fault_delayed]
                             + self._pending)
            self._fault_delayed = []
        try:
            return self.close_epoch()
        finally:
            self._delay_probability = prob

    # ------------------------------------------------------------------
    # target side
    # ------------------------------------------------------------------
    def drain(self, p: int) -> list[Message]:
        """Read and clear everything visible in process ``p``'s window.

        Each read message is charged to ``p`` as a receive (target-side
        processing overhead in the cost model).  The charging contract
        under staleness/fault injection: receives are charged only here,
        when a delivered message is actually read — a delayed message is
        charged in the epoch it is finally drained, a dropped message
        (which never reaches a window) is charged as a send but never as
        a receive, and a duplicated message is charged twice.  The flat
        plane charges identically, so per-step ``MessageStats`` are
        plane-independent even under a nonzero fault plan.
        """
        msgs = self.windows[p].drain()
        if msgs:
            self.stats.record_receives(p, len(msgs))
            if self.tracer.enabled:
                self.tracer.recv_msgs(p, msgs)
        return msgs

    @property
    def in_flight(self) -> int:
        """Messages buffered but not yet visible (both planes)."""
        flat = self.flat.in_flight if self.flat is not None else 0
        return (len(self._pending) + len(self._delayed)
                + len(self._fault_delayed) + flat)
