"""Flat-buffer message plane: preallocated per-edge mailboxes.

The paper's Algorithms 1-3 run in synchronous one-sided epochs, and each
neighbour gets at most one *solve* and one *residual* message per epoch.
The coupling topology is fixed for a run, so every possible message gets
its storage up front:

- per edge, a preallocated float64 ``vals`` region (the boundary residual
  delta, solve messages only) and one ``z`` region per slot (the ghost
  payload; length 0 for methods that do not ship ghosts);
- per (edge, slot), header scalars ``own_norm_sq`` and ``your_est_sq``
  stored in flat arrays;
- per edge, the wire size of each message kind, computed once at setup by
  the method (16 header bytes plus 8 per float, as an MPI envelope plus
  payload).

A send (:meth:`FlatEdgePlane.put_epoch`) is then: write into the edge
regions, append the slot-ids to the pending list, bump the counters.
No per-message allocation.  A put becomes visible to its target only
at the collective epoch close, and each target reads its mail in
global put order (ascending sender rank for the phase loops).

Slot encoding: slot-id ``2 * edge + kind`` with kind 0 = solve, 1 =
residual; the slot *is* the message category, so no per-message tag is
stored.

The runtime mode knob (``REPRO_RUNTIME`` / :func:`set_runtime_mode` /
:func:`use_runtime`) selects how the block methods drive this plane:
``auto`` and ``flat`` both name the lockstep epoch loop; ``shm``, the
spelling of a deleted plane (DESIGN.md §5.12), runs as ``flat``;
``async`` drives the same mailboxes from the discrete-event executor
(:mod:`repro.runtime.asyncplane`).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro import config as _config
from repro.trace import NULL_TRACER

__all__ = [
    "SLOT_SOLVE",
    "SLOT_RESIDUAL",
    "FlatEdgePlane",
    "runtime_mode",
    "set_runtime_mode",
    "use_runtime",
]

_EMPTY_SIDS = np.zeros(0, dtype=np.int64)

#: largest count representable on the int32 slab-index fast path
_INT32_LIMIT = int(np.iinfo(np.int32).max)


#: message-kind slots within one edge mailbox
SLOT_SOLVE = 0
SLOT_RESIDUAL = 1

_mode_override: str | None = None


def runtime_mode() -> str:
    """The active message-plane mode: ``auto``, ``flat``, ``shm`` or
    ``async``.

    Resolution order: programmatic override (:func:`set_runtime_mode` /
    :func:`use_runtime`), then the ``REPRO_RUNTIME`` environment variable
    read through :mod:`repro.config`, then ``auto``.  Unknown env values
    fall back to ``auto`` (junk must not break a run).
    """
    if _mode_override is not None:
        return _mode_override
    return _config.runtime()


def set_runtime_mode(mode: str | None) -> None:
    """Set (or with ``None`` clear) the programmatic mode override."""
    global _mode_override
    _mode_override = (None if mode is None
                      else _config.require_runtime(mode))


@contextmanager
def use_runtime(mode: str):
    """Context manager: force a message-plane mode, restoring on exit."""
    previous = _mode_override
    set_runtime_mode(mode)
    try:
        yield
    finally:
        set_runtime_mode(previous)


class FlatEdgePlane:
    """Preallocated mailboxes for a fixed directed-edge topology.

    Parameters
    ----------
    n_procs:
        Number of virtual processes (destination ranks).
    stats:
        The shared :class:`~repro.runtime.stats.MessageStats`; every put
        is charged to its sender, every drained delivery to its receiver.
    edges:
        ``(E, 4)`` array-like of ``(src, dst, n_vals, n_z)``: one row per
        directed coupling, with the ``vals`` buffer length (rows of
        ``dst`` coupled to ``src``) and the ``z`` buffer length (ghost
        payload; 0 if the method ships no ghosts).
    tracer:
        Optional :class:`~repro.trace.Tracer`; every put / drain fires
        one batched trace hook at the same site that charges the stats,
        so trace aggregates reconcile exactly with ``MessageStats``.

    The constructor validates the topology and allocates the backing
    stores in whole-array passes.  Edges are addressed by id (edge
    ``e``'s delta region is ``vals_flat[vals_off[e]:vals_off[e + 1]]``)
    and senders by slab (DESIGN.md §5.8).
    """

    def __init__(self, n_procs: int, stats, edges, tracer=None) -> None:
        self.n_procs = n_procs
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 4)
        src, dst = edges[:, 0], edges[:, 1]
        E = len(edges)
        self.n_edges = E
        bad = np.flatnonzero((src < 0) | (src >= n_procs)
                             | (dst < 0) | (dst >= n_procs))
        if bad.size:
            k = bad[0]
            raise IndexError(f"edge ({src[k]}, {dst[k]}) out of range")
        if np.any(src == dst):
            raise ValueError("a process does not message itself")
        key = np.sort(src * n_procs + dst)
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            k = int(key[dup[0]])
            raise ValueError(f"duplicate edge {divmod(k, n_procs)}")
        # int32 slab-index fast path (first step of the million-row
        # campaign): when every slot-id and buffer offset fits in int32,
        # all index arrays use it — half the index memory, identical
        # indexing semantics, so the pinned digests are unchanged.  The
        # offsets are built in int64 first so the fit check itself never
        # overflows.
        vals_off64 = np.zeros(E + 1, dtype=np.int64)
        z_off64 = np.zeros(E + 1, dtype=np.int64)
        np.cumsum(edges[:, 2], out=vals_off64[1:])
        np.cumsum(edges[:, 3], out=z_off64[1:])
        lim = _INT32_LIMIT
        self.idx_dtype = (np.int32
                          if max(2 * E, int(vals_off64[-1]),
                                 int(z_off64[-1]), n_procs) <= lim
                          else np.int64)
        self.edge_src = src.astype(self.idx_dtype)
        self.edge_dst = dst.astype(self.idx_dtype)
        # all data regions live in flat backing arrays, so edges with a
        # common source (contiguous when the edge list is sorted by
        # (src, dst)) expose one contiguous per-sender slab — the senders
        # fill a whole fan-out with single vector ops
        self.vals_off = vals_off64.astype(self.idx_dtype)
        self.z_off = z_off64.astype(self.idx_dtype)
        self.vals_flat = np.empty(int(self.vals_off[-1]))
        self.zsolve_flat = np.empty(int(self.z_off[-1]))
        self.zres_flat = np.empty(int(self.z_off[-1]))
        #: per-slot headers (own squared norm, receiver-norm estimate)
        self.norm = np.zeros(2 * E)
        self.est = np.zeros(2 * E)
        # pending mail as chunk arrays: a put_epoch appends its slot-id
        # array.  Visible mail is one record per delivered epoch not yet
        # drained, oldest first: the epoch's slot-ids stably sorted by
        # destination, its destination ranks (ascending) and their run
        # bounds.
        self._pending: list[np.ndarray] = []
        self._boxes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: ranks with undrained mail, ascending int64 (refreshed at epoch
        #: close)
        self.mail_ranks: np.ndarray = _EMPTY_SIDS
        #: every slot-id the last epoch close delivered, in put order —
        #: lets the methods run one vectorized header/payload pass over
        #: the whole epoch instead of per-receiver loops
        self.last_delivered: np.ndarray = _EMPTY_SIDS
        #: per-slot wire sizes (filled by the method at setup from its
        #: ``_flat_message_nbytes`` tables) — lets the batched trace
        #: hooks stamp exact per-message byte counts
        self.sid_nbytes = np.zeros(2 * E, dtype=np.int64)
        #: optional compiled fault plan (:class:`repro.faults
        #: .FaultRuntime`), attached by ``ParallelEngine.reset_flat``;
        #: fates are drawn at put time and applied at epoch close
        self.faults = None
        self._pending_fates: list[np.ndarray] = []
        #: fate bits aligned with :attr:`last_delivered` (valid only
        #: while a fault plan with message faults is attached)
        self.last_fates: np.ndarray = _EMPTY_SIDS

    def reset(self) -> None:
        """Forget all mail, keeping the topology and every buffer: the
        plane then behaves as freshly constructed (a method re-arming it
        for a new run on the same couplings, DESIGN.md §5.8).

        Clears the pending / visible queues and their bookkeeping and
        the last epoch's delivery record.  Data regions and headers are
        left as they are — a receiver only reads a slot after a put has
        written it — and the shared ``stats`` keep accumulating.
        """
        self._pending = []
        self._pending_fates = []
        self._boxes = []
        self.mail_ranks = _EMPTY_SIDS
        self.last_delivered = _EMPTY_SIDS
        self.last_fates = _EMPTY_SIDS

    # ------------------------------------------------------------------
    # origin side
    # ------------------------------------------------------------------
    def put_epoch(self, sids: np.ndarray, norm_vals, est_vals,
                  srcs: np.ndarray, counts: np.ndarray,
                  nbytes_by_src: np.ndarray, category: str) -> None:
        """Buffer many ranks' whole fan-outs in a single call.

        ``sids`` must be in ascending sender order (ascending
        destination within each sender), each slot put at most once this
        epoch; ``norm_vals``/``est_vals`` broadcast or align with
        ``sids``.  ``srcs`` are the *unique*
        sender ranks with ``counts`` messages / ``nbytes_by_src`` byte
        totals each (senders with zero neighbors may appear with count
        0, and send nothing).  One pending append plus one grouped stats
        charge.
        """
        if sids.size == 0:
            return
        self.norm[sids] = norm_vals
        self.est[sids] = est_vals
        self._pending.append(sids)
        if self.faults is not None and self.faults.message_faults:
            self._pending_fates.append(self.faults.fates_flat(sids))
        self.stats.record_message_groups(srcs, counts, nbytes_by_src,
                                         category)
        if self.tracer.enabled:
            self.tracer.sends_flat(self, sids, category)

    # ------------------------------------------------------------------
    # epoch control (driven by ParallelEngine.close_epoch)
    # ------------------------------------------------------------------
    def deliver_pending(self) -> int:
        """Make every buffered put visible to its target; refresh
        :attr:`mail_ranks` and :attr:`last_delivered`.  Returns the number
        delivered.

        The epoch's slot-ids become one mailbox record: stably sorted by
        destination (so each mailbox keeps the global put order) with one
        bound per destination run.  No per-destination Python work.
        """
        chunks = self._pending
        arr = _EMPTY_SIDS
        if chunks:
            arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            self._pending = []
        if self._pending_fates:
            fates = (self._pending_fates[0] if len(self._pending_fates) == 1
                     else np.concatenate(self._pending_fates))
            arr, fates = self._apply_fates(arr, fates)
            self.last_fates = fates
        elif not chunks:
            self.last_fates = _EMPTY_SIDS
        self._pending_fates = []
        self.last_delivered = arr
        if arr.size:
            dsts = self.edge_dst[arr >> 1]
            order = np.argsort(dsts, kind="stable")
            sdst = dsts[order]
            heads = np.flatnonzero(np.concatenate(
                ([True], sdst[1:] != sdst[:-1])))
            self._boxes.append((arr[order], sdst[heads].astype(np.int64),
                                np.append(heads, arr.size)))
        boxes = self._boxes
        if len(boxes) > 1:
            self.mail_ranks = np.unique(np.concatenate(
                [ranks for _, ranks, _ in boxes]))
        else:
            self.mail_ranks = boxes[0][1] if boxes else _EMPTY_SIDS
        return int(arr.size)

    def _apply_fates(self, arr: np.ndarray,
                     fates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply drawn fates to an epoch's delivery batch.

        Drops are removed (never delivered, never charged as receives),
        duplicates are expanded back to back, and reorder-fated messages
        move — stably — to the back of the batch, hence to the back of
        each destination's batch once the stable destination grouping
        runs.
        """
        from repro.faults import FATE_DROP, FATE_DUP, FATE_REORDER

        alive = (fates & FATE_DROP) == 0
        if not alive.all():
            arr, fates = arr[alive], fates[alive]
        dup = (fates & FATE_DUP) != 0
        if dup.any():
            reps = np.where(dup, 2, 1)
            arr, fates = np.repeat(arr, reps), np.repeat(fates, reps)
        moved = (fates & FATE_REORDER) != 0
        if moved.any():
            order = np.argsort(moved, kind="stable")
            arr, fates = arr[order], fates[order]
        return arr, fates

    @property
    def in_flight(self) -> int:
        """Messages buffered but not yet visible."""
        return sum(c.size for c in self._pending)

    # ------------------------------------------------------------------
    # target side
    # ------------------------------------------------------------------
    def drain_all(self) -> None:
        """Drain every mailbox, charging receives only.

        The read phases take their payloads from :attr:`last_delivered`
        (one vectorized pass over the epoch) and need the drain only for
        the receive accounting: each rank in :attr:`mail_ranks` is
        charged its records' run lengths, in one grouped
        :meth:`~repro.runtime.stats.MessageStats.record_receive_groups`
        (one receive per delivered message: a dropped message is never
        charged, a duplicated one twice).  When tracing,
        each rank's receives are emitted in ascending rank order, an
        undrained earlier epoch's mail first.
        """
        boxes, self._boxes = self._boxes, []
        if not boxes:
            return
        counts = np.zeros(self.n_procs, dtype=np.int64)
        for _, ranks, bounds in boxes:
            counts[ranks] += np.diff(bounds)
        ranks = np.flatnonzero(counts)
        self.stats.record_receive_groups(ranks, counts[ranks])
        if self.tracer.enabled:
            runs: dict[int, list[np.ndarray]] = {}
            for sarr, rk, bounds in boxes:
                b = bounds.tolist()
                for i, p in enumerate(rk.tolist()):
                    runs.setdefault(p, []).append(sarr[b[i]:b[i + 1]])
            for p in sorted(runs):
                chunks = runs[p]
                self.tracer.recvs_flat(self, p, chunks[0] if len(chunks) == 1
                                       else np.concatenate(chunks))
