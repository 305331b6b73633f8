"""Shared machinery for the distributed block methods (Algorithms 1-3).

A *parallel step* of any of the three methods is a fixed sequence of phases
with an RMA epoch between them (Section 2.4 / 3 of the paper):

1. decide + relax + put solve updates,
2. drain windows, apply updates, possibly put residual messages,
3. drain windows, refresh residual-norm bookkeeping.

:class:`BlockMethodBase` owns the mutable solver state (per-process ``x_p``,
``r_p``, exact block norms), the relaxation primitive (local solve +
neighbor-delta computation, with flop accounting), the run loop, and the
history recording; subclasses implement :meth:`step` with their phase logic.

Invariant maintained by the messaging discipline: at the end of every
parallel step, each ``r_p`` equals the owner's exact block of
``b - A x`` for the current global ``x`` — verified directly by the tests.

One message plane (DESIGN.md §5.8): the preallocated per-edge mailboxes
of :class:`~repro.runtime.flatplane.FlatEdgePlane`, one slot per (edge,
message kind) per epoch — the synchronous-epoch contract of the paper's
algorithms.  The base class owns the shared machinery: the concatenated
neighbor slab (``_nbr_flat`` + ``_nbr_off`` offsets) that turns the
per-rank ``wins_neighborhood`` scan into one segment-max
(:meth:`_wins_vector`), the per-edge mailbox setup, and the relax phase
that writes every winner's outgoing deltas straight into its mailbox
slab.  The results are pinned bit for bit against the recorded output
of the seed's per-message implementation (``tests/plane_pins.py``).
"""

from __future__ import annotations

import math
import numpy as np

from repro import config as _config
from repro.analysis.history import ConvergenceHistory
from repro.core.blockdata import _BATCH_ROWS, BlockSystem, _batched
from repro.faults import FaultPlan, FaultRuntime
from repro.runtime import (CATEGORY_SOLVE, CORI_LIKE, CostModel,
                           ParallelEngine)
from repro.runtime.flatplane import _INT32_LIMIT
from repro.sparsela.primitives import (Segments, csr_matvec, matvec_plan,
                                       multi_arange)
from repro.trace import NULL_TRACER

__all__ = ["BlockMethodBase"]


def _rank_views(store: np.ndarray, cut: np.ndarray) -> list[np.ndarray]:
    """Views ``store[cut[p]:cut[p + 1]]``, one per rank."""
    cut = cut.tolist()
    return [store[lo:hi] for lo, hi in zip(cut, cut[1:])]


class BlockMethodBase:
    """State and primitives common to Block Jacobi, PS and DS.

    Parameters
    ----------
    system:
        Immutable per-process data (blocks, couplings, local solvers).
    cost_model:
        Pricing for the simulated wall-clock.
    seed:
        An integer ``>= 0`` (a ``ValueError`` naming it if not), accepted
        so every method takes the front door's arguments; the lockstep
        plane draws no random numbers, so no run reads it.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (DESIGN.md §5.11): a
        frozen, seeded schedule of message drops / duplications /
        reorderings, per-process stalls and slowdowns.  A null
        plan (all rates zero, no schedules) compiles to disabled
        machinery and is bit-identical to ``faults=None``.
    """

    name = "block-method"
    #: whether :class:`~repro.core.async_exec.AsyncExecutor` can drive
    #: the method (a lockstep-only send rule cannot)
    _async_supported = True
    #: damping of every local update (Block Jacobi's ``omega``)
    omega = 1.0

    def __init__(self, system: BlockSystem, cost_model: CostModel = CORI_LIKE,
                 seed: int = 0, speed_factors=None, tracer=None,
                 faults: FaultPlan | None = None):
        _config.require_int("seed", seed, 0)
        self.system = system
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = ParallelEngine(system.n_parts, cost_model=cost_model,
                                     speed_factors=speed_factors,
                                     tracer=self.tracer)
        self.fault_plan = faults
        self._active_plan: FaultPlan | None = None
        self._faults: FaultRuntime | None = None
        self._lossy = False
        #: graceful-degradation outcome of the last run (DESIGN.md §5.11):
        #: True when the run wedged (no active process, nothing in flight,
        #: residual above target) and stopped instead of spinning
        self.degraded = False
        self.degraded_reason: str | None = None
        #: explicit residual repair messages sent (DS lines 27-30 plus
        #: any loss-hardening re-sends)
        self.repairs_sent = 0
        P = system.n_parts
        # one contiguous backing store each for x and r, in permuted row
        # order; the per-process blocks are views into them, so a re-run
        # rewrites the whole state with two vector operations
        self._rstart = np.asarray(system.part.offsets, dtype=np.int64)
        self._rsize = np.diff(self._rstart)
        self._x_flat = np.zeros(system.n)
        self._r_flat = np.zeros(system.n)
        self.x_blocks = _rank_views(self._x_flat, self._rstart)
        # the residual blocks as a segment family, grouped by length
        # once: every block-norm pass is one masked sweep over it
        self._row_segs = Segments(self._r_flat, self._rstart[:-1],
                                  self._rsize)
        self.r_blocks = self._row_segs.views
        self.norms = np.zeros(P)
        self.total_relaxations = 0
        self.steps_taken = 0
        self.history = ConvergenceHistory()
        self._initialized = False
        #: optional hook applied to every step's relax decision *after*
        #: fault stalls: ``mask -> mask`` over the per-process boolean
        #: decision vector.  Installed by the multigrid block smoothers
        #: to truncate a step's winners to the remaining relaxation
        #: budget (DESIGN.md §5.16); ``None`` (the default) is a no-op.
        #: Deliberately NOT reset by :meth:`setup` — it belongs to the
        #: adapter that owns this runner, not to one run.
        self._relax_filter = None
        # concatenated neighbor slab: neighbors_of(p) for every p laid out
        # back to back, with offsets — the decision phase and the deadlock
        # scan become single segment operations over it.  It is the block
        # system's coupling directory (pairs ascend owner-major).
        self._slab_owner = system.edge_src
        self._nbr_flat = system.edge_dst
        self._nbr_off = np.searchsorted(system.edge_src, np.arange(P + 1))
        self._nbr_nonempty = np.diff(self._nbr_off) > 0
        #: the lossy-ness of the fault plan the run-independent structure
        #: (flat plane, index plans, kernel bindings, estimate slabs) was
        #: last built under; ``None`` = not built.  :meth:`setup` rebuilds
        #: on any mismatch.
        self._structure_key = None

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def setup(self, x0: np.ndarray, b: np.ndarray,
              permuted: bool = False) -> None:
        """Initialise state from an initial guess and right-hand side.

        ``x0``/``b`` are in original row numbering unless ``permuted``.

        Two halves (DESIGN.md §5.8).  The *structure* — flat plane, index
        plans, kernel bindings, estimate slabs: everything that depends
        only on ``system`` and the method's options — is built by
        :meth:`_build_structure` on the first call and kept; a later call
        rebuilds it only when the lossy-ness of the fault plan changed
        (``_structure_key``).
        The *state* — ``x``, ``r``, norms, estimates, mail, counters,
        the compiled fault plan — is rewritten in place on every call by
        :meth:`_reset_state`.  A re-run on one runner is bit-identical to
        a fresh runner's run; the engine's cumulative ``stats`` are the
        one thing that deliberately carries over.
        """
        sysm = self.system
        n = sysm.n
        x0 = np.asarray(x0, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if x0.shape != (n,) or b.shape != (n,):
            raise ValueError("x0 and b must match the matrix size")
        if not permuted:
            x0 = x0[sysm.perm]
            b = b[sysm.perm]
        # compile the fault plan (a null plan compiles to nothing at all —
        # the bit-identity contract) and attach it to the engine before
        # the plane is configured
        plan = self.fault_plan
        if plan is not None and plan.is_null:
            plan = None
        self._active_plan = plan
        self._faults = (FaultRuntime(plan, sysm.n_parts, tracer=self.tracer)
                        if plan is not None else None)
        self._lossy = plan is not None and plan.lossy
        self.engine.faults = self._faults
        # everything the kept structure depends on besides ``system``
        key = self._lossy
        if key != self._structure_key:
            self._structure_key = None      # a raising build leaves none
            self._build_structure()
            self._structure_key = key
        self._reset_state(x0, b)
        self._initialized = True

    def _build_structure(self) -> None:
        """The run-independent half of :meth:`setup`; subclasses extend
        it with their estimate slabs and iteration plans."""
        self._configure_flat_plane()
        if self._lossy:
            self._alloc_lossy_flat()

    def _reset_state(self, x0: np.ndarray, b: np.ndarray) -> None:
        """The per-run half of :meth:`setup`: write ``(x0, b)`` (permuted
        numbering) into the existing stores, whole-array.  The block
        norms are the residual store's blocks' squared norms
        (:attr:`_row_segs`): each is the ``ddot`` that keeps it bit-equal
        to ``np.linalg.norm`` of its block.  Subclasses extend it."""
        self._x_flat[:] = x0
        r = self._r_flat
        self.system.A.matvec(x0, out=r)
        np.subtract(b, r, out=r)
        np.sqrt(self._row_segs.sq(self._all_ranks), out=self.norms)
        self.total_relaxations = 0
        self.steps_taken = 0
        self.history = ConvergenceHistory()
        self.history.append(norm=self.global_norm(), relaxations=0,
                            parallel_steps=0, comm_cost=0.0, time=0.0,
                            active_fraction=0.0)
        self.degraded = False
        self.degraded_reason = None
        self.repairs_sent = 0
        self.engine.reset_flat()
        if self._lossy:
            self._reset_lossy_state()

    # ------------------------------------------------------------------
    # flat-buffer message plane (DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def _flat_ghost_rows(self, n_vals: np.ndarray,
                         rev: np.ndarray) -> np.ndarray:
        """Ghost (``z``) payload length of every edge (0 = no ghosts),
        from the edges' delta lengths and reverse-edge ids."""
        return np.zeros_like(n_vals)

    def _flat_message_nbytes(self, n_vals, n_z):
        """Wire sizes ``(solve, residual)`` of this method's messages on
        edges with the given buffer lengths (scalars or per-edge arrays)
        — 16 header bytes plus 8 per float64 or scalar field of the
        message (``tests/oracles.py::payload_nbytes`` is the reference)."""
        raise NotImplementedError  # pragma: no cover

    def _configure_flat_plane(self) -> None:
        """Attach preallocated per-edge mailboxes and build the plans that
        address them (a relax writes the wire payload in place — no copy,
        no allocation).

        Every index plan is a whole-array gather over the block system's
        coupling directory: its pairs ascend by ``(src, dst)``, so pair
        ``e`` is edge ``e`` *and* position ``e`` of the neighbor slab."""
        sysm = self.system
        P = sysm.n_parts
        src, dst = sysm.edge_src, sysm.edge_dst
        n_vals = np.diff(sysm.edge_rows)
        # the topology is symmetric, so the k-th edge by (dst, src) is
        # edge k reversed
        rev = np.lexsort((src, dst))
        if not np.array_equal((src[rev], dst[rev]), (dst, src)):
            raise RuntimeError("flat plane expects a symmetric topology")
        n_z = self._flat_ghost_rows(n_vals, rev)
        plane = self.engine.configure_flat(
            np.column_stack((src, dst, n_vals, n_z)))
        E = plane.n_edges
        # index plans follow the plane's dtype (the int32 fast path of
        # the million-row campaign); row indices get it only when the
        # global row count also fits
        idt = plane.idx_dtype
        # header-row slab indices (Γ/Γ̃ scatter plans) ride the same
        # dtype: every value is bounded by the slab length, which fits
        # whenever the plane's offsets do
        self._nbr_off = off = self._nbr_off.astype(idt, copy=False)
        self._nbr_heads = off[:-1][self._nbr_nonempty]   # segment-max cuts
        self._nbr_flat = self._nbr_flat.astype(idt, copy=False)
        self._slab_owner = self._slab_owner.astype(idt, copy=False)
        # slab-aligned send plans: each (owner, neighbor) position's
        # slot-ids, plus per-rank fan-out shapes — the phase loops
        # batch a whole epoch's sends into one put_epoch call (the slab
        # is owner-major with neighbors ascending: the put order of one
        # message per (sender, neighbor) in ascending rank order)
        self._slab_solve_sids = 2 * np.arange(E, dtype=idt)
        self._slab_res_sids = self._slab_solve_sids + 1
        self._nbr_counts = np.diff(off)
        self._all_ranks = np.arange(P, dtype=np.int64)
        self._flat_solve_nbytes = np.zeros(E, dtype=np.int64)
        self._flat_res_nbytes = np.zeros(E, dtype=np.int64)
        (self._flat_solve_nbytes[:],
         self._flat_res_nbytes[:]) = self._flat_message_nbytes(n_vals, n_z)
        # per-slot wire sizes, so batched puts can trace exact bytes
        plane.sid_nbytes[0::2] = self._flat_solve_nbytes
        plane.sid_nbytes[1::2] = self._flat_res_nbytes

        def per_rank(per_edge):     # exact: integer sums over out-edges
            return np.diff(np.r_[0, np.cumsum(per_edge)][off])
        self._solve_nbytes_arr = per_rank(self._flat_solve_nbytes)
        self._res_nbytes_arr = per_rank(self._flat_res_nbytes)
        # receive plan: parallel to the mailbox backing store, each delta
        # entry's *global* destination row in the residual backing store
        # — a whole epoch's solve updates then apply as one in-place
        # scatter-add (:meth:`_apply_flat_epoch`).
        rstart = self._rstart
        row_idt = (np.int32 if (idt is np.int32
                                and int(rstart[-1]) <= _INT32_LIMIT)
                   else np.int64)
        self._grows_flat = (np.repeat(rstart[dst], n_vals)
                            + sysm.beta_rows).astype(row_idt)
        self._edge_recv_flops = n_vals.astype(np.float64)
        # per slot-id, the receiver's Γ-slab position of the sender — one
        # fancy scatter updates every receiver's records for a whole epoch
        self._sid_slabpos = np.repeat(rev, 2).astype(idt)
        # z-payload plans.  Edge (s, d)'s z entries are s's residual at
        # its rows coupled to d — the rows the *reverse* edge's deltas
        # land on — so the reverse edges' regions of the delta store index
        # both the ghost store (``_z2g``: a whole epoch's ghost overwrites
        # are one fancy copy) and, through ``_grows_flat``, each z entry's
        # source row in the residual store (any set of outgoing z payloads
        # fills with one gather).
        zoff, voff = plane.z_off, plane.vals_off
        self._z2g = multi_arange(voff[rev], voff[rev] + np.diff(zoff))
        self._z2g_lo = voff[rev]    # edge e's run of _z2g starts here
        self._zsrc_grows = self._grows_flat[self._z2g]
        # relaxation plans: the open step's per-process flop counters
        # (the stats' own array: a += on it is the flop charge), each
        # rank's solo-relax kernels (bound at its first solo relax:
        # _bind_solve) and every relax flop charge folded into one
        # per-rank constant — each term is an integer-valued float, so
        # the batched add is exactly the per-charge sum.
        self._flops = self.engine.stats._step_flops
        self._solver_call = [None] * P
        self._mv_diag = [None] * P
        self._mv_fanout = [None] * P
        self._ws_mv = [None] * P
        self._relax_flops = np.array([
            s.flops + 2.0 * B.nnz + 2.0 * B.n_rows
            + (0.0 if F is None else 2.0 * F.nnz)
            for s, B, F in zip(sysm.local_solvers, sysm.diag_blocks,
                               sysm.fanout)])
        # per-sender contiguous delta slab over the mailbox backing store
        self._vals_slab = self._rank_slabs(plane.vals_flat)
        # coupling row k is mailbox entry k, so rank p's fan-out rows are
        # its mailbox slab ``_fan_rows[p]:_fan_rows[p + 1]``
        self._fan_rows = sysm.edge_rows[off]
        self._relax_csr = None              # built by _relax_plans
        if not _batched(sysm.n, P):
            # every rank relaxes on its own (its block factored at build)
            for p in range(P):
                self._bind_solve(p)

    def _relax_plans(self) -> list:
        """The lockstep step's plans, built at its first relax phase (an
        async run never holds them).  The static owner maps, in the
        plane's index dtype: each residual row's rank (``_row_rank``),
        each mailbox ``vals`` and ``z`` entry's edge (``_vals_edge``,
        ``_z_edge``; an edge's owner is ``_slab_owner``).  Any per-step
        index set over them is one boolean gather,
        ``mask.take(map).nonzero()[0]`` (``take``: an int32 fancy index
        would be cast to intp first, at twice the cost) — entries
        ascending, the order the spans of ascending ranks or edges run
        in.  Returned: the
        batched-relax plans, per store (diagonal blocks, couplings) its
        global-column CSR, rank cut and scratch output; empty above
        :data:`_BATCH_ROWS` rows per block (relax per rank)."""
        if self._relax_csr is not None:
            return self._relax_csr
        sysm, rstart = self.system, self._rstart
        plane = self.engine.flat
        idt = plane.idx_dtype
        self._row_rank = np.repeat(np.arange(sysm.n_parts, dtype=idt),
                                   self._rsize)
        eids = np.arange(plane.n_edges, dtype=idt)
        self._vals_edge = np.repeat(eids, np.diff(plane.vals_off))
        self._z_edge = np.repeat(eids, np.diff(plane.z_off))
        self._relax_csr = []
        if not _batched(sysm.n, sysm.n_parts):
            return self._relax_csr
        d_ptr, d_idx, d_data, c_ptr, c_idx, c_data = sysm.stores[:6]
        cdt = np.int32 if max(c_idx.size, d_idx.size, sysm.n) <= \
            _INT32_LIMIT else np.int64
        self._relax_csr = [
            (ptr.astype(cdt), idx.astype(cdt) + np.repeat(
                rstart[:-1].astype(cdt), np.diff(ptr[cut])), data,
             cut.tolist(), np.zeros(ptr.size - 1))
            for ptr, idx, data, cut in ((d_ptr, d_idx, d_data, rstart),
                                        (c_ptr, c_idx, c_data,
                                         self._fan_rows))]
        self._dx_flat = np.zeros(sysm.n)
        return self._relax_csr

    def _bind_solve(self, p: int):
        """Bind rank ``p``'s solo-relax kernels on first use and return
        its local solve: the solve as one callable with any python
        wrapper peeled off (its block factored now if it was not), the
        diagonal-block matvec plan with its output scratch, and the
        fan-out plan — the rank's coupling blocks stacked (neighbor
        order) into one CSR whose matvec writes the whole fan-out of
        deltas straight into its mailbox slab: one kernel call per relax
        instead of one per neighbor.  Each CSR row is an independent
        dot, so stacking is bit-identical to the per-block products."""
        sysm = self.system
        B, F = sysm.diag_blocks[p], sysm.fanout[p]
        self._mv_diag[p] = matvec_plan(B)
        self._ws_mv[p] = np.empty(B.n_rows)
        self._mv_fanout[p] = None if F is None else matvec_plan(F)
        call = self._solver_call[p] = sysm.local_solvers[p].bind()
        return call

    def _rank_slabs(self, store: np.ndarray) -> list[np.ndarray]:
        """Per-rank contiguous views of a vals-shaped backing store (a
        rank's out-edges, hence its regions, are consecutive)."""
        return _rank_views(store, self.engine.flat.vals_off[self._nbr_off])

    # ------------------------------------------------------------------
    # fault plane (DESIGN.md §5.11)
    # ------------------------------------------------------------------
    def _alloc_lossy_flat(self) -> None:
        """Flat-plane stores of the cumulative solve-payload state
        (structure; :meth:`_reset_lossy_state` zeroes them per run)."""
        plane = self.engine.flat
        self._cum_flat = np.zeros_like(plane.vals_flat)
        self._cum_slab = self._rank_slabs(self._cum_flat)
        self._applied_flat = np.zeros_like(plane.vals_flat)

    def _reset_lossy_state(self) -> None:
        """Zero the cumulative self-healing solve-payload state.

        Under a lossy plan (drops or duplicates possible) a plain delta
        message is unsafe: a lost delta corrupts the receiver's residual
        forever, a doubled one applies twice.  Instead each sender ships
        the *running sum* of its deltas per edge and each receiver
        applies ``received − applied_so_far`` — any later message on the
        edge heals every earlier loss, and replays apply zero.
        """
        plan = self._active_plan
        self._dedupe_dups = (plan.solve.duplicate > 0.0
                             or plan.residual.duplicate > 0.0)
        self._cum_flat.fill(0.0)
        self._applied_flat.fill(0.0)

    def _lossy_finalize_send(self, idx) -> None:
        """Swap the just-relaxed raw deltas at mailbox positions ``idx``
        (a slice or an index array) for the running per-edge sums (the
        wire payload under a lossy plan).  Callers invoke it *after* any
        use of the raw deltas — the DS ghost update needs them."""
        cum = self._cum_flat
        cum[idx] += self.engine.flat.vals_flat[idx]
        self.engine.flat.vals_flat[idx] = cum[idx]

    def _lossy_finalize_rank(self, p: int) -> None:
        """:meth:`_lossy_finalize_send` over rank ``p``'s whole mailbox
        slab, through its bound views."""
        cum, vals = self._cum_slab[p], self._vals_slab[p]
        cum += vals
        vals[...] = cum

    def _mask_stalled(self, relaxed: np.ndarray) -> np.ndarray:
        """Clear the relax decision of every rank stalled this step.

        Stalls suppress compute only: a stalled rank still drains its
        window and answers in the later phases (one-sided progress does
        not need the target's CPU)."""
        fr = self._faults
        if fr is not None:
            mask = fr.stall_mask(self.steps_taken + 1)
            if mask is not None:
                relaxed = relaxed & ~mask
        if self._relax_filter is not None:
            relaxed = self._relax_filter(relaxed)
        return relaxed

    def _deadlock_diagnosis(self) -> str:
        """One-line explanation reported when a run degrades: a faulted
        run out of patience, or an async run that quiesced above target.

        Subclasses refine it with their belief state (what each process
        thinks its neighbors' norms are)."""
        plan = self._active_plan
        idle = ("once every process quiesced" if plan is None else
                f"for {plan.deadlock_patience} consecutive steps")
        return (f"no active process and nothing in flight {idle} "
                f"with global residual norm {self.global_norm():.3e} "
                f"still above target after {self.steps_taken} steps")

    def _delivered(self, arr: np.ndarray, emap: np.ndarray,
                   off: np.ndarray) -> np.ndarray:
        """The positions, in delivery order, of the delivered slots
        ``arr``'s entries in a store laid out by edge along ``off``
        (``emap``: its edge of each entry).  Every put of a method
        ascends by slot, so a batch that is one unfated put
        (``last_single_put``) is a boolean gather over ``emap``; any
        other — several puts, or one a fault plan reordered or doubled —
        keeps the ordered range gather."""
        plane = self.engine.flat
        eids = arr >> 1
        if plane.last_single_put:
            hit = np.zeros(plane.n_edges, dtype=bool)
            hit[eids] = True
            return hit.take(emap).nonzero()[0]
        return multi_arange(off[eids], off[eids + 1])

    def _apply_flat_epoch(self) -> None:
        """Apply every solve delta the last epoch close delivered and
        refresh the receivers' exact block norms.

        Read-phase helper: with synchronous epochs every message drained
        in a solve read phase is a solve update.  The whole epoch applies
        as one scatter-add over the global residual store — ``np.add.at``
        is unbuffered (index pairs apply sequentially in index order), so
        with the indices laid out in put order each residual entry sees
        its updates in per-message delivery order; different receivers'
        blocks are disjoint.  The receivers' norms refresh in one pass
        over :attr:`_row_segs` (each block's own ``ddot``, one BLAS call
        per distinct block length) and their flops in one vector add: one
        flop per applied entry, two per refreshed norm entry.

        Under a lossy fault plan the payloads are cumulative: adjacent
        duplicate deliveries (the only same-epoch repeats the single-slot
        mailboxes can produce) collapse to one, and each edge applies
        ``received − applied_so_far``.
        """
        plane = self.engine.flat
        mail = plane.mail_ranks
        plane.drain_all()
        flops = self._flops
        arr = plane.last_delivered
        if arr.size:
            if self._lossy and self._dedupe_dups and arr.size > 1:
                keep = np.empty(arr.size, dtype=bool)
                keep[0] = True
                np.not_equal(arr[1:], arr[:-1], out=keep[1:])
                arr = arr[keep]
            eids = arr >> 1
            idx = self._delivered(arr, self._vals_edge, plane.vals_off)
            if self._lossy:
                np.add.at(self._r_flat, self._grows_flat[idx],
                          plane.vals_flat[idx] - self._applied_flat[idx])
                self._applied_flat[idx] = plane.vals_flat[idx]
                np.add.at(flops, plane.edge_dst[eids],
                          2.0 * self._edge_recv_flops[eids])
            else:
                np.add.at(self._r_flat, self._grows_flat[idx],
                          plane.vals_flat[idx])
                np.add.at(flops, plane.edge_dst[eids],
                          self._edge_recv_flops[eids])
        if mail.size:
            self.norms[mail] = np.sqrt(self._row_segs.sq(mail))
            flops[mail] += 2.0 * self._rsize[mail]  # norm refresh charges

    # ------------------------------------------------------------------
    # event-driven async plane hooks (DESIGN.md §5.14)
    #
    # The AsyncExecutor drives one rank at a time in simulated-time
    # order; there are no epochs, so the lockstep step() phases decompose
    # into per-rank hooks.  The executor owns the generic work (deliver
    # solve payload deltas, refresh the norm, charge compute); these
    # hooks supply the method-specific protocol.  Base implementations
    # are Block Jacobi's (relax whenever the local residual is nonzero,
    # headerless solve messages, no repair traffic).
    # ------------------------------------------------------------------
    def _async_decide(self, p: int) -> bool:
        """Whether ``p`` relaxes on its async turn."""
        return float(self.norms[p]) > 0.0

    def _async_send(self, p: int, aplane, turn: int) -> list[int]:
        """Publish ``p``'s post-relax updates onto the async plane;
        returns the slot-ids that entered the network (drops excluded)."""
        kept = aplane.send(p, self._async_out[p], 0.0, 0.0,
                           self._async_nbytes[p], CATEGORY_SOLVE)
        self._async_capture_vals(p, kept)
        return kept

    def _async_bind(self, aplane) -> None:
        """Bind what the send/deliver hooks read, once per
        :meth:`AsyncExecutor.prepare` (``aplane``'s wire stores are new
        each time): per rank, its out-edges (= slab positions) as a
        range, its solve and residual slot-ids as lists, its solve
        fan-out's byte total and its wire ``vals`` slab; per edge, its
        ``(wire vals, vals)`` regions; per slot, the receiver's slab
        position."""
        plane = self.engine.flat
        off = self._nbr_off.tolist()
        spans = list(zip(off, off[1:]))
        self._async_edges = [range(lo, hi) for lo, hi in spans]
        solve = self._slab_solve_sids.tolist()
        self._async_out = [solve[lo:hi] for lo, hi in spans]
        self._async_res_out = [[s + 1 for s in out]
                               for out in self._async_out]
        self._async_nbytes = self._solve_nbytes_arr.tolist()
        self._async_wire_slab = self._rank_slabs(aplane.wire_vals)
        self._async_vals = list(zip(
            _rank_views(aplane.wire_vals, plane.vals_off),
            _rank_views(plane.vals_flat, plane.vals_off)))
        # scalar list reads beat ndarray indexing in the per-slot loops
        self._sid_slabpos_list = self._sid_slabpos.tolist()

    def _async_capture_vals(self, p: int, sids: list[int]) -> None:
        """Snapshot the ``vals`` regions of ``p``'s freshly stamped solve
        slots ``sids`` into the wire store (fates landed first — see
        :meth:`AsyncFlatPlane.send`): a whole fan-out is one slab copy
        (a rank's out-edges are consecutive), a subset one copy per
        slot."""
        if len(sids) == len(self._async_out[p]):
            self._async_wire_slab[p][...] = self._vals_slab[p]
        else:
            views = self._async_vals
            for sid in sids:
                w, v = views[sid >> 1]
                w[...] = v

    def _async_on_deliver(self, p: int, sids, fates: np.ndarray,
                          aplane) -> None:
        """Method-specific handling of freshly delivered slots (header
        scatters, ghost overwrites); the executor has already applied the
        solve payload deltas to ``r_p``.  ``sids`` is a list on the
        fault-free path and an ndarray, with per-slot ``fates``, under a
        fault plan."""

    def _async_repair(self, p: int, aplane, turn: int) -> int:
        """Method-specific repair traffic; returns messages sent."""
        return 0

    # ------------------------------------------------------------------
    # the flat relax phase (DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def _relax_one_flat(self, p: int) -> None:
        """One rank's relax-phase body: the async event loop's turn
        (a one-rank batch costs more) and the batch's form on large
        blocks.  DS extends it with its line-15 ghost update."""
        self._relax_send(p)
        if self._lossy:
            self._lossy_finalize_rank(p)

    def _relax_ranks(self, winners: np.ndarray) -> None:
        """The relax phase of the ascending distinct ranks ``winners``
        as one batched kernel, bit-identical to :meth:`_relax_one_flat`
        per rank: a winner touches only its own rows, mailbox slab,
        ghosts and Γ (DESIGN.md §5.8).  Every lockstep step opens with
        it, so the step's static maps exist from the first step on."""
        if not self._relax_plans() or winners.size == 0:
            for p in winners.tolist():      # large blocks (see the plans)
                self._relax_one_flat(p)
            return
        if self.tracer.enabled:
            self._trace_relax(winners)
        vidx, _ = self._relax_batch(winners)
        if self._lossy:
            self._lossy_finalize_send(vidx)

    def _relax_batch(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_relax_send` for all of the ascending ``W``; returns
        their fan-outs' mailbox positions and the slab mask of their
        out-edges.  A one-sweep ``gs`` system solves every batch through
        the whole block diagonal's one factor and keeps the winners'
        rows, so no rank's block is ever factored; other local solvers
        solve per block.  Every solve row and product row is computed
        exactly as per block, and the ``‖r_p‖`` are one pass over
        :attr:`_row_segs` — each block's own ``ddot``, one BLAS call per
        distinct block length (DESIGN.md §5.8).  Row and mailbox indices
        are boolean gathers over the static maps, no per-winner
        Python."""
        rstart = self._rstart
        won = np.zeros(self.system.n_parts, dtype=bool)
        won[W] = True
        rows = won.take(self._row_rank).nonzero()[0]
        whole = self.system.block_diag_solve()
        if whole is not None:
            dx = whole(self._r_flat)[rows]
        else:
            call, rb = self._solver_call, self.r_blocks
            dx = np.concatenate([(call[p] or self._bind_solve(p))(rb[p])
                                 for p in W.tolist()])
        if self.omega != 1.0:
            dx *= self.omega
        g = self._dx_flat
        g[rows] = dx
        # rank ranges of the matvecs' contiguous runs: winners fewer than
        # _BATCH_ROWS rows apart share one, since computing the rows
        # between them costs less than another kernel call
        head = np.ones(W.size, dtype=bool)
        head[1:] = rstart[W[1:]] - rstart[W[:-1] + 1] > _BATCH_ROWS
        last = np.ones(W.size, dtype=bool)
        last[:-1] = head[1:]
        runs = list(zip(W[head].tolist(), (W[last] + 1).tolist()))
        self._r_flat[rows] -= self._span_matvec(0, runs, g)[rows]
        self._x_flat[rows] += dx
        self.norms[W] = np.sqrt(self._row_segs.sq(W))
        self._flops[W] += self._relax_flops[W]
        self.total_relaxations += rows.size
        # A (−dx), as in _relax_send (−(A dx) differs in zero signs)
        g[rows] = np.negative(dx, out=dx)
        edges = won.take(self._slab_owner)
        vidx = edges.take(self._vals_edge).nonzero()[0]
        self.engine.flat.vals_flat[vidx] = self._span_matvec(1, runs, g)[vidx]
        return vidx, edges

    def _span_matvec(self, k: int, runs: list, x: np.ndarray) -> np.ndarray:
        """Store ``k`` (0 = diagonal blocks, 1 = couplings) times ``x`` on
        the rank ranges ``runs``, into the store's scratch output."""
        ptr, cols, data, cut, out = self._relax_csr[k]
        for p, q in runs:
            a, b = cut[p], cut[q]
            if b > a:
                csr_matvec(ptr[a:b + 1], cols, data, x, out[a:b])
        return out

    def _trace_relax(self, winners: np.ndarray) -> None:
        """The per-winner trace events of a batched relax phase, in
        ``winners`` order.  Subclasses add their extra events."""
        trc = self.tracer
        for p in winners.tolist():
            trc.relax(p)

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def _relax_send(self, p: int) -> None:
        """Relax rank ``p`` on its own: local solve, ``x_p``/``r_p``
        update, exact block norm, and the fan-out deltas written straight
        into its mailbox slab.

        ``sqrt(x·x)`` is exactly ``np.linalg.norm(x)`` for a contiguous
        float64 vector (numpy computes the 2-norm that way), and the one
        fused flop charge equals the per-term charges (solve, diagonal
        matvec, norm, fan-out matvec) because every term is an
        integer-valued float below 2**53.
        """
        if self.tracer.enabled:
            self.tracer.relax(p)
        r_p = self.r_blocks[p]
        dx = (self._solver_call[p] or self._bind_solve(p))(r_p)
        if self.omega != 1.0:
            dx *= self.omega            # dx is fresh from the solver
        ws = self._ws_mv[p]
        self._mv_diag[p](dx, ws)
        r_p -= ws
        self.x_blocks[p] += dx
        self.norms[p] = math.sqrt(np.dot(r_p, r_p))
        self._flops[p] += self._relax_flops[p]
        self.total_relaxations += r_p.size
        mv = self._mv_fanout[p]
        if mv is not None:
            # A (−dx) is bit-exactly −(A dx): negation is sign-symmetric
            # through IEEE multiply/add, so negating the input once
            # replaces one np.negative per coupling.  ws is free again
            # after the diagonal update above.
            ndx = np.negative(dx, out=ws)
            mv(ndx, self._vals_slab[p])

    def global_norm(self) -> float:
        """Exact global residual norm (diagnostic; no communication)."""
        return float(np.sqrt(np.sum(self.norms ** 2)))

    def wins_neighborhood(self, p: int, own_sq: float,
                          nbr_sq: np.ndarray) -> bool:
        """The Parallel Southwell criterion with a deterministic tie-break.

        ``p`` relaxes iff its squared norm is strictly the largest in its
        neighborhood; exact ties go to the lower rank so two adjacent
        processes never both claim a tie.
        """
        if own_sq <= 0.0:
            return False
        nbrs = self.system.neighbors_of(p)
        if nbrs.size == 0:
            return True
        m = float(nbr_sq.max()) if nbr_sq.size else -np.inf
        if own_sq > m:
            return True
        if own_sq == m:
            ties = nbrs[nbr_sq == m]
            return p < int(ties.min())
        return False

    def _wins_vector(self, own_sq: np.ndarray,
                     gamma_flat: np.ndarray) -> np.ndarray:
        """All ranks' relax decisions in one segment-max over the slab.

        ``own_sq`` is every rank's squared norm; ``gamma_flat`` holds the
        per-rank neighbor-norm arrays concatenated along ``_nbr_off``.
        Bit-identical to calling :meth:`wins_neighborhood` per rank (the
        rare exact-tie segments are settled by that very method).
        """
        pos = own_sq > 0.0
        wins = ~self._nbr_nonempty & pos
        if gamma_flat.size:
            off = self._nbr_off
            m = np.full(own_sq.size, -np.inf)
            m[self._nbr_nonempty] = np.maximum.reduceat(gamma_flat,
                                                        self._nbr_heads)
            wins |= pos & (own_sq > m)
            for p in (pos & self._nbr_nonempty
                      & (own_sq == m)).nonzero()[0]:
                p = int(p)
                wins[p] = self.wins_neighborhood(
                    p, float(own_sq[p]), gamma_flat[off[p]:off[p + 1]])
        return wins

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One parallel step; returns the number of active processes."""
        raise NotImplementedError  # pragma: no cover

    def run(self, x0: np.ndarray, b: np.ndarray, max_steps: int = 50,
            target_norm: float | None = None,
            stop_at_target: bool = False) -> ConvergenceHistory:
        """Run up to ``max_steps`` parallel steps.

        The paper's methodology runs a fixed number of steps and extracts
        target crossings afterwards by interpolation; ``stop_at_target``
        enables early exit for interactive use instead.
        """
        self.setup(x0, b)
        trc = self.tracer
        tracing = trc.enabled
        if tracing:
            trc.begin_run(self.name, self.system.n_parts)
        fr = self._faults
        quiet = 0
        for _ in range(max_steps):
            if tracing:
                trc.step_begin(self.steps_taken + 1)
            msgs_before = self.engine.stats.total_messages
            active = self.step()
            self.steps_taken += 1
            if tracing:
                trc.step_end(active)
            self.history.append(
                norm=self.global_norm(),
                relaxations=self.total_relaxations,
                parallel_steps=self.steps_taken,
                comm_cost=self.engine.stats.communication_cost(),
                time=self.engine.stats.elapsed_time(),
                active_fraction=active / self.system.n_parts)
            if (stop_at_target and target_norm is not None
                    and self.global_norm() <= target_norm):
                break
            if fr is not None:
                # graceful degradation (DESIGN.md §5.11): a fully
                # quiet step — nobody relaxed, nothing was sent,
                # nothing is in flight — cannot change any state, so
                # ``patience`` of them in a row with the residual
                # still up means the run is wedged; report the
                # deadlock instead of spinning
                if (active == 0
                        and self.engine.stats.total_messages
                        == msgs_before
                        and self.engine.in_flight == 0
                        and self.global_norm() > (target_norm or 0.0)):
                    quiet += 1
                    if quiet >= self._active_plan.deadlock_patience:
                        self.degraded = True
                        self.degraded_reason = \
                            self._deadlock_diagnosis()
                        break
                else:
                    quiet = 0
        self._finish_run()
        if tracing:
            trc.end_run(self.engine.stats,
                        faults=fr.summary() if fr is not None else None)
        return self.history

    def _finish_run(self) -> None:
        """End-of-run hook: after the last step, before the trace's stats
        footer is written, so anything it sends is counted there."""

    # ------------------------------------------------------------------
    # solution access
    # ------------------------------------------------------------------
    def solution(self) -> np.ndarray:
        """Assembled solution vector in *original* row numbering."""
        x = np.empty(self.system.n)
        x[self.system.perm] = self._x_flat
        return x

    def residual_vector(self) -> np.ndarray:
        """Assembled residual vector in original numbering (diagnostic)."""
        r = np.empty(self.system.n)
        r[self.system.perm] = self._r_flat
        return r
