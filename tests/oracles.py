"""Test oracles: the seed's pure-python and numpy kernels, verbatim.

The package runs one kernel path — scipy's compiled CSR primitives
(:mod:`repro.sparsela.primitives`) and the list-based partitioner
kernels (:mod:`repro.partition._kernels`).  The straightforward loops
they replaced live here as ground truth: the suites check the run-time
kernels against them (to 1e-12, or byte for byte for the partitioner),
and the pinned digests were recorded on them.

- :func:`matvec` / :func:`rmatvec` — ``np.bincount`` gathers;
- :func:`solve_lower` — forward substitution, one python row loop;
- :func:`gauss_seidel_sweep` — the textbook per-row sweep, in any order;
- :func:`hem_match` / :func:`fm_refine` — the partitioner's seed loops
  (per-vertex numpy slicing, ``heapq`` on tuples), call-compatible with
  ``hem_match_fast`` / ``fm_refine_fast``;
- :class:`ChunkMailbox` — the flat plane's per-destination chunk-list
  mailboxes, fed each epoch's delivered slot-ids;
- :func:`payload_nbytes` — the per-message plane's wire size of a dict
  payload, which the methods' per-edge byte tables must reproduce.
"""

from __future__ import annotations

import heapq

import numpy as np


# ----------------------------------------------------------------------
# sparse linear algebra
# ----------------------------------------------------------------------
def matvec(A, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``A @ x`` as a weighted ``bincount`` over the entries' rows."""
    contrib = A.data * x[A.indices]
    y = np.bincount(A._expanded_row_ids(), weights=contrib,
                    minlength=A.n_rows)
    if out is not None:
        out[:] = y
        return out
    return y


def rmatvec(A, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``A.T @ y`` as a weighted ``bincount`` over the entries' columns."""
    contrib = A.data * y[A._expanded_row_ids()]
    x = np.bincount(A.indices, weights=contrib, minlength=A.n_cols)
    if out is not None:
        out[:] = x
        return out
    return x


def solve_lower(L, b: np.ndarray, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L y = b`` by forward substitution (python row loop).

    Strictly-upper entries are an error, as is a zero diagonal unless
    ``unit_diagonal``.
    """
    n = L.n_rows
    b = np.asarray(b, dtype=np.float64)
    y = np.zeros(n)
    for i in range(n):
        cols, vals = L.row(i)
        if cols.size and cols[-1] > i:
            raise ValueError("matrix has entries above the diagonal")
        diag = 1.0
        acc = b[i]
        for c, v in zip(cols, vals):
            if c == i:
                diag = v
            else:
                acc -= v * y[c]
        if not unit_diagonal:
            if diag == 0.0:
                raise ZeroDivisionError(f"zero diagonal at row {i}")
            acc /= diag
        y[i] = acc
    return y


def gauss_seidel_sweep(A, x: np.ndarray, b: np.ndarray,
                       order: np.ndarray | None = None) -> np.ndarray:
    """One Gauss-Seidel sweep, textbook per-row loop.

    Rows are relaxed in ``order`` (default natural order); each relaxation
    immediately uses the freshest values of its neighbours.
    """
    x = np.array(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    rows = range(A.n_rows) if order is None else order
    for i in rows:
        cols, vals = A.row(i)
        diag = 0.0
        acc = b[i]
        for c, v in zip(cols, vals):
            if c == i:
                diag = v
            else:
                acc -= v * x[c]
        if diag == 0.0:
            raise ZeroDivisionError(f"zero diagonal at row {i}")
        x[i] = acc / diag
    return x


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
def hem_match(g, perm: np.ndarray) -> np.ndarray:
    """The seed matcher: visit ``perm`` order, grab the heaviest unmatched
    neighbor (first one on ties, as ``np.argmax``)."""
    n = g.n_vertices
    match = np.full(n, -1, dtype=np.int64)
    for u in perm:
        if match[u] >= 0:
            continue
        nbrs = g.neighbors(u)
        wgts = g.edge_weights(u)
        free = match[nbrs] < 0
        if np.any(free):
            cand = nbrs[free]
            best = cand[np.argmax(wgts[free])]
            match[u] = best
            match[best] = u
        else:
            match[u] = u
    return match


def fm_refine(g, side: np.ndarray, target0: float, lo: float, hi: float,
              max_passes: int, stall_limit: int) -> np.ndarray:
    """The seed refinement loop (lazy-stale ``heapq`` entries,
    lexicographic best-prefix bookkeeping, rollback), in place on
    ``side``."""
    n = g.n_vertices
    rows = np.repeat(np.arange(n), np.diff(g.xadj))

    for _ in range(max_passes):
        # gain[v] = external weight - internal weight
        same = side[rows] == side[g.adjncy]
        ext = np.bincount(rows, weights=np.where(same, 0.0, g.adjwgt),
                          minlength=n)
        int_ = np.bincount(rows, weights=np.where(same, g.adjwgt, 0.0),
                           minlength=n)
        gain = ext - int_
        boundary = np.flatnonzero(ext > 0)
        if boundary.size == 0:
            break

        heap = [(-gain[v], int(v)) for v in boundary]
        heapq.heapify(heap)
        locked = np.zeros(n, dtype=bool)
        weight0 = float(g.vwgt[side == 0].sum())
        moves: list[int] = []
        cum = 0.0
        best_prefix = 0
        best_cum = 0.0
        best_in_band = lo <= weight0 <= hi
        cur_gain = gain.copy()
        stalled = 0

        while heap and stalled < stall_limit:
            negg, v = heapq.heappop(heap)
            if locked[v] or -negg != cur_gain[v]:
                continue  # stale heap entry
            new_w0 = (weight0 - g.vwgt[v] if side[v] == 0
                      else weight0 + g.vwgt[v])
            # accept in-band moves; when currently out of band (coarse
            # vertices are lumpy) also accept any move toward the target
            # so refinement can restore balance instead of freezing it
            feasible = lo <= new_w0 <= hi or (
                abs(new_w0 - target0) < abs(weight0 - target0))
            if not feasible:
                continue
            locked[v] = True
            cum += cur_gain[v]
            side[v] = 1 - side[v]
            weight0 = new_w0
            moves.append(v)
            in_band = lo <= weight0 <= hi
            # lexicographic: an in-band prefix always beats an
            # out-of-band one; among equals, larger cumulative gain wins
            if (in_band, cum) > (best_in_band, best_cum + 1e-12):
                best_in_band = in_band
                best_cum = cum
                best_prefix = len(moves)
                stalled = 0
            else:
                stalled += 1
            # edge (u, v) just became internal if the sides now agree
            # (u's gain drops by 2w), external otherwise
            for u, w in zip(g.neighbors(v), g.edge_weights(v)):
                if locked[u]:
                    continue
                delta = -2.0 * w if side[u] == side[v] else 2.0 * w
                cur_gain[u] += delta
                heapq.heappush(heap, (-cur_gain[u], int(u)))

        # roll back past the best prefix
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
        if best_cum <= 1e-12:
            break
    return side


# ----------------------------------------------------------------------
# message planes
# ----------------------------------------------------------------------
_HEADER_BYTES = 16  # tag + source + payload length, like an MPI envelope


def payload_nbytes(payload) -> int:
    """Wire size of a dict payload: array bytes + 8 per scalar + header.

    ``None`` fields are free; any other field type raises ``TypeError``.
    """
    total = _HEADER_BYTES
    for value in payload.values():
        if value is None:
            continue
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif np.isscalar(value):
            total += 8
        else:
            raise TypeError(f"unsupported payload field type {type(value)!r}")
    return total



class ChunkMailbox:
    """The flat plane's seed mailboxes: per destination a list of
    chunks (one per epoch, global put order within each), plus the set
    of ranks with undrained mail; receive counts tallied per rank."""

    def __init__(self, edge_dst: np.ndarray, n_procs: int):
        self.edge_dst = edge_dst
        self.visible = [[] for _ in range(n_procs)]
        self.mail = set()
        self.mail_ranks: list[int] = []
        self.recvs = np.zeros(n_procs, dtype=np.int64)

    def deliver(self, arr: np.ndarray) -> None:
        """Make one epoch's delivered slot-ids (fates applied, in
        delivery order) visible."""
        if arr.size:
            dsts = self.edge_dst[arr >> 1]
            order = np.argsort(dsts, kind="stable")
            sdst, sarr = dsts[order], arr[order]
            bounds = np.flatnonzero(
                np.concatenate(([True], sdst[1:] != sdst[:-1]))).tolist()
            group_dsts = sdst[bounds].tolist()
            bounds.append(arr.size)
            for k, d in enumerate(group_dsts):
                self.visible[d].append(sarr[bounds[k]:bounds[k + 1]])
                self.mail.add(d)
        self.mail_ranks = sorted(self.mail)

    def drain_all(self) -> dict[int, np.ndarray]:
        """Drain every mailbox; returns what each rank read."""
        read = {}
        for p in sorted(self.mail):
            read[p] = np.concatenate(self.visible[p])
            self.visible[p] = []
            self.recvs[p] += read[p].size
        self.mail.clear()
        return read
