"""Hot partitioner kernels: heavy-edge matching and FM refinement.

The multilevel partitioner spends essentially all its time in two inner
loops — the coarsening matcher (:func:`hem_match_*`) and the boundary
refinement sweep (:func:`fm_refine_*`) — called once per level per
bisection (255 bisections at P=256).  Both are *sequential greedy*
algorithms whose output the rest of the pipeline pins bit-for-bit (the
partition-label digests in ``tests/test_partition.py``), so every
implementation here must reproduce the seed's decisions exactly:

``*_reference``
    The seed loops verbatim (per-vertex numpy slicing, ``heapq`` on
    tuples).  Ground truth.
``*_fast``
    The default numpy-path kernels.  The matcher and the FM move loop —
    both sequential greedy through shared match/lock/gain state — run
    the same recurrences over flat Python lists (scalar loads, no
    per-candidate ``np.any``/``np.argmax`` temporaries), which beats
    per-vertex numpy slicing by ~7× at suite sizes; gain initialisation
    and rollback stay whole-array.  IEEE float64 arithmetic and tuple
    ordering are value-identical between numpy scalars and Python
    floats, so the decision sequence — and hence the matching and the
    refined bisection — is unchanged.
``make_numba_kernels``
    Optional nopython versions (via the ``numba`` backend).  The FM
    kernel embeds an exact replica of CPython's binary-heap routines so
    stale-entry pop order matches ``heapq`` tuple ordering.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "fm_refine_fast",
    "fm_refine_reference",
    "hem_match_fast",
    "hem_match_reference",
    "make_numba_kernels",
]


# ----------------------------------------------------------------------
# heavy-edge matching
# ----------------------------------------------------------------------
def hem_match_reference(g, perm: np.ndarray) -> np.ndarray:
    """The seed matcher, verbatim: visit ``perm`` order, grab the
    heaviest unmatched neighbor (first one on ties, as ``np.argmax``)."""
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


def hem_match_fast(g, perm: np.ndarray) -> np.ndarray:
    """Decision-identical flat-list sequential matcher.

    The strict ``>`` keeps the *first* maximum-weight free neighbor,
    which is exactly the seed's ``cand[np.argmax(wgts[free])]``; edge
    weights are non-negative (``|a_uv| + |a_vu|``) so the ``-1.0``
    sentinel never wins.
    """
    n = g.n_vertices
    xa, adj, wgt = g.adj_lists()
    match = [-1] * n
    for u in perm.tolist():
        if match[u] >= 0:
            continue
        best = -1
        bw = -1.0
        for j in range(xa[u], xa[u + 1]):
            v = adj[j]
            if match[v] < 0 and wgt[j] > bw:
                bw = wgt[j]
                best = v
        if best >= 0:
            match[u] = best
            match[best] = u
        else:
            match[u] = u
    return np.array(match, dtype=np.int64)


# ----------------------------------------------------------------------
# FM boundary refinement
# ----------------------------------------------------------------------
def fm_refine_reference(g, side: np.ndarray, target0: float, lo: float,
                        hi: float, max_passes: int,
                        stall_limit: int) -> np.ndarray:
    """The seed refinement loop, verbatim (lazy-stale ``heapq`` entries,
    lexicographic best-prefix bookkeeping, rollback)."""
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
            # apply move
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
            # update neighbor gains: edge (u, v) just became internal if
            # the sides now agree (u's gain drops by 2w), external
            # otherwise
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


def fm_refine_fast(g, side: np.ndarray, target0: float, lo: float,
                   hi: float, max_passes: int,
                   stall_limit: int) -> np.ndarray:
    """Decision-identical refinement on flat lists.

    Per pass, the gain initialisation is the same whole-array bincount;
    the move loop then runs on Python scalars.  Heap entries stay
    ``(-gain, vertex)`` tuples through the stdlib ``heapq``, so pop
    order (including stale-entry ties) matches the reference exactly;
    the gains themselves take identical float64 values because every
    update is the same ``±2w`` IEEE operation.
    """
    n = g.n_vertices
    rows = g.expanded_rows()
    adjncy = g.adjncy
    adjwgt = g.adjwgt
    xa, adj, wgt = g.adj_lists()
    vw = g.vwgt_list()
    pop = heapq.heappop
    push = heapq.heappush
    sides: list[int] | None = None
    weight0 = 0.0

    for _ in range(max_passes):
        same = side[rows] == side[adjncy]
        ext = np.bincount(rows, weights=np.where(same, 0.0, adjwgt),
                          minlength=n)
        int_ = np.bincount(rows, weights=np.where(same, adjwgt, 0.0),
                           minlength=n)
        boundary = np.flatnonzero(ext > 0)
        if boundary.size == 0:
            break

        cur_gain = (ext - int_).tolist()
        heap = [(-cur_gain[v], v) for v in boundary.tolist()]
        heapq.heapify(heap)
        locked = bytearray(n)
        if sides is None:
            # vertex weights are int64, so the side-0 weight is an exact
            # integer: the per-pass recomputation of the reference equals
            # this running value carried across passes bit-for-bit
            weight0 = float(g.vwgt[side == 0].sum())
            sides = side.tolist()
        moves: list[int] = []
        cum = 0.0
        best_prefix = 0
        best_cum = 0.0
        best_w0 = weight0
        best_in_band = lo <= weight0 <= hi
        stalled = 0

        while heap and stalled < stall_limit:
            negg, v = pop(heap)
            if locked[v] or -negg != cur_gain[v]:
                continue  # stale heap entry
            wv = vw[v]
            new_w0 = weight0 - wv if sides[v] == 0 else weight0 + wv
            if not (lo <= new_w0 <= hi or
                    abs(new_w0 - target0) < abs(weight0 - target0)):
                continue
            locked[v] = 1
            cum += cur_gain[v]
            sv = 1 - sides[v]
            sides[v] = sv
            weight0 = new_w0
            moves.append(v)
            in_band = lo <= weight0 <= hi
            if (in_band and not best_in_band) or (
                    in_band == best_in_band and cum > best_cum + 1e-12):
                best_in_band = in_band
                best_cum = cum
                best_prefix = len(moves)
                best_w0 = weight0
                stalled = 0
            else:
                stalled += 1
            for j in range(xa[v], xa[v + 1]):
                u = adj[j]
                if locked[u]:
                    continue
                w = wgt[j]
                gu = cur_gain[u] + (-2.0 * w if sides[u] == sv else 2.0 * w)
                cur_gain[u] = gu
                push(heap, (-gu, u))

        for v in moves[best_prefix:]:
            sides[v] = 1 - sides[v]
        weight0 = best_w0
        side[:] = sides
        if best_cum <= 1e-12:
            break
    return side


# ----------------------------------------------------------------------
# numba kernels (optional)
# ----------------------------------------------------------------------
def make_numba_kernels():
    """Compile nopython matching/refinement (raises without numba).

    Returns ``(nb_hem_match, nb_fm_pass)``.  The FM kernel runs one
    *pass* (the caller keeps the vectorised gain init and the pass loop
    in numpy) and hand-rolls CPython's ``heapq`` sift routines over
    parallel ``(key, vertex)`` arrays with lexicographic comparison, so
    the pop sequence is identical to tuple ordering in the reference.
    """
    import numba

    jit = numba.njit(cache=True, fastmath=False)

    @jit
    def nb_hem_match(xadj, adjncy, adjwgt, perm):
        n = xadj.size - 1
        match = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            u = perm[i]
            if match[u] >= 0:
                continue
            best = np.int64(-1)
            bw = -1.0
            for j in range(xadj[u], xadj[u + 1]):
                v = adjncy[j]
                if match[v] < 0 and adjwgt[j] > bw:
                    bw = adjwgt[j]
                    best = v
            if best >= 0:
                match[u] = best
                match[best] = u
            else:
                match[u] = u
        return match

    @jit
    def _less(hk, hv, a, b):
        # tuple order of (-gain, vertex): float key then vertex id
        if hk[a] != hk[b]:
            return hk[a] < hk[b]
        return hv[a] < hv[b]

    @jit
    def _siftdown(hk, hv, startpos, pos):
        # CPython heapq._siftdown with the item already at ``pos``
        nk = hk[pos]
        nv = hv[pos]
        while pos > startpos:
            parent = (pos - 1) >> 1
            pk = hk[parent]
            pv = hv[parent]
            if nk < pk or (nk == pk and nv < pv):
                hk[pos] = pk
                hv[pos] = pv
                pos = parent
                continue
            break
        hk[pos] = nk
        hv[pos] = nv

    @jit
    def _siftup(hk, hv, pos, endpos):
        # CPython heapq._siftup: bubble the hole down to a leaf, then
        # sift the displaced item back up
        startpos = pos
        nk = hk[pos]
        nv = hv[pos]
        childpos = 2 * pos + 1
        while childpos < endpos:
            rightpos = childpos + 1
            if rightpos < endpos and not _less(hk, hv, childpos, rightpos):
                childpos = rightpos
            hk[pos] = hk[childpos]
            hv[pos] = hv[childpos]
            pos = childpos
            childpos = 2 * pos + 1
        hk[pos] = nk
        hv[pos] = nv
        _siftdown(hk, hv, startpos, pos)

    @jit
    def nb_fm_pass(xadj, adjncy, adjwgt, vwgt, side, cur_gain, boundary,
                   weight0, target0, lo, hi, stall_limit):
        """One FM pass on ``side`` (in place); returns ``best_cum``."""
        n = xadj.size - 1
        # worst-case heap occupancy: the initial boundary plus one push
        # per touched edge per move (each move pushes deg(v) entries)
        cap = boundary.size + adjncy.size + 1
        hk = np.empty(cap)
        hv = np.empty(cap, dtype=np.int64)
        m = boundary.size
        for i in range(m):
            v = boundary[i]
            hk[i] = -cur_gain[v]
            hv[i] = v
        # heapify, exactly as CPython: _siftup from the last parent down
        for i in range(m // 2 - 1, -1, -1):
            _siftup(hk, hv, i, m)

        locked = np.zeros(n, dtype=np.uint8)
        moves = np.empty(n, dtype=np.int64)
        n_moves = 0
        cum = 0.0
        best_prefix = 0
        best_cum = 0.0
        best_in_band = lo <= weight0 <= hi
        stalled = 0

        while m > 0 and stalled < stall_limit:
            # heappop
            negg = hk[0]
            v = hv[0]
            m -= 1
            if m > 0:
                hk[0] = hk[m]
                hv[0] = hv[m]
                _siftup(hk, hv, 0, m)
            if locked[v] == 1 or -negg != cur_gain[v]:
                continue
            if side[v] == 0:
                new_w0 = weight0 - vwgt[v]
            else:
                new_w0 = weight0 + vwgt[v]
            if not (lo <= new_w0 <= hi or
                    abs(new_w0 - target0) < abs(weight0 - target0)):
                continue
            locked[v] = 1
            cum += cur_gain[v]
            sv = 1 - side[v]
            side[v] = sv
            weight0 = new_w0
            moves[n_moves] = v
            n_moves += 1
            in_band = lo <= weight0 <= hi
            if (in_band and not best_in_band) or (
                    in_band == best_in_band and cum > best_cum + 1e-12):
                best_in_band = in_band
                best_cum = cum
                best_prefix = n_moves
                stalled = 0
            else:
                stalled += 1
            for j in range(xadj[v], xadj[v + 1]):
                u = adjncy[j]
                if locked[u] == 1:
                    continue
                w = adjwgt[j]
                if side[u] == sv:
                    gu = cur_gain[u] - 2.0 * w
                else:
                    gu = cur_gain[u] + 2.0 * w
                cur_gain[u] = gu
                # heappush
                hk[m] = -gu
                hv[m] = u
                m += 1
                _siftdown(hk, hv, 0, m - 1)

        for i in range(best_prefix, n_moves):
            v = moves[i]
            side[v] = 1 - side[v]
        return best_cum

    return nb_hem_match, nb_fm_pass
