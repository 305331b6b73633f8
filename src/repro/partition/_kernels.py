"""Hot partitioner kernels: heavy-edge matching and FM refinement.

The multilevel partitioner spends essentially all its time in two inner
loops — the coarsening matcher (:func:`hem_match_fast`) and the boundary
refinement sweep (:func:`fm_refine_fast`) — called once per level per
bisection (255 bisections at P=256).  Both are *sequential greedy*
algorithms whose output the rest of the pipeline pins bit-for-bit (the
partition-label digests in ``tests/test_partition.py``), so they must
reproduce the seed's decisions exactly.  The seed loops (per-vertex
numpy slicing, ``heapq`` on tuples) are the test oracles
(``tests/oracles.py``) these kernels are checked against, byte for byte.

Both kernels run the seed's recurrences over flat Python lists (scalar
loads, no per-candidate ``np.any``/``np.argmax`` temporaries), which
beats per-vertex numpy slicing by ~7× at suite sizes; gain
initialisation and rollback stay whole-array.  IEEE float64 arithmetic
and tuple ordering are value-identical between numpy scalars and Python
floats, so the decision sequence — and hence the matching and the
refined bisection — is unchanged.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["fm_refine_fast", "hem_match_fast"]


# ----------------------------------------------------------------------
# heavy-edge matching
# ----------------------------------------------------------------------
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
def fm_refine_fast(g, side: np.ndarray, target0: float, lo: float,
                   hi: float, max_passes: int,
                   stall_limit: int) -> np.ndarray:
    """Decision-identical refinement on flat lists.

    Per pass, the gain initialisation is the same whole-array bincount;
    the move loop then runs on Python scalars.  Heap entries stay
    ``(-gain, vertex)`` tuples through the stdlib ``heapq``, so pop
    order (including stale-entry ties) matches the seed loop exactly;
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
            # integer: the seed loop's per-pass recomputation equals
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
