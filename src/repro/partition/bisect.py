"""Bisection: greedy graph growing + Fiduccia-Mattheyses-style refinement.

These run on the *coarsest* graph of the multilevel hierarchy (initial
partition) and after every uncoarsening step (refinement), mirroring the
METIS phases.

:func:`fm_refine` runs its move loop in
:func:`repro.partition._kernels.fm_refine_fast`, which replays the seed's
greedy decision sequence exactly, so the refined bisection is
bit-identical to the seed's.
"""

from __future__ import annotations

import numpy as np

from repro.partition._kernels import fm_refine_fast
from repro.partition.graph import Graph

__all__ = ["fm_refine", "greedy_grow_bisection", "bisection_cut"]


def bisection_cut(g: Graph, side: np.ndarray) -> float:
    """Total weight of edges crossing the bisection ``side`` (0/1 array)."""
    crossing = side[g.expanded_rows()] != side[g.adjncy]
    return float(g.adjwgt[crossing].sum() / 2.0)


def greedy_grow_bisection(g: Graph, target0: float, n_tries: int = 4,
                          seed: int = 0) -> np.ndarray:
    """Grow side 0 by BFS from random seeds until it holds ``target0`` weight.

    Runs ``n_tries`` seeds and keeps the lowest-cut result.  ``target0`` is
    the desired total vertex weight of side 0 (absolute, not a fraction).
    Returns the 0/1 side array.

    The BFS runs on flat lists (same visit order and the same RNG call
    sequence as the seed implementation — one ``integers`` per try plus
    one ``choice`` per disconnected jump — so results are bit-identical).
    """
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    xa, adj, _ = g.adj_lists()
    vw = g.vwgt_list()
    best_side: np.ndarray | None = None
    best_cut = np.inf
    for t in range(max(1, n_tries)):
        start = int(rng.integers(n))
        side = [1] * n
        weight0 = 0.0
        frontier = [start]
        visited = bytearray(n)
        visited[start] = 1
        while frontier and weight0 < target0:
            nxt: list[int] = []
            for u in frontier:
                if weight0 >= target0:
                    break
                side[u] = 0
                weight0 += vw[u]
                for j in range(xa[u], xa[u + 1]):
                    v = adj[j]
                    if not visited[v]:
                        visited[v] = 1
                        nxt.append(v)
            frontier = nxt
            if not frontier and weight0 < target0:
                # disconnected: jump to any vertex still on side 1
                side_arr = np.array(side, dtype=np.int8)
                vis = np.frombuffer(visited, dtype=np.uint8).astype(bool)
                remaining = np.flatnonzero((side_arr == 1) & ~vis)
                if remaining.size == 0:
                    remaining = np.flatnonzero(side_arr == 1)
                if remaining.size == 0:
                    break
                s = int(rng.choice(remaining))
                visited[s] = 1
                frontier = [s]
        side_arr = np.array(side, dtype=np.int8)
        cut = bisection_cut(g, side_arr)
        if cut < best_cut:
            best_cut = cut
            best_side = side_arr
    assert best_side is not None
    return best_side


def fm_refine(g: Graph, side: np.ndarray, target0: float,
              imbalance: float = 0.05, max_passes: int = 4,
              stall_limit: int | None = None) -> np.ndarray:
    """Boundary FM refinement of a bisection (in place; also returned).

    Each pass greedily moves the best-gain boundary vertex whose move keeps
    side 0's weight within ``imbalance`` of ``target0``, locks it, and
    rolls back to the best prefix of moves.  A pass ends early after
    ``stall_limit`` consecutive non-improving moves (the hill the classic
    FM climbs over is shallow; unbounded exploration costs far more than it
    recovers).  Stops when a pass yields no improvement.
    """
    n = g.n_vertices
    total = float(g.vwgt.sum())
    lo = target0 - imbalance * total
    hi = target0 + imbalance * total
    if stall_limit is None:
        stall_limit = 64 + n // 64
    return fm_refine_fast(g, side, target0, lo, hi, max_passes, stall_limit)
