"""Multilevel recursive-bisection k-way partitioner (METIS substitute).

Pipeline per bisection (the classic multilevel scheme):

1. **Coarsen** with heavy-edge matching until the graph is small.
2. **Initial partition** of the coarsest graph by greedy graph growing.
3. **Uncoarsen**, projecting the bisection up and running FM boundary
   refinement at every level.

k-way partitions come from recursive bisection with proportional weight
targets, so any ``k`` (not just powers of two) is balanced.  Below a
bisection the two halves share nothing, so large halves are cut in two
forked processes (:func:`partition_graph`).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.partition.bisect import fm_refine, greedy_grow_bisection
from repro.partition.coarsen import coarsen_graph, coarsen_labels
from repro.partition.graph import Graph, matrix_graph
from repro.runtime import pool as _pool
from repro.sparsela import CSRMatrix

__all__ = ["multilevel_bisection", "partition_graph", "partition_matrix",
           "partition_matrix_coarse"]


def multilevel_bisection(g: Graph, fraction0: float = 0.5, seed: int = 0,
                         imbalance: float = 0.05) -> np.ndarray:
    """Bisect ``g`` with side 0 receiving ``fraction0`` of the vertex weight.

    Returns a 0/1 side array.
    """
    if not 0.0 < fraction0 < 1.0:
        raise ValueError("fraction0 must be in (0, 1)")
    target0_frac = fraction0
    levels = coarsen_graph(g, seed=seed)
    coarsest = levels[-1].graph if levels else g
    side = greedy_grow_bisection(
        coarsest, target0=target0_frac * coarsest.total_vertex_weight(),
        seed=seed)
    side = fm_refine(coarsest, side,
                     target0=target0_frac * coarsest.total_vertex_weight(),
                     imbalance=imbalance)
    coarsest.drop_lists()
    # project up through the hierarchy, refining at each level; each
    # graph's lists go once it is refined (no later kernel lists ``g``)
    for level, fine in zip(reversed(levels),
                           reversed([g] + [lv.graph for lv in levels[:-1]])):
        side = side[level.cmap]
        side = fm_refine(fine, side,
                         target0=target0_frac * fine.total_vertex_weight(),
                         imbalance=imbalance)
        fine.drop_lists()
    return side


def partition_graph(g: Graph, n_parts: int, seed: int = 0,
                    imbalance: float = 0.05) -> np.ndarray:
    """k-way partition by recursive multilevel bisection.

    Returns ``parts`` with ``parts[v] ∈ [0, n_parts)``, every part
    nonempty.  Part weights are proportional (each final part targets
    ``1/n_parts`` of the total vertex weight, to within ``imbalance`` per
    bisection).

    Where forking is safe and pays (:func:`_fork_width`,
    ``_FORK_MIN_VERTICES``), the two halves of a bisection are cut in
    two processes.  Every bisection's seed depends only on its place in
    the tree, so the labels are the serial ones byte for byte.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    n = g.n_vertices
    if n_parts > n:
        raise ValueError(f"cannot cut n={n} vertices into P={n_parts} "
                         "nonempty parts")
    parts = np.zeros(n, dtype=np.int64)
    if n_parts == 1:
        return parts
    # split the imbalance budget across the bisection levels so it does not
    # compound: (1 + eps)^levels ~= 1 + imbalance
    levels = max(1, int(np.ceil(np.log2(n_parts))))
    imbalance = imbalance / levels

    def recurse(vertices: np.ndarray, sub: Graph, k: int, base: int,
                depth: int, width: int) -> None:
        # invariant: vertices.size >= k, so no part can come out empty
        k0 = k // 2
        side = multilevel_bisection(sub, fraction0=k0 / k,
                                    seed=seed + 31 * depth + base,
                                    imbalance=imbalance)
        _make_room(sub, side, (k0, k - k0))

        def half(s: int, kk: int, b: int, w: int) -> np.ndarray:
            keep = np.flatnonzero(side == s)
            mine = vertices[keep]
            if kk == 1:
                parts[mine] = b
            else:
                recurse(mine, _induced_subgraph(sub, keep), kk, b,
                        depth + 1, w)
            return mine

        if (width > 1 and k0 > 1
                and np.count_nonzero(side) >= _FORK_MIN_VERTICES):
            try:
                child = _pool.ForkedCall(
                    lambda: parts[half(1, k - k0, base + k0, width // 2)])
            except OSError:
                pass                    # fork refused: cut both halves here
            else:
                with child:
                    half(0, k0, base, width // 2)
                    parts[vertices[side == 1]] = child.result()
                return
        half(0, k0, base, width)
        half(1, k - k0, base + k0, width)

    recurse(np.arange(n), g, n_parts, 0, 0, _fork_width())
    return parts


#: fork a bisection's side 1 only from this many vertices up.  On a
#: 2-core box a forked root saves ≈ 3 ms with a 512-vertex side 1,
#: 7–14 ms at 1 024 and 20–100 ms at 2 048, against ≈ 2–3 ms for fork +
#: reap at 40–940 MB parent RSS (DESIGN.md §5.10)
_FORK_MIN_VERTICES = 1024


def _fork_width() -> int:
    """CPUs the recursion may fan out over; 1 means it stays serial.

    Forking needs ``os.fork`` and no other thread (a fork copies locks
    another thread may hold).  Each fork halves the width, so a 4-CPU box
    forks at two depths of the tree.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _make_room(g: Graph, side: np.ndarray, need: tuple[int, int]) -> None:
    """Move vertices across the cut until side ``s`` holds ``need[s]``.

    A bisection of a tiny or lopsided subgraph can leave a side with
    fewer vertices than the parts it must cover, and its recursion would
    then leave a part empty.  The short side takes the other side's
    vertices most strongly tied to it (ties: lowest index).  A cut that
    already fits is left untouched, so partitions that were valid before
    this repair existed keep their labels.
    """
    for s in (0, 1):
        short = need[s] - np.count_nonzero(side == s)
        if short > 0:
            donors = np.flatnonzero(side != s)
            tie = np.bincount(g.expanded_rows(),
                              weights=g.adjwgt * (side[g.adjncy] == s),
                              minlength=g.n_vertices)[donors]
            side[donors[np.argsort(-tie, kind="stable")[:short]]] = s
            return


def _induced_subgraph(g: Graph, keep: np.ndarray) -> Graph:
    """Subgraph induced by the vertex set ``keep`` (renumbered 0..len-1)."""
    n = g.n_vertices
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    rows = g.expanded_rows()
    mask = (remap[rows] >= 0) & (remap[g.adjncy] >= 0)
    new_rows = remap[rows[mask]]
    new_cols = remap[g.adjncy[mask]]
    new_wgts = g.adjwgt[mask]
    # ``keep`` is sorted, so ``remap`` is order-preserving and the
    # filtered slots are already in row-major order — no sort needed
    counts = np.bincount(new_rows, minlength=keep.size)
    xadj = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(counts, out=xadj[1:])
    return Graph(xadj=xadj, adjncy=new_cols, adjwgt=new_wgts,
                 vwgt=g.vwgt[keep])


def partition_matrix(A: CSRMatrix, n_parts: int, seed: int = 0,
                     imbalance: float = 0.05,
                     weighted: bool = True) -> np.ndarray:
    """Partition the rows of a square matrix into ``n_parts`` subdomains.

    Convenience wrapper: builds the adjacency graph and runs
    :func:`partition_graph`.
    """
    return partition_graph(matrix_graph(A, weighted=weighted), n_parts,
                           seed=seed, imbalance=imbalance)


def partition_matrix_coarse(A: CSRMatrix, n_parts: int, seed: int = 0,
                            imbalance: float = 0.05, weighted: bool = True,
                            min_vertices: int | None = None) -> np.ndarray:
    """Memory-compact paper-scale partitioner: coarsen first, then cut.

    Collapses the graph with the in-place-relabel coarsening path
    (:func:`repro.partition.coarsen.coarsen_labels`, which never retains
    intermediate levels) down to ``min_vertices`` (default
    ``max(32 * n_parts, 4096)``), runs the full multilevel partitioner
    on the small coarse graph, and projects the labels back through the
    composed coarse map.  Skipping per-level FM refinement on the fine
    levels trades some edge-cut quality for a setup that is bounded by
    the coarsening sweep — the paper's regime of n ≥ 1M, P ≥ 4096 where
    recursive bisection of the full graph is the setup bottleneck
    (DESIGN.md §5.13).
    """
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    if min_vertices is None:
        # one contraction can nearly halve the graph past the threshold,
        # so leave a wide margin above n_parts for the coarse cut
        min_vertices = max(32 * n_parts, 4096)
    g = matrix_graph(A, weighted=weighted)
    labels, coarse, _ = coarsen_labels(g, min_vertices=min_vertices,
                                       seed=seed)
    cparts = partition_graph(coarse, n_parts, seed=seed,
                             imbalance=imbalance)
    return cparts[labels]
