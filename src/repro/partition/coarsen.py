"""Graph coarsening via heavy-edge matching (the METIS coarsening phase).

Each coarsening level matches vertices with their heaviest-weight unmatched
neighbor; matched pairs contract to one coarse vertex whose weight is the
sum and whose edges accumulate parallel-edge weights.  Coarsening stops
when the graph is small enough or stops shrinking (high-degree graphs).

The matcher itself is the list-based kernel
:func:`repro.partition._kernels.hem_match_fast`, decision-identical to the
seed loop (pinned by the partition-label digests in
``tests/test_partition.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition._kernels import hem_match_fast
from repro.partition.graph import Graph

__all__ = ["CoarseLevel", "coarsen_graph", "coarsen_labels",
           "heavy_edge_matching", "matching_relabel"]


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy.

    ``cmap[v]`` is the coarse vertex containing fine vertex ``v``.
    """

    graph: Graph
    cmap: np.ndarray


def heavy_edge_matching(g: Graph, seed: int = 0) -> np.ndarray:
    """Heavy-edge matching: ``match[v]`` = partner of ``v`` (or ``v`` itself).

    Vertices are visited in random order; an unmatched vertex grabs its
    heaviest unmatched neighbor.  The result is a valid matching
    (``match[match[v]] == v``).
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n_vertices)
    return hem_match_fast(g, perm)


def matching_relabel(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Coarse labels for a matching: ``(cmap, n_coarse)``.

    The smaller endpoint of each pair names the coarse vertex, and
    coarse ids are assigned in increasing-leader order — so the id of a
    group is its leader's rank among all leaders, a single cumsum over
    the leader mask (no argsort needed).
    """
    n = match.size
    idx = np.arange(n)
    leader = np.minimum(idx, match)
    cid = np.cumsum(leader == idx) - 1
    cmap = cid[leader]
    nc = int(cid[-1]) + 1 if n else 0
    return cmap, nc


def contract(g: Graph, match: np.ndarray) -> CoarseLevel:
    """Contract a matching into the coarse graph."""
    cmap, nc = matching_relabel(match)

    cvwgt = np.bincount(cmap, weights=g.vwgt, minlength=nc).astype(np.int64)

    cu = cmap[g.expanded_rows()]
    cv = cmap[g.adjncy]
    keep = cu != cv                      # drop contracted (internal) edges
    # merge parallel edges: the COO duplicate-summation inlined (same
    # stable key sort + reduceat as COOMatrix.sum_duplicates, minus the
    # matrix-object validation passes on this hot path)
    keys = cu[keep] * nc + cv[keep]
    vals = g.adjwgt[keep]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    if keys.size:
        bnd = np.empty(keys.size, dtype=bool)
        bnd[0] = True
        np.not_equal(keys[1:], keys[:-1], out=bnd[1:])
        starts = np.flatnonzero(bnd)
        adjwgt = np.add.reduceat(vals, starts)
        ckeys = keys[starts]
    else:
        adjwgt = vals
        ckeys = keys
    xadj = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(ckeys // nc, minlength=nc), out=xadj[1:])
    coarse = Graph(xadj=xadj, adjncy=ckeys % nc, adjwgt=adjwgt, vwgt=cvwgt)
    return CoarseLevel(graph=coarse, cmap=cmap)


def coarsen_graph(g: Graph, min_vertices: int = 48, max_levels: int = 30,
                  shrink_threshold: float = 0.92, seed: int = 0
                  ) -> list[CoarseLevel]:
    """Full coarsening hierarchy, finest first.

    Stops at ``min_vertices``, after ``max_levels``, or when a level shrinks
    the vertex count by less than ``1 - shrink_threshold`` (matching has
    stalled).  Returns the list of levels; an empty list means the input was
    already small.
    """
    levels: list[CoarseLevel] = []
    current = g
    for lev in range(max_levels):
        if current.n_vertices <= min_vertices:
            break
        match = heavy_edge_matching(current, seed=seed + lev)
        if current is not g:
            # a coarse level's lists are read again only by its
            # refinement: converting twice keeps one level's lists
            # alive at a time.  ``g`` keeps its lists, since its own
            # refinement, which holds them, is the bisection's peak
            current.drop_lists()
        level = contract(current, match)
        if level.graph.n_vertices >= shrink_threshold * current.n_vertices:
            break
        levels.append(level)
        current = level.graph
    return levels


def coarsen_labels(g: Graph, min_vertices: int = 48, max_levels: int = 30,
                   shrink_threshold: float = 0.92, seed: int = 0
                   ) -> tuple[np.ndarray, Graph, int]:
    """Memory-compact coarsening: relabel in place, keep only one graph.

    Runs the exact :func:`coarsen_graph` schedule (same matchings, same
    stopping rules, bit-identical coarse graphs) but composes the level
    maps into one fine→coarsest label array as it goes, so intermediate
    graphs are freed immediately instead of being retained in a
    hierarchy — the difference between O(sum of level sizes) and
    O(finest + current) resident memory at million-row scale
    (DESIGN.md §5.13).

    Returns ``(labels, coarsest, n_levels)`` where
    ``labels[v] ∈ [0, coarsest.n_vertices)``; composing the cmaps of
    :func:`coarsen_graph` gives the identical array.
    """
    labels = np.arange(g.n_vertices, dtype=np.int64)
    current = g
    n_levels = 0
    for lev in range(max_levels):
        if current.n_vertices <= min_vertices:
            break
        match = heavy_edge_matching(current, seed=seed + lev)
        level = contract(current, match)
        if level.graph.n_vertices >= shrink_threshold * current.n_vertices:
            break
        labels = level.cmap[labels]
        current = level.graph       # previous level is dropped here
        n_levels += 1
    return labels, current, n_levels
