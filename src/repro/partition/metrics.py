"""Partition quality metrics: edge cut, balance, subdomain connectivity."""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph, matrix_graph
from repro.sparsela import CSRMatrix

__all__ = ["edge_cut", "imbalance", "neighbor_lists", "parts_are_valid"]


def parts_are_valid(parts: np.ndarray, n_parts: int) -> bool:
    """Every label in range and every part nonempty."""
    parts = np.asarray(parts)
    if parts.size == 0:
        return n_parts == 0
    if parts.min() < 0 or parts.max() >= n_parts:
        return False
    return np.unique(parts).size == n_parts


def edge_cut(g: Graph, parts: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    rows = np.repeat(np.arange(g.n_vertices), g.degrees())
    crossing = parts[rows] != parts[g.adjncy]
    return float(g.adjwgt[crossing].sum() / 2.0)


def imbalance(g: Graph, parts: np.ndarray, n_parts: int) -> float:
    """``max part weight / ideal part weight`` (1.0 = perfectly balanced)."""
    weights = np.bincount(parts, weights=g.vwgt, minlength=n_parts)
    ideal = g.vwgt.sum() / n_parts
    return float(weights.max() / ideal)


def neighbor_lists(A: CSRMatrix, parts: np.ndarray,
                   n_parts: int) -> list[np.ndarray]:
    """For each part, the sorted array of parts it couples to in ``A``.

    Part ``q`` is a neighbor of ``p`` if some matrix entry connects a row of
    ``p`` with a column owned by ``q`` (symmetrised).  This is the process
    topology over which all solver messages flow.
    """
    rows = A._expanded_row_ids()
    pu = parts[rows]
    pv = parts[A.indices]
    mask = pu != pv
    pu, pv = pu[mask], pv[mask]
    # one int64 key per ordered pair (both directions), sorted by
    # (p, q) and deduplicated by one 1-D unique
    P = np.int64(n_parts)
    keys = np.unique(np.concatenate([pu * P + pv, pv * P + pu]))
    if keys.size == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n_parts)]
    nbr = (keys % P).astype(parts.dtype)
    split = np.searchsorted(keys, np.arange(n_parts + 1) * P).tolist()
    return [nbr[split[p]:split[p + 1]].copy() for p in range(n_parts)]
