"""Breadth-first ordering over the sparsity pattern.

Operates on the (symmetrised) adjacency structure of a square CSR matrix;
the multicoloring code uses it (the paper assigns colors "using a
breadth-first traversal").
"""

from __future__ import annotations

import numpy as np

from repro.sparsela.csr import CSRMatrix

__all__ = ["bfs_order"]


def _neighbors(A: CSRMatrix, i: int) -> np.ndarray:
    cols, _ = A.row(i)
    return cols[cols != i]


def bfs_order(A: CSRMatrix, start: int = 0) -> np.ndarray:
    """Breadth-first visitation order covering every component.

    Components beyond the first are entered at their lowest-numbered
    unvisited row, so the order is a permutation of ``0..n-1``.
    """
    n = A.n_rows
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    seed = start
    while pos < n:
        if visited[seed]:
            seed = int(np.flatnonzero(~visited)[0])
        visited[seed] = True
        order[pos] = seed
        pos += 1
        head = pos - 1
        while head < pos:
            u = order[head]
            head += 1
            for v in _neighbors(A, int(u)):
                if not visited[v]:
                    visited[v] = True
                    order[pos] = v
                    pos += 1
        seed = start  # force re-seed lookup next component
    return order

