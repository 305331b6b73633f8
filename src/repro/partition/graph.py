"""Adjacency-graph view of a sparse matrix, with edge weights.

The partitioner (like METIS) works on the undirected adjacency graph of the
matrix: vertices = rows, edges = symmetrised off-diagonal couplings, edge
weight = |a_ij| + |a_ji| (coupling strength), vertex weight = 1 (or row nnz
for work balancing).  The graph is stored CSR-style so all traversals are
numpy-sliceable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparsela import COOMatrix, CSRMatrix

__all__ = ["Graph", "matrix_graph"]


@dataclass
class Graph:
    """Undirected weighted graph in CSR adjacency form.

    ``xadj``/``adjncy`` follow the METIS convention: the neighbors of vertex
    ``u`` are ``adjncy[xadj[u]:xadj[u+1]]`` with edge weights ``adjwgt`` at
    the same positions (each undirected edge appears twice).  ``vwgt`` are
    vertex weights.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    def __post_init__(self) -> None:
        self._rows: np.ndarray | None = None
        self._lists: tuple[list, list, list] | None = None
        self._vwgt_list: list | None = None

    @property
    def n_vertices(self) -> int:
        return int(self.xadj.size - 1)

    def expanded_rows(self) -> np.ndarray:
        """Source vertex of every adjacency slot (cached ``np.repeat``).

        The CSR row-id expansion is recomputed by every cut evaluation
        and refinement pass; graphs are immutable after construction, so
        it is computed once per graph.
        """
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.n_vertices),
                                   self.degrees())
        return self._rows

    def adj_lists(self) -> tuple[list, list, list]:
        """``(xadj, adjncy, adjwgt)`` as flat Python lists (cached).

        The sequential greedy kernels (matching, FM refinement, BFS
        growing) run several times faster on list scalars than on numpy
        scalar indexing; each graph is visited by more than one kernel,
        so the conversion is done once and shared.
        """
        if self._lists is None:
            self._lists = (self.xadj.tolist(), self.adjncy.tolist(),
                           self.adjwgt.tolist())
        return self._lists

    def vwgt_list(self) -> list:
        """Vertex weights as a flat Python list (cached)."""
        if self._vwgt_list is None:
            self._vwgt_list = self.vwgt.tolist()
        return self._vwgt_list

    def drop_lists(self) -> None:
        """Forget the cached Python lists once the graph's last list
        kernel has run: a list holds an int object per slot, several
        times its array's bytes, and a bisection would otherwise keep
        every coarse level's alive (DESIGN.md §5.10)."""
        self._lists = self._vwgt_list = None

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjncy.size // 2)

    def neighbors(self, u: int) -> np.ndarray:
        """Adjacent vertices of ``u``."""
        return self.adjncy[self.xadj[u]:self.xadj[u + 1]]

    def edge_weights(self, u: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        return self.adjwgt[self.xadj[u]:self.xadj[u + 1]]

    def degree(self, u: int) -> int:
        """Number of neighbors of ``u``."""
        return int(self.xadj[u + 1] - self.xadj[u])

    def degrees(self) -> np.ndarray:
        """All vertex degrees."""
        return np.diff(self.xadj)

    def total_vertex_weight(self) -> int:
        """Sum of vertex weights."""
        return int(self.vwgt.sum())

    def validate(self) -> None:
        """Internal-consistency check (used by tests): symmetric adjacency,
        no self-loops, matching reciprocal weights."""
        n = self.n_vertices
        rows = np.repeat(np.arange(n), self.degrees())
        if np.any(rows == self.adjncy):
            raise ValueError("self-loop present")
        fwd = {}
        for u, v, w in zip(rows, self.adjncy, self.adjwgt):
            fwd[(int(u), int(v))] = float(w)
        for (u, v), w in fwd.items():
            if (v, u) not in fwd or fwd[(v, u)] != w:
                raise ValueError(f"edge ({u},{v}) not symmetric")


def matrix_graph(A: CSRMatrix, weighted: bool = True,
                 vertex_weight_nnz: bool = False) -> Graph:
    """Adjacency graph of a square matrix.

    The pattern is symmetrised (``A + A.T`` structurally); edge weight is
    ``|a_uv| + |a_vu|`` when ``weighted`` else 1.  ``vertex_weight_nnz``
    weights vertices by their row nnz (work proxy) instead of 1.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("adjacency graph needs a square matrix")
    n = A.n_rows
    rows = A._expanded_row_ids()
    off = rows != A.indices
    u = np.concatenate([rows[off], A.indices[off]])
    v = np.concatenate([A.indices[off], rows[off]])
    w = np.abs(np.concatenate([A.data[off], A.data[off]]))
    # Sum duplicate directed edges (a_uv and a_vu both present) into one
    # weight per direction by COO duplicate-summation.
    sym = COOMatrix(u, v, w, (n, n)).to_csr()
    adjwgt = (sym.data if weighted
              else np.ones(sym.nnz))
    vwgt = (A.row_counts().astype(np.int64) if vertex_weight_nnz
            else np.ones(n, dtype=np.int64))
    return Graph(xadj=sym.indptr.copy(), adjncy=sym.indices.copy(),
                 adjwgt=adjwgt.astype(np.float64), vwgt=vwgt)
